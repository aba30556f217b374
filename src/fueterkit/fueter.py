"""Monogenic function constructions over biaxial frames.

Every biaxial map is one construction: Delta^{mu+k+l+(m-2)/2} of the
seed's (u, v) put in the variant's shape and multiplied by Hk Hl.  The
shape is (u + omega nu v) for the plus variant and (omega u + nu v) for
the minus variant.  One core serves every path:

* ``_map_inputs`` checks a map's inputs in one order (variant, odd group
  dimensions, antiholomorphy or the mu lower bound, the two factor
  degrees, monogenic factors where the theorem needs them) and returns
  (mu, k, l); the Fischer route keeps that order but leaves each factor's
  degree to the one check ``fischer_decompose`` makes;
* ``_triples`` writes the shape times Hk Hl as two products
  W(r, rho) P(x) Q(y), the engine's one writing of the shape: (u, Hk, Hl)
  and (v r^-1 rho^-1, x Hk*, y Hl) for plus, (u r^-1, x Hk, Hl) and
  (v rho^-1, Hk*, y Hl) for minus, where Hk* is the grade involution of
  Hk because nu anticommutes with every x generator.  It reads the
  factors' forms (Hk, Hk*, x Hk, y Hl, ...) from form tables (``_forms``)
  that make each form on first use, so a caller that keeps a table makes
  each form once;
* ``radial.separated_laplacian_power`` assembles the products and takes
  Delta = Delta_x + Delta_y on them with scalar (r, rho) tables and one
  group-scope Laplacian chain per distinct factor, never a full-scope
  Laplacian of the integrand, and returns the output in its normal form.
  ``_laplacian_map`` calls it and verifies the output:
  ``ft_plus`` / ``ft_minus`` with mu = 0, antiholomorphic seeds and general
  homogeneous factors, ``ft_mu`` with the seed's order (or an upward
  override) and monogenic factors.  The closed form, the Fischer route
  and ``extract_components`` call it with n = 0, the plain product.  The
  definition route, ``selfcheck.definition_map``, is a cross-check: the
  full-scope Laplacian power of the omega/nu shape times Hk Hl.

``ft_closed_form`` evaluates ``ft_mu`` as the top term of Lemma 5
(``bivariate.laplacian_expansion``), written once in ``_top_term``: an
``expansion_coefficient`` and multinomial constant times the pair that
``bivariate.operator_term`` builds from the seed, in the variant's shape.
``ft_general_via_fischer`` splits general factors into monogenic Fischer
layers (``fischer_decompose``: each layer the projection series of one
entry of the factor's Dirac chain, with xvec^2 = -R^2 read as a radius
shift, so a layer is E + xvec O, one product by the group vector) and writes
each layer pair (n1, n2) as the triples of one closed form, with no
Laplacian: the pair's target variant is the input variant when n1 + n2
is even and the other one when it is odd, its seed is multiplied by the
parity monomial (with the sign (-1)^{n1} for the minus variant), and the
x layer enters as its n2-fold grade involution.  Each layer's forms are
made once per call and shared by its pairs, the triples of all pairs are
assembled once, and the sum must agree with the direct maps exactly.

A single-axis pipeline (``fueter_classical`` and its closed form, one
shared body) covers the generalized Cauchy-Riemann construction for
holomorphic seeds; its closed form is ``_top_term`` at (p, q) = (1, m).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, count
from math import prod
from typing import Callable

from .bivariate import (
    BiaxialParams,
    BivariateRadial,
    expansion_coefficient,
    multinomial,
    operator_term,
)
from .errors import PreconditionError, ShapeError, VerificationError
from .frame import AxisFrame
from .radial import (
    GROUP_SCOPES,
    RadialExpr,
    SCOPE_CR,
    SCOPE_FULL,
    _radial_shift,
    dirac,
    is_monogenic,
    laplacian_power,
    omega,
    proportionality_constant,
    separated_laplacian_power,
    vector_x,
    vector_y,
)
from .seeds import SeedFunction, lift_to_radial, parity_monomial, split_uv

VARIANT_PLUS = "plus"
VARIANT_MINUS = "minus"

# A factor's form table (``_forms``): (star, times) -> the form
_Forms = Callable[[bool, bool], RadialExpr]


@dataclass(frozen=True)
class BiaxialComponents:
    """Scalar pair of a biaxial monogenic function.

    kind "plus" holds (A, B) from (A + omega nu B) Pk Pl, kind "minus"
    holds (C, D) from (omega C + nu D) Pk Pl.
    """

    kind: str
    first: BivariateRadial
    second: BivariateRadial


@dataclass(frozen=True)
class FischerLayer:
    """One layer of a Fischer decomposition: the monogenic component at
    vector-power shift n."""

    n: int
    component: RadialExpr


def _check_variant(variant: str) -> None:
    if variant not in (VARIANT_PLUS, VARIANT_MINUS):
        raise ValueError(f"variant must be 'plus' or 'minus', got {variant!r}")


def homogeneous_group_degree(expr: RadialExpr, group: str) -> int:
    """Degree of a nonzero homogeneous polynomial supported purely on one
    axial group (coordinates and coefficient blades alike).

    The normal form may carry the group's squared radius: an x-group
    factor can hold r^e and a y-group factor rho^e, with even exponents
    e >= 0; they count towards the degree.  One walk over the rows of the
    canonical form collects the classes (e, d), R^e times a monomial of
    degree d in the group's coordinates, and names the first row that
    leaves the group: a coordinate outside it, a blade outside its algebra
    or a nonzero exponent of the other radius.  The canonical read stays
    for two reasons.  Its rows come sorted, so equal factors, whatever
    order their terms were built in, name the same fault.  And it is the
    one ``canonical_terms`` call on the benchmark's map paths, so the
    benchmark's canonical layer is measured through it."""
    rows = expr.canonical_terms()
    frame = expr.frame
    idxs = frame.group_indices(group)
    if not idxs:
        raise PreconditionError("frame has no second axial group")
    part = slice(idxs.start, idxs.stop)
    lo, hi = frame.generator_of(idxs.start), frame.generator_of(idxs.stop - 1)
    classes: dict[tuple[int, int], None] = {}
    for mono, blade, a, b in rows:
        d = sum(mono[part])
        if d != sum(mono):
            i = next(i for i, e in enumerate(mono) if e and i not in idxs)
            raise PreconditionError(f"factor uses coordinate {frame.coord_name(i)} outside the {group} group")
        if blade and (blade[0] < lo or blade[-1] > hi):
            raise PreconditionError(f"factor has coefficient blade {blade} outside the {group} group algebra")
        e, other = (a, b) if group == "x" else (b, a)
        if other:
            raise PreconditionError(f"factor is not a polynomial (radial exponents {a}, {b} remain)")
        classes[e, d] = None
    if not classes:
        raise PreconditionError(f"the zero expression is not a valid {group}-group factor")
    for e, _d in classes:
        if e < 0 or e % 2:
            raise PreconditionError(f"factor is not a polynomial (its group's radius has exponent {e})")
    degrees = {e + d for e, d in classes}
    if len(degrees) != 1:
        raise PreconditionError(f"factor is not homogeneous: degrees {sorted(degrees)}")
    return degrees.pop()


def _map_order(seed: SeedFunction, frame: AxisFrame, variant: str, mu: int | None, monogenic: bool) -> int:
    """Check the inputs of a biaxial map other than its factors; returns mu.

    ``monogenic`` picks the theorem: False for the direct maps, which take
    mu = 0, an antiholomorphic seed and any homogeneous factors; True for
    the higher-order maps, where mu defaults to the seed's recomputed
    order, may only be overridden upward, and both factors must be
    monogenic for their group's Dirac operator.
    """
    _check_variant(variant)
    if frame.q < 1:
        raise PreconditionError("biaxial maps need a second axial group (q >= 1)")
    if frame.p % 2 == 0 or frame.q % 2 == 0:
        raise PreconditionError(f"group dimensions must both be odd, got p={frame.p}, q={frame.q}")
    if not monogenic:
        if not seed.is_antiholomorphic():
            raise PreconditionError("seed must be antiholomorphic (d/dz w = 0) for this map")
    elif mu is None:
        mu = seed.mu
    elif mu < seed.mu:
        raise PreconditionError(f"declared order mu={mu} is below the seed's verified order {seed.mu}")
    return mu


def _map_inputs(seed: SeedFunction, hk: RadialExpr, hl: RadialExpr, frame: AxisFrame,
                variant: str, mu: int | None, monogenic: bool) -> tuple[int, int, int]:
    """Check the inputs of a biaxial map; returns (mu, k, l): ``_map_order``,
    then the factor degrees, then for the higher-order maps the factors'
    monogenicity."""
    mu = _map_order(seed, frame, variant, mu, monogenic)
    k = homogeneous_group_degree(hk, "x")
    l = homogeneous_group_degree(hl, "y")
    if monogenic:
        _require_monogenic("Pk", hk, "x")
        _require_monogenic("Pl", hl, "y")
    return mu, k, l


def _require_monogenic(name: str, factor: RadialExpr, group: str) -> None:
    if not is_monogenic(factor, GROUP_SCOPES[group]):
        raise PreconditionError(f"{name} must be monogenic for its group Dirac operator")


def _lifted_uv(seed: SeedFunction) -> tuple[BivariateRadial, BivariateRadial]:
    u, v, den = split_uv(seed.w)
    return lift_to_radial(u, den), lift_to_radial(v, den)


# The assertion that a zero Dirac image in each verifying scope makes.
_ASSERTIONS = {SCOPE_FULL: "monogenicity", SCOPE_CR: "Cauchy-Riemann"}


def _verified(out: RadialExpr, scope: str, what: str) -> RadialExpr:
    """out, once its Dirac image in ``scope`` is zero: every map's output
    check.  It leaves out's normal form cached for printing and ``==``."""
    if not is_monogenic(out, scope):
        raise VerificationError(f"{what} output failed its {_ASSERTIONS[scope]} assertion")
    return out


def _forms(factor: RadialExpr, group: str) -> _Forms:
    """The form table of a factor in its group: form(star, times) is the
    factor, or its grade involution when ``star``, times the group's
    vector when ``times``.  Each form is made on its first use and then
    kept, as the same object, for as long as the caller keeps the table."""
    vector = vector_x(factor.frame) if group == "x" else vector_y(factor.frame)

    @cache
    def form(star: bool, times: bool) -> RadialExpr:
        if times:
            return vector * form(star, False)
        return factor.grade_involution() if star else factor

    return form


def _triples(variant: str, u: BivariateRadial, v: BivariateRadial,
             hk: _Forms, hl: _Forms) -> list[tuple[BivariateRadial, RadialExpr, RadialExpr]]:
    """The variant's shape of (u, v) times Hk Hl as triples (W, P, Q) for
    W(r, rho) P(x) Q(y): the head of every biaxial map.  hk and hl are the
    factors' form tables (``_forms``), so only the forms the variant uses
    are made, and a caller that keeps a table makes each of them once.

    plus: (u, Hk, Hl) and (v r^-1 rho^-1, x Hk*, y Hl); minus: (u r^-1, x Hk,
    Hl) and (v rho^-1, Hk*, y Hl).  Hk* is the grade involution of Hk (even
    part minus odd part): nu moves left past Hk's x generators."""
    if variant == VARIANT_PLUS:
        return [(u, hk(False, False), hl(False, False)), (v.shift(-1, -1), hk(True, True), hl(False, True))]
    return [(u.shift(-1, 0), hk(False, True), hl(False, False)), (v.shift(0, -1), hk(True, False), hl(False, True))]


def _involuted(hk: _Forms) -> _Forms:
    """The form table of the grade involution of hk's factor, read from hk's."""
    return lambda star, times: hk(not star, times)


def _laplacian_map(seed: SeedFunction, hk: RadialExpr, hl: RadialExpr, frame: AxisFrame,
                   variant: str, mu: int | None, monogenic: bool) -> RadialExpr:
    """Delta^{mu+k+l+(m-2)/2} of the variant's shape of (u, v) times Hk Hl,
    taken group by group on the integrand's triples and verified to be
    monogenic before it is returned."""
    mu, k, l = _map_inputs(seed, hk, hl, frame, variant, mu, monogenic)
    n = mu + k + l + (frame.m - 2) // 2
    out = separated_laplacian_power(_triples(variant, *_lifted_uv(seed), _forms(hk, "x"), _forms(hl, "y")), n)
    return _verified(out, SCOPE_FULL, f"order-{mu} {variant}-map")


def ft_plus(seed: SeedFunction, hk: RadialExpr, hl: RadialExpr, frame: AxisFrame) -> RadialExpr:
    """Delta^{k+l+(m-2)/2} [(u + omega nu v) Hk Hl] for antiholomorphic seeds."""
    return _laplacian_map(seed, hk, hl, frame, VARIANT_PLUS, 0, monogenic=False)


def ft_minus(seed: SeedFunction, hk: RadialExpr, hl: RadialExpr, frame: AxisFrame) -> RadialExpr:
    """Delta^{k+l+(m-2)/2} [(omega u + nu v) Hk Hl] for antiholomorphic seeds."""
    return _laplacian_map(seed, hk, hl, frame, VARIANT_MINUS, 0, monogenic=False)


def ft_mu(seed: SeedFunction, pk: RadialExpr, pl: RadialExpr, frame: AxisFrame,
          variant: str, mu: int | None = None) -> RadialExpr:
    """Higher-order map Delta^{mu+k+l+(m-2)/2} of the variant integrand.

    Pk and Pl must be homogeneous monogenic; mu defaults to the seed's
    recomputed order and may only be overridden upward.
    """
    return _laplacian_map(seed, pk, pl, frame, variant, mu, monogenic=True)


def ft_closed_form(seed: SeedFunction, pk: RadialExpr, pl: RadialExpr, frame: AxisFrame,
                   variant: str, mu: int | None = None) -> RadialExpr:
    """Closed form of ``ft_mu``, the top term of Lemma 5:
    (2k+p-1)!! (2l+q-1)!! multinomial(n; j1, j2) times the shape of the
    pair that ``bivariate.operator_term`` builds from the seed's u and v.

    The output is verified to be monogenic before it is returned."""
    mu, k, l = _map_inputs(seed, pk, pl, frame, variant, mu, monogenic=True)
    top = _top_term(seed, frame.p, frame.q, k, l, mu, variant)
    out = separated_laplacian_power(_triples(variant, *top, _forms(pk, "x"), _forms(pl, "y")), 0)
    return _verified(out, SCOPE_FULL, f"{variant} closed form")


def _top_term(seed: SeedFunction, p: int, q: int, k: int, l: int, mu: int,
              variant: str) -> tuple[BivariateRadial, BivariateRadial]:
    """Lemma 5's top term for the seed's (u, v): the term (j1, j2) = (k +
    (p-1)/2, l + (q-1)/2) of order n = mu + k + l + (p+q-2)/2, weight
    (2k+p-1)!! (2l+q-1)!! multinomial(n; j1, j2).  u's summand carries
    omega^s1 nu^0 and v's omega^(1-s1) nu^1, s1 = 1 for minus, 0 for plus."""
    n = mu + k + l + (p + q - 2) // 2
    j1, j2 = k + (p - 1) // 2, l + (q - 1) // 2
    s1 = 1 if variant == VARIANT_MINUS else 0
    constant = multinomial(n, j1, j2) * expansion_coefficient(j1, j2, BiaxialParams(k, l, p, q))
    u, v = _lifted_uv(seed)
    return constant * operator_term(u, n, j1, j2, s1, 0), constant * operator_term(v, n, j1, j2, 1 - s1, 1)


def _classical(seed: SeedFunction, pk: RadialExpr, m: int, closed: bool) -> RadialExpr:
    """The single-axis map of a holomorphic seed over (p, q) = (m, 0) with
    the scalar axis: the Laplacian power of (u + omega v) PK, or with
    ``closed`` its closed form, Lemma 5's top term at (p, q) = (1, m) and
    (k, l) = (0, K).  Slot 1 of u and v holds the X0 power, which that
    term leaves alone, and slot 2 the R power, which takes its operators."""
    frame = pk.frame
    if frame.p != m or frame.q != 0 or not frame.scalar_axis:
        raise PreconditionError(
            "classical maps need PK over a single-axis frame with scalar axis "
            f"(p={m}, q=0); got p={frame.p}, q={frame.q}, scalar_axis={frame.scalar_axis}")
    if m % 2 == 0:
        raise PreconditionError(f"ambient dimension must be odd, got m={m}")
    if not seed.is_holomorphic():
        raise PreconditionError("seed must be holomorphic (d/dzbar w = 0) for the classical map")
    deg_k = homogeneous_group_degree(pk, "x")
    _require_monogenic("PK", pk, "x")
    u, v = _top_term(seed, 1, m, 0, deg_k, 0, VARIANT_PLUS) if closed else _lifted_uv(seed)
    head = (RadialExpr.from_bivariate_classical(frame, u)
            + omega(frame) * RadialExpr.from_bivariate_classical(frame, v))
    if closed:
        return _verified(head * pk, SCOPE_CR, "classical closed form")
    return _verified(laplacian_power(head * pk, deg_k + (m - 1) // 2, SCOPE_CR), SCOPE_CR, "classical map")


def fueter_classical(seed: SeedFunction, pk: RadialExpr, m: int) -> RadialExpr:
    """(d2/dX0^2 + Delta_X)^{K+(m-1)/2} [(u(X0, R) + (X/R) v(X0, R)) PK]
    for a holomorphic seed and odd m; output lies in the kernel of the
    generalized Cauchy-Riemann operator d/dX0 + Dirac."""
    return _classical(seed, pk, m, closed=False)


def classical_closed_form(seed: SeedFunction, pk: RadialExpr, m: int) -> RadialExpr:
    """Lemma 5's top term at (p, q) = (1, m), (k, l) = (0, K):
    (2K+m-1)!! ((R^{-1} d_R)^{K+(m-1)/2} u + (X/R)(d_R R^{-1})^{K+(m-1)/2} v) PK."""
    return _classical(seed, pk, m, closed=True)


# -- Fischer decomposition --------------------------------------------------


def fischer_decompose(h: RadialExpr, group: str = "x") -> list[FischerLayer]:
    """Layers P_{K-n} with sum_n xvec^n P_{K-n} = H and every layer monogenic.

    The input must be a nonzero homogeneous polynomial supported purely on
    the chosen group; D is the group's Dirac operator, dim its dimension
    and R its radius (r for x, rho for y).  From D(xvec f) = -dim f - xvec
    D f - 2 E f (E the Euler operator, e_j^2 = -1) and D(r^2 f) = 2 xvec f
    + r^2 D f, D(xvec^s M) = c(s, d) xvec^(s-1) M for monogenic M of degree
    d, with c(s, d) = -s for even s and -(s - 1 + 2d + dim) for odd s
    (Delanghe, Sommen and Soucek, *Clifford Algebra and Spinor-Valued
    Functions*, 1992).  So P_d, d = K - n, is the monogenic part of D^n H
    over c_n = prod_{s<=n} c(s, d), and every layer is read off one chain
    H, D H, ..., D^K H by the projection series sum_j a_j xvec^j D^(n+j) H,
    a_0 = 1, a_j = a_{j-1}/(dim + 2d - j - 1) for odd j and -a_{j-1}/j for
    even j.  Since xvec^2 = -R^2, xvec^j = (-1)^(j//2) R^(j - j%2)
    xvec^(j%2).  With that sign folded in, b_0 = 1/c_n, b_j = b_{j-1}/(dim
    + 2d - j - 1) for odd j and b_{j-1}/j for even j, every divisor
    positive (j <= d), and the layer is E + xvec O with E = sum_{j even}
    b_j R^j D^(n+j) H and O = sum_{j odd} b_j R^(j-1) D^(n+j) H, O one
    linear combination and E + xvec O another.  The chain
    starts at H's normal form, Dirac stores its images in normal form and
    a radius shift keeps it, so the one product by xvec per layer leaves
    x_p (or y_q) at most squared and the layer check's normal form
    rewrites only that square.  The unique decomposition is verified by
    per-layer monogenicity and by exact reconstruction, the same series
    with the sign (-1)^(n//2) and one more product by xvec; a failure is
    reported as an engine bug.
    """
    frame = h.frame
    degree = homogeneous_group_degree(h, group)
    dim, scope = len(frame.group_indices(group)), GROUP_SCOPES[group]
    xv, ra, rb = (vector_x(frame), 1, 0) if group == "x" else (vector_y(frame), 0, 1)

    def series(terms) -> RadialExpr:
        # sum_j c_j xvec^j f_j over (j, c_j, f_j), the signs of xvec^j folded
        # into c_j, as two linear combinations: the odd terms, then the even
        # ones beside xvec times that sum.  R^(j - j%2) f_j is a key shift
        # applied as the combination copies f_j's rows; every f_j holds R
        # to powers in [0, degree]
        even, odd = parts = ([], [])
        for j, c, f in terms:
            s = j - j % 2
            parts[j % 2].append((f, c, _radial_shift(frame.m, ra * s, rb * s, ra * degree, rb * degree)))
        return h._combination([*even, (xv * h._combination(odd), 1)])

    chain = list(accumulate(range(degree), lambda f, _: dirac(f, scope), initial=h.canonicalized()))
    layers: list[FischerLayer] = []
    for n in range(degree + 1):
        d = degree - n
        c_n = prod(-(s - 1 + 2 * d + dim) if s % 2 else -s for s in range(1, n + 1))
        coeffs = accumulate(range(1, d + 1), lambda b, j: b / (dim + 2 * d - j - 1 if j % 2 else j),
                            initial=Fraction(1, c_n))
        layers.append(FischerLayer(n, series(zip(count(), coeffs, chain[n:]))))
    for layer in reversed(layers):
        if not is_monogenic(layer.component, scope):
            raise VerificationError(f"Fischer layer n={layer.n} is not monogenic")
    if series((layer.n, (-1) ** (layer.n // 2), layer.component) for layer in layers) != h:
        raise VerificationError("Fischer reconstruction does not reproduce the input")
    return layers


# -- general homogeneous factors through Fischer routing --------------------


def ft_general_via_fischer(seed: SeedFunction, hk: RadialExpr, hl: RadialExpr,
                           frame: AxisFrame, variant: str = VARIANT_PLUS) -> RadialExpr:
    """Route general homogeneous factors through monogenic layers.

    The layer pair (n1, n2) contributes a higher-order map of order
    n1 + n2 with the seed multiplied by the signed monomial h(x, y) of
    ``parity_monomial``.  The rule: the target variant is the input variant
    when n1 + n2 is even and the other one when it is odd; the seed is
    multiplied by (-1)^{n1} h for the minus variant and by h for the plus
    variant; and the x layer enters as its n2-fold grade involution,
    because its odd-valued part anticommutes past the n2 second-group
    vectors.  Each pair is one closed form, linear in the x layer: the
    triples (``_triples``) of ``_top_term``'s pair.  Every layer has one form table
    (``_forms``) per call, so its forms (P, P*, x P and x P* for an x layer,
    Q and y Q for a y layer) are each made once, on first use, and every
    pair's triples hold those same objects.  The triples of every pair are
    summed in one product assembly (``separated_laplacian_power`` with
    n = 0), which chains each shared factor once and returns the sum in its
    normal form, and only the sum is verified.  It equals the
    direct ``ft_plus`` / ``ft_minus`` output exactly.  The route shares the product
    assembly (``_triples``) with the direct maps, but takes no Laplacian:
    the Fischer layers, the routing signs and Lemma 5's ``operator_term``
    constant are checked against the direct maps' Laplacian chains.  The
    inputs are checked once, in ``_map_inputs``' order: ``_map_order``, then
    each factor's degree by ``fischer_decompose``, whose last layer has
    n = K (or L).  A pair's degrees are (K - n1, L - n2), and the grade
    involution of a monogenic layer is monogenic, because Dirac maps
    even-valued to odd-valued expressions and back.
    """
    _map_order(seed, frame, variant, 0, monogenic=False)
    layers_x, layers_y = fischer_decompose(hk, "x"), fischer_decompose(hl, "y")
    big_k, big_l = layers_x[-1].n, layers_y[-1].n
    forms_x = [(lx.n, _forms(lx.component, "x")) for lx in layers_x if not lx.component.is_zero()]
    forms_y = [(ly.n, _forms(ly.component, "y")) for ly in layers_y if not ly.component.is_zero()]
    other = VARIANT_MINUS if variant == VARIANT_PLUS else VARIANT_PLUS
    triples = []
    for n1, pk in forms_x:
        for n2, pl in forms_y:
            target = variant if (n1 + n2) % 2 == 0 else other
            h = parity_monomial(n1, n2)
            routed = SeedFunction.create(seed.w * (-h if variant == VARIANT_MINUS and n1 % 2 else h))
            top = _top_term(routed, frame.p, frame.q, big_k - n1, big_l - n2, n1 + n2, target)
            triples += _triples(target, *top, _involuted(pk) if n2 % 2 else pk, pl)
    return _verified(separated_laplacian_power(triples, 0), SCOPE_FULL, "fischer-routed map")


# -- component extraction and the first-order systems ------------------------


def extract_components(f: RadialExpr, pk: RadialExpr, pl: RadialExpr, kind: str) -> BiaxialComponents:
    """Recover (A, B) or (C, D) from a biaxial monogenic function.

    The kind's shapes of (1, 0) and (0, 1) times Pk Pl are two bases of
    opposite x-parity; the first has Pk's for plus.  One walk over f's
    parts keyed (k + a, l + b, x-parity) matches each against r^a rho^b
    times its parity's base: one Laurent coefficient.  A final exact
    reconstruction guards against inputs not of the declared shape.
    """
    _check_variant(kind)
    k = homogeneous_group_degree(pk, "x")
    l = homogeneous_group_degree(pl, "y")
    one, zero = BivariateRadial.constant(1), BivariateRadial.zero()
    hk, hl = _forms(pk, "x"), _forms(pl, "y")
    bases = [separated_laplacian_power(_triples(kind, *w, hk, hl), 0) for w in ((one, zero), (zero, one))]
    flip = (k + (kind == VARIANT_MINUS)) % 2  # the (1, 0) base's x-parity
    series: tuple[dict, dict] = ({}, {})
    for (d1, d2, parity), part in sorted(f.bidegree_parts().items()):
        a, b = d1 - k, d2 - l
        lam = proportionality_constant(part, RadialExpr.radial(f.frame, a, b) * bases[parity ^ flip])
        if lam:
            series[parity ^ flip][a, b] = lam
    first, second = map(BivariateRadial, series)
    if not (separated_laplacian_power(_triples(kind, first, second, hk, hl), 0) - f).is_zero():
        raise ShapeError(f"expression is not biaxial of kind {kind!r} for the given factors")
    return BiaxialComponents(kind, first, second)


def vekua_check(comp: BiaxialComponents, params: BiaxialParams) -> bool:
    """Exact first-order system check for extracted component pairs."""
    ck = 2 * params.k + params.p - 1
    cl = 2 * params.l + params.q - 1
    if comp.kind == VARIANT_PLUS:
        a, b = comp.first, comp.second
        eq1 = a.derivative("r") + b.derivative("rho") + cl * b.shift(0, -1)
        eq2 = a.derivative("rho") - b.derivative("r") - ck * b.shift(-1, 0)
    else:
        c, d = comp.first, comp.second
        eq1 = c.derivative("r") + d.derivative("rho") + ck * c.shift(-1, 0) + cl * d.shift(0, -1)
        eq2 = c.derivative("rho") - d.derivative("r")
    return eq1.is_zero() and eq2.is_zero()


# -- unified entry used by the CLI ------------------------------------------


def apply_map(seed: SeedFunction, hk: RadialExpr, hl: RadialExpr, frame: AxisFrame,
              variant: str, mu: int | None = None) -> RadialExpr:
    """Dispatch between the antiholomorphic and higher-order pipelines.

    mu = None recomputes the seed order: order 0 goes through the general
    homogeneous-factor maps, positive order requires monogenic factors.
    An explicit mu is honoured the same way (0 demands antiholomorphy).
    """
    _check_variant(variant)
    if mu in (None, 0) and seed.is_antiholomorphic():
        return ft_plus(seed, hk, hl, frame) if variant == VARIANT_PLUS else ft_minus(seed, hk, hl, frame)
    return ft_mu(seed, hk, hl, frame, variant, mu=mu)
