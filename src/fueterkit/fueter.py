"""Monogenic function constructions over biaxial frames.

Four pipelines are implemented and cross-checked against each other:

* ``ft_plus`` / ``ft_minus``: the direct Laplacian-power maps
  Delta^{k+l+(m-2)/2} applied to (u + omega nu v) Hk Hl, respectively
  (omega u + nu v) Hk Hl, for antiholomorphic seeds and general
  homogeneous factors.
* ``ft_mu``: the same maps with exponent mu + k + l + (m-2)/2 for seeds
  annihilated by d/dz after mu planar Laplacians; requires monogenic
  factors.
* ``ft_closed_form``: the closed form of ``ft_mu``, a double-factorial and
  multinomial constant times (A + omega nu B) Pk Pl (or (omega C + nu D)
  Pk Pl) with A, B, C, D produced by the one-dimensional radial operators.
* ``ft_general_via_fischer``: replays the reduction of general factors to
  monogenic ones through the Fischer decomposition and parity routing,
  and evaluates every layer pair by the closed form; it takes no
  Laplacian, and must agree with the direct maps exactly.

A single-axis pipeline (``fueter_classical`` and its closed form) covers
the generalized Cauchy-Riemann construction for holomorphic seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bivariate import (
    BiaxialParams,
    BivariateRadial,
    apply_dx_xinv,
    apply_xinv_dx,
    delta2_power,
    double_factorial,
    multinomial,
)
from .errors import PreconditionError, ShapeError, VerificationError
from .frame import AxisFrame
from .radial import (
    RadialExpr,
    SCOPE_CR,
    SCOPE_FIRST,
    SCOPE_FULL,
    SCOPE_SECOND,
    dirac,
    is_monogenic,
    laplacian_power,
    nu,
    omega,
    proportionality_constant,
    vector_x,
    vector_y,
)
from .seeds import SeedFunction, lift_to_radial, parity_monomial, split_uv

VARIANT_PLUS = "plus"
VARIANT_MINUS = "minus"


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


def _check_odd_groups(frame: AxisFrame) -> None:
    if frame.q < 1:
        raise PreconditionError("biaxial maps need a second axial group (q >= 1)")
    if frame.p % 2 == 0 or frame.q % 2 == 0:
        raise PreconditionError(f"group dimensions must both be odd, got p={frame.p}, q={frame.q}")


def _group_data(frame: AxisFrame, group: str):
    if group == "x":
        return tuple(frame.x_indices), SCOPE_FIRST, frame.p, set(range(1, frame.p + 1))
    if group == "y":
        if frame.q < 1:
            raise PreconditionError("frame has no second axial group")
        return tuple(frame.y_indices), SCOPE_SECOND, frame.q, set(range(frame.p + 1, frame.m + 1))
    raise ValueError(f"group must be 'x' or 'y', got {group!r}")


def homogeneous_group_degree(expr: RadialExpr, group: str) -> int:
    """Degree of a nonzero homogeneous polynomial supported purely on one
    axial group (coordinates and coefficient blades alike).

    The normal form may carry the group's squared radius: an x-group
    factor can hold r^a and a y-group factor rho^b, with even exponents
    >= 0; they count towards the degree."""
    frame = expr.frame
    idxs, _scope, _dim, allowed_gens = _group_data(frame, group)
    idx_set = set(idxs)
    terms = expr.canonical_terms()
    if not terms:
        raise PreconditionError(f"the zero expression is not a valid {group}-group factor")
    degrees = set()
    for (mono, blade, a, b), _c in terms.items():
        radial, other = (a, b) if group == "x" else (b, a)
        if other != 0 or radial < 0 or radial % 2:
            raise PreconditionError(f"factor is not a polynomial (radial exponents {a}, {b} remain)")
        for i, e in enumerate(mono):
            if e and i not in idx_set:
                raise PreconditionError(
                    f"factor uses coordinate {frame.coord_name(i)} outside the {group} group")
        if any(g not in allowed_gens for g in blade):
            raise PreconditionError(f"factor has coefficient blade {blade} outside the {group} group algebra")
        degrees.add(sum(mono) + a + b)
    if len(degrees) != 1:
        raise PreconditionError(f"factor is not homogeneous: degrees {sorted(degrees)}")
    return degrees.pop()


def _require_group_monogenic(expr: RadialExpr, group: str, what: str) -> None:
    _idxs, scope, _dim, _gens = _group_data(expr.frame, group)
    if not dirac(expr, scope).is_zero():
        raise PreconditionError(f"{what} must be monogenic for its group Dirac operator")


def _lifted_uv(seed: SeedFunction) -> tuple[BivariateRadial, BivariateRadial]:
    u, v, den = split_uv(seed.w)
    return lift_to_radial(u, den), lift_to_radial(v, den)


def _integrand(seed: SeedFunction, hk: RadialExpr, hl: RadialExpr,
               frame: AxisFrame, variant: str) -> RadialExpr:
    u, v = _lifted_uv(seed)
    ue = RadialExpr.from_bivariate(frame, u)
    ve = RadialExpr.from_bivariate(frame, v)
    om = omega(frame)
    nv = nu(frame)
    if variant == VARIANT_PLUS:
        head = ue + om * nv * ve
    else:
        head = om * ue + nv * ve
    return head * hk * hl


def _verified_monogenic(out: RadialExpr, what: str) -> RadialExpr:
    if not is_monogenic(out, SCOPE_FULL):
        raise VerificationError(f"{what} output failed its monogenicity assertion")
    return out


def _verified_cauchy_riemann(out: RadialExpr, what: str) -> RadialExpr:
    if not dirac(out, SCOPE_CR).is_zero():
        raise VerificationError(f"{what} output failed its Cauchy-Riemann assertion")
    return out


def _direct_map_preconditions(seed: SeedFunction, frame: AxisFrame) -> None:
    _check_odd_groups(frame)
    if not seed.is_antiholomorphic():
        raise PreconditionError("seed must be antiholomorphic (d/dz w = 0) for this map")


def _direct_map(seed: SeedFunction, hk: RadialExpr, hl: RadialExpr, frame: AxisFrame,
                variant: str) -> RadialExpr:
    """Delta^{k+l+(m-2)/2} of the variant integrand for antiholomorphic seeds.

    Hk and Hl only need to be homogeneous polynomials of their groups; the
    output is verified to be monogenic before it is returned.
    """
    _direct_map_preconditions(seed, frame)
    k = homogeneous_group_degree(hk, "x")
    l = homogeneous_group_degree(hl, "y")
    exponent = k + l + (frame.m - 2) // 2
    out = laplacian_power(_integrand(seed, hk, hl, frame, variant), exponent, SCOPE_FULL)
    return _verified_monogenic(out, f"{variant}-map")


def ft_plus(seed: SeedFunction, hk: RadialExpr, hl: RadialExpr, frame: AxisFrame) -> RadialExpr:
    """Delta^{k+l+(m-2)/2} [(u + omega nu v) Hk Hl] for antiholomorphic seeds."""
    return _direct_map(seed, hk, hl, frame, VARIANT_PLUS)


def ft_minus(seed: SeedFunction, hk: RadialExpr, hl: RadialExpr, frame: AxisFrame) -> RadialExpr:
    """Delta^{k+l+(m-2)/2} [(omega u + nu v) Hk Hl] for antiholomorphic seeds."""
    return _direct_map(seed, hk, hl, frame, VARIANT_MINUS)


def _resolve_mu(seed: SeedFunction, mu: int | None) -> int:
    if mu is None:
        return seed.mu
    if mu < seed.mu:
        raise PreconditionError(
            f"declared order mu={mu} is below the seed's verified order {seed.mu}")
    return mu


def _mu_map_preconditions(seed: SeedFunction, pk: RadialExpr, pl: RadialExpr, frame: AxisFrame,
                          variant: str, mu: int | None) -> tuple[int, int, int]:
    """Check the inputs of the higher-order maps; returns (mu, k, l)."""
    _check_variant(variant)
    _check_odd_groups(frame)
    mu_eff = _resolve_mu(seed, mu)
    k = homogeneous_group_degree(pk, "x")
    l = homogeneous_group_degree(pl, "y")
    _require_group_monogenic(pk, "x", "Pk")
    _require_group_monogenic(pl, "y", "Pl")
    return mu_eff, k, l


def ft_mu(seed: SeedFunction, pk: RadialExpr, pl: RadialExpr, frame: AxisFrame,
          variant: str, mu: int | None = None) -> RadialExpr:
    """Higher-order map Delta^{mu+k+l+(m-2)/2} of the variant integrand.

    Pk and Pl must be homogeneous monogenic; mu defaults to the seed's
    recomputed order and may only be overridden upward.
    """
    mu_eff, k, l = _mu_map_preconditions(seed, pk, pl, frame, variant, mu)
    exponent = mu_eff + k + l + (frame.m - 2) // 2
    out = laplacian_power(_integrand(seed, pk, pl, frame, variant), exponent, SCOPE_FULL)
    return _verified_monogenic(out, f"order-{mu_eff} {variant}-map")


def ft_closed_form(seed: SeedFunction, pk: RadialExpr, pl: RadialExpr, frame: AxisFrame,
                   variant: str, mu: int | None = None) -> RadialExpr:
    """Closed form of ``ft_mu``: (2k+p-1)!! (2l+q-1)!! multinomial(n; j1, j2)
    times the component pair built from the one-dimensional operators.

    The output is verified to be monogenic before it is returned."""
    return _verified_monogenic(_closed_form(seed, pk, pl, frame, variant, mu), f"{variant} closed form")


def _closed_form(seed: SeedFunction, pk: RadialExpr, pl: RadialExpr, frame: AxisFrame,
                 variant: str, mu: int | None) -> RadialExpr:
    """``ft_closed_form`` without the final monogenicity check."""
    mu_eff, k, l = _mu_map_preconditions(seed, pk, pl, frame, variant, mu)
    p, q = frame.p, frame.q
    j1 = k + (p - 1) // 2
    j2 = l + (q - 1) // 2
    n = mu_eff + k + l + (frame.m - 2) // 2
    constant = (double_factorial(2 * k + p - 1) * double_factorial(2 * l + q - 1)
                * multinomial(n, j1, j2))
    u, v = _lifted_uv(seed)
    du = delta2_power(u, mu_eff)
    dv = delta2_power(v, mu_eff)
    om = omega(frame)
    nv = nu(frame)
    if variant == VARIANT_PLUS:
        first = apply_xinv_dx(apply_xinv_dx(du, j1, "r"), j2, "rho")
        second = apply_dx_xinv(apply_dx_xinv(dv, j1, "r"), j2, "rho")
        head = RadialExpr.from_bivariate(frame, first) + om * nv * RadialExpr.from_bivariate(frame, second)
    else:
        first = apply_dx_xinv(apply_xinv_dx(du, j2, "rho"), j1, "r")
        second = apply_xinv_dx(apply_dx_xinv(dv, j2, "rho"), j1, "r")
        head = om * RadialExpr.from_bivariate(frame, first) + nv * RadialExpr.from_bivariate(frame, second)
    return constant * (head * pk * pl)


def fueter_classical(seed: SeedFunction, pk: RadialExpr, m: int) -> RadialExpr:
    """(d2/dX0^2 + Delta_X)^{K+(m-1)/2} [(u(X0, R) + (X/R) v(X0, R)) PK]
    for a holomorphic seed and odd m; output lies in the kernel of the
    generalized Cauchy-Riemann operator d/dX0 + Dirac."""
    frame, deg_k = _classical_preconditions(seed, pk, m)
    ue, ve = _classical_uv(seed, frame)
    integrand = (ue + omega(frame) * ve) * pk
    out = laplacian_power(integrand, deg_k + (m - 1) // 2, SCOPE_CR)
    return _verified_cauchy_riemann(out, "classical map")


def classical_closed_form(seed: SeedFunction, pk: RadialExpr, m: int) -> RadialExpr:
    """(2K+m-1)!! ((R^{-1} d_R)^{K+(m-1)/2} u + (X/R)(d_R R^{-1})^{K+(m-1)/2} v) PK."""
    frame, deg_k = _classical_preconditions(seed, pk, m)
    # slot 1 holds the X0 power, slot 2 the R power; the radial operators
    # act in slot 2, which is the "rho" slot of BivariateRadial.
    u2, v2 = _lifted_uv(seed)
    n_op = deg_k + (m - 1) // 2
    first = apply_xinv_dx(u2, n_op, "rho")
    second = apply_dx_xinv(v2, n_op, "rho")
    head = (RadialExpr.from_bivariate_classical(frame, first)
            + omega(frame) * RadialExpr.from_bivariate_classical(frame, second))
    constant = double_factorial(2 * deg_k + m - 1)
    return _verified_cauchy_riemann(constant * (head * pk), "classical closed form")


def _classical_preconditions(seed: SeedFunction, pk: RadialExpr, m: int) -> tuple[AxisFrame, int]:
    """Check the inputs of the single-axis maps; returns (frame, K)."""
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
    _require_group_monogenic(pk, "x", "PK")
    return frame, deg_k


def _classical_uv(seed: SeedFunction, frame: AxisFrame) -> tuple[RadialExpr, RadialExpr]:
    u, v = _lifted_uv(seed)
    return RadialExpr.from_bivariate_classical(frame, u), RadialExpr.from_bivariate_classical(frame, v)


# -- Fischer decomposition --------------------------------------------------


def _monogenic_projection(h: RadialExpr, group: str, degree: int):
    """Split a homogeneous polynomial of the given degree as P + xvec * rest
    with P monogenic, using the finite series P = sum_j a_j xvec^j Dirac^j h.

    The coefficients satisfy a_0 = 1, a_{j} = a_{j-1}/(dim + 2*degree - j - 1)
    for odd j and a_j = -a_{j-1}/j for even j; the divisors are positive, so
    the series is always defined.  Returns (P, rest).
    """
    frame = h.frame
    _idxs, scope, dim_g, _gens = _group_data(frame, group)
    xv = vector_x(frame) if group == "x" else vector_y(frame)
    derivs = [h]
    for _ in range(degree):
        derivs.append(dirac(derivs[-1], scope))
    coeffs = [Fraction(1)]
    for j in range(1, degree + 1):
        if j % 2 == 1:
            s = (j - 1) // 2
            coeffs.append(coeffs[-1] / (dim_g + 2 * degree - 2 * s - 2))
        else:
            coeffs.append(-coeffs[-1] / j)
    xpow = RadialExpr.scalar(frame, 1)
    proj = derivs[0]
    rest = RadialExpr.zero(frame)
    for j in range(1, degree + 1):
        rest = rest + coeffs[j] * (xpow * derivs[j])
        xpow = xpow * xv
        proj = proj + coeffs[j] * (xpow * derivs[j])
    return proj, -rest


def fischer_decompose(h: RadialExpr, group: str = "x") -> list[FischerLayer]:
    """Layers P_{K-n} with sum_n xvec^n P_{K-n} = H and every layer monogenic.

    The input must be a nonzero homogeneous polynomial supported purely on
    the chosen group.  The decomposition is unique; the result is verified
    by exact reconstruction and per-layer monogenicity, and any failure is
    reported as an engine bug.
    """
    frame = h.frame
    degree = homogeneous_group_degree(h, group)
    layers: list[FischerLayer] = []
    cur = h
    for n in range(degree + 1):
        proj, rest = _monogenic_projection(cur, group, degree - n)
        layers.append(FischerLayer(n, proj))
        cur = rest
    _idxs, scope, _dim, _gens = _group_data(frame, group)
    xv = vector_x(frame) if group == "x" else vector_y(frame)
    xpow = RadialExpr.scalar(frame, 1)
    total = RadialExpr.zero(frame)
    for layer in layers:
        if not dirac(layer.component, scope).is_zero():
            raise VerificationError(f"Fischer layer n={layer.n} is not monogenic")
        total = total + xpow * layer.component
        xpow = xpow * xv
    if not (total - h).is_zero():
        raise VerificationError("Fischer reconstruction does not reproduce the input")
    return layers


# -- general homogeneous factors through Fischer routing --------------------


def ft_general_via_fischer(seed: SeedFunction, hk: RadialExpr, hl: RadialExpr,
                           frame: AxisFrame, variant: str = VARIANT_PLUS) -> RadialExpr:
    """Route general homogeneous factors through monogenic layers.

    Each pair of Fischer layers contributes a higher-order map with the
    seed multiplied by a signed monomial h(x, y), evaluated by its closed
    form (``ft_closed_form`` without its own check: only the sum is
    verified); even/odd valued layer pieces commute or anticommute past
    the second-group vector powers, which the parity sign accounts for.
    The sum, verified on its normal form, equals the direct
    ``ft_plus`` / ``ft_minus`` output exactly.  The route takes no
    Laplacian, so it shares no differentiation code with the direct maps.
    """
    _check_variant(variant)
    _direct_map_preconditions(seed, frame)
    layers_x = fischer_decompose(hk, "x")
    layers_y = fischer_decompose(hl, "y")
    total = RadialExpr.zero(frame)
    for lx in layers_x:
        if lx.component.is_zero():
            continue
        even_piece, odd_piece = lx.component.blade_parity_split()
        for ly in layers_y:
            if ly.component.is_zero():
                continue
            n1, n2 = lx.n, ly.n
            tot = n1 + n2
            h = parity_monomial(n1, n2)
            if variant == VARIANT_PLUS:
                target = VARIANT_PLUS if tot % 2 == 0 else VARIANT_MINUS
                hh = h
            else:
                if tot % 2 == 0:
                    target = VARIANT_MINUS
                    hh = h if n1 % 2 == 0 else -h
                else:
                    target = VARIANT_PLUS
                    hh = -h if n1 % 2 == 1 else h
            routed = SeedFunction.create(seed.w * hh)
            for piece, parity in ((even_piece, 0), (odd_piece, 1)):
                if piece.is_zero():
                    continue
                sigma = 1 if parity == 0 else (-1) ** n2
                term = _closed_form(routed, piece, ly.component, frame, target, mu=tot)
                total = total + sigma * term
    return _verified_monogenic(total.canonicalized(), "fischer-routed map")


# -- component extraction and the first-order systems ------------------------


def extract_components(f: RadialExpr, pk: RadialExpr, pl: RadialExpr, kind: str) -> BiaxialComponents:
    """Recover (A, B) or (C, D) from a biaxial monogenic function.

    The x-parity of f separates the two structural shapes; within each
    part, terms grouped by (x, y) bidegree determine one Laurent
    coefficient each.  A final exact reconstruction guards against inputs
    that are not of the declared shape.
    """
    _check_variant(kind)
    frame = f.frame
    k = homogeneous_group_degree(pk, "x")
    l = homogeneous_group_degree(pl, "y")
    om = omega(frame)
    nv = nu(frame)
    pkpl = pk * pl
    sign_k = (-1) ** k
    flipped = f.negate_group("x")
    like_k = Fraction(1, 2) * (f + sign_k * flipped)
    unlike_k = Fraction(1, 2) * (f - sign_k * flipped)
    if kind == VARIANT_PLUS:
        first = _match_series(like_k, pkpl, k, l)
        second = _match_series(unlike_k, om * nv * pkpl, k, l)
        rebuilt = (RadialExpr.from_bivariate(frame, first) + om * nv * RadialExpr.from_bivariate(frame, second)) * pk * pl
        comp = BiaxialComponents(VARIANT_PLUS, first, second)
    else:
        first = _match_series(unlike_k, om * pkpl, k, l)
        second = _match_series(like_k, nv * pkpl, k, l)
        rebuilt = (om * RadialExpr.from_bivariate(frame, first) + nv * RadialExpr.from_bivariate(frame, second)) * pk * pl
        comp = BiaxialComponents(VARIANT_MINUS, first, second)
    if not (rebuilt - f).is_zero():
        raise ShapeError(f"expression is not biaxial of kind {kind!r} for the given factors")
    return comp


def _match_series(g: RadialExpr, base: RadialExpr, k: int, l: int) -> BivariateRadial:
    """Laurent series W with g = sum W_{ab} r^a rho^b * base, keyed by bidegree."""
    frame = g.frame
    xs, ys = set(frame.x_indices), set(frame.y_indices)
    groups: dict[tuple[int, int], dict] = {}
    for mono, inner in g._terms.items():
        dx = sum(mono[i] for i in xs)
        dy = sum(mono[i] for i in ys)
        for key, c in inner.items():
            groups.setdefault((dx + key[1], dy + key[2]), {}).setdefault(mono, {})[key] = c
    series: dict[tuple[int, int], Fraction] = {}
    for (d1, d2) in sorted(groups):
        part = g._like(groups[(d1, d2)], g._den)
        if part.is_zero():
            continue
        a, b = d1 - k, d2 - l
        ref = RadialExpr.radial(frame, a, b) * base
        lam = proportionality_constant(part, ref)
        if lam:
            series[(a, b)] = lam
    return BivariateRadial(series)


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
    mu_eff = _resolve_mu(seed, mu)
    if mu_eff == 0:
        if variant == VARIANT_PLUS:
            return ft_plus(seed, hk, hl, frame)
        return ft_minus(seed, hk, hl, frame)
    return ft_mu(seed, hk, hl, frame, variant, mu=mu_eff)
