"""Invariant suites behind ``fueterkit selftest`` and the acceptance tests.

Each invariant is written once, as a suite ``check_<name>(seed, size)``
that returns ``(ok, detail)``.  ``size`` counts random rounds or grid
cases; a grid suite below its full size takes a seeded sample of the
grid.  ``selftest`` runs every suite at its default size, one line per
suite; ``tests/test_acceptance.py`` runs each at its acceptance size.
All randomness flows through the seed, so runs are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from .bivariate import (
    BiaxialParams,
    BivariateRadial,
    apply_dx_xinv,
    apply_xinv_dx,
    delta2_power,
    laplacian_expansion,
)
from .catalog import REFERENCE_CASES, run_case
from .clifford import Multivector, vector_embed
from .frame import AxisFrame
from .fueter import (
    VARIANT_MINUS,
    VARIANT_PLUS,
    _lifted_uv,
    apply_map,
    classical_closed_form,
    extract_components,
    fischer_decompose,
    ft_closed_form,
    ft_general_via_fischer,
    ft_mu,
    fueter_classical,
    homogeneous_group_degree,
    vekua_check,
)
from .radial import (
    RadialExpr,
    SCOPE_CR,
    SCOPE_FIRST,
    SCOPE_FULL,
    SCOPE_SECOND,
    dirac,
    evaluate_terms,
    inner_x,
    inner_y,
    laplacian,
    laplacian_power,
    nu,
    omega,
    partial_derivative,
    rational_point,
    re_mul,
    vector_x,
)
from .seeds import (
    ComplexBivarPoly,
    SeedFunction,
    conj_power,
    holo_power,
    laplace2,
    seed_order,
    seed_times_monomial,
    split_uv,
    times_i,
    wirtinger,
)

Result = tuple[bool, str]
VARIANTS = (VARIANT_PLUS, VARIANT_MINUS)


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _rand_vec(rng: random.Random, n: int) -> list[Fraction]:
    """A nonzero vector, so that <x,t> and <y,s> are valid factors."""
    while True:
        vec = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        if any(vec):
            return vec


def _rand_multivector(rng: random.Random, dim: int) -> Multivector:
    terms = []
    for _ in range(rng.randint(1, 3)):
        blade = tuple(sorted(rng.sample(range(1, dim + 1), rng.randint(0, dim))))
        terms.append((blade, _rand_fraction(rng)))
    return Multivector(dim, terms)


def _rand_expr(rng: random.Random, frame: AxisFrame) -> RadialExpr:
    n = frame.ncoords
    acc = []
    for _ in range(rng.randint(1, 3)):
        mono = tuple(rng.randint(0, 2) if rng.random() < 0.5 else 0 for _ in range(n))
        blade = tuple(sorted(rng.sample(range(1, frame.m + 1), rng.randint(0, 2))))
        a = rng.randint(-2, 2)
        b = rng.randint(-2, 2) if frame.q else 0
        acc.append(((mono, blade, a, b), _rand_fraction(rng)))
    return RadialExpr(frame, acc)


def _rotation(frame: AxisFrame, group: str) -> RadialExpr:
    """x1 e1 - x2 e2, or y1 e_{p+1} - y2 e_{p+2}: degree 1 and monogenic in its group."""
    g = frame.generator_of(frame.group_indices(group)[0])
    e = lambda j: Multivector.basis_vector(j, frame.m)
    return (RadialExpr.coordinate(frame, f"{group}1") * e(g)
            - RadialExpr.coordinate(frame, f"{group}2") * e(g + 1))


def _take(rng: random.Random, cases: list, size: int) -> list:
    """All of ``cases`` at full size, else a seeded sample of ``size`` of them."""
    return cases if size >= len(cases) else rng.sample(cases, size)


def check_algebra_core(seed: int, size: int = 120) -> Result:
    """Clifford product laws over ``size`` random rounds, then exact zero-test smoke."""
    rng = random.Random(seed)
    for _ in range(size):
        dim = rng.randint(2, 6)
        a, b, c = (_rand_multivector(rng, dim) for _ in range(3))
        if (a * b) * c != a * (b * c):
            return False, "associativity failed"
        j, k = rng.sample(range(1, dim + 1), 2)
        ej, ek = Multivector.basis_vector(j, dim), Multivector.basis_vector(k, dim)
        if not (ej * ek + ek * ej).is_zero():
            return False, "anticommutation failed"
        if ej * ej != Multivector.scalar(-1, dim):
            return False, "generator square failed"
        coords = [_rand_fraction(rng) for _ in range(dim)]
        v = vector_embed(coords)
        if v * v != Multivector.scalar(-sum(x * x for x in coords), dim):
            return False, "vector square identity failed"
        even, odd = a.parity_split()
        ee, eo = even.parity_split()
        if even + odd != a or ee != even or not eo.is_zero():
            return False, "parity split is not an idempotent direct sum"
        if any(len(blade) % 2 == 0 for blade in (even * odd).terms):
            return False, "even times odd is not odd"
    # Cancelling term lists the zero test must see through, each also
    # evaluated exactly at 20 points: |x|^2 r^-1 = r, the same in rho, and
    # omega nu = -nu omega.
    frame = AxisFrame(3, 3)
    zero_mono = (0,) * frame.ncoords
    square = lambda j: tuple(2 if i == j else 0 for i in range(frame.ncoords))
    smoke = [
        [((square(j), (), -1, 0), Fraction(1)) for j in frame.x_indices]
        + [((zero_mono, (), 1, 0), Fraction(-1))],
        [((square(j), (), 0, -3), Fraction(2)) for j in frame.y_indices]
        + [((zero_mono, (), 0, -1), Fraction(-2))],
        list((re_mul(omega(frame), nu(frame)) + re_mul(nu(frame), omega(frame))).raw_terms.items()),
    ]
    points = 0
    for raw in smoke:
        if not RadialExpr(frame, raw).is_zero():
            return False, "cancelling terms not detected as zero"
        for _ in range(20):
            point = rational_point(frame, rng)
            if evaluate_terms(frame, raw, point):
                return False, f"nonzero value at {point}"
            points += 1
    return True, f"{5 * size} randomized checks, {points} exact point evaluations"


def check_radial_calculus(seed: int, size: int = 40) -> Result:
    """Derivative, Dirac and Leibniz laws on ``size`` random expressions, then Euler."""
    rng = random.Random(seed)
    frames = [AxisFrame(2, 2), AxisFrame(3, 3), AxisFrame(3, 2), AxisFrame(1, 3)]
    for _ in range(size):
        frame = rng.choice(frames)
        f = _rand_expr(rng, frame)
        names = frame.coord_names()
        c1, c2 = rng.choice(names), rng.choice(names)
        mixed = (partial_derivative(partial_derivative(f, c1), c2)
                 - partial_derivative(partial_derivative(f, c2), c1))
        if not mixed.is_zero():
            return False, "mixed partials do not commute"
        g = f.canonicalized()
        if not (partial_derivative(g, c1) - partial_derivative(f, c1)).is_zero():
            return False, "derivative does not commute with canonicalization"
        diff = list(f.raw_terms.items()) + [(key, -c) for key, c in g.raw_terms.items()]
        if evaluate_terms(frame, diff, rational_point(frame, rng)):
            return False, "canonicalization changed a value at an exact point"
        dd = dirac(dirac(f, SCOPE_FULL), SCOPE_FULL)
        if not (dd + laplacian_power(f, 1, SCOPE_FULL)).is_zero():
            return False, "Dirac square is not minus the Laplacian"
        scalar = RadialExpr.radial(frame, rng.choice([-2, 0, 2]), 0, _rand_fraction(rng) or 1)
        lhs = partial_derivative(re_mul(scalar, f), c1)
        rhs = re_mul(partial_derivative(scalar, c1), f) + re_mul(scalar, partial_derivative(f, c1))
        if not (lhs - rhs).is_zero():
            return False, "Leibniz rule failed for scalar left factor"
    frame = AxisFrame(3, 3)
    hom = re_mul(RadialExpr.radial(frame, -3, 0), inner_x(frame, [1, 2, 3]))
    deg = hom.homogeneity_degree()
    names = map(frame.coord_name, [*frame.x_indices, *frame.y_indices])
    euler = hom._combination((re_mul(RadialExpr.coordinate(frame, name), partial_derivative(hom, name)), 1)
                             for name in names)
    if deg != -2 or not (euler - deg * hom).is_zero():
        return False, "Euler identity failed"
    ok, kernels = _check_kernels(rng)
    if not ok:
        return False, kernels
    return True, f"{size} randomized rounds, {kernels}"


def _dense_block(rng: random.Random, frame: AxisFrame) -> tuple[tuple[int, ...], list]:
    """One monomial, carrying x_p^3 and y_q^2, and 36 ((blade, a, b),
    coefficient) rows to put on it; the frame needs both groups."""
    mono = [rng.randint(0, 2) for _ in range(frame.ncoords)]
    mono[frame.x_indices[-1]] = 3
    mono[frame.y_indices[-1]] = 2
    return tuple(mono), [((blade, a, b), _rand_fraction(rng) or 1)
                         for blade in ((), (1,), (2, frame.m), (1, 2, 3))
                         for a in (-2, 1, 3) for b in (-1, 0, 2)]


def _dense_expr(rng: random.Random, frame: AxisFrame) -> RadialExpr:
    """One monomial with 36 (blade, a, b) terms."""
    mono, rows = _dense_block(rng, frame)
    return RadialExpr(frame, [((mono, *key), c) for key, c in rows])


def _spread_expr(rng: random.Random, frame: AxisFrame) -> RadialExpr:
    """The 36 rows of ``_dense_block`` on its monomial mu and on mu x_i^2
    and mu x_i for every coordinate x_i, so several source monomials feed
    each target monomial.  The copy on mu x_i^2 is scaled by
    +-1/((e_i + 2)(e_i + 1)), the sign alternating over the coordinates:
    the Laplacian's rows from consecutive copies onto mu cancel, and in a
    scope with an even number of coordinates so do whole target keys."""
    mono, rows = _dense_block(rng, frame)
    copies = [(mono, 1)]
    for i, e in enumerate(mono):
        copies.append((mono[:i] + (e + 2,) + mono[i + 1:], Fraction((-1) ** i, (e + 2) * (e + 1))))
        copies.append((mono[:i] + (e + 1,) + mono[i + 1:], 1))
    return RadialExpr(frame, [((m, *key), w * c) for m, w in copies for key, c in rows])


def _check_kernels(rng: random.Random) -> Result:
    """``dirac`` against sum_j e_j d_j f (plus d_0 f for cauchy-riemann) and
    ``laplacian`` against sum_j d_j^2 f, both built from ``partial_derivative``,
    in every scope at (3,3), (5,5) and (3,2) with X0, on a one-monomial, a
    many-monomial and a random input."""
    checked = 0
    for frame in (AxisFrame(3, 3), AxisFrame(5, 5), AxisFrame(3, 2, scalar_axis=True)):
        vector_coords = {SCOPE_FIRST: frame.x_indices, SCOPE_SECOND: frame.y_indices}
        for scope in (SCOPE_FIRST, SCOPE_SECOND, SCOPE_FULL) + ((SCOPE_CR,) if frame.scalar_axis else ()):
            coords = vector_coords.get(scope, [*frame.x_indices, *frame.y_indices])
            for f in (_dense_expr(rng, frame), _spread_expr(rng, frame), _rand_expr(rng, frame)):
                d_of = {i: partial_derivative(f, i) for i in coords}
                want_dirac = f._combination((re_mul(RadialExpr.constant(frame, Multivector.basis_vector(
                    frame.generator_of(i), frame.m)), d), 1) for i, d in d_of.items())
                if scope == SCOPE_CR:
                    d_of[0] = partial_derivative(f, 0)
                    want_dirac = want_dirac + d_of[0]
                want_laplacian = f._combination((partial_derivative(d, i), 1) for i, d in d_of.items())
                where = f"({frame.p},{frame.q}) {scope}, {len(f.raw_terms)} terms"
                if dirac(f, scope) != want_dirac:
                    return False, f"dirac differs from sum e_j d_j at {where}"
                if laplacian(f, scope) != want_laplacian:
                    return False, f"laplacian differs from sum d_j^2 at {where}"
                checked += 2
    return True, f"{checked} kernel-against-definition checks"


def check_operator_identities(seed: int, size: int = 27) -> Result:
    """The four one-dimensional operator identities on r^a, a in [-3, 5], n in [1, 4]."""
    d2 = lambda g: delta2_power(g, 1)
    dr = lambda g: g.derivative("r")
    cases = _take(random.Random(seed), list(product(range(-3, 6), range(1, 5))), size)
    for a, n in cases:
        f = BivariateRadial.monomial(a, 0)
        identities = (
            ("(xinv d)", d2(apply_xinv_dx(f, n)),
             apply_xinv_dx(d2(f), n) - 2 * n * apply_xinv_dx(f, n + 1)),
            ("(d xinv)", d2(apply_dx_xinv(f, n)),
             apply_dx_xinv(d2(f), n) - 2 * n * apply_dx_xinv(f, n + 1)),
            ("interchange", apply_dx_xinv(dr(f), n), dr(apply_xinv_dx(f, n))),
            ("commutator", apply_xinv_dx(dr(f), n) - dr(apply_dx_xinv(f, n)),
             (2 * n * apply_dx_xinv(f, n)).shift(-1, 0)),
        )
        for what, lhs, rhs in identities:
            if lhs != rhs:
                return False, f"{what} identity failed at a={a}, n={n}"
    return True, f"{4 * len(cases)} exact identities"


def check_expansion_oracle(seed: int, size: int = 24) -> Result:
    """Delta^n [h omega^s1 nu^s2 Pk Pl] against its scalar expansion.

    The grid: h = r^a rho^b with a, b in [-1, 3], n in [1, 3], s1 and s2 in
    {0, 1}, with the four (Pk, Pl) pairs of degrees 0 and 1 in turn.
    """
    frame = AxisFrame(3, 3)
    one = RadialExpr.scalar(frame, 1)
    rot_x, rot_y = _rotation(frame, "x"), _rotation(frame, "y")
    pairs = [((0, one), (0, one)), ((1, rot_x), (0, one)),
             ((0, one), (1, rot_y)), ((1, rot_x), (1, rot_y))]
    grid = [(case, pairs[i % 4]) for i, case in
            enumerate(product(range(-1, 4), range(-1, 4), (1, 2, 3), (0, 1), (0, 1)))]
    om, nv = omega(frame), nu(frame)
    cases = _take(random.Random(seed), grid, size)
    for (a, b, n, s1, s2), ((k, pk), (l, pl)) in cases:
        around = lambda h: re_mul(re_mul(RadialExpr.from_bivariate(frame, h), (om ** s1) * (nv ** s2)),
                                  re_mul(pk, pl))
        h = BivariateRadial.monomial(a, b)
        lhs = laplacian_power(around(h), n, SCOPE_FULL)
        rhs = around(laplacian_expansion(h, n, s1, s2, BiaxialParams(k, l, 3, 3)))
        if not (lhs - rhs).is_zero():
            return False, f"mismatch at h=r^{a}rho^{b}, n={n}, s=({s1},{s2}), k={k}, l={l}"
    return True, f"{len(cases)} exact identities"


def check_seed_identities(seed: int, size: int = 30) -> Result:
    """Wirtinger, u + iv and seed-order laws on ``size`` random seeds."""
    rng = random.Random(seed)
    for _ in range(size):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            i, j = rng.randint(0, 3), rng.randint(0, 3)
            terms[(i, j, ())] = _rand_fraction(rng)
            terms[(i, j, (1,))] = _rand_fraction(rng)
        w = ComplexBivarPoly(terms)
        if w.is_zero():
            continue
        if laplace2(w) != 4 * wirtinger(wirtinger(w, "dzbar"), "dz"):
            return False, "Laplacian is not 4 dz dzbar"
        u, v, den = split_uv(w)
        recombined = (ComplexBivarPoly({(i, j, ()): Fraction(c, den) for (i, j), c in u.items()})
                      + ComplexBivarPoly({(i, j, (1,)): Fraction(c, den) for (i, j), c in v.items()}))
        if recombined != w:
            return False, "u + iv does not recombine"
        base = conj_power(rng.randint(0, 5))
        n1, n2 = rng.randint(0, 2), rng.randint(0, 2)
        if seed_times_monomial(base, n1, n2).mu > n1 + n2:
            return False, "order bound violated for monomial-lifted seed"
    if seed_order(ComplexBivarPoly.zbar() ** 5 * ComplexBivarPoly.z()) != 1:
        return False, "seed order of zbar^5 z is not 1"
    return True, f"{size} randomized rounds"


def check_monogenicity_sweep(seed: int, size: int = 12) -> Result:
    """Map outputs lie in ker(Dirac): antiholomorphic seeds with general
    factors (1, a rotation, <x,t>, <x,t>^2; 1, a rotation, <y,s>) and an
    order-1 seed with monogenic ones, at (3,3), (3,5) and (5,3)."""
    rng = random.Random(seed)
    higher = SeedFunction.create(ComplexBivarPoly.zbar() ** 5 * ComplexBivarPoly.z())

    def factors(frame):
        xt, ys = inner_x(frame, _rand_vec(rng, frame.p)), inner_y(frame, _rand_vec(rng, frame.q))
        one = RadialExpr.scalar(frame, 1)
        return [one, _rotation(frame, "x"), xt, re_mul(xt, xt)], [one, _rotation(frame, "y"), ys]

    frame = AxisFrame(3, 3)
    cases = []
    for n in range(12):
        fx, fy = factors(frame)
        cases += [(frame, conj_power(n), hk, hl, VARIANTS[(n + i + j) % 2])
                  for i, hk in enumerate(fx) for j, hl in enumerate(fy)]
    for n in range(7):
        fx, fy = factors(frame)
        cases += [(frame, times_i(conj_power(n)), hk, hl, VARIANTS[n % 2])
                  for hk, hl in ((fx[2], fy[2]), (fx[3], fy[1]), (fx[1], fy[2]), (fx[0], fy[2]))]
    cases += [(frame, higher, pk, pl, variant)
              for variant in VARIANTS for pk in fx[:2] for pl in fy[:2]]
    for p, q in ((3, 5), (5, 3)):
        frame = AxisFrame(p, q)
        for w in (conj_power(3), conj_power(6), times_i(conj_power(4))):
            fx, fy = factors(frame)
            cases += [(frame, w, hk, hl, VARIANTS[idx % 2]) for idx, (hk, hl) in
                      enumerate(((fx[2], fy[2]), (fx[3], fy[2]), (fx[1], fy[1]), (fx[0], fy[2])))]
        cases += [(frame, higher, fx[i], fy[i], variant) for variant in VARIANTS for i in (0, 1)]
    cases = _take(rng, cases, size)
    for frame, w, hk, hl, variant in cases:
        if not dirac(apply_map(w, hk, hl, frame, variant), SCOPE_FULL).is_zero():
            return False, f"output outside ker(Dirac): ({frame.p},{frame.q}) mu={w.mu} {variant}"
    return True, f"{len(cases)} map outputs in ker(Dirac), exact"


def check_fischer(seed: int, size: int = 6) -> Result:
    """Random homogeneous x-polynomials, half at (3,3) and half at (5,3), split
    into degree + 1 monogenic layers that rebuild the input; a monogenic
    input is its own first layer."""
    rng = random.Random(seed)
    checked = 0
    for p in (3, 5):
        frame = AxisFrame(p, 3)
        xv = vector_x(frame)
        while checked < (size // 2 if p == 3 else size):
            degree = rng.randint(0, 3)
            raw = []
            for _ in range(rng.randint(1, 4)):
                mono = [0] * frame.ncoords
                for _ in range(degree):
                    mono[rng.choice(list(frame.x_indices))] += 1
                blade = tuple(sorted(rng.sample(range(1, p + 1), rng.randint(0, 2))))
                raw.append(((tuple(mono), blade, 0, 0), Fraction(rng.randint(-4, 4) or 2)))
            h = RadialExpr(frame, raw)
            if h.is_zero():
                continue
            layers = fischer_decompose(h, "x")
            if len(layers) != degree + 1:
                return False, f"{len(layers)} layers for degree {degree}"
            total, xpow = RadialExpr.zero(frame), RadialExpr.scalar(frame, 1)
            for layer in layers:
                if not dirac(layer.component, SCOPE_FIRST).is_zero():
                    return False, "a layer is not monogenic"
                total = total + re_mul(xpow, layer.component)
                xpow = re_mul(xpow, xv)
            if not (total - h).is_zero():
                return False, "the layers do not rebuild the input"
            checked += 1
    rot = _rotation(AxisFrame(3, 3), "x")
    layers = fischer_decompose(rot, "x")
    if not (layers[0].component - rot).is_zero() or any(not ly.component.is_zero() for ly in layers[1:]):
        return False, "a monogenic input is not its own first layer"
    return True, f"{checked} random inputs, exact reconstruction"


def check_closed_forms(seed: int, size: int = 8) -> Result:
    """Each closed form equals ft_mu and its component pair solves the
    first-order system, over seeds of order 0, 1 and 2, factors of degree 0
    and 1, both variants, at (3,3), (3,5) and (5,3)."""
    zbar, z = ComplexBivarPoly.zbar(), ComplexBivarPoly.z()
    seeds = [conj_power(4), times_i(conj_power(3)),
             SeedFunction.create(zbar ** 5 * z), SeedFunction.create(zbar ** 5 * z ** 2)]
    grid = []
    for p, q in ((3, 3), (3, 5), (5, 3)):
        frame = AxisFrame(p, q)
        one = RadialExpr.scalar(frame, 1)
        grid += [(frame, w, pk, pl, variant) for w in seeds
                 for pk in (one, _rotation(frame, "x")) for pl in (one, _rotation(frame, "y"))
                 for variant in VARIANTS]
    cases = _take(random.Random(seed), grid, size)
    orders, nonzero = set(), 0
    for frame, w, pk, pl, variant in cases:
        where = f"p={frame.p}, q={frame.q}, mu={w.mu}, variant={variant}"
        closed = ft_closed_form(w, pk, pl, frame, variant)
        if not (ft_mu(w, pk, pl, frame, variant) - closed).is_zero():
            return False, f"closed form mismatch: {where}"
        params = BiaxialParams(pk.homogeneity_degree() or 0, pl.homogeneity_degree() or 0,
                               frame.p, frame.q)
        if not vekua_check(extract_components(closed, pk, pl, variant), params):
            return False, f"system check failed: {where}"
        orders.add(w.mu)
        nonzero += not closed.is_zero()
    return True, f"{len(cases)} cases, orders {sorted(orders)}, {nonzero} nonzero"


def definition_map(seed: SeedFunction, hk: RadialExpr, hl: RadialExpr, frame: AxisFrame,
                   variant: str, mu: int = 0) -> RadialExpr:
    """A biaxial map by its definition, unverified: the full-scope Laplacian
    power Delta^{mu+k+l+(m-2)/2} of the whole integrand, u + omega nu v
    (plus) or omega u + nu v (minus) times Hk Hl.  The direct maps take the
    same power group by group on ``fueter._triples``, so this is their
    cross-check: it writes the shape with omega and nu, not with Hk*."""
    n = mu + homogeneous_group_degree(hk, "x") + homogeneous_group_degree(hl, "y") + (frame.m - 2) // 2
    u, v = (RadialExpr.from_bivariate(frame, w) for w in _lifted_uv(seed))
    head = u + omega(frame) * nu(frame) * v if variant == VARIANT_PLUS else omega(frame) * u + nu(frame) * v
    return laplacian_power(head * hk * hl, n, SCOPE_FULL)


def check_pipeline_equivalence(seed: int, size: int = 2) -> Result:
    """The direct map equals its definition and the Fischer route: zbar^n,
    n in {5, 8, 9, 10, 11}, with <x,t> or <x,t>^2 and <y,s> at (3,3); then,
    at full size only, four costly replays with nonzero output at (3,3),
    (5,5) and (7,7)."""
    t = [Fraction(v) for v in "1 -1 2 1/2 -3 1 2/3".split()]
    s = [Fraction(v) for v in "1/2 1 -1 2 1/3 -2 1".split()]
    frame = AxisFrame(3, 3)
    xt, ys = inner_x(frame, t[:3]), inner_y(frame, s[:3])
    grid = [(frame, n, hk, ys, variant) for n in (5, 8, 9, 10, 11)
            for hk in (xt, re_mul(xt, xt)) for variant in VARIANTS]
    wide = [(frame, 15, re_mul(xt, xt), ys, "plus")]
    for p, n, variant in ((5, 9, "plus"), (5, 10, "minus"), (7, 9, "plus")):
        big = AxisFrame(p, p)
        wide.append((big, n, inner_x(big, t[:p]), inner_y(big, s[:p]), variant))
    cases = _take(random.Random(seed), grid, size) + wide[:max(0, size - len(grid))]
    for i, (frame, n, hk, hl, variant) in enumerate(cases):
        where = f"({frame.p},{frame.q}) zbar^{n}, deg={hk.homogeneity_degree()}, {variant}"
        direct = apply_map(conj_power(n), hk, hl, frame, variant)
        if i >= len(grid) and direct.is_zero():
            return False, f"zero output: {where}"
        for route, other in (("definition", definition_map(conj_power(n), hk, hl, frame, variant)),
                             ("Fischer", ft_general_via_fischer(conj_power(n), hk, hl, frame, variant))):
            if not (other - direct).is_zero():
                return False, f"direct and {route} routes differ: {where}"
    return True, f"{len(cases)} exact replays through monogenic layers"


def check_classical_map(seed: int, size: int = 2) -> Result:
    """The single-axis map of z^n, n in {2, 3, 4}, with Pk = 1 or a rotation,
    equals its closed form and satisfies Cauchy-Riemann; z^2 maps to -4."""
    frame = AxisFrame(3, 0, scalar_axis=True)
    one = RadialExpr.scalar(frame, 1)
    if not (fueter_classical(holo_power(2), one, 3) - RadialExpr.scalar(frame, -4)).is_zero():
        return False, "classical map of z^2 is not -4"
    grid = [(n, pk) for n in (2, 3, 4) for pk in (one, _rotation(frame, "x"))]
    cases = _take(random.Random(seed), grid, size)
    for n, pk in cases:
        direct = fueter_classical(holo_power(n), pk, 3)
        if not (direct - classical_closed_form(holo_power(n), pk, 3)).is_zero():
            return False, f"classical closed form mismatch for z^{n}"
        if not dirac(direct, SCOPE_CR).is_zero():
            return False, f"classical map of z^{n} is not Cauchy-Riemann"
    return True, f"{len(cases)} cases plus the hand value -4"


def check_reference_examples(seed: int, size: int = 1) -> Result:
    """Each catalog case at ``size`` random nonzero (t, s) draws matches its frozen constant."""
    rng = random.Random(seed)
    for case in REFERENCE_CASES:
        for _ in range(size):
            result = run_case(case, _rand_vec(rng, 3), _rand_vec(rng, 3))
            if not result.passed:
                return False, f"case {case.index}: scale {result.scale_found} != {case.scale}"
    return True, f"{size * len(REFERENCE_CASES)} draws across 6 formulas, frozen constants"


ALL_CHECKS = (
    check_algebra_core,
    check_radial_calculus,
    check_operator_identities,
    check_expansion_oracle,
    check_seed_identities,
    check_monogenicity_sweep,
    check_fischer,
    check_closed_forms,
    check_pipeline_equivalence,
    check_classical_map,
    check_reference_examples,
)


def run_all(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Every suite at its selftest size, suite i with seed + i, as (name, ok, detail)."""
    results = []
    for i, fn in enumerate(ALL_CHECKS):
        try:
            ok, detail = fn(seed + i)
        except Exception as exc:  # a crash is a failed suite, not a crash of selftest
            ok, detail = False, f"crash: {exc}"
        results.append((fn.__name__.removeprefix("check_").replace("_", "-"), ok, detail))
    return results
