"""Randomized invariant suites behind the ``selftest`` command.

Each suite returns (name, ok, detail); the CLI prints one line per suite.
All randomness flows through an explicit seed so runs are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

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
from .errors import EngineError
from .frame import AxisFrame
from .fueter import (
    classical_closed_form,
    extract_components,
    fischer_decompose,
    ft_closed_form,
    ft_general_via_fischer,
    ft_mu,
    ft_plus,
    fueter_classical,
    vekua_check,
)
from .radial import (
    RadialExpr,
    SCOPE_FULL,
    dirac,
    evaluate_terms,
    inner_x,
    inner_y,
    laplacian_power,
    nu,
    omega,
    partial_derivative,
    rational_point,
    re_mul,
)
from .seeds import (
    ComplexBivarPoly,
    conj_power,
    holo_power,
    laplace2,
    seed_order,
    seed_times_monomial,
    split_uv,
    wirtinger,
)

Check = tuple[str, bool, str]


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _rand_multivector(rng: random.Random, dim: int, max_terms: int = 3) -> Multivector:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        blade = tuple(sorted(rng.sample(range(1, dim + 1), rng.randint(0, dim))))
        terms.append((blade, _rand_fraction(rng)))
    return Multivector(dim, terms)


def _rand_expr(rng: random.Random, frame: AxisFrame, max_terms: int = 3) -> RadialExpr:
    n = frame.ncoords
    acc = []
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, 2) if rng.random() < 0.5 else 0 for _ in range(n))
        blade = tuple(sorted(rng.sample(range(1, frame.m + 1), rng.randint(0, 2))))
        a = rng.randint(-2, 2)
        b = rng.randint(-2, 2) if frame.q else 0
        acc.append(((mono, blade, a, b), _rand_fraction(rng)))
    return RadialExpr(frame, acc)


def check_algebra_core(seed: int = 0, rounds: int = 120) -> Check:
    rng = random.Random(seed)
    for _ in range(rounds):
        dim = rng.randint(2, 6)
        a = _rand_multivector(rng, dim)
        b = _rand_multivector(rng, dim)
        c = _rand_multivector(rng, dim)
        if (a * b) * c != a * (b * c):
            return ("algebra-core", False, "associativity failed")
        j, k = rng.sample(range(1, dim + 1), 2)
        ej, ek = Multivector.basis_vector(j, dim), Multivector.basis_vector(k, dim)
        if ej * ek + ek * ej != Multivector.zero(dim):
            return ("algebra-core", False, "anticommutation failed")
        if ej * ej != Multivector.scalar(-1, dim):
            return ("algebra-core", False, "generator square failed")
        v = vector_embed([_rand_fraction(rng) for _ in range(dim)])
        if v * v != Multivector.scalar(-sum(Fraction(x) ** 2 for x in v.terms.values()), dim):
            return ("algebra-core", False, "vector square identity failed")
        even, odd = a.parity_split()
        if even + odd != a:
            return ("algebra-core", False, "parity split is not a direct sum")
        ee, eo = even.parity_split()
        if ee != even or not eo.is_zero():
            return ("algebra-core", False, "parity split is not idempotent")
    return ("algebra-core", True, f"{rounds} randomized rounds")


def check_radial_calculus(seed: int = 1, rounds: int = 40) -> Check:
    rng = random.Random(seed)
    frames = [AxisFrame(2, 2), AxisFrame(3, 3), AxisFrame(3, 2), AxisFrame(1, 3)]
    for _ in range(rounds):
        frame = rng.choice(frames)
        f = _rand_expr(rng, frame)
        names = frame.coord_names()
        c1, c2 = rng.choice(names), rng.choice(names)
        mixed = (partial_derivative(partial_derivative(f, c1), c2)
                 - partial_derivative(partial_derivative(f, c2), c1))
        if not mixed.is_zero():
            return ("radial-calculus", False, "mixed partials do not commute")
        g = f.canonicalized()
        if not (partial_derivative(g, c1) - partial_derivative(f, c1)).is_zero():
            return ("radial-calculus", False, "derivative does not commute with canonicalization")
        dd = dirac(dirac(f, SCOPE_FULL), SCOPE_FULL)
        if not (dd + laplacian_power(f, 1, SCOPE_FULL)).is_zero():
            return ("radial-calculus", False, "Dirac square is not minus the Laplacian")
        scalar = RadialExpr.radial(frame, rng.choice([-2, 0, 2]), 0, _rand_fraction(rng) or 1)
        lhs = partial_derivative(re_mul(scalar, f), c1)
        rhs = re_mul(partial_derivative(scalar, c1), f) + re_mul(scalar, partial_derivative(f, c1))
        if not (lhs - rhs).is_zero():
            return ("radial-calculus", False, "Leibniz rule failed for scalar left factor")
    frame = AxisFrame(3, 3)
    hom = re_mul(RadialExpr.radial(frame, -3, 0), inner_x(frame, [1, 2, 3]))
    deg = hom.homogeneity_degree()
    euler = RadialExpr.zero(frame)
    for i in list(frame.x_indices) + list(frame.y_indices):
        name = frame.coord_name(i)
        euler = euler + re_mul(RadialExpr.coordinate(frame, name), partial_derivative(hom, name))
    if deg != -2 or not (euler - deg * hom).is_zero():
        return ("radial-calculus", False, "Euler identity failed")
    return ("radial-calculus", True, f"{rounds} randomized rounds")


def check_zero_smoke(seed: int = 2, points: int = 20) -> Check:
    rng = random.Random(seed)
    frame = AxisFrame(3, 3)
    zero_mono = (0,) * frame.ncoords
    sq_terms = [((tuple(2 if j == i else 0 for j in range(frame.ncoords)), (), -1, 0), Fraction(1))
                for i in frame.x_indices]
    raw = sq_terms + [((zero_mono, (), 1, 0), Fraction(-1))]
    if not RadialExpr(frame, raw).is_zero():
        return ("zero-smoke", False, "fold identity not detected as zero")
    f = _rand_expr(rng, frame)
    raw_diff = list(f.raw_terms.items()) + [(k, -c) for k, c in f.canonicalized().raw_terms.items()]
    for _ in range(points):
        point = rational_point(frame, rng)
        for sample in (raw, raw_diff):
            if evaluate_terms(frame, sample, point):
                return ("zero-smoke", False, f"numeric residue at {point}")
    return ("zero-smoke", True, f"{points} sample points")


def check_operator_identities(max_power: int = 3) -> Check:
    count = 0
    for a in range(-3, 6):
        f = BivariateRadial.monomial(a, 0)
        for n in range(1, max_power + 1):
            d2 = lambda g: delta2_power(g, 1)
            dr = lambda g: g.derivative("r")
            lhs = d2(apply_xinv_dx(f, n))
            rhs = apply_xinv_dx(d2(f), n) - 2 * n * apply_xinv_dx(f, n + 1)
            if lhs != rhs:
                return ("operator-identities", False, f"identity (xinv d) failed at a={a}, n={n}")
            lhs = d2(apply_dx_xinv(f, n))
            rhs = apply_dx_xinv(d2(f), n) - 2 * n * apply_dx_xinv(f, n + 1)
            if lhs != rhs:
                return ("operator-identities", False, f"identity (d xinv) failed at a={a}, n={n}")
            if apply_dx_xinv(dr(f), n) != dr(apply_xinv_dx(f, n)):
                return ("operator-identities", False, f"interchange identity failed at a={a}, n={n}")
            lhs = apply_xinv_dx(dr(f), n) - dr(apply_dx_xinv(f, n))
            rhs = (2 * n * apply_dx_xinv(f, n)).shift(-1, 0)
            if lhs != rhs:
                return ("operator-identities", False, f"commutator identity failed at a={a}, n={n}")
            count += 4
    return ("operator-identities", True, f"{count} identities")


def _monogenic_pair(frame: AxisFrame):
    e = lambda j: Multivector.basis_vector(j, frame.m)
    rot_x = (RadialExpr.coordinate(frame, "x1") * e(1)
             - RadialExpr.coordinate(frame, "x2") * e(2))
    g1 = frame.p + 1
    rot_y = (RadialExpr.coordinate(frame, "y1") * e(g1)
             - RadialExpr.coordinate(frame, "y2") * e(g1 + 1))
    return rot_x, rot_y


def check_expansion_oracle(seed: int = 3, cases: int = 24) -> Check:
    rng = random.Random(seed)
    frame = AxisFrame(3, 3)
    rot_x, rot_y = _monogenic_pair(frame)
    one = RadialExpr.scalar(frame, 1)
    pk_choices = [(0, one), (1, rot_x)]
    pl_choices = [(0, one), (1, rot_y)]
    om, nv = omega(frame), nu(frame)
    done = 0
    while done < cases:
        a, b = rng.randint(-1, 3), rng.randint(-1, 3)
        n = rng.randint(1, 2)
        s1, s2 = rng.randint(0, 1), rng.randint(0, 1)
        k, pk = rng.choice(pk_choices)
        l, pl = rng.choice(pl_choices)
        h = BivariateRadial.monomial(a, b)
        core = re_mul(re_mul(RadialExpr.from_bivariate(frame, h),
                             (om ** s1) * (nv ** s2)), re_mul(pk, pl))
        lhs = laplacian_power(core, n, SCOPE_FULL)
        params = BiaxialParams(k, l, frame.p, frame.q)
        rhs_scalar = laplacian_expansion(h, n, s1, s2, params)
        rhs = re_mul(re_mul(RadialExpr.from_bivariate(frame, rhs_scalar),
                            (om ** s1) * (nv ** s2)), re_mul(pk, pl))
        if not (lhs - rhs).is_zero():
            return ("expansion-oracle", False,
                    f"mismatch at h=r^{a}rho^{b}, n={n}, s=({s1},{s2}), k={k}, l={l}")
        done += 1
    return ("expansion-oracle", True, f"{cases} identities")


def check_seed_identities(seed: int = 4, rounds: int = 30) -> Check:
    rng = random.Random(seed)
    for _ in range(rounds):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            i, j = rng.randint(0, 3), rng.randint(0, 3)
            terms[(i, j, ())] = _rand_fraction(rng)
            terms[(i, j, (1,))] = _rand_fraction(rng)
        w = ComplexBivarPoly(terms)
        if w.is_zero():
            continue
        lhs = laplace2(w)
        rhs = 4 * wirtinger(wirtinger(w, "dzbar"), "dz")
        if lhs != rhs:
            return ("seed-identities", False, "Laplacian is not 4 dz dzbar")
        u, v = split_uv(w)
        recombined = (ComplexBivarPoly({(i, j, ()): c for (i, j), c in u.items()})
                      + ComplexBivarPoly({(i, j, (1,)): c for (i, j), c in v.items()}))
        if recombined != w:
            return ("seed-identities", False, "u + iv does not recombine")
        n = rng.randint(0, 5)
        base = conj_power(n)
        n1, n2 = rng.randint(0, 2), rng.randint(0, 2)
        lifted = seed_times_monomial(base, n1, n2)
        if lifted.mu > n1 + n2:
            return ("seed-identities", False, "order bound violated for monomial-lifted seed")
    if seed_order(ComplexBivarPoly.zbar() ** 5 * ComplexBivarPoly.z()) != 1:
        return ("seed-identities", False, "seed order of zbar^5 z is not 1")
    return ("seed-identities", True, f"{rounds} randomized rounds")


def check_fueter_pipelines(seed: int = 5) -> Check:
    rng = random.Random(seed)
    frame = AxisFrame(3, 3)
    rot_x, rot_y = _monogenic_pair(frame)
    t = [_rand_fraction(rng) or Fraction(1) for _ in range(3)]
    s = [_rand_fraction(rng) or Fraction(1) for _ in range(3)]
    try:
        direct = ft_mu(conj_power(4), rot_x, rot_y, frame, "plus")
        closed = ft_closed_form(conj_power(4), rot_x, rot_y, frame, "plus")
        if not (direct - closed).is_zero():
            return ("fueter-pipelines", False, "closed form mismatch for zbar^4")
        comp = extract_components(closed, rot_x, rot_y, "plus")
        if not vekua_check(comp, BiaxialParams(1, 1, 3, 3)):
            return ("fueter-pipelines", False, "first-order system check failed")
        hk = inner_x(frame, t)
        hl = inner_y(frame, s)
        if not (ft_general_via_fischer(conj_power(8), hk, hl, frame, "plus")
                - ft_plus(conj_power(8), hk, hl, frame)).is_zero():
            return ("fueter-pipelines", False, "pipeline equivalence failed for zbar^8")
        layers = fischer_decompose(hk, "x")
        if len(layers) != 2:
            return ("fueter-pipelines", False, "unexpected layer count")
        cl_frame = AxisFrame(3, 0, scalar_axis=True)
        one = RadialExpr.scalar(cl_frame, 1)
        value = fueter_classical(holo_power(2), one, 3)
        if not (value - RadialExpr.scalar(cl_frame, -4)).is_zero():
            return ("fueter-pipelines", False, "classical map of z^2 is not -4")
        if not (value - classical_closed_form(holo_power(2), one, 3)).is_zero():
            return ("fueter-pipelines", False, "classical closed form mismatch")
    except EngineError as exc:
        return ("fueter-pipelines", False, f"engine error: {exc}")
    return ("fueter-pipelines", True, "closed form, routing, systems, classical")


def check_reference_examples(seed: int = 6) -> Check:
    rng = random.Random(seed)
    t = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
    s = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
    for case in REFERENCE_CASES:
        result = run_case(case, t, s)
        if not result.passed:
            return ("reference-examples", False,
                    f"case {case.index} scale {result.scale_found} != {case.scale}")
    return ("reference-examples", True, "6 cases at frozen constants")


ALL_CHECKS = (
    check_algebra_core,
    check_radial_calculus,
    check_zero_smoke,
    check_operator_identities,
    check_expansion_oracle,
    check_seed_identities,
    check_fueter_pipelines,
    check_reference_examples,
)


def run_all(seed: int = 0) -> list[Check]:
    results = []
    for i, fn in enumerate(ALL_CHECKS):
        try:
            if fn in (check_operator_identities,):
                results.append(fn())
            else:
                results.append(fn(seed + i))
        except Exception as exc:  # a crash is a failed suite, not a crash of selftest
            results.append((fn.__name__.removeprefix("check_").replace("_", "-"), False, f"crash: {exc}"))
    return results
