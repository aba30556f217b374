"""Acceptance criteria, one test per criterion.

Every check below is exact rational equality of canonical forms; the only
floating point appears in the numeric zero-test smoke companion.  Each
test prints a single summary line so the suite doubles as a report.
"""

import random
from fractions import Fraction

from fueterkit.bivariate import (
    BiaxialParams,
    BivariateRadial,
    apply_dx_xinv,
    apply_xinv_dx,
    delta2_power,
    laplacian_expansion,
)
from fueterkit.catalog import REFERENCE_CASES, run_case
from fueterkit.clifford import Multivector, vector_embed
from fueterkit.frame import AxisFrame
from fueterkit.fueter import (
    classical_closed_form,
    extract_components,
    fischer_decompose,
    ft_closed_form,
    ft_general_via_fischer,
    ft_minus,
    ft_mu,
    ft_plus,
    fueter_classical,
    vekua_check,
)
from fueterkit.radial import (
    RadialExpr,
    SCOPE_CR,
    SCOPE_FULL,
    dirac,
    evaluate_terms,
    inner_x,
    inner_y,
    laplacian_power,
    nu,
    omega,
    rational_point,
    re_mul,
    vector_x,
)
from fueterkit.seeds import (
    ComplexBivarPoly,
    SeedFunction,
    conj_power,
    holo_power,
    times_i,
)


def _report(index: int, name: str, detail: str) -> None:
    print(f"PASS criterion {index} ({name}): {detail}")


def _rand_vec(rng: random.Random, n: int) -> list[Fraction]:
    while True:
        vec = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        if any(vec):
            return vec


def _rotation_x(frame: AxisFrame) -> RadialExpr:
    return (RadialExpr.coordinate(frame, "x1") * Multivector.basis_vector(1, frame.m)
            - RadialExpr.coordinate(frame, "x2") * Multivector.basis_vector(2, frame.m))


def _rotation_y(frame: AxisFrame) -> RadialExpr:
    g = frame.p + 1
    return (RadialExpr.coordinate(frame, "y1") * Multivector.basis_vector(g, frame.m)
            - RadialExpr.coordinate(frame, "y2") * Multivector.basis_vector(g + 1, frame.m))


def test_criterion_1_reference_examples():
    rng = random.Random(101)
    checked = 0
    for case in REFERENCE_CASES:
        for _trial in range(3):
            t = _rand_vec(rng, 3)
            s = _rand_vec(rng, 3)
            result = run_case(case, t, s)
            assert result.scale_found is not None, (
                f"case {case.index}: engine output is not proportional to the formula")
            assert result.passed, (
                f"case {case.index}: proportionality {result.scale_found}, "
                f"frozen constant {case.scale}")
            checked += 1
    _report(1, "reference examples", f"{checked} draws across 6 formulas, frozen constants")


def test_criterion_2_monogenicity_sweep():
    rng = random.Random(202)
    cases = 0

    def factors(frame, with_general=True):
        t = _rand_vec(rng, frame.p)
        s = _rand_vec(rng, frame.q)
        xt, ys = inner_x(frame, t), inner_y(frame, s)
        one = RadialExpr.scalar(frame, 1)
        fx = [one, _rotation_x(frame)] + ([xt, re_mul(xt, xt)] if with_general else [])
        fy = [one, _rotation_y(frame)] + ([ys] if with_general else [])
        return fx, fy

    frame = AxisFrame(3, 3)
    for n in range(12):
        seed = conj_power(n)
        fx, fy = factors(frame)
        for i, hk in enumerate(fx):
            for j, hl in enumerate(fy):
                variant = "plus" if (n + i + j) % 2 == 0 else "minus"
                fn = ft_plus if variant == "plus" else ft_minus
                out = fn(seed, hk, hl, frame)
                assert dirac(out, SCOPE_FULL).is_zero()
                cases += 1
    for n in range(7):
        seed = times_i(conj_power(n))
        fx, fy = factors(frame)
        for hk, hl in ((fx[2], fy[2]), (fx[3], fy[1]), (fx[1], fy[2]), (fx[0], fy[2])):
            variant = "plus" if n % 2 == 0 else "minus"
            fn = ft_plus if variant == "plus" else ft_minus
            out = fn(seed, hk, hl, frame)
            assert dirac(out, SCOPE_FULL).is_zero()
            cases += 1
    higher = SeedFunction.create(ComplexBivarPoly.zbar() ** 5 * ComplexBivarPoly.z())
    for variant in ("plus", "minus"):
        for pk in (RadialExpr.scalar(frame, 1), _rotation_x(frame)):
            for pl in (RadialExpr.scalar(frame, 1), _rotation_y(frame)):
                out = ft_mu(higher, pk, pl, frame, variant)
                assert dirac(out, SCOPE_FULL).is_zero()
                cases += 1
    for p, q in ((3, 5), (5, 3)):
        frame = AxisFrame(p, q)
        for seed in (conj_power(3), conj_power(6), times_i(conj_power(4))):
            fx, fy = factors(frame)
            for idx, (hk, hl) in enumerate(((fx[2], fy[2]), (fx[3], fy[2]),
                                            (fx[1], fy[1]), (fx[0], fy[2]))):
                variant = "plus" if idx % 2 == 0 else "minus"
                fn = ft_plus if variant == "plus" else ft_minus
                out = fn(seed, hk, hl, frame)
                assert dirac(out, SCOPE_FULL).is_zero()
                cases += 1
        for variant in ("plus", "minus"):
            for pk, pl in ((RadialExpr.scalar(frame, 1), RadialExpr.scalar(frame, 1)),
                           (_rotation_x(frame), _rotation_y(frame))):
                out = ft_mu(higher, pk, pl, frame, variant)
                assert dirac(out, SCOPE_FULL).is_zero()
                cases += 1
    assert cases >= 200
    _report(2, "monogenicity sweep", f"{cases} map outputs in ker(Dirac), exact")


def test_criterion_3_expansion_oracle():
    frame = AxisFrame(3, 3)
    om, nv = omega(frame), nu(frame)
    one = RadialExpr.scalar(frame, 1)
    combos = [((0, one), (0, one)), ((1, _rotation_x(frame)), (0, one)),
              ((0, one), (1, _rotation_y(frame))),
              ((1, _rotation_x(frame)), (1, _rotation_y(frame)))]
    identities = 0
    for a in range(-1, 4):
        for b in range(-1, 4):
            h = BivariateRadial.monomial(a, b)
            for n in (1, 2, 3):
                for s1 in (0, 1):
                    for s2 in (0, 1):
                        (k, pk), (l, pl) = combos[identities % 4]
                        params = BiaxialParams(k, l, 3, 3)
                        prefix = (om ** s1) * (nv ** s2)
                        core = re_mul(re_mul(RadialExpr.from_bivariate(frame, h), prefix),
                                      re_mul(pk, pl))
                        lhs = laplacian_power(core, n, SCOPE_FULL)
                        rhs_scalar = laplacian_expansion(h, n, s1, s2, params)
                        rhs = re_mul(re_mul(RadialExpr.from_bivariate(frame, rhs_scalar), prefix),
                                     re_mul(pk, pl))
                        assert (lhs - rhs).is_zero(), (
                            f"h=r^{a}rho^{b}, n={n}, s=({s1},{s2}), k={k}, l={l}")
                        identities += 1
    assert identities >= 300
    _report(3, "operator expansion oracle", f"{identities} exact identities")


def test_criterion_4_operator_identity_suite():
    count = 0
    for a in range(-3, 6):
        f = BivariateRadial.monomial(a, 0)
        for n in range(1, 5):
            d2 = lambda g: delta2_power(g, 1)
            lhs = d2(apply_xinv_dx(f, n))
            rhs = apply_xinv_dx(d2(f), n) - 2 * n * apply_xinv_dx(f, n + 1)
            assert lhs == rhs
            lhs = d2(apply_dx_xinv(f, n))
            rhs = apply_dx_xinv(d2(f), n) - 2 * n * apply_dx_xinv(f, n + 1)
            assert lhs == rhs
            assert apply_dx_xinv(f.derivative("r"), n) == apply_xinv_dx(f, n).derivative("r")
            lhs = apply_xinv_dx(f.derivative("r"), n) - apply_dx_xinv(f, n).derivative("r")
            rhs = (2 * n * apply_dx_xinv(f, n)).shift(-1, 0)
            assert lhs == rhs
            count += 4
    assert count >= 128
    _report(4, "operator identity suite", f"{count} exact identities")


def _closed_form_grid():
    seeds = [conj_power(4), times_i(conj_power(3)),
             SeedFunction.create(ComplexBivarPoly.zbar() ** 5 * ComplexBivarPoly.z()),
             SeedFunction.create(ComplexBivarPoly.zbar() ** 5 * ComplexBivarPoly.z() ** 2)]
    for p, q in ((3, 3), (3, 5), (5, 3)):
        frame = AxisFrame(p, q)
        one = RadialExpr.scalar(frame, 1)
        for seed in seeds:
            for pk in (one, _rotation_x(frame)):
                for pl in (one, _rotation_y(frame)):
                    for variant in ("plus", "minus"):
                        yield frame, seed, pk, pl, variant


def test_criterion_5_closed_form_equality():
    cases = 0
    orders = set()
    for frame, seed, pk, pl, variant in _closed_form_grid():
        direct = ft_mu(seed, pk, pl, frame, variant)
        closed = ft_closed_form(seed, pk, pl, frame, variant)
        assert (direct - closed).is_zero(), (
            f"closed form mismatch: p={frame.p}, q={frame.q}, mu={seed.mu}, variant={variant}")
        orders.add(seed.mu)
        cases += 1
    assert orders == {0, 1, 2}
    _report(5, "closed-form equality", f"{cases} cases, orders {sorted(orders)}")


def test_criterion_6_fischer():
    rng = random.Random(606)
    checked = 0
    for p in (3, 5):
        frame = AxisFrame(p, 3)
        while checked < (25 if p == 3 else 50):
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
            assert len(layers) == degree + 1
            xv = vector_x(frame)
            xpow = RadialExpr.scalar(frame, 1)
            total = RadialExpr.zero(frame)
            for layer in layers:
                assert dirac(layer.component, "first-group").is_zero()
                total = total + re_mul(xpow, layer.component)
                xpow = re_mul(xpow, xv)
            assert (total - h).is_zero()
            checked += 1
    frame = AxisFrame(3, 3)
    monogenic = _rotation_x(frame)
    layers = fischer_decompose(monogenic, "x")
    assert (layers[0].component - monogenic).is_zero()
    assert all(layer.component.is_zero() for layer in layers[1:])
    _report(6, "fischer decomposition", f"{checked} random inputs, exact reconstruction")


def test_criterion_7_pipeline_equivalence():
    frame = AxisFrame(3, 3)
    t = [Fraction(1), Fraction(-1), Fraction(2)]
    s = [Fraction(1, 2), Fraction(1), Fraction(-1)]
    xt, ys = inner_x(frame, t), inner_y(frame, s)
    checked = 0
    for seed_power in (5, 8, 9, 10, 11):
        seed = conj_power(seed_power)
        for hk in (xt, re_mul(xt, xt)):
            for variant, direct_fn in (("plus", ft_plus), ("minus", ft_minus)):
                routed = ft_general_via_fischer(seed, hk, ys, frame, variant)
                direct = direct_fn(seed, hk, ys, frame)
                assert (routed - direct).is_zero(), (
                    f"pipelines differ: zbar^{seed_power}, deg={hk.homogeneity_degree()}, {variant}")
                checked += 1
    # Larger seeds and frames; each of these outputs is nonzero.
    wide = [(frame, 15, re_mul(xt, xt), ys, "plus")]
    t_big = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3), Fraction(1), Fraction(2, 3)]
    s_big = [Fraction(1, 2), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3), Fraction(-2), Fraction(1)]
    for p, cases in ((5, ((9, "plus"), (10, "minus"))), (7, ((9, "plus"),))):
        big = AxisFrame(p, p)
        xt_big, ys_big = inner_x(big, t_big[:p]), inner_y(big, s_big[:p])
        wide += [(big, power, xt_big, ys_big, variant) for power, variant in cases]
    for big, seed_power, hk, hl, variant in wide:
        seed = conj_power(seed_power)
        direct = (ft_plus if variant == "plus" else ft_minus)(seed, hk, hl, big)
        routed = ft_general_via_fischer(seed, hk, hl, big, variant)
        assert not direct.is_zero(), f"zero output: ({big.p},{big.q}) zbar^{seed_power} {variant}"
        assert routed == direct, f"pipelines differ: ({big.p},{big.q}) zbar^{seed_power} {variant}"
        checked += 1
    _report(7, "pipeline equivalence", f"{checked} exact replays through monogenic layers")


def test_criterion_8_vekua_systems():
    checked = 0
    nonzero = 0
    for frame, seed, pk, pl, variant in _closed_form_grid():
        closed = ft_closed_form(seed, pk, pl, frame, variant)
        k = pk.homogeneity_degree() or 0
        l = pl.homogeneity_degree() or 0
        comp = extract_components(closed, pk, pl, variant)
        assert vekua_check(comp, BiaxialParams(k, l, frame.p, frame.q)), (
            f"system check failed: p={frame.p}, q={frame.q}, mu={seed.mu}, variant={variant}")
        checked += 1
        if not closed.is_zero():
            nonzero += 1
    assert nonzero >= 40
    _report(8, "first-order component systems",
            f"{checked} extracted pairs verified ({nonzero} nonzero)")


def test_criterion_9_classical_map():
    frame = AxisFrame(3, 0, scalar_axis=True)
    one = RadialExpr.scalar(frame, 1)
    rot = (RadialExpr.coordinate(frame, "x1") * Multivector.basis_vector(1, 3)
           - RadialExpr.coordinate(frame, "x2") * Multivector.basis_vector(2, 3))
    checked = 0
    for n in (2, 3, 4):
        for pk in (one, rot):
            direct = fueter_classical(holo_power(n), pk, 3)
            closed = classical_closed_form(holo_power(n), pk, 3)
            assert (direct - closed).is_zero()
            assert dirac(direct, SCOPE_CR).is_zero()
            checked += 1
    hand = fueter_classical(holo_power(2), one, 3)
    assert (hand - RadialExpr.scalar(frame, -4)).is_zero()
    _report(9, "single-axis map", f"{checked} cases plus the hand value -4")


def test_criterion_10_algebra_core():
    rng = random.Random(1010)
    checks = 0
    for _ in range(250):
        dim = rng.randint(2, 6)

        def rand_mv():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                blade = tuple(sorted(rng.sample(range(1, dim + 1), rng.randint(0, dim))))
                terms[blade] = terms.get(blade, 0) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            return Multivector(dim, terms)

        a, b, c = rand_mv(), rand_mv(), rand_mv()
        assert (a * b) * c == a * (b * c)
        checks += 1
        j, k = rng.sample(range(1, dim + 1), 2)
        ej, ek = Multivector.basis_vector(j, dim), Multivector.basis_vector(k, dim)
        assert (ej * ek + ek * ej).is_zero() and ej * ej == Multivector.scalar(-1, dim)
        checks += 2
        coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
        v = vector_embed(coords)
        assert v * v == Multivector.scalar(-sum(x * x for x in coords), dim)
        checks += 1
        even, odd = a.parity_split()
        assert even + odd == a
        prod = even * odd
        assert all(len(blade) % 2 == 1 for blade in prod.terms)
        checks += 1
    assert checks >= 1000

    frame = AxisFrame(3, 3)
    zero_mono = (0,) * frame.ncoords
    smoke_exprs = []
    sq = [((tuple(2 if i == j else 0 for i in range(frame.ncoords)), (), -1, 0), Fraction(1))
          for j in frame.x_indices]
    smoke_exprs.append(sq + [((zero_mono, (), 1, 0), Fraction(-1))])
    sq_y = [((tuple(2 if i == j else 0 for i in range(frame.ncoords)), (), 0, -3), Fraction(2))
            for j in frame.y_indices]
    smoke_exprs.append(sq_y + [((zero_mono, (), 0, -1), Fraction(-2))])
    om_nu = re_mul(omega(frame), nu(frame))
    anti = re_mul(nu(frame), omega(frame))
    smoke_exprs.append(list((om_nu + anti).raw_terms.items()))
    points = 0
    for raw in smoke_exprs:
        assert RadialExpr(frame, raw).is_zero()
        for _ in range(20):
            assert evaluate_terms(frame, raw, rational_point(frame, rng)) == {}
            points += 1
    _report(10, "algebra core", f"{checks} randomized checks, {points} exact point evaluations")
