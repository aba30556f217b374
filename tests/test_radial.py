import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fueterkit.clifford import Multivector
from fueterkit.errors import PreconditionError
from fueterkit.frame import AxisFrame
from fueterkit.radial import (
    RadialExpr,
    SCOPE_CR,
    SCOPE_FIRST,
    SCOPE_FULL,
    dirac,
    evaluate_numeric,
    evaluate_terms,
    homogeneity_degree,
    inner_x,
    is_monogenic,
    laplacian_power,
    nu,
    omega,
    partial_derivative,
    re_mul,
    vector_x,
    vector_y,
)

F33 = AxisFrame(3, 3)
ZERO6 = (0,) * 6


def mono6(**exps):
    frame = F33
    out = [0] * frame.ncoords
    for name, e in exps.items():
        out[frame.coord_index(name)] = e
    return tuple(out)


class TestCanonicalize:
    def test_fold_to_pure_radial(self):
        raw = [((mono6(x1=2), (), -3, 0), 1), ((mono6(x2=2), (), -3, 0), 1), ((mono6(x3=2), (), -3, 0), 1)]
        expr = RadialExpr(F33, raw)
        assert expr.canonical_terms() == {(ZERO6, (), -1, 0): Fraction(1)}

    def test_radial_power_stays_and_last_square_is_eliminated(self):
        assert RadialExpr(F33, [((ZERO6, (), 3, 0), 1)]).canonical_terms() == {(ZERO6, (), 3, 0): Fraction(1)}
        terms = RadialExpr(F33, [((mono6(x3=2), (), 0, 0), 1)]).canonical_terms()
        assert terms == {(ZERO6, (), 2, 0): Fraction(1), (mono6(x1=2), (), 0, 0): Fraction(-1),
                         (mono6(x2=2), (), 0, 0): Fraction(-1)}

    def test_cancellation_gives_empty(self):
        expr = RadialExpr(F33, [((ZERO6, (), 1, 0), 1), ((ZERO6, (), 1, 0), -1)])
        assert expr.canonical_terms() == {}
        assert expr.is_zero()

    def test_cross_representation_equality(self):
        folded = RadialExpr(F33, [((mono6(x1=2), (), -2, 0), 1), ((mono6(x2=2), (), -2, 0), 1),
                                  ((mono6(x3=2), (), -2, 0), 1)])
        assert folded == RadialExpr.scalar(F33, 1)

    def test_single_axis_frame_rejects_rho(self):
        frame = AxisFrame(3, 0)
        with pytest.raises(ValueError):
            RadialExpr.radial(frame, 0, 1)


class TestProduct:
    def test_omega_nu_blades(self):
        prod = re_mul(omega(F33), nu(F33))
        for (mono, blade, a, b), _c in prod.canonical_terms().items():
            assert len(blade) == 2 and blade[0] <= 3 < blade[1]
            assert (a, b) == (-1, -1)

    def test_constant_order_matters(self):
        e1 = RadialExpr.constant(F33, Multivector.basis_vector(1, 6))
        e2 = RadialExpr.constant(F33, Multivector.basis_vector(2, 6))
        assert re_mul(e1, e2) == -re_mul(e2, e1)

    def test_r_times_r(self):
        r = RadialExpr.radial(F33, 1, 0)
        sq = re_mul(r, r)
        assert sq == RadialExpr(F33, [((mono6(x1=2), (), 0, 0), 1), ((mono6(x2=2), (), 0, 0), 1),
                                      ((mono6(x3=2), (), 0, 0), 1)])

    def test_frame_mismatch(self):
        with pytest.raises(ValueError):
            re_mul(RadialExpr.scalar(F33, 1), RadialExpr.scalar(AxisFrame(3, 5), 1))


class TestDerivatives:
    def test_derivative_of_r(self):
        d = partial_derivative(RadialExpr.radial(F33, 1, 0), "x1")
        assert d.canonical_terms() == {(mono6(x1=1), (), -1, 0): Fraction(1)}

    def test_derivative_of_laurent_power(self):
        d = partial_derivative(RadialExpr.radial(F33, -3, 0), "x1")
        assert d.canonical_terms() == {(mono6(x1=1), (), -5, 0): Fraction(-3)}

    def test_disjoint_groups(self):
        assert partial_derivative(RadialExpr.radial(F33, 2, 0), "y1").is_zero()

    def test_unknown_coordinate(self):
        with pytest.raises(ValueError):
            partial_derivative(RadialExpr.scalar(F33, 1), "x9")


class TestDirac:
    def test_dirac_of_x(self):
        assert dirac(vector_x(F33), SCOPE_FIRST) == RadialExpr.scalar(F33, -3)

    def test_dirac_of_x_minus_y(self):
        assert dirac(vector_x(F33) - vector_y(F33), SCOPE_FULL).is_zero()

    def test_dirac_of_rotation(self):
        e = lambda j: Multivector.basis_vector(j, 6)
        f = RadialExpr.coordinate(F33, "x1") * e(1) - RadialExpr.coordinate(F33, "x2") * e(2)
        assert dirac(f, SCOPE_FIRST).is_zero()

    def test_cr_scope_needs_scalar_axis(self):
        with pytest.raises(PreconditionError):
            dirac(RadialExpr.scalar(F33, 1), SCOPE_CR)


class TestLaplacian:
    def test_square_norm(self):
        sq = RadialExpr(F33, [((mono6(**{c: 2}), (), 0, 0), 1)
                              for c in ("x1", "x2", "x3", "y1", "y2", "y3")])
        assert laplacian_power(sq, 1, SCOPE_FULL) == RadialExpr.scalar(F33, 12)

    def test_laplacian_of_r(self):
        lap = laplacian_power(RadialExpr.radial(F33, 1, 0), 1, SCOPE_FULL)
        assert lap == RadialExpr.radial(F33, -1, 0, 2)

    def test_zero_power_is_identity(self):
        f = RadialExpr.radial(F33, 3, 2)
        assert laplacian_power(f, 0, SCOPE_FULL) == f

    def test_matches_composition_of_partials(self):
        rng = random.Random(5)
        for _ in range(15):
            raw = []
            for _ in range(rng.randint(1, 3)):
                mono = tuple(rng.randint(0, 2) for _ in range(6))
                blade = tuple(sorted(rng.sample(range(1, 7), rng.randint(0, 2))))
                raw.append(((mono, blade, rng.randint(-2, 2), rng.randint(-2, 2)),
                            Fraction(rng.randint(-3, 3) or 1)))
            f = RadialExpr(F33, raw)
            naive = RadialExpr.zero(F33)
            for name in F33.coord_names():
                naive = naive + partial_derivative(partial_derivative(f, name), name)
            assert (laplacian_power(f, 1, SCOPE_FULL) - naive).is_zero()

    def test_dirac_squares_to_minus_laplacian(self):
        rng = random.Random(6)
        for _ in range(15):
            raw = []
            for _ in range(rng.randint(1, 3)):
                mono = tuple(rng.randint(0, 2) for _ in range(6))
                blade = tuple(sorted(rng.sample(range(1, 7), rng.randint(0, 2))))
                raw.append(((mono, blade, rng.randint(-2, 2), rng.randint(-2, 2)),
                            Fraction(rng.randint(-3, 3) or 1)))
            f = RadialExpr(F33, raw)
            assert (dirac(dirac(f, SCOPE_FULL), SCOPE_FULL) + laplacian_power(f, 1, SCOPE_FULL)).is_zero()

    def test_fourth_dirac_power_is_squared_laplacian(self):
        f = re_mul(inner_x(F33, [1, 2, 0]), RadialExpr.radial(F33, 1, 2))
        four = f
        for _ in range(4):
            four = dirac(four, SCOPE_FULL)
        assert (four - laplacian_power(f, 2, SCOPE_FULL)).is_zero()


class TestMonogenicity:
    def test_rotation_is_monogenic(self):
        e = lambda j: Multivector.basis_vector(j, 6)
        f = RadialExpr.coordinate(F33, "x1") * e(1) - RadialExpr.coordinate(F33, "x2") * e(2)
        assert is_monogenic(f, SCOPE_FULL)

    def test_x_is_not_monogenic(self):
        assert not is_monogenic(vector_x(F33), SCOPE_FULL)

    def test_constants_are_monogenic(self):
        c = RadialExpr.constant(F33, Multivector(6, {(1, 4): 3, (): 1}))
        assert is_monogenic(c, SCOPE_FULL)


class TestHomogeneity:
    def test_inner_square(self):
        xt = inner_x(F33, [1, 2, 3])
        assert homogeneity_degree(re_mul(xt, xt)) == 2

    def test_laurent_degree(self):
        f = re_mul(RadialExpr.radial(F33, -3, 0), RadialExpr.coordinate(F33, "x1"))
        assert homogeneity_degree(f) == -2

    def test_mixed_marker(self):
        f = RadialExpr.radial(F33, 1, 0) + RadialExpr.radial(F33, 2, 0)
        assert homogeneity_degree(f) is None

    def test_euler_identity(self):
        f = re_mul(RadialExpr.radial(F33, -1, 2), inner_x(F33, [1, 0, 2]))
        deg = homogeneity_degree(f)
        euler = RadialExpr.zero(F33)
        for i in list(F33.x_indices) + list(F33.y_indices):
            name = F33.coord_name(i)
            euler = euler + re_mul(RadialExpr.coordinate(F33, name), partial_derivative(f, name))
        assert euler == deg * f


class TestCommutationInvariants:
    def test_canonicalize_commutes_with_derivative(self):
        rng = random.Random(7)
        for _ in range(20):
            raw = []
            for _ in range(rng.randint(1, 3)):
                mono = tuple(rng.randint(0, 2) for _ in range(6))
                blade = tuple(sorted(rng.sample(range(1, 7), rng.randint(0, 2))))
                raw.append(((mono, blade, rng.randint(-2, 2), rng.randint(-2, 2)),
                            Fraction(rng.randint(-3, 3) or 1)))
            f = RadialExpr(F33, raw)
            name = rng.choice(F33.coord_names())
            assert (partial_derivative(f.canonicalized(), name)
                    - partial_derivative(f, name)).is_zero()

    def test_mixed_partials_commute(self):
        rng = random.Random(8)
        for _ in range(20):
            raw = []
            for _ in range(rng.randint(1, 3)):
                mono = tuple(rng.randint(0, 2) for _ in range(6))
                blade = tuple(sorted(rng.sample(range(1, 7), rng.randint(0, 1))))
                raw.append(((mono, blade, rng.randint(-2, 2), rng.randint(-2, 2)),
                            Fraction(rng.randint(-3, 3) or 1)))
            f = RadialExpr(F33, raw)
            c1, c2 = rng.choice(F33.coord_names()), rng.choice(F33.coord_names())
            lhs = partial_derivative(partial_derivative(f, c1), c2)
            rhs = partial_derivative(partial_derivative(f, c2), c1)
            assert (lhs - rhs).is_zero()

    def test_leibniz_scalar_left_factor(self):
        scalar = RadialExpr.radial(F33, -2, 2, Fraction(3, 2))
        f = re_mul(inner_x(F33, [1, 2, 0]), nu(F33))
        lhs = partial_derivative(re_mul(scalar, f), "x2")
        rhs = (re_mul(partial_derivative(scalar, "x2"), f)
               + re_mul(scalar, partial_derivative(f, "x2")))
        assert lhs == rhs


@st.composite
def radial_exprs(draw):
    n_terms = draw(st.integers(min_value=1, max_value=4))
    raw = []
    for _ in range(n_terms):
        mono = tuple(draw(st.integers(min_value=0, max_value=2)) for _ in range(6))
        blade = tuple(sorted(draw(st.sets(st.integers(min_value=1, max_value=6), max_size=2))))
        a = draw(st.integers(min_value=-2, max_value=2))
        b = draw(st.integers(min_value=-2, max_value=2))
        coeff = draw(st.fractions(min_value=-4, max_value=4, max_denominator=3))
        if coeff:
            raw.append(((mono, blade, a, b), coeff))
    return RadialExpr(F33, raw)


class TestHypothesisProperties:
    @settings(max_examples=60, deadline=None)
    @given(radial_exprs())
    def test_dirac_factorizes_laplacian(self, f):
        assert (dirac(dirac(f, SCOPE_FULL), SCOPE_FULL)
                + laplacian_power(f, 1, SCOPE_FULL)).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(radial_exprs(), st.sampled_from(["x1", "x2", "x3", "y1", "y2", "y3"]))
    def test_derivative_commutes_with_canonicalization(self, f, coord):
        assert (partial_derivative(f.canonicalized(), coord)
                - partial_derivative(f, coord)).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(radial_exprs(), radial_exprs())
    def test_product_distributes_over_sums(self, f, g):
        h = RadialExpr.radial(F33, -1, 1) + inner_x(F33, [1, 0, 2])
        assert (re_mul(h, f + g) - (re_mul(h, f) + re_mul(h, g))).is_zero()


class TestZeroSoundness:
    def test_numeric_smoke_on_cancelling_terms(self):
        rng = random.Random(9)
        raw = [((mono6(**{c: 2}), (), -1, 0), Fraction(1)) for c in ("x1", "x2", "x3")]
        raw.append(((ZERO6, (), 1, 0), Fraction(-1)))
        assert RadialExpr(F33, raw).is_zero()
        for _ in range(20):
            point = {name: Fraction(rng.randint(1, 6), rng.randint(1, 3))
                     for name in F33.coord_names()}
            vals = evaluate_terms(F33, raw, point)
            assert all(abs(v) < 1e-9 for v in vals.values())

    def test_numeric_value_of_nonzero(self):
        f = RadialExpr.radial(F33, 2, 0)
        point = {name: Fraction(1) for name in F33.coord_names()}
        vals = evaluate_numeric(f, point)
        assert abs(vals[()] - 3.0) < 1e-12
