import random
from fractions import Fraction

import pytest

from fueterkit.bivariate import BiaxialParams, BivariateRadial
from fueterkit.clifford import Multivector
from fueterkit.errors import PreconditionError, ShapeError
from fueterkit.frame import AxisFrame
from fueterkit.fueter import (
    BiaxialComponents,
    apply_map,
    classical_closed_form,
    extract_components,
    fischer_decompose,
    ft_closed_form,
    ft_general_via_fischer,
    ft_minus,
    ft_mu,
    ft_plus,
    fueter_classical,
    homogeneous_group_degree,
    vekua_check,
)
from fueterkit.radial import (
    RadialExpr,
    SCOPE_CR,
    SCOPE_FULL,
    dirac,
    inner_x,
    inner_y,
    is_monogenic,
    nu,
    omega,
    re_mul,
    vector_x,
    vector_y,
)
from fueterkit.seeds import (
    SeedFunction,
    ComplexBivarPoly,
    conj_power,
    holo_power,
    times_i,
)

F33 = AxisFrame(3, 3)


def e(j, dim=6):
    return Multivector.basis_vector(j, dim)


def rot_x(frame=F33):
    return (RadialExpr.coordinate(frame, "x1") * e(1, frame.m)
            - RadialExpr.coordinate(frame, "x2") * e(2, frame.m))


def rot_y(frame=F33):
    g = frame.p + 1
    return (RadialExpr.coordinate(frame, "y1") * e(g, frame.m)
            - RadialExpr.coordinate(frame, "y2") * e(g + 1, frame.m))


def one(frame=F33):
    return RadialExpr.scalar(frame, 1)


class TestFtPreconditions:
    def test_even_group_rejected(self):
        frame = AxisFrame(2, 3)
        with pytest.raises(PreconditionError):
            ft_plus(conj_power(3), inner_x(frame, [1, 1]), inner_y(frame, [1, 0, 0]), frame)

    def test_non_antiholomorphic_seed_rejected(self):
        seed = SeedFunction.create(ComplexBivarPoly.z() * ComplexBivarPoly.zbar())
        with pytest.raises(PreconditionError):
            ft_plus(seed, inner_x(F33, [1, 0, 0]), inner_y(F33, [1, 0, 0]), F33)

    def test_non_homogeneous_factor_rejected(self):
        hk = inner_x(F33, [1, 0, 0]) + one()
        with pytest.raises(PreconditionError):
            ft_plus(conj_power(5), hk, inner_y(F33, [1, 0, 0]), F33)

    def test_wrong_group_factor_rejected(self):
        with pytest.raises(PreconditionError):
            ft_plus(conj_power(5), inner_y(F33, [1, 0, 0]), inner_y(F33, [1, 0, 0]), F33)

    def test_squared_radius_counts_towards_factor_degree(self):
        # the normal form writes x3^2 as r^2 - x1^2 - x2^2 and y3^2 likewise
        assert homogeneous_group_degree(inner_x(F33, [1, 2, 3]) ** 2, "x") == 2
        assert homogeneous_group_degree(inner_y(F33, [0, 1, 1]) ** 3, "y") == 3
        for hk in (RadialExpr.radial(F33, 1, 0), RadialExpr.radial(F33, 2, 0) * RadialExpr.radial(F33, 0, 2)):
            with pytest.raises(PreconditionError):
                homogeneous_group_degree(hk, "x")
        with pytest.raises(PreconditionError):
            homogeneous_group_degree(RadialExpr.radial(F33, 2, 0), "y")

    def test_non_monogenic_factor_rejected_for_higher_order(self):
        seed = SeedFunction.create(ComplexBivarPoly.zbar() ** 5 * ComplexBivarPoly.z())
        xt = inner_x(F33, [1, 2, 0])
        with pytest.raises(PreconditionError):
            ft_mu(seed, xt, rot_y(), F33, "plus")

    def test_mu_override_below_order_rejected(self):
        seed = SeedFunction.create(ComplexBivarPoly.zbar() ** 5 * ComplexBivarPoly.z())
        with pytest.raises(PreconditionError):
            ft_mu(seed, rot_x(), rot_y(), F33, "plus", mu=0)


class TestFtValues:
    def test_degree_bound_annihilation(self):
        # integrand degree below 2(k+l) + m - 2 is annihilated
        out = ft_plus(conj_power(2), inner_x(F33, [1, 0, 0]), inner_y(F33, [0, 1, 0]), F33)
        assert out.is_zero()

    def test_zz_bar_with_constant_factors_is_zero(self):
        seed = SeedFunction.create(ComplexBivarPoly.z() * ComplexBivarPoly.zbar())
        out = ft_mu(seed, one(), one(), F33, "plus")
        assert out.is_zero()

    def test_outputs_monogenic(self):
        rng = random.Random(1)
        for n, variant in ((5, "plus"), (8, "plus"), (9, "minus"), (6, "minus")):
            t = [Fraction(rng.randint(-3, 3) or 1) for _ in range(3)]
            s = [Fraction(rng.randint(-3, 3) or 1) for _ in range(3)]
            hk, hl = inner_x(F33, t), inner_y(F33, s)
            fn = ft_plus if variant == "plus" else ft_minus
            out = fn(conj_power(n), hk, hl, F33)
            assert is_monogenic(out, SCOPE_FULL)

    def test_mu_zero_reduces_to_direct_maps(self):
        seed = conj_power(6)
        for variant, fn in (("plus", ft_plus), ("minus", ft_minus)):
            via_mu = ft_mu(seed, rot_x(), rot_y(), F33, variant)
            direct = fn(seed, rot_x(), rot_y(), F33)
            assert (via_mu - direct).is_zero()

    def test_apply_map_dispatch(self):
        seed = conj_power(8)
        xt, ys = inner_x(F33, [1, 0, 0]), inner_y(F33, [0, 1, 0])
        assert (apply_map(seed, xt, ys, F33, "plus") - ft_plus(seed, xt, ys, F33)).is_zero()
        higher = SeedFunction.create(ComplexBivarPoly.zbar() ** 5 * ComplexBivarPoly.z())
        assert (apply_map(higher, rot_x(), rot_y(), F33, "minus")
                - ft_mu(higher, rot_x(), rot_y(), F33, "minus")).is_zero()


class TestClosedForm:
    @pytest.mark.parametrize("variant", ["plus", "minus"])
    def test_matches_direct_map_for_monogenic_factors(self, variant):
        for seed in (conj_power(4), conj_power(7), times_i(conj_power(5)),
                     SeedFunction.create(ComplexBivarPoly.zbar() ** 5 * ComplexBivarPoly.z())):
            for pk, pl in ((one(), one()), (rot_x(), one()), (one(), rot_y()), (rot_x(), rot_y())):
                direct = ft_mu(seed, pk, pl, F33, variant)
                closed = ft_closed_form(seed, pk, pl, F33, variant)
                assert (direct - closed).is_zero()

    def test_constant_for_zbar8_scalar_factors(self):
        # (2k+p-1)!!(2l+q-1)!! multinomial(2; 1, 1) = 2*2*2 = 8 at k = l = 0
        seed = conj_power(8)
        closed = ft_closed_form(seed, one(), one(), F33, "plus")
        direct = ft_mu(seed, one(), one(), F33, "plus")
        assert (closed - direct).is_zero()
        comp = extract_components(closed, one(), one(), "plus")
        assert not comp.first.is_zero()

    def test_real_seed_has_zero_second_component(self):
        # for a real-valued seed (v = 0) the mu-fold planar Laplacian is a
        # constant, so the second component vanishes; with both group
        # dimensions 1 the operator strings are empty and the first
        # component survives as that constant
        frame = AxisFrame(1, 1)
        one_11 = RadialExpr.scalar(frame, 1)
        seed = SeedFunction.create(ComplexBivarPoly.z() * ComplexBivarPoly.zbar())
        assert seed.mu == 1
        closed = ft_closed_form(seed, one_11, one_11, frame, "plus")
        assert (closed - RadialExpr.scalar(frame, 4)).is_zero()
        assert (closed - ft_mu(seed, one_11, one_11, frame, "plus")).is_zero()
        comp = extract_components(closed, one_11, one_11, "plus")
        assert comp.second.is_zero()
        assert comp.first == BivariateRadial.constant(4)
        # at p = q = 3 the same seed's output is annihilated outright
        assert ft_closed_form(seed, rot_x(), rot_y(), F33, "plus").is_zero()

    def test_mu_override_consistency(self):
        seed = conj_power(4)
        direct = ft_mu(seed, rot_x(), one(), F33, "plus", mu=1)
        closed = ft_closed_form(seed, rot_x(), one(), F33, "plus", mu=1)
        assert (direct - closed).is_zero()


class TestFischer:
    def test_linear_coordinate(self):
        h = RadialExpr.coordinate(F33, "x1")
        layers = fischer_decompose(h, "x")
        assert [layer.n for layer in layers] == [0, 1]
        p1 = (h + Fraction(1, 3) * re_mul(vector_x(F33), RadialExpr.constant(F33, e(1))))
        assert (layers[0].component - p1).is_zero()
        p0 = RadialExpr.constant(F33, e(1)) * Fraction(-1, 3)
        assert (layers[1].component - p0).is_zero()

    def test_monogenic_input_is_identity(self):
        layers = fischer_decompose(rot_x(), "x")
        assert (layers[0].component - rot_x()).is_zero()
        assert all(layer.component.is_zero() for layer in layers[1:])

    def test_square_norm(self):
        sq = re_mul(RadialExpr.radial(F33, 1, 0), RadialExpr.radial(F33, 1, 0))
        layers = fischer_decompose(sq, "x")
        assert [layer.n for layer in layers] == [0, 1, 2]
        assert layers[0].component.is_zero()
        assert layers[1].component.is_zero()
        assert (layers[2].component - RadialExpr.scalar(F33, -1)).is_zero()

    def test_second_group(self):
        h = inner_y(F33, [1, 2, 3])
        layers = fischer_decompose(h, "y")
        xv = vector_y(F33)
        total = layers[0].component + re_mul(xv, layers[1].component)
        assert (total - h).is_zero()
        assert dirac(layers[0].component, "second-group").is_zero()

    def test_random_reconstruction(self):
        rng = random.Random(11)
        for p in (3, 5):
            frame = AxisFrame(p, 3)
            for _ in range(6):
                deg = rng.randint(0, 3)
                raw = []
                for _ in range(rng.randint(1, 4)):
                    mono = [0] * frame.ncoords
                    for _ in range(deg):
                        mono[rng.choice(list(frame.x_indices))] += 1
                    blade = tuple(sorted(rng.sample(range(1, p + 1), rng.randint(0, 2))))
                    raw.append(((tuple(mono), blade, 0, 0), Fraction(rng.randint(-3, 3) or 1)))
                h = RadialExpr(frame, raw)
                if h.is_zero():
                    continue
                layers = fischer_decompose(h, "x")
                assert len(layers) == deg + 1

    def test_non_homogeneous_rejected(self):
        with pytest.raises(PreconditionError):
            fischer_decompose(one() + RadialExpr.coordinate(F33, "x1"), "x")


class TestGeneralViaFischer:
    @pytest.mark.parametrize("variant", ["plus", "minus"])
    def test_matches_direct_map(self, variant):
        t = [Fraction(1), Fraction(-2), Fraction(1, 2)]
        s = [Fraction(2), Fraction(1), Fraction(-1)]
        hk, hl = inner_x(F33, t), inner_y(F33, s)
        direct_fn = ft_plus if variant == "plus" else ft_minus
        for n in (5, 8):
            routed = ft_general_via_fischer(conj_power(n), hk, hl, F33, variant)
            direct = direct_fn(conj_power(n), hk, hl, F33)
            assert (routed - direct).is_zero()

    def test_monogenic_factors_single_route(self):
        routed = ft_general_via_fischer(conj_power(6), rot_x(), rot_y(), F33, "plus")
        direct = ft_plus(conj_power(6), rot_x(), rot_y(), F33)
        assert (routed - direct).is_zero()

    def test_x_factor_with_trivial_y(self):
        t = [Fraction(1), Fraction(1), Fraction(0)]
        hk = inner_x(F33, t)
        routed = ft_general_via_fischer(conj_power(7), hk, one(), F33, "plus")
        direct = ft_plus(conj_power(7), hk, one(), F33)
        assert (routed - direct).is_zero()


class TestExtractAndVekua:
    def test_extract_minus_kind(self):
        f = vector_x(F33) - vector_y(F33)
        comp = extract_components(f, one(), one(), "minus")
        assert comp.first == BivariateRadial.monomial(1, 0)
        assert comp.second == BivariateRadial.monomial(0, 1, -1)

    def test_extract_plus_kind(self):
        f = RadialExpr.radial(F33, 2, 0) - RadialExpr.radial(F33, 0, 2)
        comp = extract_components(f, one(), one(), "plus")
        assert comp.first == BivariateRadial({(2, 0): 1, (0, 2): -1})
        assert comp.second.is_zero()

    def test_shape_error(self):
        f = RadialExpr.constant(F33, e(1))
        with pytest.raises(ShapeError):
            extract_components(f, one(), one(), "plus")

    def test_roundtrip_on_closed_form(self):
        seed = conj_power(7)
        closed = ft_closed_form(seed, rot_x(), rot_y(), F33, "minus")
        comp = extract_components(closed, rot_x(), rot_y(), "minus")
        om, nv = omega(F33), nu(F33)
        rebuilt = (re_mul(om, RadialExpr.from_bivariate(F33, comp.first))
                   + re_mul(nv, RadialExpr.from_bivariate(F33, comp.second)))
        rebuilt = re_mul(re_mul(rebuilt, rot_x()), rot_y())
        assert (rebuilt - closed).is_zero()

    def test_vekua_examples(self):
        params = BiaxialParams(0, 0, 3, 3)
        good = BiaxialComponents("minus", BivariateRadial.monomial(1, 0),
                                 BivariateRadial.monomial(0, 1, -1))
        assert vekua_check(good, params)
        bad = BiaxialComponents("minus", BivariateRadial.monomial(1, 0), BivariateRadial.zero())
        assert not vekua_check(bad, params)
        const = BiaxialComponents("plus", BivariateRadial.constant(5), BivariateRadial.zero())
        assert vekua_check(const, params)

    def test_vekua_on_closed_forms(self):
        for variant in ("plus", "minus"):
            for (k, pk), (l, pl) in (((0, one()), (0, one())), ((1, rot_x()), (1, rot_y()))):
                closed = ft_closed_form(conj_power(6), pk, pl, F33, variant)
                if closed.is_zero():
                    continue
                comp = extract_components(closed, pk, pl, variant)
                assert vekua_check(comp, BiaxialParams(k, l, 3, 3))


class TestClassical:
    FRAME = AxisFrame(3, 0, scalar_axis=True)

    def one_cl(self):
        return RadialExpr.scalar(self.FRAME, 1)

    def rot_cl(self):
        return (RadialExpr.coordinate(self.FRAME, "x1") * Multivector.basis_vector(1, 3)
                - RadialExpr.coordinate(self.FRAME, "x2") * Multivector.basis_vector(2, 3))

    def test_z_squared_value(self):
        out = fueter_classical(holo_power(2), self.one_cl(), 3)
        assert (out - RadialExpr.scalar(self.FRAME, -4)).is_zero()

    def test_linear_seed_annihilated(self):
        assert fueter_classical(holo_power(1), self.one_cl(), 3).is_zero()

    def test_closed_form_matches(self):
        for n in (2, 3, 4):
            for pk in (self.one_cl(), self.rot_cl()):
                direct = fueter_classical(holo_power(n), pk, 3)
                closed = classical_closed_form(holo_power(n), pk, 3)
                assert (direct - closed).is_zero()

    def test_cauchy_riemann_kernel(self):
        out = fueter_classical(holo_power(4), self.rot_cl(), 3)
        assert dirac(out, SCOPE_CR).is_zero()

    def test_even_dimension_rejected(self):
        frame = AxisFrame(4, 0, scalar_axis=True)
        with pytest.raises(PreconditionError):
            fueter_classical(holo_power(2), RadialExpr.scalar(frame, 1), 4)

    def test_antiholomorphic_seed_rejected(self):
        with pytest.raises(PreconditionError):
            fueter_classical(conj_power(2), self.one_cl(), 3)
