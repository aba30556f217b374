import random
from fractions import Fraction

import pytest

from fueterkit import bivariate, fueter, radial
from fueterkit.bivariate import BiaxialParams, BivariateRadial
from fueterkit.clifford import Multivector
from fueterkit.errors import PreconditionError, ShapeError, VerificationError
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
from fueterkit.selfcheck import definition_map
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

    @pytest.mark.parametrize("factor, group, message", [
        (lambda: inner_x(F33, [1, 0, 0]) * inner_y(F33, [0, 1, 0]), "x",
         "factor uses coordinate y2 outside the x group"),
        (lambda: inner_x(F33, [1, 0, 0]) * e(4), "x",
         r"factor has coefficient blade \(4,\) outside the x group algebra"),
        (lambda: inner_y(F33, [1, 0, 0]) * RadialExpr.radial(F33, 2, 0), "y",
         r"factor is not a polynomial \(radial exponents 2, 0 remain\)"),
        (lambda: RadialExpr.radial(F33, 1, 0), "x",
         r"factor is not a polynomial \(its group's radius has exponent 1\)"),
        (lambda: RadialExpr.radial(F33, 0, -2), "y",
         r"factor is not a polynomial \(its group's radius has exponent -2\)"),
        (lambda: inner_x(F33, [1, 0, 0]) + RadialExpr.radial(F33, 2, 0), "x",
         r"factor is not homogeneous: degrees \[1, 2\]"),
        (lambda: inner_y(F33, [1, 0, 0]) - inner_y(F33, [1, 0, 0]), "y",
         "the zero expression is not a valid y-group factor"),
        (lambda: RadialExpr.scalar(AxisFrame(3), 1), "y", "frame has no second axial group"),
    ], ids=["coordinate", "blade", "other-radius", "odd-exponent", "negative-exponent", "mixed-degrees",
            "zero", "no-second-group"])
    def test_factor_rejections_name_their_reason(self, factor, group, message):
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            homogeneous_group_degree(factor(), group)

    def test_equal_factors_name_the_same_fault(self):
        """The rows are read sorted, so the order the terms were built in
        does not pick the fault."""
        x1, x2 = RadialExpr.coordinate(F33, "x1"), RadialExpr.coordinate(F33, "x2")
        y_term, blade_term = x1 * RadialExpr.coordinate(F33, "y2"), x2 * e(4)
        built = [y_term + blade_term, blade_term + y_term]
        assert built[0] == built[1]
        messages = set()
        for factor in built:
            with pytest.raises(PreconditionError) as raised:
                homogeneous_group_degree(factor, "x")
            messages.add(str(raised.value))
        assert messages == {"factor has coefficient blade (4,) outside the x group algebra"}

    @pytest.mark.parametrize("call", [
        lambda f, group: f.negate_group(group),
        lambda f, group: homogeneous_group_degree(f, group),
        lambda f, group: fischer_decompose(f, group),
    ], ids=["negate_group", "homogeneous_group_degree", "fischer_decompose"])
    @pytest.mark.parametrize("group", ["z", "X", ""])
    def test_unknown_group_name_rejected(self, call, group):
        with pytest.raises(ValueError, match="group must be 'x' or 'y'"):
            call(inner_x(F33, [1, 2, 0]), group)

    @pytest.mark.parametrize("call, name", [
        (lambda: ft_mu(conj_power(5), inner_x(F33, [1, 2, 0]), rot_y(), F33, "plus"), "Pk"),
        (lambda: ft_closed_form(conj_power(5), rot_x(), inner_y(F33, [1, 2, 0]), F33, "minus"), "Pl"),
        (lambda: fueter_classical(holo_power(3), inner_x(AxisFrame(3, 0, scalar_axis=True), [1, 2, 0]), 3), "PK"),
    ], ids=["ft_mu", "ft_closed_form", "fueter_classical"])
    def test_non_monogenic_factor_message(self, call, name):
        with pytest.raises(PreconditionError, match=f"^{name} must be monogenic for its group Dirac operator$"):
            call()

    @pytest.mark.parametrize("scope, assertion", [(SCOPE_FULL, "monogenicity"), (SCOPE_CR, "Cauchy-Riemann")])
    def test_output_check_names_its_assertion(self, scope, assertion):
        frame = AxisFrame(3, 0, scalar_axis=True)
        assert fueter._verified(RadialExpr.scalar(frame, 2), scope, "map") == 2
        with pytest.raises(VerificationError, match=f"^map output failed its {assertion} assertion$"):
            fueter._verified(RadialExpr.coordinate(frame, "x1"), scope, "map")

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


T = [Fraction(v) for v in "1 -1 2 1/2 -3".split()]
S = [Fraction(v) for v in "1/2 1 -1 2 1/3".split()]


def _calculus_cases():
    """(label, seed, Hk, Hl, frame, variant, mu) over the branches of the
    group-by-group calculus: both variants, Clifford-valued factors with odd
    blades (so Hk* != Hk), stored rows with r^2 or rho^2, Hl = 1, and mu > 0
    seeds with monogenic factors (rotations and degree-preserving Fischer
    layers).  The seed powers give nonzero outputs."""
    zbar, z = ComplexBivarPoly.zbar(), ComplexBivarPoly.z()
    cases = []
    for p, q in ((1, 1), (1, 3), (3, 3), (5, 5)):
        frame = AxisFrame(p, q)
        xt, ys = inner_x(frame, T[:p]), inner_y(frame, S[:q])
        x1, y1 = RadialExpr.coordinate(frame, "x1"), RadialExpr.coordinate(frame, "y1")
        for name, hk, hl in (("<x,t> <y,s>", xt, ys),
                             ("x<x,t> + <x,t>^2, 1", vector_x(frame) * xt + xt * xt, one(frame)),
                             ("r^2 + x1^2, rho^2 - 3y1^2", RadialExpr.radial(frame, 2, 0) + x1 * x1,
                              RadialExpr.radial(frame, 0, 2) - 3 * y1 * y1),
                             ("x + <x,t>, y<y,s>", vector_x(frame) + xt, vector_y(frame) * ys)):
            for variant, power in (("plus", 7), ("minus", 8)):
                cases.append((f"({p},{q}) {name} {variant}", conj_power(power), hk, hl, frame, variant, 0))
    for p, mu, k, powers in ((3, 0, 2, (5, 6)), (3, 1, 2, (6, 5)), (5, 2, 1, (7, 6))):
        frame = AxisFrame(p, p)
        layer_x = fischer_decompose(inner_x(frame, T[:p]) ** k, "x")[0].component
        layer_y = fischer_decompose(inner_y(frame, S[:p]), "y")[0].component
        pairs = [("Fischer layer, 1", layer_x, one(frame))]
        if p == 3:  # at (5,5) these seeds map the other pairs to zero
            pairs += [("rotations", rot_x(frame), rot_y(frame)), ("Fischer layers", layer_x, layer_y)]
        for variant, power in zip(("plus", "minus"), powers):
            seed = SeedFunction.create(zbar ** power * z ** mu)
            for name, hk, hl in pairs:
                cases.append((f"({p},{p}) mu={mu} {name} {variant}", seed, hk, hl, frame, variant, mu))
    return cases


class TestGroupByGroupCalculus:
    """The direct maps take Delta^n group by group on (r, rho) tables; the
    definition route takes it on the whole integrand.  A direct map stores
    the definition route's normal form, key for key, as its own."""

    @pytest.mark.parametrize("case", _calculus_cases(), ids=lambda case: case[0])
    def test_same_terms_as_definition(self, case):
        _label, seed, hk, hl, frame, variant, mu = case
        if mu:
            out = ft_mu(seed, hk, hl, frame, variant)
        else:
            out = (ft_plus if variant == "plus" else ft_minus)(seed, hk, hl, frame)
        assert not out.is_zero()
        reference = definition_map(seed, hk, hl, frame, variant, mu)
        assert out.raw_terms == reference.canonical_terms()
        assert out == reference
        assert out._normal() is out._terms

    @pytest.mark.parametrize("variant", ["plus", "minus"])
    def test_factors_whose_rows_leave_their_group(self, variant):
        """Stored rows in the other group that the normal form cancels: the
        calculus splits the normal form instead, so only equality holds."""
        def squares(group):
            return sum((RadialExpr.coordinate(F33, f"{group}{j}") ** 2 for j in (1, 2, 3)), RadialExpr.zero(F33))

        x1, y1 = RadialExpr.coordinate(F33, "x1"), RadialExpr.coordinate(F33, "y1")
        hk = x1 + (squares("y") - RadialExpr.radial(F33, 0, 2)) * e(4)
        hl = y1 + (squares("x") - RadialExpr.radial(F33, 2, 0)) * x1
        assert hk == x1 and hl == y1
        fn = ft_plus if variant == "plus" else ft_minus
        out = fn(conj_power(8), hk, hl, F33)
        assert not out.is_zero()
        assert out == definition_map(conj_power(8), hk, hl, F33, variant)
        assert out == fn(conj_power(8), x1, y1, F33)

    def test_direct_maps_take_no_full_scope_laplacian(self, monkeypatch):
        xt, ys = inner_x(F33, T[:3]), inner_y(F33, S[:3])
        higher = SeedFunction.create(ComplexBivarPoly.zbar() ** 5 * ComplexBivarPoly.z())
        maps = [lambda: ft_plus(conj_power(9), xt * xt, ys, F33),
                lambda: ft_minus(conj_power(8), xt, ys, F33),
                lambda: ft_mu(higher, rot_x(), rot_y(), F33, "minus")]
        before = [fn() for fn in maps]
        group_scopes = []
        real = radial.laplacian

        def group_scope_only(f, scope=SCOPE_FULL):
            if scope == SCOPE_FULL:
                raise AssertionError("a direct map took a full-scope Laplacian")
            group_scopes.append(scope)
            return real(f, scope)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a direct map took laplacian_power")

        monkeypatch.setattr(radial, "laplacian", group_scope_only)
        monkeypatch.setattr(fueter, "laplacian_power", forbidden)
        after = [fn() for fn in maps]
        assert [out.raw_terms for out in after] == [out.raw_terms for out in before]
        assert set(group_scopes) == {radial.SCOPE_FIRST, radial.SCOPE_SECOND}

    def test_a_shape_without_the_grade_involution_is_caught(self, monkeypatch):
        """Every engine path writes the shape through ``_triples``, so a
        wrong rule there agrees with itself.  With Hk in place of Hk* the
        Dirac check still rejects the direct maps and the closed forms.
        Where a closed form returns, v's operator term is zero, so the
        rule does not act and the output equals the definition route's,
        which writes the shape with omega and nu."""
        def without_involution(variant, u, v, hk, hl):
            first, second = hl(False, False), hl(False, True)
            if variant == "plus":
                return [(u, hk(False, False), first), (v.shift(-1, -1), hk(False, True), second)]
            return [(u.shift(-1, 0), hk(False, True), first), (v.shift(0, -1), hk(False, False), second)]

        monkeypatch.setattr(fueter, "_triples", without_involution)
        hk, ys = vector_x(F33) * inner_x(F33, T[:3]), inner_y(F33, S[:3])
        for fn in (ft_plus, ft_minus):
            with pytest.raises(VerificationError, match="map output"):
                fn(conj_power(8), hk, ys, F33)
        for power, variant in ((7, "plus"), (8, "minus")):
            with pytest.raises(VerificationError, match="closed form"):
                ft_closed_form(conj_power(power), rot_x(), rot_y(), F33, variant)
        out = ft_closed_form(conj_power(8), rot_x(), rot_y(), F33, "plus")
        assert not out.is_zero() and out == definition_map(conj_power(8), rot_x(), rot_y(), F33, "plus")


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

    def test_comparing_two_verified_outputs_forms_no_further_normal_form(self, monkeypatch):
        """Each output's proof caches its normal form, and equality compares
        the two cached forms, so no normal form of a difference is formed."""
        seed = SeedFunction.create(ComplexBivarPoly.zbar() ** 5 * ComplexBivarPoly.z())
        pk = fischer_decompose(inner_x(F33, [1, Fraction(-1, 2), 2]), "x")[0].component
        pl = fischer_decompose(inner_y(F33, [Fraction(1, 3), 1, -1]), "y")[0].component
        direct = ft_mu(seed, pk, pl, F33, "minus")
        closed = ft_closed_form(seed, pk, pl, F33, "minus")
        calls = []
        normal_form = radial._normal_form
        monkeypatch.setattr(radial, "_normal_form", lambda *args: calls.append(args) or normal_form(*args))
        assert direct == closed and not direct != closed
        assert calls == []

    def test_mu_override_consistency(self):
        seed = conj_power(4)
        direct = ft_mu(seed, rot_x(), one(), F33, "plus", mu=1)
        closed = ft_closed_form(seed, rot_x(), one(), F33, "plus", mu=1)
        assert (direct - closed).is_zero()

    @pytest.mark.parametrize("variant", ["plus", "minus"])
    def test_broken_radial_operator_fails_verification(self, monkeypatch, variant):
        """The closed form checks its own output: with (d/dr r^{-1})^n
        replaced by (r^{-1} d/dr)^n it is no longer monogenic."""
        monkeypatch.setattr(bivariate, "apply_dx_xinv", bivariate.apply_xinv_dx)
        with pytest.raises(VerificationError, match="closed form"):
            ft_closed_form(conj_power(8), rot_x(), rot_y(), F33, variant)


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
        """Random homogeneous group polynomials of degree 0..4: the layers
        are monogenic, and the explicit sum xvec^n P_{K-n} gives H back."""
        rng = random.Random(11)
        for group, frame in (("x", AxisFrame(3, 3)), ("x", AxisFrame(5, 3)), ("y", AxisFrame(3, 5))):
            xv = vector_x(frame) if group == "x" else vector_y(frame)
            scope = "first-group" if group == "x" else "second-group"
            for _ in range(6):
                deg = rng.randint(0, 4)
                h = _random_group_poly(rng, frame, group, deg)
                if h.is_zero():
                    continue
                layers = fischer_decompose(h, group)
                assert [layer.n for layer in layers] == list(range(deg + 1))
                xpow, total = one(frame), RadialExpr.zero(frame)
                for layer in layers:
                    assert dirac(layer.component, scope).is_zero()
                    total = total + re_mul(xpow, layer.component)
                    xpow = re_mul(xpow, xv)
                assert (total - h).is_zero()

    def test_non_homogeneous_rejected(self):
        with pytest.raises(PreconditionError):
            fischer_decompose(one() + RadialExpr.coordinate(F33, "x1"), "x")

    def test_layers_equal_the_remainder_algorithm(self):
        """The layers read off one Dirac chain equal those of the remainder
        algorithm, which takes the projection series of each remainder."""
        x12 = RadialExpr.coordinate(F33, "x1") + RadialExpr.coordinate(F33, "x2")
        cases = [(x12 ** k, "x") for k in range(17)]
        cases += [(rot_x(), "x"), (rot_y(), "y"), (RadialExpr.constant(F33, e(1) + e(2) * 2), "x")]
        rng = random.Random(31)
        for p, q in ((3, 3), (5, 3), (3, 5), (1, 3)):
            frame = AxisFrame(p, q)
            for group in ("x", "y"):
                for deg in range(7):
                    h = _random_group_poly(rng, frame, group, deg)
                    if not h.is_zero():
                        cases.append((h, group))
        for h, group in cases:
            layers = fischer_decompose(h, group)
            want = _remainder_layers(h, group)
            assert [layer.n for layer in layers] == [n for n, _p in want]
            assert all(layer.component == p for layer, (_n, p) in zip(layers, want))

    @pytest.mark.parametrize("group, degree", [("x", 4), ("x", 9), ("x", 16), ("y", 9)])
    def test_every_product_lands_at_most_squared(self, monkeypatch, group, degree):
        """Powers of the group vector are read as radius shifts and each
        chain entry is stored in normal form, so no normal form taken
        during the decomposition rewrites x_p (or y_q) past its square.
        The input's own normal form, which rewrites the last coordinate's
        full power, is formed before the count starts."""
        names = ["x1", "x2", "x3"] if group == "x" else ["y1", "y2", "y3"]
        h = sum((RadialExpr.coordinate(F33, name) for name in names), RadialExpr.zero(F33)) ** degree
        assert not h.is_zero()
        asked = []
        real = radial._lead_square_power
        monkeypatch.setattr(radial, "_lead_square_power",
                            lambda frame, g, k: asked.append(k) or real(frame, g, k))
        assert [layer.n for layer in fischer_decompose(h, group)] == list(range(degree + 1))
        assert asked and max(asked) == 1


def _random_group_poly(rng, frame, group, deg):
    """A sum of 1 to 4 random monomials of degree deg on the group's
    coordinates, each times a blade of up to two of its generators."""
    coords = list(frame.group_indices(group))
    generators = [frame.generator_of(i) for i in coords]
    raw = []
    for _ in range(rng.randint(1, 4)):
        mono = [0] * frame.ncoords
        for _ in range(deg):
            mono[rng.choice(coords)] += 1
        blade = tuple(sorted(rng.sample(generators, rng.randint(0, min(2, len(generators))))))
        raw.append(((tuple(mono), blade, 0, 0), Fraction(rng.randint(-3, 3) or 1)))
    return RadialExpr(frame, raw)


def _remainder_layers(h, group):
    """The reference Fischer layers, (n, P_{K-n}), by the remainder
    algorithm: each remainder g of degree d, H first, splits as P + xvec *
    rest with P = sum_j a_j xvec^j D^j g, the projection series of g's own
    Dirac powers, and rest is the next remainder."""
    frame = h.frame
    degree = homogeneous_group_degree(h, group)
    dim = len(frame.group_indices(group))
    scope = "first-group" if group == "x" else "second-group"
    xv = vector_x(frame) if group == "x" else vector_y(frame)
    layers, cur = [], h
    for n in range(degree + 1):
        d = degree - n
        series, coeff, deriv = [], Fraction(1), cur
        for j in range(1, d + 1):
            coeff = coeff / (dim + 2 * d - j - 1) if j % 2 else -coeff / j
            deriv = dirac(deriv, scope)
            series.append((coeff, deriv))
        rest = RadialExpr.zero(frame)
        for coeff, deriv in reversed(series):
            rest = xv * rest - coeff * deriv
        layers.append((n, cur - xv * rest))
        cur = rest
    return layers


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
        # <y,s>^2 has Fischer layers n2 = 0, 1, 2: both parities of n2 and
        # of n1 + n2 meet the routing rule
        routed = ft_general_via_fischer(conj_power(8), hk, hl ** 2, F33, variant)
        assert not routed.is_zero()
        assert routed == direct_fn(conj_power(8), hk, hl ** 2, F33)

    @pytest.mark.parametrize("variant", ["plus", "minus"])
    def test_one_closed_form_per_layer_pair(self, monkeypatch, variant):
        """x1 e1 + x2 has an even-valued and an odd-valued part in its
        layers, and <y,s>^2 has layers n2 = 0, 1, 2: the six nonzero layer
        pairs take one closed form each, the x layer entering as its
        n2-fold grade involution, and the triples of all six are assembled
        in one call."""
        hk = RadialExpr.coordinate(F33, "x1") * e(1) + RadialExpr.coordinate(F33, "x2")
        hl = inner_y(F33, [Fraction(2), Fraction(1), Fraction(-1)]) ** 2
        assert all(not layer.component.is_zero() for layer in fischer_decompose(hk, "x"))
        calls, assemblies = [], []

        def counted(fn, log):
            def wrapper(*args):
                log.append(args)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(fueter, "_top_term", counted(fueter._top_term, calls))
        monkeypatch.setattr(fueter, "separated_laplacian_power", counted(fueter.separated_laplacian_power, assemblies))
        direct_fn = ft_plus if variant == "plus" else ft_minus
        for n in (7, 8, 9):
            calls.clear()
            assemblies.clear()
            routed = ft_general_via_fischer(conj_power(n), hk, hl, F33, variant)
            assert len(calls) == 6
            assert len(assemblies) == 1
            assert not routed.is_zero() and routed == direct_fn(conj_power(n), hk, hl, F33)

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

    @pytest.mark.parametrize("variant", ["plus", "minus"])
    def test_route_never_takes_a_laplacian(self, monkeypatch, variant):
        """The route checks the direct map without sharing its Laplacian code."""
        hk = inner_x(F33, [Fraction(1), Fraction(-2), Fraction(1, 2)]) ** 2
        hl = inner_y(F33, [Fraction(2), Fraction(1), Fraction(-1)])
        direct_fn = ft_plus if variant == "plus" else ft_minus
        direct = direct_fn(conj_power(8), hk, hl, F33)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("the Fischer route took a Laplacian")

        monkeypatch.setattr(fueter, "laplacian_power", forbidden)
        monkeypatch.setattr(radial, "laplacian", forbidden)
        monkeypatch.setattr(radial, "laplacian_power", forbidden)
        routed = ft_general_via_fischer(conj_power(8), hk, hl, F33, variant)
        assert not routed.is_zero()
        assert routed == direct


def _mixed_route_factors():
    """x1 e1 + x2, whose two Fischer layers each have an even-valued and an
    odd-valued part, and <y,s>^2 with its three layers n2 = 0, 1, 2."""
    hk = RadialExpr.coordinate(F33, "x1") * e(1) + RadialExpr.coordinate(F33, "x2")
    return hk, inner_y(F33, [Fraction(2), Fraction(1), Fraction(-1)]) ** 2


def _rows(expr):
    return tuple(sorted(expr.canonical_terms().items()))


class TestWorkCounts:
    """Each piece of a map's assembly is made once per call."""

    @pytest.mark.parametrize("variant", ["plus", "minus"])
    def test_the_route_chains_each_distinct_factor_once(self, monkeypatch, variant):
        """Pairs share their layers' forms, so the assembly chains each
        distinct (factor, group) of its triples once."""
        hk, hl = _mixed_route_factors()
        direct = (ft_plus if variant == "plus" else ft_minus)(conj_power(8), hk, hl, F33)
        chained, assembled = [], []
        real_chains, real_power = radial._factor_chains, fueter.separated_laplacian_power
        # the lists keep the factors alive, so their ids stay distinct
        monkeypatch.setattr(radial, "_factor_chains",
                            lambda f, group, n: chained.append((f, group)) or real_chains(f, group, n))
        monkeypatch.setattr(fueter, "separated_laplacian_power",
                            lambda triples, n: assembled.append(triples) or real_power(triples, n))
        assert ft_general_via_fischer(conj_power(8), hk, hl, F33, variant) == direct
        (triples,) = assembled
        distinct = {(id(p), "x") for _w, p, _q in triples} | {(id(q), "y") for _w, _p, q in triples}
        keys = [(id(f), group) for f, group in chained]
        assert len(triples) == 12
        assert len(keys) == len(set(keys)) and set(keys) == distinct

    @pytest.mark.parametrize("variant", ["plus", "minus"])
    def test_the_route_makes_each_layer_product_once(self, monkeypatch, variant):
        """x P, x P* and y Q for each layer P and Q: no product is made twice."""
        hk, hl = _mixed_route_factors()
        layers = {group: fischer_decompose(h, group) for group, h in (("x", hk), ("y", hl))}
        for layer in layers["x"]:
            assert layer.component.grade_involution() not in (layer.component, -layer.component)
        products = []
        real = radial.re_mul
        monkeypatch.setattr(fueter, "fischer_decompose", lambda h, group: layers[group])
        monkeypatch.setattr(radial, "re_mul", lambda f, g: products.append((_rows(f), _rows(g))) or real(f, g))
        routed = ft_general_via_fischer(conj_power(8), hk, hl, F33, variant)
        assert not routed.is_zero()
        assert products and len(products) == len(set(products))

    @pytest.mark.parametrize("group", ["x", "y"])
    def test_fischer_takes_one_dirac_chain(self, monkeypatch, group):
        """A degree-K factor takes K Dirac calls, D H, ..., D^K H, and every
        layer is read off that chain; the layer checks go through
        ``is_monogenic`` and are not counted here."""
        calls = []
        real = fueter.dirac
        monkeypatch.setattr(fueter, "dirac", lambda f, scope: calls.append(scope) or real(f, scope))
        base = inner_x(F33, [1, 2, -1]) if group == "x" else inner_y(F33, [1, Fraction(1, 2), 3])
        for degree in (1, 4, 9):
            calls.clear()
            assert [layer.n for layer in fischer_decompose(base ** degree, group)] == list(range(degree + 1))
            assert len(calls) == degree

    @pytest.mark.parametrize("group", ["x", "y"])
    def test_fischer_takes_one_vector_product_per_layer(self, monkeypatch, group):
        """Each layer is E + xvec O, and the reconstruction too, so a
        degree-K factor takes at most K + 2 products by the group vector."""
        vec = (vector_x(F33) if group == "x" else vector_y(F33)).raw_terms
        products = []
        real = radial.re_mul
        monkeypatch.setattr(radial, "re_mul", lambda f, g: products.append(vec in (f.raw_terms, g.raw_terms))
                            or real(f, g))
        base = inner_x(F33, [1, 2, -1]) if group == "x" else inner_y(F33, [1, Fraction(1, 2), 3])
        for degree in (1, 4, 9):
            products.clear()
            assert [layer.n for layer in fischer_decompose(base ** degree, group)] == list(range(degree + 1))
            assert 0 < products.count(True) <= degree + 2

    def test_no_output_normal_form_is_formed(self, monkeypatch):
        """The proof of every assembled output reads the normal form the
        assembly stored: ``_verified`` forms none."""
        proving, formed, proved = [], [], []
        real_form, real_verified = radial._normal_form, fueter._verified

        def verified(out, scope, what):
            proving.append(what)
            try:
                return real_verified(out, scope, what)
            finally:
                proved.append(proving.pop())

        monkeypatch.setattr(radial, "_normal_form", lambda *args: formed.extend(proving) or real_form(*args))
        monkeypatch.setattr(fueter, "_verified", verified)
        hk, hl = _mixed_route_factors()
        higher = SeedFunction.create(ComplexBivarPoly.zbar() ** 5 * ComplexBivarPoly.z())
        assert not ft_plus(conj_power(9), hk, hl, F33).is_zero()
        assert not ft_mu(higher, rot_x(), rot_y(), F33, "minus").is_zero()
        assert not ft_closed_form(higher, rot_x(), rot_y(), F33, "minus").is_zero()
        assert not ft_general_via_fischer(conj_power(8), hk, hl, F33, "minus").is_zero()
        assert len(proved) == 4 and formed == []

    def test_map_inputs_make_no_validated_expression(self, monkeypatch):
        """The factor checks read the canonical rows as they are: no map
        call repacks a factor through the validating constructor."""
        built = []
        real_init = RadialExpr.__init__

        def init(self, *args, **kwargs):
            built.append(args)
            real_init(self, *args, **kwargs)

        hk, hl = _mixed_route_factors()
        higher = SeedFunction.create(ComplexBivarPoly.zbar() ** 5 * ComplexBivarPoly.z())
        monkeypatch.setattr(RadialExpr, "__init__", init)
        counts = []
        for call in (lambda: ft_general_via_fischer(conj_power(8), hk, hl, F33, "minus"),
                     lambda: ft_mu(higher, rot_x(), rot_y(), F33, "minus"),
                     lambda: ft_closed_form(higher, rot_x(), rot_y(), F33, "minus"),
                     lambda: ft_plus(conj_power(9), hk, hl, F33)):
            built.clear()
            assert not call().is_zero()
            counts.append(len(built))
        assert counts == [0, 0, 0, 0]


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

    @staticmethod
    def assembled(kind, first, second, pk, pl):
        """The kind's shape of (first, second) times Pk Pl, as a map assembles it."""
        triples = fueter._triples(kind, first, second, fueter._forms(pk, "x"), fueter._forms(pl, "y"))
        return radial.separated_laplacian_power(triples, 0)

    @staticmethod
    def random_laurent(rng):
        """A nonzero Laurent polynomial of up to four terms with a negative exponent."""
        while True:
            w = BivariateRadial({(rng.randint(-3, 3), rng.randint(-3, 3)): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                 for _ in range(rng.randint(2, 4))})
            if not w.is_zero() and any(a < 0 or b < 0 for a, b in w.terms):
                return w

    @pytest.mark.parametrize("kind", ["plus", "minus"])
    @pytest.mark.parametrize("p", [3, 5])
    def test_extraction_inverts_assembly(self, kind, p):
        """Random Laurent pairs, with factors 1, rotations and the squares
        of inner products, which are not monogenic."""
        frame = AxisFrame(p, p)
        rng = random.Random(100 * p + (kind == "plus"))
        ip_x = inner_x(frame, [Fraction(rng.randint(1, 3)) for _ in range(p)]) ** 2
        ip_y = inner_y(frame, [Fraction(rng.randint(-3, -1)) for _ in range(p)]) ** 2
        for pk, pl in ((one(frame), one(frame)), (rot_x(frame), rot_y(frame)), (ip_x, rot_y(frame)),
                       (one(frame), ip_y)):
            first, second = self.random_laurent(rng), self.random_laurent(rng)
            comp = extract_components(self.assembled(kind, first, second, pk, pl), pk, pl, kind)
            assert (comp.kind, comp.first, comp.second) == (kind, first, second)

    @pytest.mark.parametrize("kind", ["plus", "minus"])
    def test_a_part_no_multiple_of_its_base_is_a_shape_error(self, kind):
        """x1 Hl has the bidegree and x-parity of the (1, 0) base made from
        the rotation Pk, but is no multiple of it."""
        pk, pl = rot_x(), rot_y()
        first, second = BivariateRadial({(-1, 2): 3, (0, 0): 1}), BivariateRadial.monomial(1, -2, 2)
        f = self.assembled(kind, first, second, pk, pl)
        stray = self.assembled(kind, BivariateRadial.constant(1), BivariateRadial.zero(),
                               RadialExpr.coordinate(F33, "x1"), pl)
        assert extract_components(f, pk, pl, kind).first == first
        with pytest.raises(ShapeError):
            extract_components(f + stray, pk, pl, kind)

    def test_roundtrip_on_closed_form(self):
        """Nonzero closed forms of both kinds; at (5,5) an x mask ORed with
        a y mask spans e1..e10."""
        for frame, power, kind in ((F33, 8, "minus"), (AxisFrame(5, 5), 7, "plus"), (AxisFrame(5, 5), 8, "minus")):
            pk, pl = rot_x(frame), rot_y(frame)
            closed = ft_closed_form(conj_power(power), pk, pl, frame, kind)
            assert not closed.is_zero()
            comp = extract_components(closed, pk, pl, kind)
            first, second = (RadialExpr.from_bivariate(frame, w) for w in (comp.first, comp.second))
            om, nv = omega(frame), nu(frame)
            if kind == "plus":
                rebuilt = first + re_mul(re_mul(om, nv), second)
            else:
                rebuilt = re_mul(om, first) + re_mul(nv, second)
            rebuilt = re_mul(re_mul(rebuilt, pk), pl)
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
        for m in (3, 5):
            frame = AxisFrame(m, 0, scalar_axis=True)
            rot = (RadialExpr.coordinate(frame, "x1") * Multivector.basis_vector(1, m)
                   - RadialExpr.coordinate(frame, "x2") * Multivector.basis_vector(2, m))
            for n in (2, 3, 4):
                for pk in (RadialExpr.scalar(frame, 1), rot):
                    direct = fueter_classical(holo_power(n), pk, m)
                    closed = classical_closed_form(holo_power(n), pk, m)
                    assert (direct - closed).is_zero()

    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_closed_form_is_lemma5_top_term(self, m):
        # The single-axis closed form's own formula, (2K+m-1)!! times
        # ((R^-1 d_R)^n u, (d_R R^-1)^n v) with n = K + (m-1)/2, as reference.
        z = ComplexBivarPoly.z()
        seeds = [holo_power(j) for j in range(2, 8)]
        seeds += [times_i(holo_power(3)), SeedFunction.create(z ** 6 + 3 * z ** 2)]
        for seed in seeds:
            u, v = fueter._lifted_uv(seed)
            for big_k in range(4):
                n = big_k + (m - 1) // 2
                weight = 1
                for f in range(2 * big_k + m - 1, 0, -2):
                    weight *= f
                want = (weight * bivariate.apply_xinv_dx(u, n, "rho"), weight * bivariate.apply_dx_xinv(v, n, "rho"))
                assert fueter._top_term(seed, 1, m, 0, big_k, 0, "plus") == want

    def test_broken_closed_form_fails_verification(self, monkeypatch):
        monkeypatch.setattr(bivariate, "apply_dx_xinv", bivariate.apply_xinv_dx)
        with pytest.raises(VerificationError, match="Cauchy-Riemann"):
            classical_closed_form(holo_power(4), self.rot_cl(), 3)

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
