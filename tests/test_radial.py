import copy
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fueterkit import radial
from fueterkit.bivariate import BivariateRadial
from fueterkit.clifford import Multivector
from fueterkit.errors import PreconditionError
from fueterkit.frame import AxisFrame
from fueterkit.fueter import fischer_decompose, ft_general_via_fischer, ft_plus
from fueterkit.parsing import parse_expression, parse_seed
from fueterkit.radial import (
    RadialExpr,
    SCOPE_CR,
    SCOPE_FIRST,
    SCOPE_FULL,
    SCOPE_SECOND,
    dirac,
    evaluate_terms,
    inner_x,
    inner_y,
    is_monogenic,
    laplacian,
    laplacian_power,
    nu,
    omega,
    partial_derivative,
    proportionality_constant,
    rational_point,
    re_mul,
    vector_x,
    vector_y,
)
from fueterkit.seeds import SeedFunction

F33 = AxisFrame(3, 3)
F55 = AxisFrame(5, 5)
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

    def test_canonical_terms_are_a_fresh_sorted_dict(self):
        expr = partial_derivative(RadialExpr(F33, [((mono6(x3=3), (1,), 1, 0), Fraction(1, 6))]), "x3")
        terms = expr.canonical_terms()
        assert list(terms) == sorted(terms) and len(terms) > 1
        assert all(type(c) is Fraction for c in terms.values())
        terms[next(iter(terms))] = 0
        assert expr.canonical_terms() != terms

    def test_single_axis_frame_rejects_rho(self):
        frame = AxisFrame(3, 0)
        with pytest.raises(ValueError):
            RadialExpr.radial(frame, 0, 1)


class TestEquality:
    """``==`` compares the two normal forms: one dict comparison when the
    denominators agree, a cross-multiplication when they differ."""

    def test_equal_denominators(self):
        x1, x2, x3 = (RadialExpr.coordinate(F33, name) for name in ("x1", "x2", "x3"))
        e1 = Multivector.basis_vector(1, 6)
        f = Fraction(1, 3) * (x1 + x2 * e1 + x3 * x3)
        same = Fraction(1, 3) * (RadialExpr.radial(F33, 2, 0) - x1 * x1 - x2 * x2) + Fraction(1, 3) * x2 * e1 \
            + Fraction(1, 3) * x1
        one_numerator_off = Fraction(1, 3) * (x1 + 2 * x2 * e1 + x3 * x3)
        assert f._den == same._den == one_numerator_off._den == 3
        assert f == same and same == f
        assert f != one_numerator_off and not one_numerator_off == f

    def test_unequal_denominators(self):
        x1, x2 = RadialExpr.coordinate(F33, "x1"), RadialExpr.coordinate(F33, "x2")
        # a derivative keeps its operand's denominator: 2 x1 over 2
        d = partial_derivative(Fraction(1, 2) * x1 * x1 + Fraction(1, 2) * x2, "x1")
        assert (d._den, x1._den) == (2, 1)
        assert d == x1 and x1 == d
        assert d != 2 * x1 and 2 * x1 != d
        assert d != x1 + x2


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

    @pytest.mark.parametrize("field", ["a", "b"])
    def test_a_product_at_the_exponent_limit(self, field):
        """A product whose exponents sum to exactly +-EXPONENT_LIMIT is
        formed, with its blades and monomials intact; one beyond it, and
        the two largest exponents whose r field would carry into rho, are
        rejected."""
        lim = radial.EXPONENT_LIMIT
        e1, e4 = Multivector.basis_vector(1, 6), Multivector.basis_vector(4, 6)

        def term(name, coeff, e, other=0):
            a, b = (e, other) if field == "a" else (other, e)
            return RadialExpr.monomial(F33, {name: 1}, coeff, a, b)

        for sign in (1, -1):
            half = sign * lim // 2
            got = re_mul(term("x1", e1, half, 3), term("y1", e4, half, -5))
            want = RadialExpr.monomial(F33, {"x1": 1, "y1": 1}, e1 * e4, *((sign * lim, -2) if field == "a"
                                                                           else (-2, sign * lim)))
            assert got.raw_terms == want.raw_terms
            for left, right in ((half + sign, half), (half, half + sign), (sign * lim, sign * lim)):
                with pytest.raises(PreconditionError, match="beyond the limit"):
                    re_mul(term("x1", e1, left), term("y1", e4, right))


class TestMonomial:
    def test_exponents_by_name_and_no_alias_of_a_name(self):
        got = RadialExpr.monomial(F33, {"x1": 2, "y3": 1})
        assert got.raw_terms == {(mono6(x1=2, y3=1), (), 0, 0): Fraction(1)}
        # "x01" is no alias of x1, so no two names add into one exponent
        with pytest.raises(ValueError, match="unknown coordinate 'x01'"):
            RadialExpr.monomial(F33, {"x1": 2, "y3": 1, "x01": 1})

    def test_multivector_coefficient_and_radial_powers(self):
        coeff = Multivector(6, {(1,): Fraction(1, 2), (2, 5): -3})
        got = RadialExpr.monomial(F33, {"x2": 1}, coeff, a=-1, b=2)
        assert got.raw_terms == {(mono6(x2=1), (1,), -1, 2): Fraction(1, 2), (mono6(x2=1), (2, 5), -1, 2): -3}
        assert RadialExpr.monomial(F33, {}, Fraction(-2, 3), a=3).raw_terms == {(ZERO6, (), 3, 0): Fraction(-2, 3)}

    def test_equals_the_product_of_coordinates(self):
        x1, y2 = (RadialExpr.coordinate(F33, name) for name in ("x1", "y2"))
        e3 = RadialExpr.constant(F33, Multivector.basis_vector(3, 6))
        assert RadialExpr.monomial(F33, {"x1": 2, "y2": 1}, 3) == 3 * x1 * x1 * y2
        assert RadialExpr.monomial(F33, {"y2": 1}, Multivector.basis_vector(3, 6)) == e3 * y2
        assert RadialExpr.monomial(F33, {"x1": 1}, 0).is_zero()

    @pytest.mark.parametrize("frame, exponents, coeff, b, message", [
        (F33, {"x1": -1}, 1, 0, "exponents must be >= 0"),
        (F33, {"z1": 1}, 1, 0, "unknown coordinate 'z1'"),
        (AxisFrame(3), {"x1": 1}, 1, 1, "rho exponent must be 0 in a single-axis frame"),
        (F33, {"x1": 1}, Multivector.scalar(1, 3), 0, "multivector dimension 3 does not match frame m=6"),
    ], ids=["negative-exponent", "unknown-coordinate", "rho-single-axis", "coefficient-dimension"])
    def test_errors(self, frame, exponents, coeff, b, message):
        with pytest.raises(ValueError, match=message):
            RadialExpr.monomial(frame, exponents, coeff, b=b)

    @pytest.mark.parametrize("b", [1, -1, radial.EXPONENT_LIMIT + 1], ids=["one", "minus-one", "beyond-the-limit"])
    @pytest.mark.parametrize("build", [
        lambda frame, b: RadialExpr.monomial(frame, {"x1": 1}, 1, b=b),
        lambda frame, b: RadialExpr(frame, {((1,) + (0,) * (frame.ncoords - 1), (), 0, b): 1}),
        lambda frame, b: RadialExpr.from_bivariate(frame, BivariateRadial({(2, 0): 1, (0, b): 1})),
    ], ids=["monomial", "validating-constructor", "from_bivariate"])
    def test_rho_single_axis_from_every_entry_point(self, build, b):
        """The rho-single-axis row of test_errors, from each entry point
        where rows enter, and checked before the exponent limit."""
        with pytest.raises(ValueError, match="rho exponent must be 0 in a single-axis frame"):
            build(AxisFrame(3), b)

    def test_single_term_constructors_pack_as_the_validating_constructor(self):
        lim = radial.EXPONENT_LIMIT
        mv = Multivector(6, {(): Fraction(1, 2), (1,): -3, (2, 5): Fraction(2, 7)})

        def same(got, rows):
            want = RadialExpr(F33, rows)
            assert (got._terms, got._den) == (want._terms, want._den)

        def rows_of(coeff, mono=ZERO6, a=0, b=0):
            blades = coeff.terms if isinstance(coeff, Multivector) else {(): coeff}
            return {(mono, blade, a, b): c for blade, c in blades.items()}

        same(RadialExpr.scalar(F33, Fraction(-2, 3)), rows_of(Fraction(-2, 3)))
        same(RadialExpr.scalar(F33, 0), {})
        for a, b in ((lim, -lim), (-lim, lim), (3, -1)):
            same(RadialExpr.radial(F33, a, b, Fraction(5, 4)), rows_of(Fraction(5, 4), a=a, b=b))
            same(RadialExpr.radial(F33, a, b, 0), {})
            same(RadialExpr.monomial(F33, {"x2": 1, "y1": 3}, mv, a, b), rows_of(mv, mono6(x2=1, y1=3), a, b))
        same(RadialExpr.constant(F33, mv), rows_of(mv))
        same(RadialExpr.constant(F33, Multivector(6)), {})
        same(RadialExpr.coordinate(F33, "y2"), rows_of(1, mono6(y2=1)))
        f = RadialExpr.coordinate(F33, "x1") + RadialExpr.radial(F33, -1, 2, Fraction(1, 6))
        for other in (2, Fraction(1, 3), 0, mv, Multivector(6)):
            same(f._coerce(other), rows_of(other))
            total = f + RadialExpr(F33, rows_of(other))
            assert ((f + other)._terms, (f + other)._den) == (total._terms, total._den)

    @pytest.mark.parametrize("a, b", [(1, 0), (-1, 0), (0, 1), (0, -1)], ids=["a+", "a-", "b+", "b-"])
    def test_exponent_one_beyond_the_limit(self, a, b):
        a, b = a * (radial.EXPONENT_LIMIT + 1), b * (radial.EXPONENT_LIMIT + 1)
        mv = Multivector(6, {(1,): 1, (2, 5): 2})
        for build in (lambda: RadialExpr.radial(F33, a, b), lambda: RadialExpr.monomial(F33, {"x1": 1}, mv, a, b),
                      lambda: RadialExpr(F33, {(ZERO6, (), a, b): 1})):
            with pytest.raises(PreconditionError, match="beyond the limit"):
                build()


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

    @pytest.mark.parametrize("kernel", [dirac, laplacian])
    def test_second_group_scope_needs_a_second_group(self, kernel):
        frame = AxisFrame(3, 0)
        with pytest.raises(PreconditionError, match="second-group scope"):
            kernel(RadialExpr.coordinate(frame, "x1"), SCOPE_SECOND)


def _lead_power_operand(rng, frame):
    """A random raw operand whose rows carry the last coordinate of each
    group to a power up to 4, with radial exponents -3..3 and blades."""
    leads = [frame.x_indices[-1]] + ([frame.y_indices[-1]] if frame.q else [])
    raw = []
    for _ in range(rng.randint(1, 4)):
        mono = [rng.randint(0, 2) for _ in range(frame.ncoords)]
        for i in leads:
            mono[i] = rng.randint(0, 4)
        blade = tuple(sorted(rng.sample(range(1, frame.m + 1), rng.randint(0, 2))))
        b = rng.randint(-3, 3) if frame.q else 0
        raw.append(((tuple(mono), blade, rng.randint(-3, 3), b), Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3))))
    return RadialExpr(frame, raw), leads


def _dirac_by_partials(f, scope):
    """sum_j e_j d_j f over the scope's vector coordinates, plus d_0 f for
    cauchy-riemann (which takes both groups, as ``laplacian`` does), from
    ``partial_derivative`` and ``re_mul``."""
    frame = f.frame
    groups = {SCOPE_FIRST: "x", SCOPE_SECOND: "y", SCOPE_FULL: "xy", SCOPE_CR: "xy"}[scope]
    out = partial_derivative(f, 0) if scope == SCOPE_CR else RadialExpr.zero(frame)
    for group in groups:
        for i in frame.group_indices(group):
            e = RadialExpr.constant(frame, Multivector.basis_vector(frame.generator_of(i), frame.m))
            out = out + re_mul(e, partial_derivative(f, i))
    return out


class TestDiracNormalForm:
    @pytest.mark.parametrize("frame, scope", [
        (F33, SCOPE_FIRST), (F33, SCOPE_SECOND), (F33, SCOPE_FULL), (AxisFrame(1, 3), SCOPE_FULL),
        (AxisFrame(3, 0, scalar_axis=True), SCOPE_CR),
    ], ids=["x", "y", "full", "full-p1", "cauchy-riemann"])
    def test_the_image_lands_in_normal_form(self, frame, scope):
        rng = random.Random(frame.m * 10 + len(scope))
        rewritten = 0
        for _ in range(25):
            f, leads = _lead_power_operand(rng, frame)
            rewritten += any(mono[i] >= 2 for mono, *_rest in f.raw_terms for i in leads)
            out = dirac(f, scope)
            assert all(mono[i] < 2 for mono, *_rest in out.raw_terms for i in leads)
            assert out.raw_terms == RadialExpr(frame, out.raw_terms).canonical_terms()
            assert out == _dirac_by_partials(f, scope)
        assert rewritten

    def test_a_perturbed_output_row_fails_the_proof(self):
        from fueterkit.fueter import ft_plus
        from fueterkit.seeds import conj_power

        out = ft_plus(conj_power(5), inner_x(F33, [1, 2, -1]), radial.inner_y(F33, [1, Fraction(1, 2), 2]), F33)
        assert is_monogenic(out)
        rows = out.raw_terms
        for key in random.Random(3).sample(sorted(rows), 8):
            bad = dict(rows)
            bad[key] += 1
            assert not is_monogenic(RadialExpr(F33, bad))

    def test_an_operand_whose_normal_form_passes_the_limit_is_rejected(self):
        # x3^2 r^(2^62) is stored at the limit, but its normal form holds r^(2^62 + 2)
        f = RadialExpr(F33, {(mono6(x3=2), (), 2**62, 0): 1})
        with pytest.raises(PreconditionError, match=f"radial exponent {2**62 + 2} "):
            is_monogenic(f)
        with pytest.raises(PreconditionError, match=f"radial exponent {2**62 + 2} "):
            f == f


def _factor_part(rng, frame, idxs, generators):
    """One x part (or y part) without its radial power: a monomial in the
    given coordinates with the group's last coordinate mostly linear, and a
    blade of the group's generators."""
    mono = [0] * frame.ncoords
    for i in idxs:
        mono[i] = rng.randint(0, 2)
    if idxs and rng.random() < 0.8:
        mono[idxs[-1]] = rng.randint(0, 1)
    return mono, tuple(sorted(rng.sample(generators, rng.randint(0, min(2, len(generators))))))


def _factor_shaped(rng, frame, big=False):
    """A random sum of x part times y part products: most pairs of 11 to 14
    x parts (X0 with the x coordinates) and 11 to 14 y parts, so many y
    parts share an x part and many x parts a y part.  The y parts fall in two
    classes (y-degree + rho exponent), and the radial exponents are
    negative and odd too; numerators pass 2^64 when big."""
    xs = [(*_factor_part(rng, frame, [*range(frame.x_indices.start), *frame.x_indices],
                         list(range(1, frame.p + 1))), rng.randint(-3, 3)) for _ in range(rng.randint(11, 14))]
    classes = rng.sample(range(-2, 4), 2)
    ys = []
    for _ in range(rng.randint(11, 14)):
        mono, blade = _factor_part(rng, frame, list(frame.y_indices), list(range(frame.p + 1, frame.m + 1)))
        ys.append((mono, blade, rng.choice(classes) - sum(mono) if frame.q else 0))
    raw = {}
    for xm, xb, a in xs:
        for ym, yb, b in ys:
            if rng.random() < 0.9:
                c = rng.choice([-3, -2, -1, 1, 2, 5]) * (rng.randint(2**64, 2**70) if big else 1)
                raw[(tuple(u + v for u, v in zip(xm, ym)), xb + yb, a, b)] = Fraction(c, rng.randint(1, 3))
    return RadialExpr(frame, raw)


def _split(f):
    return radial._split_rows(f.frame, f._normal())


class TestDiracOnRowFactors:
    @pytest.mark.parametrize("frame", [AxisFrame(1, 3), F33, F55, AxisFrame(3, 0, scalar_axis=True),
                                       AxisFrame(3, 3, scalar_axis=True)], ids=str)
    def test_every_scope_equals_the_partials_on_factor_shaped_inputs(self, frame):
        scopes = [SCOPE_FIRST, SCOPE_FULL] + [SCOPE_SECOND] * (frame.q > 0) + [SCOPE_CR] * frame.scalar_axis
        rng = random.Random(frame.m * 10 + frame.scalar_axis)
        leads = [indices[-1] for indices in (frame.x_indices, frame.y_indices) if indices]
        split = 0
        for trial in range(8):
            f = _factor_shaped(rng, frame, big=trial % 3 == 0)
            split += _split(f) is not None
            for scope in scopes:
                out = dirac(f, scope)
                assert out == _dirac_by_partials(f, scope), scope
                assert all(mono[i] < 2 for mono, *_rest in out.raw_terms for i in leads)
                assert out.raw_terms == RadialExpr(frame, out.raw_terms).canonical_terms()
        # a single-axis frame has one y part, so its rows are their own x parts
        assert split >= 6 if frame.q else split == 0

    def test_every_perturbed_row_of_a_5_5_output_fails_the_proof(self):
        from fueterkit.fueter import ft_plus
        from fueterkit.seeds import conj_power

        out = ft_plus(conj_power(5), inner_x(F55, [1, 2, -1, 3, Fraction(1, 2)]),
                      radial.inner_y(F55, [2, -1, Fraction(1, 3), 1, 1]), F55)
        assert is_monogenic(out)
        width = _split(out)[0]
        rows, den = out.raw_terms, out._den
        # a change of 2^k near the slot width must not carry into a neighbouring slot unseen
        deltas = [Fraction(sign * 2**k, den) for k in range(width - 2, width + 3) for sign in (1, -1)]
        for key in random.Random(5).sample(sorted(rows), 8):
            for delta in [Fraction(1), Fraction(-1)] + deltas:
                bad = dict(rows)
                bad[key] += delta
                assert not is_monogenic(RadialExpr(F55, bad)), (key, delta)


class TestDiracSplitRule:
    @pytest.mark.parametrize("name", ["binomial", "diagonal", "banded", "x-only", "y-only"])
    def test_thin_inputs_keep_each_row_as_its_own_part(self, name):
        x1, y1 = RadialExpr.coordinate(F33, "x1"), RadialExpr.coordinate(F33, "y1")
        zero = RadialExpr.zero(F33)
        f = {
            "binomial": lambda: (x1 + y1) ** 250,
            # sum x1 r^i y1^i rho^-i: every y part in the one class 0
            "diagonal": lambda: sum((RadialExpr.monomial(F33, {"x1": 1, "y1": i}, 1, i, -i) for i in range(250)), zero),
            # x1^i (y1^i rho^-i + y1^(i+1) rho^-(i+1)): 2 rows per x part and
            # per y part, all in class 0, but 240 rows on a 120 x 120 grid
            "banded": lambda: sum((RadialExpr.monomial(F33, {"x1": i, "y1": j % 120}, 1, 0, -(j % 120))
                                   for i in range(120) for j in (i, i + 1)), zero),
            "x-only": lambda: (inner_x(F33, [1, 2, -1]) + Multivector.basis_vector(1, 6)) ** 12
                              * RadialExpr.radial(F33, -3, 0),
            "y-only": lambda: (radial.inner_y(F33, [1, 2, -1]) + Multivector.basis_vector(5, 6)) ** 12
                              * RadialExpr.radial(F33, 0, -3),
        }[name]()
        assert sum(map(len, f._normal().values())) >= 2 * radial._SPLIT_MIN_ROWS
        assert _split(f) is None

    @staticmethod
    def _dense_output():
        from fueterkit.fueter import ft_plus
        from fueterkit.seeds import conj_power

        return ft_plus(conj_power(10), inner_x(F33, [1, 2, -1]), radial.inner_y(F33, [1, Fraction(1, 2), 2]), F33)

    def test_a_dense_output_gets_one_window_per_y_class(self):
        out = self._dense_output()
        width, parts, slots, counts = _split(out)
        mb = F33.m + 64
        numbered: dict[int, list[int]] = {}
        for ym, yslots in slots.items():
            for yk, s in yslots.items():
                numbered.setdefault(sum(ym) + (yk >> mb), []).append(s)
        assert len(counts) > 1
        assert {k: sorted(v) for k, v in numbered.items()} == {k: list(range(n)) for k, n in counts.items()}
        # an x part's packed rows in a class use only that class's slots
        assert all(s < counts[xk >> mb] for xparts in parts.values() for xk, pairs in xparts.items()
                   for s, _c in pairs)
        total = sum(abs(c) for c in out.raw_terms.values()) * out._den
        assert 2 ** (width - 1) > 2 * total

    def test_a_monogenic_output_is_proven_on_its_packed_ints(self, monkeypatch):
        out = self._dense_output()
        bad = dict(out.raw_terms)
        key = sorted(bad)[0]
        bad[key] += 1
        calls = []
        rule = radial._dirac_rule
        monkeypatch.setattr(radial, "_dirac_rule", lambda m, groups, *rest: calls.append(groups) or rule(m, groups, *rest))
        assert is_monogenic(out)
        # one rule call per side on the parts; the rows themselves are not read
        assert len(calls) == 2 and out._normal() not in calls
        calls.clear()
        assert not is_monogenic(RadialExpr(F33, bad))
        # a nonzero image is formed by the rule on the rows
        assert len(calls) == 3

    def test_image_parts_outside_the_operand_get_slots_of_their_own(self):
        # D_y of 39 y1 e4 rho^40 - 121 y1 e5 rho^40 lands only on y parts the
        # operand lacks, with coefficients that sum to 0: one shared slot
        # would cancel them
        eps = RadialExpr(F33, {(mono6(y1=1), (4,), 0, 40): 39, (mono6(y1=1), (5,), 0, 40): -121})
        f = self._dense_output() + eps
        assert _split(f) is not None
        assert not is_monogenic(f)

    def test_wide_numerators_keep_each_row_as_its_own_part(self):
        out = self._dense_output()
        # the same rows with numerators of about 3200 bits: too wide to pack
        wide = out * (3**2000 + 1)
        assert _split(out) is not None
        assert _split(wide) is None
        assert is_monogenic(wide)


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

    def test_unknown_scope_is_rejected(self):
        with pytest.raises(ValueError):
            laplacian(RadialExpr.radial(F33, 3, 2), "all")

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_power_takes_one_module_level_laplacian_per_step(self, monkeypatch, n):
        """Tracing records one span per Laplacian step, so the power must
        go through ``radial.laplacian`` once per step, not fuse steps."""
        calls = []
        step = radial.laplacian

        def counted(f, scope=SCOPE_FULL):
            calls.append(scope)
            return step(f, scope)

        monkeypatch.setattr(radial, "laplacian", counted)
        f = re_mul(inner_x(F33, [1, 2, 0]), RadialExpr.radial(F33, 3, 2))
        want = f
        for _ in range(n):
            want = step(want, SCOPE_FIRST)
        assert laplacian_power(f, n, SCOPE_FIRST) == want
        assert calls == [SCOPE_FIRST] * n

    def test_fourth_dirac_power_is_squared_laplacian(self):
        f = re_mul(inner_x(F33, [1, 2, 0]), RadialExpr.radial(F33, 1, 2))
        four = f
        for _ in range(4):
            four = dirac(four, SCOPE_FULL)
        assert (four - laplacian_power(f, 2, SCOPE_FULL)).is_zero()


def _group_factor(rng, group, frame=F33):
    """A random sum of own-group terms R^e * monomial * blade, e of either sign."""
    idxs = frame.group_indices(group)
    gens = range(frame.generator_of(idxs.start), frame.generator_of(idxs.stop - 1) + 1)
    raw = []
    for _ in range(rng.randint(1, 3)):
        mono = [0] * frame.ncoords
        for i in idxs:
            mono[i] = rng.randint(0, 2)
        blade = tuple(sorted(rng.sample(gens, rng.randint(0, 2))))
        e = rng.randint(-3, 2)
        raw.append(((tuple(mono), blade, *((e, 0) if group == "x" else (0, e))), Fraction(rng.randint(-3, 3) or 1)))
    return RadialExpr(frame, raw)


class TestSeparatedLaplacianPower:
    @pytest.mark.parametrize("n", [0, 1, 2, 4])
    def test_same_terms_as_full_scope_power(self, n):
        rng = random.Random(40 + n)
        for _ in range(6):
            triples = []
            for _ in range(rng.randint(1, 2)):
                w = BivariateRadial({(rng.randint(-3, 3), rng.randint(-3, 3)): Fraction(rng.randint(1, 4), 3)
                                     for _ in range(rng.randint(1, 3))})
                triples.append((w, _group_factor(rng, "x"), _group_factor(rng, "y")))
            integrand = sum((RadialExpr.from_bivariate(F33, w) * p * q for w, p, q in triples), RadialExpr.zero(F33))
            want = laplacian_power(integrand, n, SCOPE_FULL)
            got = radial.separated_laplacian_power(triples, n)
            assert got.raw_terms == want.canonical_terms()
            assert got == want
            assert got._normal() is got._terms

    @pytest.mark.parametrize("n", [0, 1, 2, 4])
    def test_same_terms_as_full_scope_power_at_5_5(self, n):
        # Blades across e1..e10: the assembly ORs an x mask and a y mask, so
        # blades such as e{1,10} check that the union is the product.
        rng = random.Random(80 + n)
        for _ in range(4):
            triples = []
            for _ in range(rng.randint(1, 2)):
                w = BivariateRadial({(rng.randint(-3, 3), rng.randint(-3, 3)): Fraction(rng.randint(1, 4), 3)
                                     for _ in range(rng.randint(1, 3))})
                # factors over different denominators, as <x,t>^k with a rational t
                triples.append((w, Fraction(1, rng.randint(1, 4)) * _group_factor(rng, "x", F55),
                                Fraction(1, rng.randint(1, 4)) * _group_factor(rng, "y", F55)))
            integrand = sum((RadialExpr.from_bivariate(F55, w) * p * q for w, p, q in triples), RadialExpr.zero(F55))
            want = laplacian_power(integrand, n, SCOPE_FULL)
            got = radial.separated_laplacian_power(triples, n)
            assert got.raw_terms == want.canonical_terms()
            assert got == want
            assert got._normal() is got._terms

    @pytest.mark.parametrize("group", ["x", "y"])
    def test_the_exponent_limit_counts_an_entry_normal_form(self, group):
        """x3^2 assembles in its normal form r^2 - x1^2 - x2^2 (y3^2 as
        rho^2 - y1^2 - y2^2): the r^2 (rho^2) row sets the edge, so a table
        exponent of EXPONENT_LIMIT - 2 assembles and one above it is
        rejected before a key's r field can carry into rho."""
        lim = radial.EXPONENT_LIMIT
        one = RadialExpr.scalar(F33, 1)
        square = RadialExpr.monomial(F33, {f"{group}3": 2})

        def assembled(e):
            w = BivariateRadial({(e, 0) if group == "x" else (0, e): 1})
            return radial.separated_laplacian_power([(w, square, one) if group == "x" else (w, one, square)], 0)

        def radial_term(name, e):
            a, b = (e, 0) if group == "x" else (0, e)
            return RadialExpr.monomial(F33, {name: 2} if name else {}, 1, a, b)

        for e in (lim - 2, -lim):
            got = assembled(e)
            want = radial_term(None, e + 2) - radial_term(f"{group}1", e) - radial_term(f"{group}2", e)
            assert got.raw_terms == want.raw_terms
        for e in (lim - 1, -lim - 1):
            with pytest.raises(PreconditionError, match="beyond the limit"):
                assembled(e)

    def test_factor_outside_its_group_is_rejected(self):
        one = BivariateRadial.constant(1)
        x1 = RadialExpr.coordinate(F33, "x1")
        with pytest.raises(PreconditionError):
            radial.separated_laplacian_power([(one, RadialExpr.coordinate(F33, "y1"), x1)], 1)
        with pytest.raises(ValueError):
            radial.separated_laplacian_power([(one, x1, RadialExpr.scalar(F33, 1))], -1)


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


class TestGradeInvolution:
    def test_negates_the_odd_grade_blades(self):
        e = lambda j: Multivector.basis_vector(j, 6)
        x1, x2 = RadialExpr.coordinate(F33, "x1"), RadialExpr.coordinate(F33, "x2")
        f = Fraction(1, 3) * (x1 * e(1) + x2 + x2 * e(1) * e(4) + e(1) * e(2) * e(4) * RadialExpr.radial(F33, -1, 2))
        want = Fraction(1, 3) * (-x1 * e(1) + x2 + x2 * e(1) * e(4) - e(1) * e(2) * e(4) * RadialExpr.radial(F33, -1, 2))
        star = f.grade_involution()
        assert star._den == f._den and star.raw_terms == want.raw_terms
        assert star.grade_involution().raw_terms == f.raw_terms

    def test_is_an_automorphism(self):
        e = lambda j: Multivector.basis_vector(j, 6)
        x1, y2 = RadialExpr.coordinate(F33, "x1"), RadialExpr.coordinate(F33, "y2")
        f = x1 * e(1) + y2 * e(2) * e(5) + 3
        g = y2 * e(4) - x1 * e(1) * e(3) * e(6) + RadialExpr.radial(F33, 1, -1)
        assert (f * g).grade_involution() == f.grade_involution() * g.grade_involution()
        assert dirac(f.grade_involution()) == -dirac(f).grade_involution()


class TestHomogeneity:
    def test_inner_square(self):
        xt = inner_x(F33, [1, 2, 3])
        assert re_mul(xt, xt).homogeneity_degree() == 2

    def test_laurent_degree(self):
        f = re_mul(RadialExpr.radial(F33, -3, 0), RadialExpr.coordinate(F33, "x1"))
        assert f.homogeneity_degree() == -2

    def test_mixed_marker(self):
        f = RadialExpr.radial(F33, 1, 0) + RadialExpr.radial(F33, 2, 0)
        assert f.homogeneity_degree() is None

    def test_euler_identity(self):
        f = re_mul(RadialExpr.radial(F33, -1, 2), inner_x(F33, [1, 0, 2]))
        deg = f.homogeneity_degree()
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


def _snapshot(f):
    """A deep copy of what f stores: its groups, its denominator and, once
    built, its cached normal form."""
    return copy.deepcopy((f._terms, f._den, getattr(f, "_canonical_cache", None)))


def _operands():
    """Fresh expressions, expressions whose stored rows share dicts with
    them, and the group vectors that every call on the frame shares."""
    x1, x3 = RadialExpr.coordinate(F33, "x1"), RadialExpr.coordinate(F33, "x3")
    # x3^2 -> r^2 - x1^2 - x2^2 lands on the key of the unrewritten x1^2.
    aliased = x1 * x1 + x3 * x3
    g = RadialExpr(F33, [((mono6(x1=1, x3=3), (1,), -1, 2), Fraction(1, 2)),
                         ((mono6(x1=1, x3=3), (4,), 1, 0), -3), ((mono6(y2=2), (2, 5), 0, -1), 2),
                         ((mono6(x1=2), (), 0, 0), 5)])
    return [aliased, g, aliased.negate_group("x"), g.negate_group("y"), g.canonicalized(), vector_x(F33), nu(F33)]


OPERATIONS = {
    "laplacian": lambda f, g: [laplacian(f, scope) for scope in (SCOPE_FULL, SCOPE_FIRST, SCOPE_SECOND)],
    "laplacian_power": lambda f, g: [laplacian_power(f, 2)],
    "dirac": lambda f, g: [dirac(f, scope) for scope in (SCOPE_FULL, SCOPE_FIRST, SCOPE_SECOND)],
    "partial_derivative": lambda f, g: [partial_derivative(f, i) for i in range(F33.ncoords)],
    "re_mul": lambda f, g: [re_mul(f, g), f * f, f ** 2],
    "sum": lambda f, g: [f + g, f - g, Fraction(1, 3) * f + g, 2 + f, f - f],
    "scale": lambda f, g: [Fraction(2, 3) * f, f * 3, -f, 0 * f],
    "negate_group": lambda f, g: [f.negate_group("x"), f.negate_group("y")],
    "grade_involution": lambda f, g: [f.grade_involution()],
    "normal_form": lambda f, g: [f.is_zero(), bool(g), f.canonicalized(), f.canonical_terms(),
                                 f.display_order(), f.homogeneity_degree(), f == g,
                                 proportionality_constant(2 * f, f)],
}


class TestOperandPurity:
    @pytest.mark.parametrize("name", sorted(OPERATIONS))
    def test_operands_keep_their_stored_form(self, name):
        op = OPERATIONS[name]
        operands = _operands()
        for f in operands:
            for g in operands:
                before = [_snapshot(h) for h in operands]
                results = op(f, g)
                # results built from shared rows must not write into them either
                for out in results:
                    if isinstance(out, RadialExpr):
                        (out + out).is_zero()
                        laplacian(out)
                        out.canonicalized().canonical_terms()
                for h, snap in zip(operands, before):
                    terms, den, cache = snap
                    assert (h._terms, h._den) == (terms, den)
                    assert cache is None or h._canonical_cache == cache

    def test_the_kept_group_vectors_survive_the_maps_that_share_them(self):
        vectors = [build(F33) for build in (vector_x, vector_y, omega, nu)]
        before = [_snapshot(v) for v in vectors]
        seed = SeedFunction.create(parse_seed("zbar^5"))
        xt, ys = inner_x(F33, [1, -2, 3]), inner_y(F33, [2, 1, -1])
        assert ft_plus(seed, xt * xt, ys, F33) == ft_general_via_fischer(seed, xt * xt, ys, F33)
        fischer_decompose(parse_expression("(x1 - 2*x3)^4", F33), "x")
        fischer_decompose(parse_expression("(y1 + y2)^3", F33), "y")
        for v in vectors:
            for w in vectors:
                re_mul(v, w)
            v * v
        assert [build(F33) for build in (vector_x, vector_y, omega, nu)] == vectors
        assert all(build(F33) is v for build, v in zip((vector_x, vector_y, omega, nu), vectors))
        for v, (terms, den, _cache) in zip(vectors, before):
            assert (v._terms, v._den) == (terms, den)

    def test_normal_form_copies_the_group_it_adds_into(self):
        f = _operands()[0]
        assert f.canonical_terms() == {(ZERO6, (), 2, 0): Fraction(1), (mono6(x2=2), (), 0, 0): Fraction(-1)}
        # the scalar row r^0 rho^0: the offset 2^63 of the r field, above m = 6 blade bits
        assert f._terms[mono6(x1=2)] == {2**63 << 6: 1}


class TestZeroSoundness:
    def test_numeric_smoke_on_cancelling_terms(self):
        rng = random.Random(9)
        raw = [((mono6(**{c: 2}), (), -1, 0), Fraction(1)) for c in ("x1", "x2", "x3")]
        raw.append(((ZERO6, (), 1, 0), Fraction(-1)))
        assert RadialExpr(F33, raw).is_zero()
        for _ in range(20):
            point = rational_point(F33, rng)
            assert evaluate_terms(F33, raw, point) == {}
            assert evaluate_terms(F33, raw[-1:], point) != {}

    def test_numeric_value_of_nonzero(self):
        f = RadialExpr.radial(F33, -3, 1, Fraction(1, 2)) * Multivector.basis_vector(2, 6)
        point = {"x1": 1, "x2": 2, "x3": 2, "y1": 2, "y2": 3, "y3": 6}
        assert evaluate_terms(F33, f.raw_terms.items(), point) == {(2,): Fraction(7, 54)}

    def test_points_have_rational_radii(self):
        rng = random.Random(4)
        for frame in (F33, AxisFrame(1, 2), AxisFrame(3, 0, scalar_axis=True)):
            for _ in range(10):
                f = RadialExpr.radial(frame, 1, 1 if frame.q else 0)
                evaluate_terms(frame, f.raw_terms.items(), rational_point(frame, rng))

    def test_irrational_radius_is_rejected(self):
        point = {name: Fraction(1) for name in F33.coord_names()}
        with pytest.raises(ValueError, match="irrational"):
            evaluate_terms(F33, RadialExpr.radial(F33, 2, 0).raw_terms.items(), point)
