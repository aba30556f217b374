"""Differential oracle: the normal form and the integer arithmetic against
exact values at points.

Every term of an expression is a polynomial times r^a rho^b, so at a point
whose radii r and rho are rational its value is an exact rational per
blade.  The points come from a fixed random.Random and are drawn by
inverse stereographic projection (``radial.rational_point``).  A nonzero
expression vanishes at all of them only on a measure-zero set, so the
checks below compare the normal form, and the integer numerators over one
denominator that every operator works on, with an evaluation that shares
none of their code.
"""

import functools
import random
import time
from fractions import Fraction
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from fueterkit import radial
from fueterkit.bivariate import BivariateRadial, apply_dx_xinv, apply_xinv_dx, delta2_power
from fueterkit.clifford import Multivector
from fueterkit.errors import PreconditionError
from fueterkit.frame import AxisFrame
from fueterkit.fueter import ft_closed_form, ft_general_via_fischer, ft_mu, ft_plus
from fueterkit.radial import (
    SCOPE_CR,
    SCOPE_FIRST,
    SCOPE_FULL,
    SCOPE_SECOND,
    RadialExpr,
    dirac,
    evaluate_terms,
    inner_x,
    inner_y,
    laplacian,
    partial_derivative,
    proportionality_constant,
    rational_point,
    re_mul,
    vector_x,
    vector_y,
)
from fueterkit.seeds import ComplexBivarPoly, conj_power, laplace2, parity_monomial, wirtinger

FRAMES = (AxisFrame(1, 3), AxisFrame(2, 2), AxisFrame(3, 2), AxisFrame(3, 3), AxisFrame(3, 0),
          AxisFrame(3, 0, scalar_axis=True))

_RNG = random.Random(20161104)
POINTS = {frame: [rational_point(frame, _RNG) for _ in range(12)] for frame in FRAMES}


def values(frame, terms):
    """Exact values of a term mapping at every point of the frame."""
    return [evaluate_terms(frame, terms.items(), point) for point in POINTS[frame]]


def mv_values(f):
    """Exact values of an expression at every point of its frame, as multivectors."""
    return [Multivector(f.frame.m, v) for v in values(f.frame, f.raw_terms)]


# -- generators ------------------------------------------------------------


def _raw_terms(draw, frame, max_terms):
    terms = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_terms))):
        mono = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(frame.ncoords))
        blade = tuple(sorted(draw(st.sets(st.integers(min_value=1, max_value=frame.m), max_size=2))))
        a = draw(st.integers(min_value=-3, max_value=3))
        b = draw(st.integers(min_value=-3, max_value=3)) if frame.q else 0
        coeff = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
        terms.append(((mono, blade, a, b), coeff))
    return RadialExpr(frame, terms)


def _vanishing(frame, group):
    """R^2 - |group|^2, the zero function written as four or fewer terms."""
    idxs = frame.x_indices if group == "x" else frame.y_indices
    zero = (0,) * frame.ncoords
    key = (zero, (), 2, 0) if group == "x" else (zero, (), 0, 2)
    terms = [(key, 1)]
    for i in idxs:
        terms.append(((tuple(2 if j == i else 0 for j in range(frame.ncoords)), (), 0, 0), -1))
    return RadialExpr(frame, terms)


def _hidden_zero(draw, frame):
    """Random multiples of the vanishing identities: zero, but not termwise."""
    out = re_mul(_raw_terms(draw, frame, 3), _vanishing(frame, "x"))
    if frame.q:
        out = out + re_mul(_vanishing(frame, "y"), _raw_terms(draw, frame, 3))
    return out


@st.composite
def frames_and_pairs(draw):
    """A frame and (f, g): f is a random expression plus a hidden zero, the
    random part dropped half of the time; g is f plus another hidden zero,
    or an independent draw like f, or f with one term perturbed."""
    frame = draw(st.sampled_from(FRAMES))

    def draw_f():
        out = _raw_terms(draw, frame, 4) if draw(st.booleans()) else RadialExpr.zero(frame)
        return out + _hidden_zero(draw, frame)

    f = draw_f()
    kind = draw(st.sampled_from(("equal", "independent", "perturbed")))
    if kind == "equal":
        g = f + _hidden_zero(draw, frame)
    elif kind == "independent":
        g = draw_f()
    else:
        g = f + _hidden_zero(draw, frame) + _raw_terms(draw, frame, 1)
    return frame, f, g


# -- the differential checks -------------------------------------------------


class TestNormalFormAgainstPointValues:
    @settings(max_examples=150, deadline=None)
    @given(frames_and_pairs())
    def test_normal_form_has_the_raw_values(self, case):
        frame, f, _g = case
        assert values(frame, f.canonical_terms()) == values(frame, f.raw_terms)

    @settings(max_examples=150, deadline=None)
    @given(frames_and_pairs())
    def test_zero_test_agrees_with_point_values(self, case):
        frame, f, _g = case
        vanishes = all(not v for v in values(frame, f.raw_terms))
        assert f.is_zero() == vanishes

    @settings(max_examples=150, deadline=None)
    @given(frames_and_pairs())
    def test_equality_agrees_with_point_values(self, case):
        frame, f, g = case
        assert (f == g) == (values(frame, f.raw_terms) == values(frame, g.raw_terms))

    @settings(max_examples=150, deadline=None)
    @given(frames_and_pairs())
    def test_normal_form_is_idempotent(self, case):
        frame, f, _g = case
        once = f.canonical_terms()
        # canonicalized() stores the normal form without its cache, so this
        # takes the normal form of the normal form
        twice = f.canonicalized().canonical_terms()
        assert list(twice.items()) == list(once.items())
        last_x = frame.x_indices[-1]
        last_y = frame.y_indices[-1] if frame.q else None
        for mono, _blade, _a, _b in once:
            assert mono[last_x] <= 1 and (last_y is None or mono[last_y] <= 1)
        assert f == RadialExpr(frame, once)


# -- integer numerators over one denominator ---------------------------------


def row_key(m, blade, a, b):
    """The stored row key of blade * r^a * rho^b in a frame with m generators:
    bit g-1 for e_g, then a offset by 2^63 in 64 bits, then b."""
    mask = sum(1 << (g - 1) for g in blade)
    return mask | ((a + 2**63) << m) | (b << (m + 64))


def assert_integer_form(f, reduced=False):
    """The representation invariant: nonzero int numerators over one
    positive int denominator; ``reduced`` also asks that they share no factor.
    A RadialExpr stores them grouped as monomial -> {row key: numerator}
    in plain dicts, with no group empty; a row key is one int (``row_key``)."""
    assert type(f._den) is int and f._den > 0
    assert type(f._terms) is dict
    if isinstance(f, RadialExpr):
        assert all(len(mono) == f.frame.ncoords for mono in f._terms)
        assert all(type(inner) is dict and inner for inner in f._terms.values())
        assert all(type(key) is int for inner in f._terms.values() for key in inner)
        nums = [c for inner in f._terms.values() for c in inner.values()]
    else:
        nums = list(f._terms.values())
    assert all(type(c) is int and c != 0 for c in nums)
    if reduced:
        assert gcd(f._den, *nums) == 1


@st.composite
def frames_and_two(draw):
    """A frame and two independent expressions, each over its own denominator."""
    frame = draw(st.sampled_from(FRAMES))
    return frame, _raw_terms(draw, frame, 4), _raw_terms(draw, frame, 4)


SCALARS = st.fractions(min_value=-5, max_value=5, max_denominator=7) | st.integers(min_value=-5, max_value=5)


class TestIntegerNumerators:
    @settings(max_examples=100, deadline=None)
    @given(frames_and_two(), SCALARS)
    def test_sum_difference_and_multiple_have_the_point_values(self, case, c):
        _frame, f, g = case
        vf, vg = mv_values(f), mv_values(g)
        for out, want in ((f + g, [a + b for a, b in zip(vf, vg)]),
                          (f - g, [a - b for a, b in zip(vf, vg)]),
                          (c * f, [a * c for a in vf]),
                          (f * c, [a * c for a in vf])):
            assert_integer_form(out, reduced=True)
            assert mv_values(out) == want

    @settings(max_examples=100, deadline=None)
    @given(frames_and_two())
    def test_re_mul_is_the_pointwise_geometric_product(self, case):
        _frame, f, g = case
        out = re_mul(f, g)
        assert_integer_form(out, reduced=True)
        assert mv_values(out) == [a * b for a, b in zip(mv_values(f), mv_values(g))]

    @settings(max_examples=100, deadline=None)
    @given(frames_and_two(), SCALARS)
    def test_proportionality_constant_recovers_the_scalar(self, case, c):
        _frame, f, _g = case
        assume(not f.is_zero())
        lam = proportionality_constant(c * f, f)
        assert type(lam) is Fraction and lam == c
        # f's terms carry r^a with a <= 5 in normal form, so r^9 is outside its span.
        assert proportionality_constant(c * f + RadialExpr.radial(f.frame, 9), f) is None

    @settings(max_examples=100, deadline=None)
    @given(frames_and_two())
    def test_every_operator_keeps_the_invariant(self, case):
        frame, f, g = case
        assert_integer_form(f, reduced=True)
        scopes = [SCOPE_FULL, SCOPE_FIRST] + ([SCOPE_SECOND] if frame.q else [])
        scopes += [SCOPE_CR] if frame.scalar_axis else []
        outs = [f + g, f - g, Fraction(2, 3) * f, re_mul(f, g), -f, f.canonicalized(),
                f.negate_group("x"), f.grade_involution(), dirac(f)]
        outs += [laplacian(f, scope) for scope in scopes]
        outs += [partial_derivative(f, i) for i in range(frame.ncoords)]
        for out in outs:
            assert_integer_form(out)
        assert all(type(c) is Fraction for c in f.raw_terms.values())
        assert all(type(c) is Fraction for c in f.canonical_terms().values())

    @pytest.mark.parametrize("got, want", [
        (lambda: BivariateRadial.monomial(2, 0, Fraction(1, 2)).derivative("r"),
         lambda: BivariateRadial.monomial(1, 0)),
        (lambda: wirtinger(ComplexBivarPoly.zbar() ** 2, "dzbar"), lambda: 2 * ComplexBivarPoly.zbar()),
        (lambda: wirtinger(ComplexBivarPoly.z() * ComplexBivarPoly.zbar(), "dz"), ComplexBivarPoly.zbar),
    ], ids=["bivariate-derivative", "wirtinger-dzbar", "wirtinger-dz"])
    def test_equality_ignores_a_factor_shared_with_the_denominator(self, got, want):
        got, want = got(), want()
        # The operator skips the gcd pass, so the stored forms differ.
        assert (got._terms, got._den) != (want._terms, want._den)
        assert got == want and want == got and not got != want
        assert hash(got) == hash(want) and {got: 1}[want] == 1
        assert got.terms == want.terms

    def test_every_term_map_keeps_the_invariant(self):
        h = BivariateRadial({(3, -1): Fraction(2, 3), (0, 2): Fraction(5, 4), (1, 1): 3})
        g = BivariateRadial({(1, 0): Fraction(1, 6), (0, -2): 2})
        mv = Multivector(3, {(): Fraction(1, 2), (1,): Fraction(2, 3), (1, 3): 5})
        nv = Multivector(3, {(2,): Fraction(3, 4), (1, 2, 3): -1})
        w = ComplexBivarPoly({(2, 1, ()): Fraction(1, 3), (0, 3, (1,)): Fraction(3, 2), (1, 0, ()): 2})
        zbar = ComplexBivarPoly.zbar()
        outs = [h + g, h - g, h * g, Fraction(3, 5) * h, -h, h ** 2, h.shift(1, -1), h.derivative("r"),
                h.derivative("rho"), apply_xinv_dx(h, 2), apply_dx_xinv(h, 2, "rho"), delta2_power(h, 2),
                mv + nv, mv - nv, mv * nv, nv * Fraction(2, 7), -mv, *mv.parity_split(),
                w + zbar, w - zbar, w * zbar, Fraction(4, 9) * w, -w, w ** 3,
                wirtinger(w, "dz"), wirtinger(w, "dzbar"), laplace2(w), parity_monomial(3, 1),
                conj_power(6).w, ComplexBivarPoly.z() ** 4]
        frame = AxisFrame(3, 3)
        x1, x2, x3 = (RadialExpr.coordinate(frame, name) for name in ("x1", "x2", "x3"))
        r2 = RadialExpr.radial(frame, 2, 0)
        # kernel and operator outputs whose contributions all cancel: stored empty, not as zeros
        cancelled = [laplacian(x1 * x1 - x2 * x2), dirac(vector_x(frame) - vector_y(frame)),
                     (x1 * x1 + x2 * x2 + x3 * x3 - r2).canonicalized(), x1 * x3 - x3 * x1,
                     re_mul(x1 + x3, x1 - x3) - x1 * x1 + x3 * x3]
        for out in cancelled:
            assert out._terms == {}
        # a group that keeps some rows when others cancel
        partly = [x1 * r2 + x1 - x1, re_mul(x1 + x3, x1 - x3), partial_derivative(x3 * x3 * x3 * r2, "x3"),
                  (x3 * x3 * x3 * r2 - x3 * x1 * x1 * r2).canonicalized()]
        assert (x1 * r2 + x1 - x1)._terms == {(1, 0, 0, 0, 0, 0): {row_key(6, (), 2, 0): 1}}
        outs += [*partly, RadialExpr.constant(frame, Multivector(6, {(): 2, (1, 4): Fraction(1, 3)})),
                 RadialExpr.from_bivariate(frame, h), (x1 * r2).negate_group("x"),
                 (x1 * Multivector.basis_vector(1, 6) + x2).grade_involution()]
        for out in outs + cancelled:
            assert_integer_form(out)
        for value in (h, g, mv, nv, w):
            assert_integer_form(value, reduced=True)
            assert all(type(c) is Fraction for c in value.terms.values())
        assert type(mv.coefficient((1,))) is Fraction and type(mv.coefficient(())) is Fraction

    def test_map_outputs_keep_the_invariant(self):
        frame = AxisFrame(3, 3)
        seed = conj_power(5)
        hk = inner_x(frame, [Fraction(1, 2), 2, -1])
        hl = inner_y(frame, [1, Fraction(1, 3), 2])
        rot_x = (RadialExpr.coordinate(frame, "x1") * Multivector.basis_vector(1, 6)
                 - RadialExpr.coordinate(frame, "x2") * Multivector.basis_vector(2, 6))
        direct = ft_plus(seed, hk, hl, frame)
        routed = ft_general_via_fischer(seed, hk, hl, frame, "plus")
        one = RadialExpr.scalar(frame, 1)
        mu = ft_mu(seed, rot_x, one, frame, "plus")
        closed = ft_closed_form(seed, rot_x, one, frame, "plus")
        for out in (direct, routed, mu, closed):
            assert not out.is_zero()
            assert_integer_form(out)
        assert direct == routed and mu == closed


# -- packed row keys and the exponent limit ------------------------------------

LIMIT = 2**62


class TestRowKeys:
    @pytest.mark.parametrize("frame", FRAMES + (AxisFrame(40, 40),), ids=str)
    def test_raw_terms_round_trip_through_the_constructor(self, frame):
        rng = random.Random(frame.ncoords * 10 + frame.q)
        terms = {}
        for i in range(24):
            mono = tuple(rng.randint(0, 3) for _ in range(frame.ncoords))
            blade = tuple(sorted(rng.sample(range(1, frame.m + 1), rng.randint(0, frame.m))))
            # negative exponents, and the limit itself on two rows
            a = (LIMIT, -LIMIT)[i % 2] if i < 2 else rng.randint(-7, 7)
            b = 0 if not frame.q else (-LIMIT, LIMIT)[i % 2] if i < 2 else rng.randint(-7, 7)
            terms[(mono, blade, a, b)] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
        f = RadialExpr(frame, terms)
        assert f.raw_terms == terms
        assert RadialExpr(frame, f.raw_terms).raw_terms == terms
        stored = {(mono, key) for mono, inner in f._terms.items() for key in inner}
        assert stored == {(mono, row_key(frame.m, blade, a, b)) for mono, blade, a, b in terms}

    def test_a_frame_with_80_generators(self):
        frame = AxisFrame(40, 40)
        x, y = vector_x(frame), vector_y(frame)
        assert dirac(x) == -40 and dirac(y) == -40
        # sum_k e_k x e_k = 40 x, because e_k e_j e_k = e_j for j != k
        assert dirac(re_mul(x, y)) == 40 * x - 40 * y
        assert (re_mul(x, x) + RadialExpr.radial(frame, 2, 0)).is_zero()

    def test_limit_is_accepted_at_construction(self):
        frame = AxisFrame(3, 3)
        for a, b in ((LIMIT, -LIMIT), (-LIMIT, LIMIT)):
            f = RadialExpr.radial(frame, a, b)
            assert f.raw_terms == {((0,) * 6, (), a, b): 1}
            assert f._terms == {(0,) * 6: {row_key(6, (), a, b): 1}}

    @pytest.mark.parametrize("build", [
        lambda frame: RadialExpr.radial(frame, LIMIT + 1, 0),
        lambda frame: RadialExpr.radial(frame, 0, -LIMIT - 1),
        lambda frame: RadialExpr(frame, {((1, 0, 0, 0, 0, 0), (1,), -LIMIT - 1, 0): 1}),
        lambda frame: RadialExpr.monomial(frame, {"y2": 1}, 2, b=LIMIT + 1),
        lambda frame: RadialExpr.from_bivariate(frame, BivariateRadial({(LIMIT + 1, 0): 1})),
    ], ids=["radial-r", "radial-rho", "constructor", "monomial", "from-bivariate"])
    def test_one_past_the_limit_is_rejected_at_construction(self, build):
        with pytest.raises(PreconditionError, match=f"radial exponent -?{LIMIT + 1} "):
            build(AxisFrame(3, 3))

    def test_a_product_across_the_limit_is_rejected(self):
        frame = AxisFrame(3, 3)
        x1 = RadialExpr.coordinate(frame, "x1")
        radial = lambda a, b: RadialExpr.radial(frame, a, b)
        assert re_mul(radial(LIMIT - 1, 0), x1 * radial(1, -3)).raw_terms == {
            ((1, 0, 0, 0, 0, 0), (), LIMIT, -3): 1}
        for f, g, e in ((radial(LIMIT, 0), radial(1, 0), LIMIT + 1),
                        (radial(-3, -LIMIT), x1 * radial(2, -1), -LIMIT - 1),
                        (radial(0, 5) + radial(-LIMIT, 0), radial(-2, 0) + x1, -LIMIT - 2)):
            with pytest.raises(PreconditionError, match=f"radial exponent {e} "):
                re_mul(f, g)

    def test_a_normal_form_rewrite_across_the_limit_is_rejected(self):
        frame = AxisFrame(3, 3)
        x3, y3 = RadialExpr.coordinate(frame, "x3"), RadialExpr.coordinate(frame, "y3")
        # x3^2 r^(L-2) -> r^L - (x1^2 + x2^2) r^(L-2): at the limit, accepted
        at_limit = x3 * x3 * RadialExpr.radial(frame, LIMIT - 2, 0)
        assert not at_limit.is_zero()
        assert ((0,) * 6, (), LIMIT, 0) in at_limit.canonical_terms()
        for f, e in ((x3 * x3 * RadialExpr.radial(frame, LIMIT - 1, 0), LIMIT + 1),
                     (y3 ** 4 * RadialExpr.radial(frame, 0, LIMIT - 3), LIMIT + 1)):
            with pytest.raises(PreconditionError, match=f"radial exponent {e} "):
                f.is_zero()

    def test_the_limit_holds_for_each_rewritten_group_on_its_own(self):
        # The largest exponent and the largest rewrite sit in different
        # groups: together they pass the limit, but no group's rewrite does.
        frame = AxisFrame(3, 3)
        x3, y3 = RadialExpr.coordinate(frame, "x3"), RadialExpr.coordinate(frame, "y3")
        radial = lambda a, b: RadialExpr.radial(frame, a, b)
        f = x3 * x3 * radial(LIMIT - 2, 0) + x3 ** 4 + y3 * y3 * radial(0, LIMIT - 2) + y3 ** 4
        terms = f.canonical_terms()
        zero = (0,) * 6
        assert {(zero, (), LIMIT, 0), (zero, (), 0, LIMIT), (zero, (), 4, 0), (zero, (), 0, 4)} <= terms.keys()


@functools.cache
def _repeated_square_powers(others, kmax):
    """(R^2 - x_1^2 - ... - x_others^2)^k for k = 0..kmax, one factor at a
    time, as {(exponents of x_1..x_others, R exponent): coefficient} dicts."""
    cur = {((0,) * others, 0): 1}
    out = [cur]
    for _ in range(kmax):
        nxt = {}
        for (mono, e), c in cur.items():
            nxt[mono, e + 2] = nxt.get((mono, e + 2), 0) + c
            for i in range(others):
                key = (mono[:i] + (mono[i] + 2,) + mono[i + 1:], e)
                nxt[key] = nxt.get(key, 0) - c
        cur = {key: c for key, c in nxt.items() if c}
        out.append(cur)
    return out


class TestLeadSquarePower:
    """The multinomial expansion behind the normal-form rewrite."""

    @pytest.mark.parametrize("p", [1, 3, 5])
    @pytest.mark.parametrize("group", ["x", "y"])
    def test_triples_equal_the_repeated_product(self, p, group):
        frame = AxisFrame(p, p)
        others = frame.group_indices(group)[:-1]
        lo, hi = others.start, others.stop
        for k, want in enumerate(_repeated_square_powers(len(others), 30)):
            got = radial._lead_square_power.__wrapped__(frame, group, k)
            assert not any(any(mono[:lo]) or any(mono[hi:]) for mono, _e, _c in got)
            local = {(mono[lo:hi], e): c for mono, e, c in got}
            assert len(local) == len(got)
            assert local == want

    def test_a_high_power_is_quick(self):
        start = time.perf_counter()
        got = radial._lead_square_power.__wrapped__(AxisFrame(3, 3), "x", 200)
        assert time.perf_counter() - start < 1
        assert len(got) == 201 * 202 // 2
