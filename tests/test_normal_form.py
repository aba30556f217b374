"""Differential oracle: the normal form against exact values at points.

Every term of an expression is a polynomial times r^a rho^b, so at a point
whose radii r and rho are rational its value is an exact rational per
blade.  The points come from a fixed random.Random and are drawn by
inverse stereographic projection (``radial.rational_point``).  A nonzero
expression vanishes at all of them only on a measure-zero set, so the
checks below compare the normal form with an evaluation that shares none
of its code.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from fueterkit.frame import AxisFrame
from fueterkit.radial import RadialExpr, _normal_form, evaluate_terms, rational_point, re_mul

FRAMES = (AxisFrame(1, 3), AxisFrame(2, 2), AxisFrame(3, 2), AxisFrame(3, 3), AxisFrame(3, 0),
          AxisFrame(3, 0, scalar_axis=True))

_RNG = random.Random(20161104)
POINTS = {frame: [rational_point(frame, _RNG) for _ in range(12)] for frame in FRAMES}


def values(frame, terms):
    """Exact values of a term mapping at every point of the frame."""
    return [evaluate_terms(frame, terms.items(), point) for point in POINTS[frame]]


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
        assert values(frame, _normal_form(frame, f.raw_terms)) == values(frame, f.raw_terms)

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
        once = _normal_form(frame, f.raw_terms)
        twice = _normal_form(frame, once)
        assert list(twice.items()) == list(once.items())
        last_x = frame.x_indices[-1]
        last_y = frame.y_indices[-1] if frame.q else None
        for mono, _blade, _a, _b in once:
            assert mono[last_x] <= 1 and (last_y is None or mono[last_y] <= 1)
        assert f == RadialExpr(frame, once)
