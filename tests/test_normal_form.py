"""Differential oracle: the normal form against the older sector fold.

The sector fold below is the zero test the engine used before the normal
form: terms whose radial exponents differ in parity never cancel, and
within a parity sector every term is folded down to the sector-minimal
exponents by r^2 -> sum x_j^2 (and the rho analogue), after which
coordinate monomials are linearly independent.  It is kept here only as
an independent reference for the normal form in ``radial.py``.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from fueterkit.frame import AxisFrame
from fueterkit.radial import RadialExpr, _normal_form, re_mul

FRAMES = (AxisFrame(1, 3), AxisFrame(2, 2), AxisFrame(3, 2), AxisFrame(3, 3), AxisFrame(3, 0),
          AxisFrame(3, 0, scalar_axis=True))


# -- reference oracle: the sector fold -------------------------------------


def _group_square_power(indices, ncoords, t):
    """Expansion of (sum of squared coordinates)^t as monomial -> int."""
    out = {(0,) * ncoords: 1}
    for _ in range(t):
        nxt = {}
        for mono, c in out.items():
            for i in indices:
                m = list(mono)
                m[i] += 2
                nxt[tuple(m)] = nxt.get(tuple(m), 0) + c
        out = nxt
    return out


def _fold_items(frame, items, amin, bmin):
    """Fold every ((mono, blade, a, b), c) down to the common (amin, bmin)."""
    merged = {}
    for (mono, blade, a, b), c in items:
        px = _group_square_power(frame.x_indices, frame.ncoords, (a - amin) // 2)
        py = _group_square_power(frame.y_indices, frame.ncoords, (b - bmin) // 2)
        for mx, cx in px.items():
            for my, cy in py.items():
                key = (tuple(e + f + g for e, f, g in zip(mono, mx, my)), blade)
                merged[key] = merged.get(key, 0) + c * cx * cy
    return {k: v for k, v in merged.items() if v}


def sector_fold(frame, terms):
    """Sector-minimal folded and merged form; empty iff the terms sum to zero."""
    sectors = {}
    for key, c in terms.items():
        sectors.setdefault((key[2] % 2, key[3] % 2), []).append((key, c))
    out = {}
    for items in sectors.values():
        amin = min(k[2] for k, _ in items)
        bmin = min(k[3] for k, _ in items)
        for (mono, blade), c in _fold_items(frame, items, amin, bmin).items():
            out[(mono, blade, amin, bmin)] = c
    return out


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


class TestNormalFormAgainstSectorFold:
    @settings(max_examples=150, deadline=None)
    @given(frames_and_pairs())
    def test_empty_iff_sector_fold_empty(self, case):
        frame, f, _g = case
        assert (not _normal_form(frame, f.raw_terms)) == (not sector_fold(frame, f.raw_terms))
        assert f.is_zero() == (not sector_fold(frame, f.raw_terms))

    @settings(max_examples=150, deadline=None)
    @given(frames_and_pairs())
    def test_equality_agrees_with_folded_difference(self, case):
        frame, f, g = case
        diff = (f - g).raw_terms
        assert (f == g) == (not sector_fold(frame, diff))

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
        assert not sector_fold(frame, (f - RadialExpr(frame, once)).raw_terms)
