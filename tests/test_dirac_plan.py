"""Frame-level plans kept across kernel calls, in one context per frame.

``radial._frame_context`` holds a frame's Dirac plan of each scope (its
axes, each with its generator's bit and that bit's low mask), the normal
form's square tables and the group vectors.  Work counts pin that
repeated calls build nothing anew; an oracle checks every axis's low-mask
parity against ``clifford.mask_sign``, on every mask up to m = 6 and on
random masks for all 80 generators of a (40, 40) frame; ``dirac`` and
``re_mul`` on (40, 40) operands, the wide-blades probe input among them,
are checked against sum e_j d_j from ``partial_derivative`` and against
``Multivector`` products of each pair of rows.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from fueterkit import radial
from fueterkit.clifford import Multivector, mask_sign
from fueterkit.frame import AxisFrame
from fueterkit.parsing import parse_expression
from fueterkit.radial import (
    RadialExpr,
    SCOPE_CR,
    SCOPE_FIRST,
    SCOPE_FULL,
    SCOPE_SECOND,
    dirac,
    is_monogenic,
    nu,
    omega,
    partial_derivative,
    re_mul,
    vector_x,
    vector_y,
)

_PROBES = Path(__file__).resolve().parent.parent / "tools" / "probes.py"
_SPEC = importlib.util.spec_from_file_location("probes", _PROBES)
probes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(probes)

F33 = AxisFrame(3, 3)
WIDE = AxisFrame(40, 40)


def _clear_frame_tables():
    radial._frame_context.cache_clear()


def _plan(frame, scope):
    return radial._frame_context(frame).plans[scope]


@pytest.fixture
def fresh_tables():
    """Every frame-level table and vector dropped before and after the test."""
    _clear_frame_tables()
    yield
    _clear_frame_tables()


# -- work counts ---------------------------------------------------------------


def test_many_dirac_calls_build_the_plan_once(fresh_tables):
    f = parse_expression("(x1 + 2*x2 - x3)^3*e4 + y1*y2*e5*r^-1 + x3*y3*rho", F33)
    f._normal()
    _clear_frame_tables()
    images = [dirac(f, SCOPE_FULL) for _ in range(40)]
    info = radial._frame_context.cache_info()
    assert (info.misses, info.hits) == (1, 39)
    assert all(image == images[0] for image in images)


def test_equal_frames_built_apart_share_their_plans_and_vectors(fresh_tables):
    a, b = AxisFrame(3, 3), AxisFrame(3, 3)
    assert a is not b
    assert radial._frame_context(a) is radial._frame_context(b)
    for scope in (SCOPE_FULL, SCOPE_FIRST, SCOPE_SECOND):
        assert _plan(a, scope) is _plan(b, scope)
    for build in (vector_x, vector_y, omega, nu):
        assert build(a) is build(b)
    cr = AxisFrame(3, 0, scalar_axis=True)
    assert _plan(cr, SCOPE_CR) is _plan(AxisFrame(3, 0, scalar_axis=True), SCOPE_CR)
    assert radial._frame_context(a).squares is radial._frame_context(b).squares


def test_each_scope_splits_into_its_sides(fresh_tables):
    full, first, second = (_plan(F33, scope) for scope in (SCOPE_FULL, SCOPE_FIRST, SCOPE_SECOND))
    assert first[2] is None and second[1] is None
    assert len(full[1] + full[2]) == len(full[0])
    assert all(side[2:4] == axis[2:4] for side, axis in zip(full[1] + full[2], full[0]))


# -- each axis's low mask against mask_sign ----------------------------------------


def _axes(frame):
    """Every axis of every plan the frame's context holds, split sides too."""
    return [axis for plan in radial._frame_context(frame).plans.values() for side in plan if side for axis in side]


def _axis_sign(axis, mask):
    _i, _radius, _bit, below, _square = axis
    return -1 if (mask & below).bit_count() & 1 else 1


def test_every_axis_low_mask_gives_mask_sign(fresh_tables):
    frames = [AxisFrame(m) for m in range(1, 6)] + [F33, AxisFrame(3, 2, scalar_axis=True)]
    for frame in frames:
        for axis in _axes(frame):
            assert all(_axis_sign(axis, mask) == mask_sign(axis[2], mask) for mask in range(1 << frame.m)), axis
    rng = random.Random(37)
    masks = [rng.getrandbits(WIDE.m) for _ in range(200)]
    bits = {axis[2] for axis in _axes(WIDE)}
    assert bits == {1 << g for g in range(WIDE.m)}
    for axis in _axes(WIDE):
        assert all(_axis_sign(axis, mask) == mask_sign(axis[2], mask) for mask in masks), axis


def test_x0_has_no_generator_and_sign_plus_one(fresh_tables):
    frame = AxisFrame(3, 2, scalar_axis=True)
    x0 = [axis for axis in radial._frame_context(frame).plans[SCOPE_CR][0] if axis[0] == 0]
    assert len(x0) == 1 and x0[0][2:4] == (0, 0)
    assert all(_axis_sign(x0[0], mask) == 1 for mask in range(1 << frame.m))


# -- dirac and re_mul on wide frames against their definitions ----------------------


def _wide_operand(rng, nrows):
    """nrows rows of random blades of the (40, 40) frame, each on x1, y1
    or x40 with a small radial part."""
    rows = []
    for _ in range(nrows):
        mono = [0] * WIDE.ncoords
        mono[WIDE.coord_index(rng.choice(("x1", "y1", "x40")))] = 1
        blade = tuple(sorted(rng.sample(range(1, WIDE.m + 1), rng.randint(1, 6))))
        rows.append(((tuple(mono), blade, rng.randint(-2, 2), rng.randint(-2, 2)), rng.randint(1, 5)))
    return RadialExpr(WIDE, rows)


def _sum_e_j_d_j(f, coords):
    """sum e_j d_j f over the coordinates, from ``partial_derivative``."""
    frame = f.frame
    return f._combination((re_mul(RadialExpr.constant(frame, Multivector.basis_vector(
        frame.generator_of(i), frame.m)), partial_derivative(f, i)), 1) for i in coords)


def test_dirac_on_wide_operands_is_sum_e_j_d_j(fresh_tables):
    xs, ys = list(WIDE.x_indices), list(WIDE.y_indices)
    wide_blades = parse_expression(probes._WIDE_BLADES, WIDE)
    for f in (_wide_operand(random.Random(37), 60), wide_blades):
        for scope, coords in ((SCOPE_FULL, xs + ys), (SCOPE_FIRST, xs), (SCOPE_SECOND, ys)):
            assert dirac(f, scope) == _sum_e_j_d_j(f, coords), scope
    assert not is_monogenic(wide_blades)


def test_re_mul_on_wide_operands_is_the_product_of_each_pair_of_rows(fresh_tables):
    rng = random.Random(38)
    f, g = _wide_operand(rng, 40), _wide_operand(rng, 25)
    for left, right in ((f, g), (g, f), (f, f)):
        want = {}
        for (m1, blade1, a1, b1), c1 in left.raw_terms.items():
            for (m2, blade2, a2, b2), c2 in right.raw_terms.items():
                product = Multivector.blade(blade1, WIDE.m, c1) * Multivector.blade(blade2, WIDE.m, c2)
                for blade, c in product.terms.items():
                    key = (tuple(map(sum, zip(m1, m2))), blade, a1 + a2, b1 + b2)
                    want[key] = want.get(key, 0) + c
        assert re_mul(left, right) == RadialExpr(WIDE, want)


def test_dirac_and_products_agree_with_fresh_tables_on_a_wide_frame(fresh_tables):
    rng = random.Random(8)
    f = _wide_operand(rng, 60)
    g = _wide_operand(rng, 30)
    first = dirac(f, SCOPE_FULL), re_mul(f, g), re_mul(g, f)
    _clear_frame_tables()
    again = dirac(f, SCOPE_FULL), re_mul(f, g), re_mul(g, f)
    for got, want in zip(again, first):
        assert (got._terms, got._den) == (want._terms, want._den)
