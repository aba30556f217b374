"""Frame-level tables kept across kernel calls, in one context per frame.

``radial._frame_context`` holds a frame's Dirac plan of each scope (its
axes and each generator's sign table, shared by every scope), the
blade-product sign table that ``re_mul`` reads, the normal form's square
tables and the group vectors.  Work counts pin that repeated calls build
nothing anew; an oracle checks every kept sign against
``clifford.mask_sign``; a cap test feeds a wide frame more distinct masks
than a table keeps at a time; the wide-blades probe input checks that
every scope of an 80-generator frame shares its generators' tables.
"""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from fueterkit import radial
from fueterkit.clifford import mask_sign
from fueterkit.frame import AxisFrame
from fueterkit.fueter import (
    VARIANT_MINUS,
    VARIANT_PLUS,
    fischer_decompose,
    ft_closed_form,
    ft_general_via_fischer,
    ft_minus,
    ft_mu,
    ft_plus,
)
from fueterkit.parsing import parse_expression, parse_seed
from fueterkit.radial import (
    RadialExpr,
    SCOPE_CR,
    SCOPE_FIRST,
    SCOPE_FULL,
    SCOPE_SECOND,
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
from fueterkit.seeds import SeedFunction

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


def _route_run():
    """Direct maps against the Fischer route and ft_mu against its closed
    form on (3,3) and (5,5), the route_check workload's kinds of call."""
    t, s = [Fraction(1, 2), -2, 3], [1, Fraction(5, 3), -2]
    xt, ys = inner_x(F33, t), inner_y(F33, s)
    for text, k, variant in (("zbar^5", 1, VARIANT_PLUS), ("zbar^8", 2, VARIANT_PLUS), ("zbar^8", 1, VARIANT_MINUS)):
        seed = SeedFunction.create(parse_seed(text))
        direct = (ft_plus if variant == VARIANT_PLUS else ft_minus)(seed, xt ** k, ys, F33)
        assert direct == ft_general_via_fischer(seed, xt ** k, ys, F33, variant)
    f55 = AxisFrame(5, 5)
    pk = fischer_decompose(inner_x(f55, [1, -2, 3, Fraction(1, 2), 2]), "x")[0].component
    one = RadialExpr.scalar(f55, 1)
    for text, variant in (("zbar^5", VARIANT_PLUS), ("zbar^5*z", VARIANT_MINUS)):
        seed = SeedFunction.create(parse_seed(text))
        assert ft_mu(seed, pk, one, f55, variant) == ft_closed_form(seed, pk, one, f55, variant)


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
    assert radial._frame_context(a).product_signs is radial._frame_context(b).product_signs
    assert radial._frame_context(a).squares is radial._frame_context(b).squares


def test_scopes_share_each_generators_sign_table(fresh_tables):
    full, first, second = (_plan(F33, scope) for scope in (SCOPE_FULL, SCOPE_FIRST, SCOPE_SECOND))
    tables = {axis[2]: axis[3] for axis in full[0]}
    assert all(tables[axis[2]] is axis[3] for axis in first[0] + second[0])
    assert first[2] is None and second[1] is None
    assert len(full[1] + full[2]) == len(full[0])
    assert all(side[3] is axis[3] for side, axis in zip(full[1] + full[2], full[0]))


def test_every_scope_of_a_wide_frame_shares_its_80_generator_tables(fresh_tables):
    """The wide-blades probe's input: a (40, 40) frame has more generators
    than a cache of 64 tables holds, and each scope still reads the same
    table per generator after a check that fills them."""
    assert not is_monogenic(parse_expression(probes._WIDE_BLADES, WIDE))
    full, first, second = (_plan(WIDE, scope)[0] for scope in (SCOPE_FULL, SCOPE_FIRST, SCOPE_SECOND))
    tables = {bit: table for _i, _radius, bit, table, _square in full}
    assert len(tables) == WIDE.m == len(first) + len(second)
    assert all(table is tables[bit] for _i, _radius, bit, table, _square in first + second)
    # the generators of x1 and y1, the coordinates the input carries
    assert len(tables[1]) > 0 and len(tables[1 << 40]) > 0


def test_a_warm_rerun_makes_no_sign_call(fresh_tables, monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return mask_sign(a, b)

    # the tables are built after this, so every sign they fill goes through it
    monkeypatch.setattr(radial, "mask_sign", counted)
    _route_run()
    assert calls
    calls.clear()
    _route_run()
    assert calls == []


# -- the kept signs against mask_sign ----------------------------------------------


def _kept_tables(frame):
    """The generator tables of a frame, by bit, and its product table."""
    context = radial._frame_context(frame)
    return [(axis[2], axis[3]) for axis in context.plans[SCOPE_FULL][0]], context.product_signs


def _assert_kept_signs_hold(frame):
    m = frame.m
    generators, products = _kept_tables(frame)
    for bit, table in generators:
        for mask, sign in table.items():
            assert sign == mask_sign(bit, mask), (bit, mask)
    low = (1 << m) - 1
    for pair, sign in products.items():
        assert sign == mask_sign(pair >> m, pair & low), (m, pair)


def _look_up(frame, masks):
    m = frame.m
    generators, products = _kept_tables(frame)
    for bit, table in generators:
        for mask in masks:
            assert table[mask] == mask_sign(bit, mask), (bit, mask)
    for a in masks:
        for b in masks:
            assert products[(a << m) | b] == mask_sign(a, b), (m, a, b)


def test_kept_signs_equal_mask_sign_after_a_route_run(fresh_tables):
    _route_run()
    f55 = AxisFrame(5, 5)
    for frame in (F33, f55):
        _assert_kept_signs_hold(frame)
    generators, products = _kept_tables(F33)
    assert len(generators[0][1]) > 0 and len(products) > 0
    # every mask at m <= 6, on top of what the run kept
    for m in range(1, 7):
        frame = F33 if m == 6 else AxisFrame(m)
        _look_up(frame, range(1 << m))
        _assert_kept_signs_hold(frame)
    rng = random.Random(35)
    for frame in (f55, WIDE):
        _look_up(frame, [rng.getrandbits(frame.m) for _ in range(40)])
        _assert_kept_signs_hold(frame)


def test_dirac_and_products_agree_with_fresh_tables_on_a_wide_frame(fresh_tables):
    rng = random.Random(8)
    f = _wide_operand(rng, 60)
    g = _wide_operand(rng, 30)
    first = dirac(f, SCOPE_FULL), re_mul(f, g), re_mul(g, f)
    _assert_kept_signs_hold(WIDE)
    _clear_frame_tables()
    again = dirac(f, SCOPE_FULL), re_mul(f, g), re_mul(g, f)
    for got, want in zip(again, first):
        assert (got._terms, got._den) == (want._terms, want._den)


# -- the cap ----------------------------------------------------------------------


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


def _masks(f):
    low = (1 << f.frame.m) - 1
    return {key & low for inner in f._terms.values() for key in inner}


def test_more_masks_than_the_cap_leave_every_table_at_or_under_it(fresh_tables):
    cap = radial._SIGN_TABLE_SIZE
    rng = random.Random(80)
    f = _wide_operand(rng, cap + cap // 2)
    assert len(_masks(f)) > cap
    image = dirac(f, SCOPE_FIRST)
    g = _wide_operand(rng, 80)
    product = re_mul(g, g)
    generators, products = _kept_tables(WIDE)
    assert 0 < max(len(table) for _bit, table in generators) <= cap
    assert 0 < len(products) <= cap
    assert len(radial._frame_context(WIDE).squares) <= radial._SQUARE_TABLE_SIZE
    _assert_kept_signs_hold(WIDE)
    # a full table starts over and keeps what arrives; the results stay exact
    _clear_frame_tables()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radial, "_SIGN_TABLE_SIZE", 10 ** 9)
        assert (dirac(f, SCOPE_FIRST)._terms, re_mul(g, g)._terms) == (image._terms, product._terms)
        assert len(radial._frame_context(WIDE).product_signs) == len({(a << WIDE.m) | b for a in _masks(g) for b in _masks(g)})
