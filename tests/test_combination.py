"""One linear-combination rule for every term map, and the long sums that
make one call to it.

``_combination`` sums c_i t_i over (term map, rational) pairs.  An oracle
compares it with the key-wise ``Fraction`` sum of the parts' ``terms`` on
seeded random values of all four classes; work counts pin that the
parser's ``expr`` rule, each Fischer layer and the Lemma 5 expansion make
one call per sum.
"""

import copy
import random
from fractions import Fraction
from math import gcd

import pytest

from fueterkit import bivariate, radial
from fueterkit.bivariate import (
    BiaxialParams,
    BivariateRadial,
    delta2_power,
    expansion_coefficient,
    laplacian_expansion,
    multinomial,
    operator_term,
)
from fueterkit.clifford import Multivector
from fueterkit.errors import PreconditionError
from fueterkit.formatting import format_bivariate
from fueterkit.frame import AxisFrame
from fueterkit.fueter import fischer_decompose
from fueterkit.parsing import parse_bivariate, parse_expression, parse_seed
from fueterkit.radial import RadialExpr, _radial_shift, evaluate_terms, rational_point
from fueterkit.seeds import ComplexBivarPoly
from fueterkit.sparse import TermMap

F33 = AxisFrame(3, 3)
_DENOMINATORS = (1, 2, 3, 4, 6, 9)


def _coefficient(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice(_DENOMINATORS))


def _radial(rng):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        mono = tuple(rng.randint(0, 1) for _ in range(F33.ncoords))
        blade = tuple(sorted(rng.sample(range(1, 7), rng.randint(0, 2))))
        terms[mono, blade, rng.randint(-2, 2), rng.randint(-1, 1)] = _coefficient(rng)
    return RadialExpr(F33, terms)


def _bivariate(rng):
    return BivariateRadial({(rng.randint(-2, 2), rng.randint(-2, 2)): _coefficient(rng) for _ in range(rng.randint(0, 6))})


def _seed(rng):
    return ComplexBivarPoly({(rng.randint(0, 2), rng.randint(0, 2), rng.choice(((), (1,)))): _coefficient(rng)
                             for _ in range(rng.randint(0, 6))})


def _multivector(rng):
    return Multivector(3, {tuple(sorted(rng.sample(range(1, 4), rng.randint(0, 3)))): _coefficient(rng)
                           for _ in range(rng.randint(0, 6))})


MAKERS = {"RadialExpr": _radial, "BivariateRadial": _bivariate, "ComplexBivarPoly": _seed, "Multivector": _multivector}


def _multiplier(rng):
    return rng.choice((0, 1, -1, rng.randint(-5, 5), _coefficient(rng), Fraction(rng.randint(-7, 7), 12)))


def _parts(rng, make):
    """1-8 parts over a small key pool, so keys collide; some parts come
    back later with the opposite multiplier, so whole terms cancel."""
    parts = []
    for _ in range(rng.randint(1, 8)):
        if parts and rng.random() < 0.3:
            t, c = rng.choice(parts)
            parts.append((t, -c))
        else:
            parts.append((make(rng), _multiplier(rng)))
    return parts


def _stored(t):
    return copy.deepcopy(t._terms), t._den


def _numerators(t):
    if isinstance(t, RadialExpr):
        assert all(t._terms.values()), "an empty monomial group is stored"
        return [c for inner in t._terms.values() for c in inner.values()]
    return list(t._terms.values())


@pytest.mark.parametrize("name", MAKERS)
def test_the_combination_is_the_keywise_sum_of_the_parts(name):
    rng = random.Random(f"combination {name}")
    for _ in range(150):
        parts = _parts(rng, MAKERS[name])
        before = [_stored(t) for t, _c in parts]
        got = parts[0][0]._combination(parts)
        want = {}
        for t, c in parts:
            for key, v in t.terms.items():
                want[key] = want.get(key, 0) + c * v
        assert got.terms == {key: v for key, v in want.items() if v}
        nums = _numerators(got)
        assert 0 not in nums
        assert got._den >= 1 and gcd(got._den, *nums) == 1
        assert [_stored(t) for t, _c in parts] == before
        if name == "RadialExpr":
            point = rational_point(F33, rng)
            values = {}
            for t, c in parts:
                for blade, v in evaluate_terms(F33, t.raw_terms.items(), point).items():
                    values[blade] = values.get(blade, 0) + c * v
            assert evaluate_terms(F33, got.raw_terms.items(), point) == {b: v for b, v in values.items() if v}


@pytest.mark.parametrize("name", MAKERS)
def test_operators_are_the_one_and_two_part_cases(name):
    rng = random.Random(f"operators {name}")
    for _ in range(30):
        x, y = MAKERS[name](rng), MAKERS[name](rng)
        c = _coefficient(rng)
        for got, parts in ((x + y, [(x, 1), (y, 1)]), (x - y, [(x, 1), (y, -1)]),
                           (c * x, [(x, c)]), (x * c, [(x, c)]), (-x, [(x, -1)])):
            want = x._combination(parts)
            assert (got._terms, got._den) == (want._terms, want._den)


def test_a_shifted_part_enters_times_its_radial_monomial():
    rng = random.Random("shifted parts")
    m = F33.m
    for _ in range(150):
        parts = _parts(rng, _radial)
        shifts = [(rng.randint(0, 3), rng.randint(-2, 2)) for _ in parts]
        before = [_stored(t) for t, _c in parts]
        got = parts[0][0]._combination([(t, c, _radial_shift(m, a, b, 2, 2)) for (t, c), (a, b) in zip(parts, shifts)])
        want = parts[0][0]._combination([(RadialExpr.radial(F33, a, b) * t, c) for (t, c), (a, b) in zip(parts, shifts)])
        assert (got._terms, got._den) == (want._terms, want._den)
        assert [_stored(t) for t, _c in parts] == before


def test_a_shift_past_the_exponent_limit_raises():
    with pytest.raises(PreconditionError, match=r"\|e\| <= 2\^62"):
        _radial_shift(F33.m, 2 ** 62, 0, 1, 0)
    with pytest.raises(PreconditionError, match=r"\|e\| <= 2\^62"):
        _radial_shift(F33.m, 0, -(2 ** 62) - 1, 0, 0)


@pytest.mark.parametrize("a, b", [
    (RadialExpr.coordinate(F33, "x1"), RadialExpr.coordinate(AxisFrame(5, 5), "x1")),
    (Multivector.scalar(1, 3), Multivector.scalar(1, 4)),
], ids=["frame", "dimension"])
def test_a_part_of_another_context_raises_as_plus_does(a, b):
    with pytest.raises(ValueError) as plus:
        a + b
    for parts in ([(a, 1), (b, 1)], [(a, 2), (b, 0)], [(b, 1)]):
        with pytest.raises(ValueError) as combined:
            a._combination(parts)
        assert str(combined.value) == str(plus.value)


# -- work counts ---------------------------------------------------------------


@pytest.fixture
def combinations(monkeypatch):
    """The number of parts of every ``_combination`` call, in call order."""
    calls = []
    for cls in (TermMap, RadialExpr):
        rule = cls.__dict__["_combination"]

        def counted(self, parts, rule=rule):
            parts = list(parts)
            calls.append(len(parts))
            return rule(self, parts)

        monkeypatch.setattr(cls, "_combination", counted)
    return calls


@pytest.fixture
def products(monkeypatch):
    """The operands' row counts of every ``re_mul`` call, in call order."""
    calls = []
    rule = radial.re_mul

    def counted(f, g):
        calls.append((sum(map(len, f._terms.values())), sum(map(len, g._terms.values()))))
        return rule(f, g)

    monkeypatch.setattr(radial, "re_mul", counted)
    return calls


@pytest.mark.parametrize("n, count", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3), (7, 4), (8, 3), (16, 4)])
def test_a_power_starts_from_its_base(products, n, count):
    h = parse_expression("x1 + 2*x2 - x3*e4", F33)
    products.clear()
    got = h ** n
    assert len(products) == count
    want = h
    for _ in range(n - 1):
        want = radial.RadialExpr._mul(want, h)
    assert got == want


def test_a_parsed_square_is_one_product(products):
    parse_expression("(x1 + x2 - x3)^2", F33)
    assert products == [(3, 3)]


@pytest.mark.parametrize("text", ["y1", "x2*e1", "2/3*x1*e1*e4*rho^-1", "-3*x3^2*e1*e2*e5*r^3*rho^2", "r^-1"])
def test_a_one_row_power_is_one_row(products, text):
    h = parse_expression(text, F33)
    for n in (0, 1, 2, 3, 6, 7, 1000):
        products.clear()
        got = h ** n
        assert products == []
        assert sum(map(len, got._terms.values())) == 1
        want = h ** 0
        for _ in range(min(n, 7)):
            want = radial.RadialExpr._mul(want, h)
        if n <= 7:
            assert (got._terms, got._den) == (want._terms, want._den), n


def test_a_one_row_power_past_the_exponent_limit_raises():
    with pytest.raises(PreconditionError, match=r"9223372036854775808 is beyond the limit \|e\| <= 2\^62"):
        parse_expression("(r^2)^4611686018427387904", F33)
    # the message names the power's whole exponent a * n, here 3 * (2^61 + 1)
    with pytest.raises(PreconditionError, match=r"6917529027641081859 is beyond the limit \|e\| <= 2\^62"):
        parse_expression("(r^3)^2305843009213693953", F33)
    with pytest.raises(PreconditionError, match=r"\|e\| <= 2\^62"):
        parse_expression("(x1*rho^-3)^2000000000000000000", F33)


@pytest.mark.parametrize("group, text, degree", [("x", "(x1 + 2*x2 - x3)^7", 7), ("y", "(y1 - y3)^4*e5", 4)])
def test_fischer_shifts_radii_without_a_product(products, group, text, degree):
    h = parse_expression(text, F33)
    products.clear()
    layers = fischer_decompose(h, group)
    assert len(layers) == degree + 1
    # one product by the group vector per layer and one to rebuild
    assert len(products) == degree + 2
    assert all(left == 3 for left, _right in products)


@pytest.mark.parametrize("parse, text", [
    (lambda text: parse_expression(text, F33), " + ".join(f"x1*y1^{i}*r^{i}*rho^-{i}" for i in range(300))),
    (parse_bivariate, " - ".join(f"3*r^{i}*rho^-{i}" for i in range(300))),
    (parse_seed, "-" + " + ".join(f"x^{i}*y*i" for i in range(300))),
], ids=["expression", "bivariate", "seed"])
def test_a_parsed_sum_is_one_combination(combinations, parse, text):
    out = parse(text)
    assert combinations == [300]
    assert len(out.terms) == 300


@pytest.mark.parametrize("degree", [1, 4, 7])
def test_fischer_makes_two_combinations_per_layer_and_two_to_rebuild(combinations, degree):
    h = parse_expression(f"(x1 + 2*x2 - x3)^{degree}", F33)
    combinations.clear()
    layers = fischer_decompose(h, "x")
    assert len(layers) == degree + 1
    assert len(combinations) <= 2 * (degree + 1) + 2


@pytest.mark.parametrize("n, params", [
    (40, BiaxialParams(1, 0, 3, 5)),
    (6, BiaxialParams(2, 1, 2, 3)),
    (5, BiaxialParams(0, 2, 1, 4)),
    (4, BiaxialParams(1, 1, 2, 2)),
], ids=str)
def test_lemma5_is_one_combination_and_asks_no_vanishing_weight(combinations, monkeypatch, n, params):
    asked = []

    def weight(j1, j2, params):
        asked.append((j1, j2))
        return expansion_coefficient(j1, j2, params)

    monkeypatch.setattr(bivariate, "expansion_coefficient", weight)
    laplacian_expansion(BivariateRadial.monomial(2 * n + 3, 2 * n + 1, 5), n, 0, 1, params)
    top1 = params.k + (params.p - 1) // 2 if params.p % 2 else n
    top2 = params.l + (params.q - 1) // 2 if params.q % 2 else n
    want = [(j1, j2) for j1 in range(n + 1) for j2 in range(n - j1 + 1) if j1 <= top1 and j2 <= top2]
    assert asked == want
    assert all(expansion_coefficient(j1, j2, params) for j1, j2 in want)
    assert combinations == [len(want)]


@pytest.mark.parametrize("n, params", [(12, BiaxialParams(0, 0, 2, 2)), (9, BiaxialParams(1, 2, 4, 3)),
                                       (30, BiaxialParams(1, 0, 3, 5))], ids=str)
def test_lemma5_takes_each_delta2_power_once(monkeypatch, n, params):
    steps = []
    step = bivariate._delta2_step

    def counted(terms):
        steps.append(len(terms))
        return step(terms)

    def refused(*args):
        raise AssertionError("delta2_power called per pair")

    monkeypatch.setattr(bivariate, "_delta2_step", counted)
    monkeypatch.setattr(bivariate, "delta2_power", refused)
    got = laplacian_expansion(BivariateRadial.monomial(-1, -1), n, 0, 1, params)
    assert len(steps) == n
    monkeypatch.undo()
    assert got == _summed_pair_by_pair(BivariateRadial.monomial(-1, -1), n, 0, 1, params)


def _summed_pair_by_pair(h, n, s1, s2, params):
    """Lemma 5 as the sum of every nonzero term over j1 + j2 <= n, one
    ``+`` at a time."""
    total = BivariateRadial.zero()
    for j1 in range(n + 1):
        for j2 in range(n - j1 + 1):
            weight = expansion_coefficient(j1, j2, params)
            if weight:
                total = total + operator_term(h, n, j1, j2, s1, s2) * (multinomial(n, j1, j2) * weight)
    return total


@pytest.mark.parametrize("h", ["r^-1*rho^-1", "r^3*rho^-1 + 2/3*rho^4 - r^-2*rho"])
def test_lemma5_prints_as_the_pair_by_pair_sum_at_higher_orders_for_even_dimensions(h):
    h = parse_bivariate(h)
    rng = random.Random(35)
    for p, q in ((2, 2), (2, 3), (4, 1), (1, 4), (4, 4)):
        for n in (6, 9, 12):
            s1, s2, k, l = rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 2), rng.randint(0, 2)
            params = BiaxialParams(k, l, p, q)
            got, want = laplacian_expansion(h, n, s1, s2, params), _summed_pair_by_pair(h, n, s1, s2, params)
            for style in ("plain", "latex", "json"):
                assert format_bivariate(got, style) == format_bivariate(want, style), (n, s1, s2, params)


@pytest.mark.parametrize("h", ["r^2", "r^3*rho^-1 + 2/3*rho^4 - r^-2*rho"])
def test_lemma5_prints_as_the_pair_by_pair_sum(h):
    h = parse_bivariate(h)
    rng = random.Random(5)
    for p in range(1, 6):
        for q in range(1, 6):
            for _ in range(6):
                n, s1, s2, k, l = rng.randint(1, 5), rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 2), rng.randint(0, 2)
                params = BiaxialParams(k, l, p, q)
                got, want = laplacian_expansion(h, n, s1, s2, params), _summed_pair_by_pair(h, n, s1, s2, params)
                for style in ("plain", "latex", "json"):
                    assert format_bivariate(got, style) == format_bivariate(want, style), (n, s1, s2, params)


def test_huge_orders_end_where_the_terms_vanish():
    assert delta2_power(BivariateRadial.monomial(4, 2), 10 ** 9).is_zero()
    assert laplacian_expansion(BivariateRadial.monomial(2, 0), 100000, 0, 0, BiaxialParams(0, 0, 3, 3)).is_zero()
