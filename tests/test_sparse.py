"""The shell every term-map class shares: operands of other types.

Each class is a ``sparse.TermMap``, so int and Fraction operands are
coerced the same way on either side of an operator, and an operand of a
foreign type raises TypeError.
"""

from fractions import Fraction

import pytest

from fueterkit.bivariate import BivariateRadial
from fueterkit.clifford import Multivector
from fueterkit.frame import AxisFrame
from fueterkit.radial import RadialExpr
from fueterkit.seeds import ComplexBivarPoly
from fueterkit.sparse import Memo

F33 = AxisFrame(3, 3)

VALUES = {
    "RadialExpr": lambda: (RadialExpr.coordinate(F33, "x1") * Multivector.basis_vector(1, 6)
                           + RadialExpr.radial(F33, -1, 2, Fraction(1, 3))),
    "BivariateRadial": lambda: BivariateRadial({(2, -1): Fraction(3, 2), (0, 1): 1}),
    "ComplexBivarPoly": lambda: ComplexBivarPoly.z() * Fraction(1, 2) + ComplexBivarPoly.zbar() ** 2,
    "Multivector": lambda: Multivector(3, {(1,): Fraction(2, 3), (1, 2): 1}),
}


@pytest.mark.parametrize("name", VALUES)
def test_scalar_operands_and_foreign_types(name):
    x = VALUES[name]()
    assert x + 1 == 1 + x
    assert 1 - x == -(x - 1)
    assert 2 * x == x * 2
    assert Fraction(1, 2) * x + Fraction(1, 2) * x == x
    assert x ** 0 == 1
    assert (x - x).is_zero()
    assert x + 1 != x
    for op in (lambda: x + "a", lambda: "a" + x, lambda: x - "a", lambda: "a" - x,
               lambda: x * "a", lambda: x * 1.5):
        with pytest.raises(TypeError):
            op()


def test_memo_computes_each_key_once():
    calls = []
    table = Memo(lambda key: calls.append(key) or key * 2)
    assert [table[k] for k in (3, 4, 3, 3)] == [6, 8, 6, 6]
    assert calls == [3, 4]


@pytest.mark.parametrize("name", VALUES)
def test_power_by_squaring_stores_the_repeated_product(name):
    x = VALUES[name]()
    want = x._coerce(1)
    for n in range(10):
        got = x ** n
        assert (got._terms, got._den) == (want._terms, want._den), n
        want = want * x


def test_memo_starts_from_its_known_entries():
    calls = []
    known = {1: "one"}
    table = Memo(lambda key: calls.append(key) or -key, known)
    assert [table[k] for k in (1, 2, 1, 2)] == ["one", -2, "one", -2]
    assert calls == [2]
    assert known == {1: "one"}
