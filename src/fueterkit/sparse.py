"""The sparse core shared by every term-map class.

RadialExpr, BivariateRadial, ComplexBivarPoly and Multivector are all
``TermMap``s: a dict from an exact key to a nonzero coefficient, plus an
optional context (the frame of a RadialExpr, the dimension of a
Multivector) that two operands must share.  An operator produces a
stream of (key, coefficient) contributions, and ``collect`` turns such a
stream into a fresh dict: it sums equal keys in arrival order and drops
zeros once, at the end.  Cancellation in the middle of a stream therefore
costs nothing.  RadialExpr stores its numerators grouped by coordinate
monomial instead (see ``radial``): it keeps this shell's operator
dispatch, supplies its own operators for everything that touches the
stored dict, and never streams into ``collect``.

Every sum is one linear combination (``_combination``) of (term map, int
or ``Fraction``) pairs, written once per storage: ``x + y``, ``x - y``,
``c * x`` and ``-x`` are its one- and two-part cases, and a long sum is
one call, so an N-term sum copies each row once.

Coefficients: integer numerators over one denominator
-----------------------------------------------------
Every coefficient that the Laplacian, the Dirac operator, partial and
Wirtinger derivatives, blade products and the radial operators contribute
is an integer (e(e-1), a(p + 2d + a - 2), a blade sign), so a term map
stores its coefficients as nonzero ``int`` numerators over one shared
positive ``int`` denominator, and those loops run on ``int`` alone.
``Fraction`` is touched only at the edges, once per value:

* in: the validating public constructors bring their rational
  coefficients over the least common denominator;
* out: ``terms`` (``raw_terms`` of a RadialExpr) returns ``Fraction``
  values, as do the few accessors that return one coefficient.

Derivatives and splits keep the denominator and skip the gcd pass, so
numerators may share a factor with it; equality compares by
cross-multiplication and the hash divides that factor out, so neither
depends on it.  A product multiplies the denominators, and a linear
combination (negation and scalar multiples included) brings every part,
its multiplier's denominator folded in, to the parts' lcm; each ends with
one gcd pass (``_reduced``).

The complex unit of a seed is not a separate number type: it is e_1 of
Cl(0,1), a blade like any other, so seeds use the same shell.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Iterable, Mapping, TypeVar, Union

K = TypeVar("K", bound=Hashable)
C = TypeVar("C")
Rational = Union[int, Fraction]


def collect(pairs: Iterable[tuple[K, C]]) -> dict[K, C]:
    """Sum ``pairs`` by key; return the nonzero entries.

    Keys keep the order of their first arrival.
    """
    acc: dict[K, C] = {}
    get = acc.get
    for key, c in pairs:
        old = get(key)
        acc[key] = c if old is None else old + c
    # Delete in place rather than filter into a second dict: the
    # accumulator is the largest object an operator builds.
    for key in [key for key, c in acc.items() if not c]:
        del acc[key]
    return acc


class Memo(dict):
    """A table that fills itself: ``memo[key]`` is ``fn(key)``, computed on
    the first lookup and kept.  A table with a ``limit`` that is full when
    a new key arrives is emptied first, so it never holds more than
    ``limit`` entries and goes on keeping what arrives.  A kernel's memo
    made for one call takes no limit; a table kept across calls (a
    frame context's square tables, see ``radial``) takes one, so no run
    of calls can grow it without bound."""

    __slots__ = ("_fn", "_limit")

    def __init__(self, fn, limit: int | None = None):
        super().__init__()
        self._fn = fn
        self._limit = limit

    def __missing__(self, key):
        value = self._fn(key)
        if self._limit is not None and len(self) >= self._limit:
            self.clear()
        self[key] = value
        return value


def items_of(terms: Mapping[K, C] | Iterable[tuple[K, C]]) -> Iterable[tuple[K, C]]:
    """The (key, coefficient) pairs of a mapping or of a pair iterable."""
    return terms.items() if isinstance(terms, Mapping) else terms


def _over_common_denominator(terms: Mapping[K, Fraction]) -> tuple[dict[K, int], int]:
    """Merged, zero-free rational coefficients as integer numerators over
    their least common denominator (reduced, since each input is)."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den


def _as_fractions(nums: Mapping[K, int], den: int) -> dict[K, Fraction]:
    return {k: Fraction(c, den) for k, c in nums.items()}


class TermMap:
    """Immutable sparse map from keys to nonzero int numerators over ``_den``.

    A subclass supplies its validating public constructor (which calls
    ``TermMap.__init__`` with checked pairs), ``_unit_key`` (the key of the
    constant 1), ``_products`` (the key product over all pairs of terms, as
    one generator) and ``_CONTEXT_NAME`` when it has a context.  Sums,
    differences, negation and scalar multiples are ``_combination`` calls;
    a storage other than one flat dict overrides that one method.
    """

    __slots__ = ("_context", "_terms", "_den")

    _CONTEXT_NAME = "context"

    def __init__(self, pairs: Iterable[tuple[K, Rational]], context=None):
        """Sum checked (key, rational) pairs, drop zeros and bring them over
        their least common denominator."""
        nums, den = _over_common_denominator(collect((k, Fraction(c)) for k, c in pairs))
        setattr_ = object.__setattr__
        setattr_(self, "_context", context)
        setattr_(self, "_terms", nums)
        setattr_(self, "_den", den)

    @classmethod
    def _from_merged(cls, nums: dict, den: int = 1, context=None):
        """Wrap merged, zero-free int numerators over den > 0, without a copy."""
        out = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(out, "_context", context)
        setattr_(out, "_terms", nums)
        setattr_(out, "_den", den)
        return out

    def _like(self, nums: dict, den: int = 1):
        """``_from_merged`` in self's class and context."""
        return self._from_merged(nums, den, self._context)

    def _reduced(self, nums: dict, den: int):
        """``_like`` after dividing out the factor all numerators share with den."""
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                nums = {k: c // g for k, c in nums.items()}
                den //= g
        return self._like(nums, den)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, context=None):
        return cls._from_merged({}, 1, context)

    @property
    def terms(self) -> dict:
        """The coefficients as a fresh dict of ``Fraction`` values."""
        return _as_fractions(self._terms, self._den)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def _check_context(self, other: "TermMap") -> None:
        if self._context is not other._context and self._context != other._context:
            raise ValueError(f"{self._CONTEXT_NAME} mismatch: {self._context} vs {other._context}")

    def _coerce(self, other):
        """``other`` as a value of self's class, or None for a foreign type."""
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction)):
            return self._like({self._unit_key(): other.numerator} if other else {}, other.denominator)
        return None

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._terms, other._terms
        da, db = self._den, other._den
        return (self._context == other._context and a.keys() == b.keys()
                and all(c * db == b[k] * da for k, c in a.items()))

    def __hash__(self) -> int:
        g = gcd(self._den, *self._terms.values())
        return hash((self._context, self._den // g, frozenset((k, c // g) for k, c in self._terms.items())))

    def _weights(self, parts: Iterable[tuple]) -> tuple[list[tuple], int]:
        """The nonzero parts of sum c_i t_i as (stored numerators, int
        multiplier, the part's further items) tuples over their lcm, and
        that lcm; every part's context is checked against self's.  A part
        is (t_i, c_i), or (t_i, c_i, shift) where a storage's combination
        reads a further item (``RadialExpr``'s radius shift)."""
        kept = []
        for t, c, *extra in parts:
            self._check_context(t)
            if c and t._terms:
                kept.append((t._terms, t._den * c.denominator, c.numerator, extra))
        den = lcm(*[d for _terms, d, _n, _extra in kept])
        return [(terms, n * (den // d), *extra) for terms, d, n, extra in kept], den

    def _combination(self, parts: Iterable[tuple["TermMap", Rational]]):
        """sum c_i t_i over (term map, rational) pairs, in self's class and
        context: one accumulator, zeros dropped once, one gcd pass, and no
        operand's stored dict written."""
        weighted, den = self._weights(parts)
        return self._reduced(collect((k, c * n) for terms, n in weighted for k, c in terms.items()), den)

    def __neg__(self):
        return self._combination(((self, -1),))

    def _mul(self, other):
        self._check_context(other)
        return self._reduced(collect(self._products(other)), self._den * other._den)

    def __add__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self._combination(((self, 1), (other, 1)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self._combination(((self, 1), (other, -1)))

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other._combination(((other, 1), (self, -1)))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._combination(((self, other),))
        other = self._coerce(other)
        return NotImplemented if other is None else self._mul(other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._combination(((self, other),))
        other = self._coerce(other)
        return NotImplemented if other is None else other._mul(self)

    def __pow__(self, n: int):
        """self^n by repeated squaring, started from self rather than from
        1: about log2(n) products and no product by 1, so self^2 is one
        product and a huge power of a single term is cheap."""
        if n < 0:
            raise ValueError(f"{type(self).__name__} power must be >= 0")
        if not n:
            return self._coerce(1)
        out, base = None, self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base
