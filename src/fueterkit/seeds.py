"""Wirtinger calculus on polynomial seeds w(z, zbar).

Seeds are stored as bivariate polynomials in the real coordinates (x, y)
with complex-rational coefficients; z and zbar constructors expand at
build time.  This keeps the real/imaginary split and the planar Laplacian
single-pass.  Only polynomial seeds are supported: they cover every
closed-form construction the engine produces, and transcendental seeds
would break exactness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .bivariate import BivariateRadial
from .errors import PreconditionError
from .sparse import collect

Rational = Union[int, Fraction]

DZ = "dz"
DZBAR = "dzbar"


@dataclass(frozen=True)
class ComplexRational:
    """Exact complex number re + i*im with rational parts."""

    re: Fraction
    im: Fraction

    @classmethod
    def of(cls, re: Rational = 0, im: Rational = 0) -> "ComplexRational":
        return cls(Fraction(re), Fraction(im))

    def __add__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ComplexRational":
        return ComplexRational(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return ComplexRational(self.re * c, self.im * c)
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def times_i(self) -> "ComplexRational":
        return ComplexRational(-self.im, self.re)

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)


_ONE = ComplexRational.of(1)
_I = ComplexRational.of(0, 1)
_HALF = Fraction(1, 2)


class ComplexBivarPoly:
    """Polynomial in (x, y) with ComplexRational coefficients; immutable."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], ComplexRational] | Iterable[tuple[tuple[int, int], ComplexRational]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        object.__setattr__(self, "_terms", collect(items))

    @classmethod
    def _from_merged(cls, terms: dict[tuple[int, int], ComplexRational]) -> "ComplexBivarPoly":
        """Wrap a dict that is already merged and zero-free, without a copy."""
        out = object.__new__(cls)
        object.__setattr__(out, "_terms", terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("ComplexBivarPoly is immutable")

    @classmethod
    def zero(cls) -> "ComplexBivarPoly":
        return cls()

    @classmethod
    def constant(cls, c: ComplexRational | Rational) -> "ComplexBivarPoly":
        if not isinstance(c, ComplexRational):
            c = ComplexRational.of(c)
        return cls({(0, 0): c})

    @classmethod
    def coordinate(cls, which: str) -> "ComplexBivarPoly":
        return cls._from_merged({(0, 1) if _slot(which) else (1, 0): _ONE})

    @classmethod
    def z(cls) -> "ComplexBivarPoly":
        return cls._from_merged({(1, 0): _ONE, (0, 1): _I})

    @classmethod
    def zbar(cls) -> "ComplexBivarPoly":
        return cls._from_merged({(1, 0): _ONE, (0, 1): -_I})

    @property
    def terms(self) -> Mapping[tuple[int, int], ComplexRational]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComplexBivarPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "ComplexBivarPoly") -> "ComplexBivarPoly":
        return ComplexBivarPoly._from_merged(collect(other._terms.items(), self._terms))

    def __sub__(self, other: "ComplexBivarPoly") -> "ComplexBivarPoly":
        return self + (-other)

    def __neg__(self) -> "ComplexBivarPoly":
        return ComplexBivarPoly._from_merged({k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ComplexBivarPoly.constant(other)
        if isinstance(other, ComplexRational):
            other = ComplexBivarPoly.constant(other)
        if not isinstance(other, ComplexBivarPoly):
            return NotImplemented
        return ComplexBivarPoly._from_merged(collect(
            ((i1 + i2, j1 + j2), c1 * c2)
            for (i1, j1), c1 in self._terms.items() for (i2, j2), c2 in other._terms.items()))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "ComplexBivarPoly":
        if n < 0:
            raise ValueError("polynomial power must be >= 0")
        out = ComplexBivarPoly.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def degree(self) -> int:
        return max((i + j for (i, j) in self._terms), default=-1)

    def __repr__(self) -> str:
        if not self._terms:
            return "ComplexBivarPoly(0)"
        bits = []
        for (i, j) in sorted(self._terms):
            c = self._terms[(i, j)]
            bits.append(f"({c.re}+{c.im}i)*x^{i}*y^{j}")
        return "ComplexBivarPoly(" + " + ".join(bits) + ")"


def _slot(which: str) -> int:
    if which == "x":
        return 0
    if which == "y":
        return 1
    raise ValueError(f"coordinate must be 'x' or 'y', got {which!r}")


def _diff(w: ComplexBivarPoly, which: str) -> ComplexBivarPoly:
    slot = _slot(which)
    return ComplexBivarPoly._from_merged(collect(
        ((i - 1, j) if slot == 0 else (i, j - 1), c * (i if slot == 0 else j))
        for (i, j), c in w._terms.items()))


def wirtinger(w: ComplexBivarPoly, which: str) -> ComplexBivarPoly:
    """d/dz = (d/dx - i d/dy)/2 or d/dzbar = (d/dx + i d/dy)/2."""
    if which not in (DZ, DZBAR):
        raise ValueError(f"which must be {DZ!r} or {DZBAR!r}")
    dx = _diff(w, "x")
    i_dy = ComplexBivarPoly._from_merged({k: c.times_i() for k, c in _diff(w, "y")._terms.items()})
    base = dx - i_dy if which == DZ else dx + i_dy
    return ComplexBivarPoly._from_merged({k: c * _HALF for k, c in base._terms.items()})


def laplace2(w: ComplexBivarPoly) -> ComplexBivarPoly:
    """Planar Laplacian d2/dx2 + d2/dy2 (equals 4 dz dzbar on this class)."""
    return _diff(_diff(w, "x"), "x") + _diff(_diff(w, "y"), "y")


def seed_order(w: ComplexBivarPoly) -> int:
    """Smallest mu >= 0 with dz applied to Laplacian^mu w equal to zero."""
    if w.is_zero():
        raise PreconditionError("seed order is undefined for the zero seed")
    mu = 0
    cur = w
    while not wirtinger(cur, DZ).is_zero():
        cur = laplace2(cur)
        mu += 1
    return mu


@dataclass(frozen=True)
class SeedFunction:
    """A polynomial seed together with its verified annihilation order.

    ``mu`` is always recomputed from the polynomial, never trusted from
    input; mu = 0 means the seed is antiholomorphic.
    """

    w: ComplexBivarPoly
    mu: int

    @classmethod
    def create(cls, w: ComplexBivarPoly) -> "SeedFunction":
        return cls(w, seed_order(w))

    def is_antiholomorphic(self) -> bool:
        return self.mu == 0

    def is_holomorphic(self) -> bool:
        return wirtinger(self.w, DZBAR).is_zero()


def conj_power(n: int) -> SeedFunction:
    """zbar^n expanded over (x, y); antiholomorphic, order 0."""
    if n < 0:
        raise ValueError("power must be >= 0")
    return SeedFunction.create(ComplexBivarPoly.zbar() ** n)


def holo_power(n: int) -> SeedFunction:
    """z^n expanded over (x, y); holomorphic."""
    if n < 0:
        raise ValueError("power must be >= 0")
    return SeedFunction.create(ComplexBivarPoly.z() ** n)


def times_i(seed: SeedFunction) -> SeedFunction:
    return SeedFunction.create(seed.w * _I)


def parity_monomial(n1: int, n2: int) -> ComplexBivarPoly:
    """Signed monomial h(x, y) used when absorbing x^n1 y^n2 vector powers.

    For n1 + n2 even: (-1)^{(n1+n2)/2} x^n1 y^n2 when n1, n2 are both even,
    and (-1)^{(n1+n2-2)/2} i x^n1 y^n2 when both are odd.  For n1 + n2 odd:
    (-1)^{(n1+n2-1)/2} x^n1 y^n2 for n1 odd, n2 even, and the same with an
    extra factor i for n1 even, n2 odd.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("exponents must be >= 0")
    mono = ComplexBivarPoly._from_merged({(n1, n2): _ONE})
    tot = n1 + n2
    if tot % 2 == 0:
        if n1 % 2 == 0:
            sign = (-1) ** (tot // 2)
            return mono * sign
        sign = (-1) ** ((tot - 2) // 2)
        return mono * (_I * sign)
    if n1 % 2 == 1:
        sign = (-1) ** ((tot - 1) // 2)
        return mono * sign
    sign = (-1) ** ((tot - 1) // 2)
    return mono * (_I * sign)


def seed_times_monomial(seed: SeedFunction, n1: int, n2: int) -> SeedFunction:
    """Multiply by the signed parity monomial; for antiholomorphic seeds the
    resulting order is at most n1 + n2."""
    return SeedFunction.create(seed.w * parity_monomial(n1, n2))


def split_uv(w: ComplexBivarPoly) -> tuple[dict[tuple[int, int], Fraction], dict[tuple[int, int], Fraction]]:
    """Real and imaginary parts as real-rational bivariate polynomials."""
    u: dict[tuple[int, int], Fraction] = {}
    v: dict[tuple[int, int], Fraction] = {}
    for key, c in w._terms.items():
        if c.re:
            u[key] = c.re
        if c.im:
            v[key] = c.im
    return u, v


def lift_to_radial(poly: Mapping[tuple[int, int], Fraction]) -> BivariateRadial:
    """Substitute x -> r, y -> rho: monomial (i, j) becomes the key (a=i, b=j)."""
    return BivariateRadial({(i, j): c for (i, j), c in poly.items()})
