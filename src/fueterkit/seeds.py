"""Wirtinger calculus on polynomial seeds w(z, zbar).

Seeds are stored as bivariate polynomials in the real coordinates (x, y);
z and zbar constructors expand at build time.  This keeps the
real/imaginary split and the planar Laplacian single-pass.  Only
polynomial seeds are supported: they cover every closed-form
construction the engine produces, and transcendental seeds would break
exactness.

The complex unit i is the generator e_1 of the Clifford algebra Cl(0,1):
i^2 = e_1^2 = -1, the same rule the engine applies to the units omega and
nu of the Fueter maps.  So a seed needs no complex number type.  Its
term key is (i, j, mask) for x^i y^j with the generator mask 0 for a real
and 1 for an imaginary coefficient (``clifford.blade_mask`` of () and
(1,), the blades the constructor takes and ``terms`` returns), a product
multiplies masks by XOR with the sign ``clifford.mask_sign``, read as the
parity of the right mask's bits in the left one's ``sign_mask``, and the
real and imaginary parts u, v are the partition of the terms by mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .bivariate import BivariateRadial
from .clifford import Blade, blade_mask, mask_blade, mask_sign, sign_mask
from .errors import PreconditionError
from .sparse import Rational, TermMap, collect, items_of

DZ = "dz"
DZBAR = "dzbar"

# The generator mask of the complex unit i = e_1 in Cl(0,1).
_I = 1

SeedKey = tuple[int, int, Blade]


class ComplexBivarPoly(TermMap):
    """Polynomial in (x, y) with complex-rational coefficients; immutable.

    Public keys are (i, j, blade): the monomial x^i y^j times 1 (blade
    ()) or i (blade (1,)); stored keys carry the blade's mask.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[SeedKey, Rational] | Iterable[tuple[SeedKey, Rational]] = ()):
        super().__init__(_checked_seed_terms(items_of(terms)))

    @classmethod
    def constant(cls, c: Rational) -> "ComplexBivarPoly":
        return cls({(0, 0, ()): c})

    @classmethod
    def coordinate(cls, which: str) -> "ComplexBivarPoly":
        return cls._from_merged({(0, 1, 0) if _slot(which) else (1, 0, 0): 1})

    @classmethod
    def i(cls) -> "ComplexBivarPoly":
        return cls._from_merged({(0, 0, _I): 1})

    @classmethod
    def z(cls) -> "ComplexBivarPoly":
        return cls._from_merged({(1, 0, 0): 1, (0, 1, _I): 1})

    @classmethod
    def zbar(cls) -> "ComplexBivarPoly":
        return cls._from_merged({(1, 0, 0): 1, (0, 1, _I): -1})

    def _unit_key(self) -> tuple[int, int, int]:
        return (0, 0, 0)

    def _products(self, other: "ComplexBivarPoly"):
        for (i1, j1, b1), c1 in self._terms.items():
            s1 = sign_mask(b1)
            for (i2, j2, b2), c2 in other._terms.items():
                yield (i1 + i2, j1 + j2, b1 ^ b2), (-c1 if (b2 & s1).bit_count() & 1 else c1) * c2

    @property
    def terms(self) -> dict[SeedKey, Fraction]:
        """The coefficients as a fresh (i, j, blade) -> ``Fraction`` dict."""
        den = self._den
        return {(i, j, mask_blade(mask)): Fraction(c, den) for (i, j, mask), c in self._terms.items()}

    def __repr__(self) -> str:
        from .formatting import _write

        keys = sorted(self._terms)
        rows = [(rank, self._terms[key]) for rank, key in enumerate(keys)]
        table = ([(mask, i, j) for i, j, mask in keys], [None], [(None, rows)])
        return f"ComplexBivarPoly({_write(table, self._den, 'plain', names=('i', 'x', 'y'))})"


def _checked_seed_terms(items: Iterable[tuple[SeedKey, Rational]]) -> Iterable[tuple[tuple[int, int, int], Rational]]:
    for (i, j, blade), c in items:
        blade = tuple(blade)
        if i < 0 or j < 0:
            raise ValueError("seed monomial exponents must be >= 0")
        if blade not in ((), (1,)):
            raise ValueError(f"seed coefficient blade must be () or (1,), got {blade}")
        yield (i, j, blade_mask(blade)), c


def _slot(which: str) -> int:
    if which == "x":
        return 0
    if which == "y":
        return 1
    raise ValueError(f"coordinate must be 'x' or 'y', got {which!r}")


def wirtinger(w: ComplexBivarPoly, which: str) -> ComplexBivarPoly:
    """d/dz = (d/dx - i d/dy)/2 or d/dzbar = (d/dx + i d/dy)/2."""
    if which not in (DZ, DZBAR):
        raise ValueError(f"which must be {DZ!r} or {DZBAR!r}")
    sign = -1 if which == DZ else 1

    def terms():
        for (i, j, b), c in w._terms.items():
            if i:
                yield (i - 1, j, b), i * c
            if j:
                yield (i, j - 1, _I ^ b), sign * mask_sign(_I, b) * j * c

    return w._like(collect(terms()), 2 * w._den)


def laplace2(w: ComplexBivarPoly) -> ComplexBivarPoly:
    """Planar Laplacian d2/dx2 + d2/dy2 (equals 4 dz dzbar on this class),
    in one pass: x^i y^j -> i(i-1) x^(i-2) y^j + j(j-1) x^i y^(j-2)."""

    def terms():
        for (i, j, b), c in w._terms.items():
            yield (i - 2, j, b), i * (i - 1) * c
            yield (i, j - 2, b), j * (j - 1) * c

    return w._like(collect(terms()), w._den)


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
    return SeedFunction.create(seed.w * ComplexBivarPoly.i())


def parity_monomial(n1: int, n2: int) -> ComplexBivarPoly:
    """Signed monomial h(x, y) used when absorbing x^n1 y^n2 vector powers.

    For n1 + n2 even: (-1)^{(n1+n2)/2} x^n1 y^n2 when n1, n2 are both even,
    and (-1)^{(n1+n2-2)/2} i x^n1 y^n2 when both are odd.  For n1 + n2 odd:
    (-1)^{(n1+n2-1)/2} x^n1 y^n2 for n1 odd, n2 even, and the same with an
    extra factor i for n1 even, n2 odd.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("exponents must be >= 0")
    odd = n2 % 2
    sign = -1 if (n1 + n2 - odd) // 2 % 2 else 1
    return ComplexBivarPoly._from_merged({(n1, n2, _I if odd else 0): sign})


def seed_times_monomial(seed: SeedFunction, n1: int, n2: int) -> SeedFunction:
    """Multiply by the signed parity monomial; for antiholomorphic seeds the
    resulting order is at most n1 + n2."""
    return SeedFunction.create(seed.w * parity_monomial(n1, n2))


def split_uv(w: ComplexBivarPoly) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], int], int]:
    """Real and imaginary parts as int numerators over w's denominator,
    which is the third value: the partition of the terms by mask."""
    u: dict[tuple[int, int], int] = {}
    v: dict[tuple[int, int], int] = {}
    for (i, j, mask), c in w._terms.items():
        (v if mask else u)[i, j] = c
    return u, v, w._den


def lift_to_radial(nums: dict[tuple[int, int], int], den: int) -> BivariateRadial:
    """Substitute x -> r, y -> rho: monomial (i, j) becomes the key (a=i, b=j).

    ``nums`` are merged, zero-free int numerators over ``den`` > 0, as
    ``split_uv`` returns them; they are wrapped without a copy."""
    return BivariateRadial._from_merged(nums, den)
