"""Exact arithmetic in the real Clifford algebra R_m.

The algebra is generated by e_1 .. e_m with e_j^2 = -1 and
e_j e_k = -e_k e_j for j != k.  A basis blade is a strictly increasing
tuple of generator indices at the public edges, the empty tuple being
the scalar unit; inside the engine it is the blade's generator mask, bit
g-1 standing for e_g (the bitmap representation of Dorst, Fontijne and
Mann, *Geometric Algebra for Computer Science*, ch. 19).  ``blade_mask``
encodes and validates, ``mask_blade`` decodes, and two blades multiply to
the mask a ^ b with the sign ``mask_sign(a, b)``, the parity of b's bits
in a's ``sign_mask``: every term map keys its blades this way, so that is
the one product rule, and a product loop forms each left mask's sign mask
once.  Elements are sparse mask -> coefficient maps (integer numerators
over one denominator, see ``sparse``); every coefficient is an
arbitrary-precision rational and no floating point enters anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Mapping

from .sparse import Rational, TermMap, items_of

Blade = tuple[int, ...]

SCALAR_BLADE: Blade = ()


def blade_mask(blade: Iterable[int], dim: int | None = None) -> int:
    """The generator mask of a basis blade: bit g-1 stands for e_g.

    ValueError unless the indices are strictly increasing from 1 and, when
    ``dim`` is given, at most ``dim``."""
    blade = tuple(blade)
    mask = last = 0
    for g in blade:
        if g < 1:
            raise ValueError(f"blade index {g} is invalid")
        if g <= last:
            raise ValueError(f"blade indices must be strictly increasing: {blade}")
        if dim is not None and g > dim:
            raise ValueError(f"blade index {g} exceeds algebra dimension {dim}")
        mask |= 1 << (g - 1)
        last = g
    return mask


def mask_blade(mask: int) -> Blade:
    """The basis blade of a generator mask."""
    return tuple(g + 1 for g in range(mask.bit_length()) if mask >> g & 1)


def sign_mask(a: int) -> int:
    """The XOR of the low masks ``(2 << g) - 1`` over the set bits g of a.

    Bit j of it is the parity of a's generators at or above bit j, so
    e_A e_B is negative exactly when b's bits in it are odd in number
    (``mask_sign``); a generator's own low mask is ``sign_mask(bit)``."""
    out = 0
    while a:
        out ^= a ^ (a - 1)  # the lowest set bit's low mask
        a &= a - 1
    return out


def mask_sign(a: int, b: int) -> int:
    """Sign of the product of the basis blades with generator masks a and b.

    The product's blade has mask a ^ b.  Sorting the concatenated
    generators swaps every generator of a past each smaller one of b, and
    every generator the two share squares to -1, so the sign is -1 to the
    number of pairs of a generator of a and one of b at or below it: the
    parity of b's bits in ``sign_mask(a)``.
    """
    return -1 if (b & sign_mask(a)).bit_count() & 1 else 1


class Multivector(TermMap):
    """Element of R_m as a sparse mapping from blade masks to rationals;
    ``terms`` and ``coefficient`` speak blade tuples.

    Instances are immutable; all operations return new values, so they are
    safe to share between concurrent tasks.
    """

    __slots__ = ()

    _CONTEXT_NAME = "dimension"

    dim = property(attrgetter("_context"), doc="The number m of generators.")

    def __init__(self, dim: int, terms: Mapping[Blade, Rational] | Iterable[tuple[Blade, Rational]] = ()):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        super().__init__(((blade_mask(blade, dim), c) for blade, c in items_of(terms)), dim)

    @classmethod
    def scalar(cls, value: Rational, dim: int) -> "Multivector":
        return cls(dim, {SCALAR_BLADE: value})

    @classmethod
    def blade(cls, indices: Iterable[int], dim: int, coeff: Rational = 1) -> "Multivector":
        return cls(dim, {tuple(indices): coeff})

    @classmethod
    def basis_vector(cls, j: int, dim: int) -> "Multivector":
        return cls(dim, {(j,): 1})

    def _unit_key(self) -> int:
        return 0

    def _products(self, other: "Multivector"):
        for ma, ca in self._terms.items():
            sa = sign_mask(ma)
            for mb, cb in other._terms.items():
                yield ma ^ mb, (-ca if (mb & sa).bit_count() & 1 else ca) * cb

    @property
    def terms(self) -> dict[Blade, Fraction]:
        """The coefficients as a fresh blade -> ``Fraction`` dict."""
        den = self._den
        return {mask_blade(mask): Fraction(c, den) for mask, c in self._terms.items()}

    def coefficient(self, blade: Iterable[int]) -> Fraction:
        """The coefficient of a basis blade; ValueError unless the blade is
        strictly increasing and inside the algebra."""
        return Fraction(self._terms.get(blade_mask(blade, self.dim), 0), self._den)

    def parity_split(self) -> tuple["Multivector", "Multivector"]:
        """Split by blade cardinality into (even, odd) graded parts."""
        even: dict[int, int] = {}
        odd: dict[int, int] = {}
        for mask, coeff in self._terms.items():
            (odd if mask.bit_count() & 1 else even)[mask] = coeff
        return self._like(even, self._den), self._like(odd, self._den)

    def __repr__(self) -> str:
        from .formatting import format_multivector

        return f"Multivector({format_multivector(self)})"


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
