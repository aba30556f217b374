"""Clifford-valued Laurent-radial expressions over a biaxial frame.

A RadialExpr is a finite sum of terms

    (coordinate monomial) * (Multivector coefficient) * r^a * rho^b

with integer exponents a, b of either sign.  The class {polynomial * r^a
rho^b} is the smallest one containing every integrand the Fueter
constructions need and it is closed under partial differentiation, which
is why it is the universal function class of this engine.

Normal form, the zero test and equality
---------------------------------------
Every question about an expression goes through one normal form: the
remainder modulo the ideal (r^2 - |x|^2, rho^2 - |y|^2) with the last
coordinate of each group leading.  The rewrite

    x_p^2 -> r^2 - (x_1^2 + ... + x_{p-1}^2),
    y_q^2 -> rho^2 - (y_1^2 + ... + y_{q-1}^2)

is applied until no term carries x_p or y_q to a power above 1, from one
multinomial table (``_lead_square_power``; the frame keeps those of
k = 0 and 1, and ``dirac`` reads the k = 1 one); the scalar coordinate
X0 and the radial exponents (any integers) are left alone.  This is the
Groebner normal form of Cox, Little and O'Shea, *Ideals, Varieties, and
Algorithms*, ch. 2.

It is sound because R[x] is a free module over R[x_1..x_{p-1}, r^2] with
basis {1, x_p} (r^2 is monic of degree 2 in x_p), and likewise in y.  So
the functions x_p^{0|1} x'^alpha y_q^{0|1} y'^beta r^a rho^b are linearly
independent on {r > 0, rho > 0}: odd powers of r or rho are not rational
in the coordinates, and a common even power of the radii clears negative
exponents.  After merging equal keys, an expression is zero exactly when
its normal form is empty, two expressions are equal exactly when their
normal forms hold the same rows, and the sorted normal form is what gets
printed.

Operators keep terms merged by exact key only; the normal form is
computed at the first zero test, equality or display and then cached, and
the proof, ``==`` and the printers share it.  ``dirac`` reads its
operand's cached normal form and stores its image in normal form, so the
zero test of ``is_monogenic`` only asks whether the image is empty; on a
large operand it first tests the image for zero with its row rule run
once per distinct x part and once per distinct y part of the rows, the
cross terms summed as packed ints.
``separated_laplacian_power``, which assembles every biaxial map's
output, builds it from its factors' normal forms and stores it as its own
normal form, so no map output has one formed.
Equality compares two cached normal forms, as one dict comparison when
the denominators agree and by cross-multiplication otherwise;
``display_order`` sorts the distinct monomials and blades once and hands
the printers each row as an int rank in buckets by radial part, and only
``canonical_terms`` sorts and flattens the rows themselves.

Storage: monomial groups of packed rows
---------------------------------------
Each coordinate monomial of a map's integrand carries a whole Laurent
polynomial in r and rho spread over several blades, so an expression has
far fewer distinct monomials than terms: over one pass of the
large_apply benchmark, the three map outputs store 4100 terms under 572
monomials, and their normal forms, which Dirac reads, 4709 terms under
478.  So an expression stores its terms grouped,
monomial -> {row key: numerator}, and every operator reads and writes
that form.  The Laplacian, the Dirac operator and the normal form work
out what a monomial contributes once per group (its lowered and raised
monomials, e(e-1) and p + 2d - 2, its rewrite rows) and add each row
straight into the target monomial's dict; ``re_mul`` forms one monomial
product per pair of groups.  Zeros are dropped at the end by rebuilding
only the groups that keep rows beside a zero (``_nonzero``).  A stored
group is never written to: results may share an operand's groups
(``negate_group``, the cached normal form), so an operator adds only
into dicts it made.

A row key is one int that packs the coefficient blade and both radial
exponents, with m = frame.m:

    key = mask | ((a + 2^63) << m) | (b << (m + 64))

``mask`` is the blade's generator mask, bit g-1 for e_g, the one blade
encoding of ``clifford`` (``Multivector`` keys by it too); a sits
in a 64-bit field above it, offset by 2^63, and b is the signed top
field, which ``>>`` decodes exactly because it floors.  So the kernels
shift and hash ints instead of building (blade, a, b) tuples:

* Dirac with generator e_g maps a key to ``key ^ bit`` with the sign
  ``clifford.mask_sign(bit, mask)``, the parity of the key's bits in
  the low mask ``clifford.sign_mask(bit)``, which the scope's Dirac plan
  in the frame's context (below) keeps beside each axis's bit (both 0
  for X0).  Its row split takes a row's y part as the y mask bits and
  the rho field, and its x part as the rest; while the rule runs, an x
  part holds the row's y class in its rho field and a y part its slot
  number in its r field, fields that the axes of its own side never read
  (``_split_rows``);
* lowering r or rho subtracts ``2 << m`` or ``2 << (m + 64)``, a rewrite
  adds ``(ea << m) + (eb << (m + 64))``, and a linear combination adds a
  radius shift r^a rho^b to every key it copies (``_radial_shift``);
* ``re_mul`` adds the two radial parts, less one offset, and multiplies
  the blades by XOR with the sign ``mask_sign``, the parity of the right
  mask's bits in the left row's ``sign_mask``, formed once per left row;
  the separated Laplacian power adds a table entry's radial part to a y
  row and then an x row's mask and r power, since its blades never share
  a generator and come in generator order;
* the grade involution negates a row whose mask has odd popcount;
* ``display_order`` buckets rows by radial part, ``key >> m``, as
  (rank, numerator) pairs, the rank monomial index * number of blades +
  blade index over the sorted distinct monomials and blades.

A frame's context (``_frame_context``, one per equal frame in one cache
keyed by the frame's value) keeps each scope's Dirac plan, the (group, k)
square tables for k = 0 and 1 and the four group vectors, all built with
the context, which every caller may share (an expression is immutable).
A context never grows: the normal form makes a table of k >= 2 for the
call that asks for it and drops it after.

Every radial exponent satisfies |e| <= 2^62 (``EXPONENT_LIMIT``).  It is
checked where rows enter (the validating constructor, ``monomial``, which
every single-term constructor and number coercion call, ``from_bivariate*``
and the separated assembly, on each table entry's radial part shifted by
its chain entries' highest powers), in ``re_mul`` from the extreme
exponents of its operands, and in the normal form before a rewrite raises
an exponent by 2k; a violation raises ``PreconditionError``.  That is
enough to keep a from leaving its field: the operators that do not check
only lower an exponent by 2 per step (Dirac's rewrite only gives back the
2 its derivative took), and it would take 2^61 steps to go from -2^62
below -2^63.  Only the edges decode a key: ``_rows`` (the
flat view behind ``raw_terms`` and ``canonical_terms``), ``bidegree_parts``,
``homogeneity_degree`` and ``display_order`` (a bucket's radial part,
and each mask once per call) and ``_stored_group_classes`` (a factor's
split for the separated assembly, which tests a key's mask against the
group's generator bits and decodes each distinct radial part once).  The public
constructors take (monomial, blade, a, b) rows.

Coefficients are integer numerators over one denominator (see ``sparse``):
the differential operators, the grade involution and the normal form
keep the denominator, so the zero test is integer-only, and
``raw_terms``, ``canonical_terms`` and ``proportionality_constant`` are
the ``Fraction`` outputs.
"""

from __future__ import annotations

import operator
import random
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, isqrt, lcm
from typing import Iterable, Iterator, Mapping, NamedTuple

from .bivariate import BivariateRadial
from .clifford import Blade, Multivector, SCALAR_BLADE, blade_mask, mask_blade, mask_sign, sign_mask, vector_embed
from .errors import PreconditionError
from .frame import AxisFrame
from .sparse import Memo, Rational, TermMap, items_of

Mono = tuple[int, ...]
TermKey = tuple[Mono, Blade, int, int]
# The stored form and a kernel's accumulator: monomial -> {packed row key: numerator}
_Groups = dict[Mono, dict[int, int]]
# The printers' input (``display_order``): the sorted monomials, the sorted
# blades, and ((a, b), [(rank, numerator)]) buckets in print order.
_DisplayTable = tuple[list[Mono], list[Blade], list[tuple[tuple[int, int], list[tuple[int, int]]]]]

SCOPE_FIRST = "first-group"
SCOPE_SECOND = "second-group"
SCOPE_FULL = "full"
SCOPE_CR = "cauchy-riemann"

_SCOPES = (SCOPE_FIRST, SCOPE_SECOND, SCOPE_FULL, SCOPE_CR)

# The Dirac and Laplacian scope of each axial group.
GROUP_SCOPES = {"x": SCOPE_FIRST, "y": SCOPE_SECOND}

# The frame contexts kept at a time (module docstring).
_CONTEXT_CACHE_SIZE = 64

# Row key layout (module docstring): the r exponent's offset and field
# above the blade mask, and the bound on every radial exponent.
_A_OFFSET = 1 << 63
_A_FIELD = (1 << 64) - 1
EXPONENT_LIMIT = 1 << 62


def _mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(operator.add, a, b))


def _unit_mono(frame: AxisFrame, idx: int) -> Mono:
    return tuple(1 if i == idx else 0 for i in range(frame.ncoords))


def _check_exponent(e: int) -> int:
    if not -EXPONENT_LIMIT <= e <= EXPONENT_LIMIT:
        raise PreconditionError(f"radial exponent {e} is beyond the limit |e| <= 2^62")
    return e


def _radial_bits(frame: AxisFrame, a: int, b: int) -> int:
    """The radial part of a row key for r^a rho^b; checks that b = 0 in a
    single-axis frame (ValueError), then the exponent limit."""
    if frame.q == 0 and b != 0:
        raise ValueError("rho exponent must be 0 in a single-axis frame")
    return ((_check_exponent(a) + _A_OFFSET) << frame.m) | (_check_exponent(b) << (frame.m + 64))


def _radial_shift(m: int, a: int, b: int, a_top: int, b_top: int) -> int:
    """What adding to a row key multiplies the row by r^a rho^b, for rows
    whose own exponents lie in [0, a_top] and [0, b_top]; checks the
    exponent limit on every exponent the shifted rows can carry."""
    _check_exponent(a + a_top)
    _check_exponent(b + b_top)
    return (_check_exponent(a) << m) + (_check_exponent(b) << (m + 64))


def _exponents(m: int, key: int) -> tuple[int, int]:
    """The (r, rho) exponents of a row key."""
    return ((key >> m) & _A_FIELD) - _A_OFFSET, key >> (m + 64)


def _exponent_range(m: int, groups: _Groups) -> tuple[int, int, int, int]:
    """The least and greatest r and rho exponents of stored groups, as
    (amin, amax, bmin, bmax), read off their few distinct radial parts
    (a key shifted right by m); a part orders by its rho power first."""
    parts = {key >> m for inner in groups.values() for key in inner}
    a_fields = [part & _A_FIELD for part in parts]
    return min(a_fields) - _A_OFFSET, max(a_fields) - _A_OFFSET, min(parts) >> 64, max(parts) >> 64


def _checked_terms(frame: AxisFrame, items: Iterable[tuple[TermKey, Rational]]) -> Iterator[tuple[tuple[Mono, int], Rational]]:
    """Validate outside terms against the frame, as (monomial, row key) pairs."""
    n, m = frame.ncoords, frame.m
    for (mono, blade, a, b), coeff in items:
        mono = tuple(mono)
        if len(mono) != n:
            raise ValueError(f"monomial length {len(mono)} does not match frame coordinates {n}")
        if any(e < 0 for e in mono):
            raise ValueError("monomial exponents must be >= 0")
        yield (mono, blade_mask(blade, m) | _radial_bits(frame, a, b)), coeff


def _add_rows(out: dict, rows: Mapping, k: int) -> None:
    """out += k * rows, key by key."""
    get = out.get
    for key, c in rows.items():
        out[key] = get(key, 0) + k * c


def _lowest_terms(groups: _Groups, den: int) -> tuple[_Groups, int]:
    """groups and den after dividing out the factor all numerators share
    with den, in place."""
    if den != 1:
        g = gcd(den, *chain.from_iterable(inner.values() for inner in groups.values()))
        if g != 1:
            for inner in groups.values():
                for key, c in inner.items():
                    inner[key] = c // g
            den //= g
    return groups, den


def _rows(m: int, groups: _Groups) -> Iterator[tuple[TermKey, int]]:
    """Stored groups as flat ((monomial, blade, a, b), numerator) rows,
    each mask decoded once per call."""
    blades = Memo(mask_blade)
    low, mb = (1 << m) - 1, m + 64
    return (((mono, blades[key & low], ((key >> m) & _A_FIELD) - _A_OFFSET, key >> mb), c)
            for mono, inner in groups.items() for key, c in inner.items())


def _nonzero(acc: _Groups) -> _Groups:
    """An accumulator as stored groups: zero rows and empty groups dropped.
    Only a group that holds both zero and nonzero rows is rebuilt; one
    that cancelled completely (a verified zero test cancels them all) is
    just left out."""
    out = {}
    for mono, inner in acc.items():
        if 0 in inner.values():
            if not any(inner.values()):
                continue
            inner = {key: c for key, c in inner.items() if c}
        if inner:
            out[mono] = inner
    return out


class RadialExpr(TermMap):
    """Immutable Clifford-valued Laurent-radial expression.

    ``_terms`` holds monomial -> {packed row key: nonzero int numerator}
    over ``_den``, no group empty (module docstring); ``raw_terms`` is the
    flat view.
    """

    __slots__ = ("_canonical_cache",)

    _CONTEXT_NAME = "frame"

    frame = property(operator.attrgetter("_context"), doc="The biaxial frame.")

    def __init__(self, frame: AxisFrame,
                 terms: Mapping[TermKey, Rational] | Iterable[tuple[TermKey, Rational]] = ()):
        super().__init__(_checked_terms(frame, items_of(terms)), frame)
        groups: _Groups = {}
        for (mono, key), c in self._terms.items():
            groups.setdefault(mono, {})[key] = c
        object.__setattr__(self, "_terms", groups)

    # -- constructors -------------------------------------------------

    @classmethod
    def scalar(cls, frame: AxisFrame, value: Rational) -> "RadialExpr":
        return cls.monomial(frame, {}, value)

    @classmethod
    def constant(cls, frame: AxisFrame, mv: Multivector) -> "RadialExpr":
        return cls.monomial(frame, {}, mv)

    @classmethod
    def coordinate(cls, frame: AxisFrame, name: str) -> "RadialExpr":
        return cls.monomial(frame, {name: 1})

    @classmethod
    def monomial(cls, frame: AxisFrame, exponents: Mapping[str, int],
                 coeff: Multivector | Rational = 1, a: int = 0, b: int = 0) -> "RadialExpr":
        """The term coeff * (named coordinates to their exponents) * r^a rho^b,
        one row per blade of coeff: the one checked single-term packer."""
        mono = [0] * frame.ncoords
        for name, e in exponents.items():
            if e < 0:
                raise ValueError("monomial exponents must be >= 0")
            mono[frame.coord_index(name)] += e
        part = _radial_bits(frame, a, b)
        if isinstance(coeff, Multivector):
            if coeff.dim != frame.m:
                raise ValueError(f"multivector dimension {coeff.dim} does not match frame m={frame.m}")
            masks, den = coeff._terms, coeff._den
        else:
            masks, den = {0: coeff.numerator} if coeff else {}, coeff.denominator
        rows = {mask | part: c for mask, c in masks.items()}
        return cls._from_merged({tuple(mono): rows} if rows else {}, den, frame)

    @classmethod
    def radial(cls, frame: AxisFrame, a: int = 0, b: int = 0, coeff: Rational = 1) -> "RadialExpr":
        """The scalar term coeff * r^a * rho^b."""
        return cls.monomial(frame, {}, coeff, a, b)

    @classmethod
    def from_bivariate(cls, frame: AxisFrame, h: BivariateRadial) -> "RadialExpr":
        """Embed a scalar Laurent function of (r, rho)."""
        rows = {_radial_bits(frame, a, b): c for (a, b), c in h._terms.items()}
        return cls._from_merged({(0,) * frame.ncoords: rows} if rows else {}, h._den, frame)

    @classmethod
    def from_bivariate_classical(cls, frame: AxisFrame, h: BivariateRadial) -> "RadialExpr":
        """Embed a function of (X0, R): slot 1 is the X0 power, slot 2 the r power."""
        if not frame.scalar_axis:
            raise PreconditionError("classical embedding needs a frame with the scalar axis X0")
        if any(i < 0 for i, _j in h._terms):
            raise ValueError("X0 powers must be >= 0")
        zeros = (0,) * (frame.ncoords - 1)
        groups: _Groups = {}
        for (i, j), c in h._terms.items():
            groups.setdefault((i,) + zeros, {})[_radial_bits(frame, j, 0)] = c
        return cls._from_merged(groups, h._den, frame)

    # -- basic structure ----------------------------------------------

    @property
    def terms(self) -> dict[TermKey, Fraction]:
        """The stored terms as a fresh flat dict of ``Fraction`` values."""
        den = self._den
        return {key: Fraction(c, den) for key, c in _rows(self.frame.m, self._terms)}

    raw_terms = terms

    def __bool__(self) -> bool:
        return bool(self._normal())

    def is_zero(self) -> bool:
        return not self._normal()

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)) or (isinstance(other, Multivector) and other.dim == self.frame.m):
            return RadialExpr.monomial(self.frame, {}, other)
        return super()._coerce(other)

    def __eq__(self, other) -> bool:
        """Equal as functions: the cached normal forms (``_proportional``)."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.frame != other.frame:
            return False
        return _proportional(self._normal(), other._den, other._normal(), self._den)

    __hash__ = None  # equality is functional, not structural

    # -- arithmetic on stored groups -------------------------------------

    def _reduced(self, groups: _Groups, den: int) -> "RadialExpr":
        """``_like`` after ``_lowest_terms``: every caller passes dicts it
        has just built."""
        return self._like(*_lowest_terms(groups, den))

    def _combination(self, parts: Iterable[tuple]) -> "RadialExpr":
        """``TermMap._combination`` on monomial groups: a part's group is
        copied (and scaled) the first time its monomial arrives and added
        into that copy after.  A part (f, c, shift) enters as c f r^a rho^b,
        shift being ``_radial_shift``'s key increment for r^a rho^b (a part
        (f, c) has shift 0): the shift is added to each key as the row is
        copied or added."""
        weighted, den = self._weights(parts)
        acc: _Groups = {}
        for groups, n, *shift in weighted:
            shift = shift[0] if shift else 0
            for mono, inner in groups.items():
                out = acc.get(mono)
                if out is None:
                    acc[mono] = ({key + shift: c * n for key, c in inner.items()} if n != 1 or shift
                                 else dict(inner))
                else:
                    get = out.get
                    for key, c in inner.items():
                        key += shift
                        out[key] = get(key, 0) + c * n
        return self._reduced(_nonzero(acc), den)

    def _mul(self, other: "RadialExpr") -> "RadialExpr":
        return re_mul(self, other)

    def __pow__(self, n: int) -> "RadialExpr":
        """``TermMap.__pow__``, except that a power of one row is formed as
        one row, with no product: its monomial's exponents and its radial
        exponents times n (PreconditionError past ``EXPONENT_LIMIT``), its
        blade's power e_A^n = (e_A^2)^(n//2) e_A^(n%2), e_A^2 = +-1, and its
        numerator and denominator to the n-th power."""
        if n > 1 and len(self._terms) == 1:
            (mono, inner), = self._terms.items()
            if len(inner) == 1:
                (key, c), = inner.items()
                frame = self.frame
                m = frame.m
                mask = key & ((1 << m) - 1)
                a, b = _exponents(m, key)
                key = (mask if n & 1 else 0) | _radial_bits(frame, a * n, b * n)
                c **= n
                if mask_sign(mask, mask) < 0 and n & 2:
                    c = -c
                return self._reduced({tuple(e * n for e in mono): {key: c}}, self._den ** n)
        return super().__pow__(n)

    # -- normal form ----------------------------------------------------

    def _normal(self) -> _Groups:
        """The cached normal form's groups of numerators over self._den;
        empty iff the expression is zero."""
        try:
            return self._canonical_cache
        except AttributeError:
            pass
        # formed outside the handler: out of memory there, an error can be lost
        # and reach the caller as a SystemError
        cached = _normal_form(self.frame, self._terms)
        object.__setattr__(self, "_canonical_cache", cached)
        return cached

    def _normalized(self, groups: _Groups, den: int) -> "RadialExpr":
        """``_like`` for groups already in normal form, cached as their own."""
        out = self._like(groups, den)
        object.__setattr__(out, "_canonical_cache", groups)
        return out

    def display_order(self) -> tuple[_DisplayTable, int]:
        """The normal form in print order, as the table (monomials, blades,
        buckets) of ``formatting._write``, and the shared denominator.

        The distinct monomials are sorted once and the distinct masks once,
        by their blade tuples: masks do not sort as blades do (e{1,10}
        comes before e2, but its mask is larger).  A row's rank is
        monomial index * number of blades + blade index, so ranks sort as
        (monomial, blade) do.  The rows are bucketed straight off their int
        keys by radial part (a key shifted right by m) as (rank, numerator)
        pairs; the few buckets are sorted by (parity sector, a, b), and each
        bucket's pairs by rank, which is unique within a bucket."""
        m = self.frame.m
        low = (1 << m) - 1
        normal = self._normal()
        monos = sorted(normal)
        order = sorted((mask_blade(mask), mask) for mask in {key & low for inner in normal.values() for key in inner})
        blade_index = {mask: i for i, (_blade, mask) in enumerate(order)}
        width = len(order)
        buckets: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for base, mono in enumerate(monos):
            base *= width
            for key, c in normal[mono].items():
                buckets[key >> m].append((base + blade_index[key & low], c))
        # a radial part decodes as a key with no blade bits
        parts = [(*_exponents(0, part), part) for part in buckets]
        parts.sort(key=lambda abp: (abp[0] & 1, abp[1] & 1, abp[0], abp[1]))
        ordered = [((a, b), sorted(buckets[part])) for a, b, part in parts]
        return (monos, [blade for blade, _mask in order], ordered), self._den

    def canonical_terms(self) -> dict[TermKey, Fraction]:
        """The normal form as a fresh dict, sorted by key."""
        den = self._den
        return {key: Fraction(c, den) for key, c in sorted(_rows(self.frame.m, self._normal()))}

    def canonicalized(self) -> "RadialExpr":
        return self._normalized(self._normal(), self._den)

    def homogeneity_degree(self) -> int | None:
        """Common total degree (monomial + a + b), or None when mixed or zero."""
        m = self.frame.m
        degs = {sum(mono) + sum(_exponents(m, key)) for mono, inner in self._normal().items() for key in inner}
        if len(degs) == 1:
            return degs.pop()
        return None

    def grade_involution(self) -> "RadialExpr":
        """The main involution of the coefficient algebra: every odd-grade
        blade negated, so the even-valued part minus the odd-valued part."""
        low = (1 << self.frame.m) - 1
        return self._like({mono: {key: -c if (key & low).bit_count() & 1 else c for key, c in inner.items()}
                           for mono, inner in self._terms.items()}, self._den)

    def negate_group(self, group: str) -> "RadialExpr":
        """Substitute x -> -x (or y -> -y) coordinatewise; radii are unchanged."""
        idxs = self.frame.group_indices(group)
        part = slice(idxs.start, idxs.stop)
        return self._like({mono: {key: -c for key, c in inner.items()} if sum(mono[part]) % 2 else inner
                           for mono, inner in self._terms.items()}, self._den)

    def bidegree_parts(self) -> dict[tuple[int, int, int], "RadialExpr"]:
        """The terms split by (x-degree + a, y-degree + b, x-degree mod 2),
        a monomial's group degrees and a row's r and rho exponents, three
        numbers the normal-form rewrite keeps."""
        m = self.frame.m
        xs, ys = self.frame.x_indices, self.frame.y_indices
        x_part, y_part = slice(xs.start, xs.stop), slice(ys.start, ys.stop)
        parts: dict[tuple[int, int], _Groups] = {}
        for mono, inner in self._terms.items():
            dx, dy = sum(mono[x_part]), sum(mono[y_part])
            for key, c in inner.items():
                a, b = _exponents(m, key)
                parts.setdefault((dx + a, dy + b, dx % 2), {}).setdefault(mono, {})[key] = c
        return {degrees: self._like(groups, self._den) for degrees, groups in parts.items()}

    def __repr__(self) -> str:
        from .formatting import format_expression

        return f"RadialExpr({format_expression(self)})"


# -- normal form internals ------------------------------------------------


def _lead_square_power(frame: AxisFrame, group: str, k: int) -> tuple[tuple[Mono, int, int], ...]:
    """(R^2 - sum of the group's other squares)^k, the rewrite of the
    group's last coordinate to the power 2k, as (monomial, R exponent,
    coefficient) triples; R is r for group "x" and rho for group "y".

    By the multinomial theorem the term R^(2 j0) prod_i x_i^(2 j_i), with
    j0 + sum j_i = k, has the coefficient (-1)^(sum j_i) k! / (j0! prod j_i!):
    each other coordinate in turn takes j_i of the k factors left, in
    binomial(left, j_i) ways, and R^2 takes the rest."""
    terms = [((0,) * frame.ncoords, k, 1)]  # (monomial, factors left, coefficient)
    for i in frame.group_indices(group)[:-1]:
        nxt = []
        for mono, left, c in terms:
            for j in range(left + 1):
                nxt.append((mono[:i] + (2 * j,) + mono[i + 1:] if j else mono, left - j, c))
                # c (-1)^j binomial(left, j), each from the one before
                c = -c * (left - j) // (j + 1)
        terms = nxt
    return tuple((mono, 2 * left, c) for mono, left, c in terms)


class _FrameContext(NamedTuple):
    """A frame's kept plans, tables and vectors (module docstring).
    ``plans`` maps each scope the frame allows to (axes, x_axes, y_axes)
    for ``_dirac_rule``: an axis is (coordinate, the radius its derivative
    lowers: 0 for r, 1 for rho and 2 for none, its generator's bit, that
    bit's low mask ``sign_mask(bit)``, and for the group's last coordinate
    the (group, 1) square table); X0's bit and low mask are 0.  x_axes and
    y_axes are the two sides of ``dirac``'s split, the y axes indexed from
    the first y coordinate, both None in a group scope.  ``squares`` maps
    (group, k) to ``_lead_square_power(frame, group, k)`` for both groups
    and k = 0 and 1, the tables a catalog or benchmark call asks for; the
    normal form makes any other per call."""

    plans: dict[str, tuple[list[tuple], list[tuple] | None, list[tuple] | None]]
    squares: dict[tuple[str, int], tuple[tuple[Mono, int, int], ...]]
    vectors: dict[str, RadialExpr]


@lru_cache(maxsize=_CONTEXT_CACHE_SIZE)
def _frame_context(frame: AxisFrame) -> _FrameContext:
    """The frame's context, built on its first use and shared by equal frames."""
    squares = {(group, k): _lead_square_power(frame, group, k) for group in "xy" for k in (0, 1)}

    def side(radius: int, group: str) -> list[tuple]:
        idxs = frame.group_indices(group)
        return [(i, radius, bit, sign_mask(bit), squares[group, 1] if i == idxs[-1] else None)
                for i in idxs for bit in (1 << (frame.generator_of(i) - 1),)]

    x_axes, y_axes = side(0, "x"), side(1, "y")
    xe = frame.x_indices.stop
    y_side = [(i - xe, radius, bit, below, square and [(mt[xe:], eb, sign) for mt, eb, sign in square])
              for i, radius, bit, below, square in y_axes]
    plans = {SCOPE_FIRST: (x_axes, None, None), SCOPE_FULL: (x_axes + y_axes, x_axes, y_side)}
    if frame.q:
        plans[SCOPE_SECOND] = (y_axes, None, None)
    if frame.scalar_axis:
        x0 = (0, 2, 0, 0, None)
        plans[SCOPE_CR] = (x_axes + y_axes + [x0], x_axes + [x0], y_side)
    vectors = {"x": _unit_vector(frame, frame.x_indices), "y": _unit_vector(frame, frame.y_indices),
               "omega": _unit_vector(frame, frame.x_indices, a=-1)}
    if frame.q:
        vectors["nu"] = _unit_vector(frame, frame.y_indices, b=-1)
    return _FrameContext(plans, squares, vectors)


def _normal_form(frame: AxisFrame, groups: _Groups) -> _Groups:
    """Rewrite x_p^2 and y_q^2 away, merge by exact key and drop zeros.

    Linear in the numerators.  A monomial without x_p^2 or y_q^2 keeps its
    rows; the rewritten ones are added into copies.  PreconditionError when
    a rewrite would raise a radial exponent beyond ``EXPONENT_LIMIT``."""
    xp = frame.x_indices[-1]
    yq = frame.y_indices[-1] if frame.q else None
    m = frame.m
    r_field = _A_FIELD << m
    acc: _Groups = {}
    rewrites = []
    for mono, inner in groups.items():
        kx = mono[xp] // 2
        ky = mono[yq] // 2 if yq is not None else 0
        if kx or ky:
            rewrites.append((mono, inner, kx, ky))
        else:
            acc[mono] = inner
    if not rewrites:
        return groups
    squares = Memo(lambda key: _lead_square_power(frame, *key), _frame_context(frame).squares)
    copied = set()
    for mono, inner, kx, ky in rewrites:
        # the rewrite raises r by up to 2kx and rho by up to 2ky
        if kx:
            _check_exponent((max(map(r_field.__and__, inner)) >> m) - _A_OFFSET + 2 * kx)
        if ky:
            _check_exponent((max(inner) >> (m + 64)) + 2 * ky)
        base = list(mono)
        base[xp] -= 2 * kx
        if ky:
            base[yq] -= 2 * ky
        py = squares["y", ky]
        for mx, ea, cx in squares["x", kx]:
            bx = _mono_mul(base, mx)
            for my, eb, cy in py:
                target = _mono_mul(bx, my) if ky else bx
                if target in copied:
                    out = acc[target]
                else:
                    # never add into an operand's stored rows
                    out = acc[target] = dict(acc.get(target, ()))
                    copied.add(target)
                get = out.get
                k = cx * cy
                shift = (ea << m) + (eb << (m + 64))
                for key, c in inner.items():
                    key += shift
                    out[key] = get(key, 0) + k * c
    return _nonzero(acc)


def proportionality_constant(got: RadialExpr, want: RadialExpr) -> Fraction | None:
    """The scalar lam with got = lam * want, or None when there is none.

    lam is read off one row of want's normal form; got = lam * want exactly
    when both normal forms have the same keys and every pair of numerators
    has the ratio of that pair.
    """
    want_groups = want._normal()
    got_groups = got._normal()
    if not want_groups:
        return Fraction(0) if not got_groups else None
    if not got_groups:
        return Fraction(0)
    mono, inner = next(iter(want_groups.items()))
    key, w0 = next(iter(inner.items()))
    g0 = got_groups.get(mono, {}).get(key)
    if g0 is None or not _proportional(got_groups, w0, want_groups, g0):
        return None
    return Fraction(g0 * want._den, w0 * got._den)


def _proportional(a: _Groups, ka: int, b: _Groups, kb: int) -> bool:
    """Whether ka * a and kb * b hold the same rows: the same monomials and
    keys, and a[key] * ka == b[key] * kb for every key.  Equal multipliers
    (equal denominators, for ``==``) leave one dict comparison."""
    if ka == kb:
        return a == b
    return a.keys() == b.keys() and all(
        inner.keys() == (b_inner := b[mono]).keys() and all(c * ka == b_inner[key] * kb for key, c in inner.items())
        for mono, inner in a.items())


# -- products ------------------------------------------------------------


def re_mul(f: RadialExpr, g: RadialExpr) -> RadialExpr:
    """Termwise product; coefficients multiply by the geometric product in
    the given order (left factor's coefficient on the left).  One monomial
    product per pair of groups, then the rows multiply inside: the radial
    parts of two keys add, less one offset, and the blade masks multiply
    by XOR with the sign ``clifford.mask_sign``, read off each left row's
    ``sign_mask``.
    PreconditionError when the extreme exponents of the operands would sum
    beyond ``EXPONENT_LIMIT``."""
    f._check_context(g)
    m = f.frame.m
    acc: _Groups = defaultdict(dict)
    if f._terms and g._terms:
        fa0, fa1, fb0, fb1 = _exponent_range(m, f._terms)
        ga0, ga1, gb0, gb1 = _exponent_range(m, g._terms)
        _check_exponent(min(fa0 + ga0, fb0 + gb0))
        _check_exponent(max(fa1 + ga1, fb1 + gb1))
        low = (1 << m) - 1
        high, offset = ~low, _A_OFFSET << m
        # right rows as (blade mask, radial part less the offset, numerator),
        # so a left key XOR the right mask plus the right part is the product key
        right_groups = [(m2, [(k & low, (k & high) - offset, c) for k, c in in2.items()])
                        for m2, in2 in g._terms.items()]
        for m1, in1 in f._terms.items():
            rows1 = [(sign_mask(k & low), k, c) for k, c in in1.items()]
            for m2, rows2 in right_groups:
                out = acc[_mono_mul(m1, m2)]
                get = out.get
                for s1, k1, c1 in rows1:
                    for b2, r2, c2 in rows2:
                        key = (k1 ^ b2) + r2
                        out[key] = get(key, 0) + (-c1 * c2 if (b2 & s1).bit_count() & 1 else c1 * c2)
    return f._reduced(_nonzero(acc), f._den * g._den)


# -- differential operators ----------------------------------------------


def partial_derivative(f: RadialExpr, coord: str | int) -> RadialExpr:
    """Exact partial derivative in one frame coordinate.

    Term rule for an x-coordinate: d(mu c r^a rho^b) = (d mu) c r^a rho^b
    + a x_j mu c r^{a-2} rho^b, with the rho analogue for y-coordinates
    and the plain power rule for X0.
    """
    frame = f.frame
    idx = frame.coord_index(coord) if isinstance(coord, str) else coord
    if not 0 <= idx < frame.ncoords:
        raise ValueError(f"coordinate index {idx} out of range")
    m = frame.m
    # the radius the coordinate's derivative lowers (0 for r, 1 for rho, None
    # for X0) and the step that lowers it by 2 in a key
    radius = 0 if idx in frame.x_indices else 1 if idx in frame.y_indices else None
    step = 2 << (m + 64 * (radius or 0))
    acc: _Groups = defaultdict(dict)
    for mono, inner in f._terms.items():
        e = mono[idx]
        if e:
            lowered = list(mono)
            lowered[idx] -= 1
            _add_rows(acc[tuple(lowered)], inner, e)
        if radius is not None:
            raised = list(mono)
            raised[idx] += 1
            out = acc[tuple(raised)]
            get = out.get
            for key, c in inner.items():
                er = _exponents(m, key)[radius]
                if er:
                    key -= step
                    out[key] = get(key, 0) + er * c
    return f._like(_nonzero(acc), f._den)


def _check_scope(frame: AxisFrame, scope: str) -> None:
    if scope not in _SCOPES:
        raise ValueError(f"unknown scope {scope!r}; expected one of {_SCOPES}")
    if scope == SCOPE_CR and not frame.scalar_axis:
        raise PreconditionError("cauchy-riemann scope needs a frame with the scalar axis X0")
    if scope == SCOPE_SECOND and frame.q == 0:
        raise PreconditionError("second-group scope needs a frame with a second axial group (q >= 1)")


def _dirac_rule(m: int, groups: _Groups, axes: list[tuple], acc: _Groups) -> _Groups:
    """acc += sum e_j d_j over the axes, for groups in normal form.

    The term rule of ``partial_derivative`` in every axis, group by group:
    each monomial's lowered and raised monomials and the rows that lower r
    or rho are formed once.  Multiplying a row by the generator e_g flips
    bit g-1 of its key, with the sign ``mask_sign(bit, mask)``, the parity
    of the key's bits in the axis's low mask.  x_p and y_q are at most
    linear in a normal form, and a raised row of x_p (or y_q) where it is
    present lands rewritten by its group's k = 1 table (its monomials cut
    to the rows' length), so the image lands in normal form.
    Packed numerators go through unchanged: they are only added in multiples."""
    steps = (2 << m, 2 << (m + 64))
    radii = {axis[1] for axis in axes}
    for mono, inner in groups.items():
        rows = inner.items()
        # the rows a derivative adds by lowering r or rho, shared by the group's axes
        raised_rows = ([(key - steps[0], a * c) for key, c in rows
                        if (a := ((key >> m) & _A_FIELD) - _A_OFFSET)] if 0 in radii else (),
                       [(key - steps[1], b * c) for key, c in rows
                        if (b := key >> (m + 64))] if 1 in radii else (),
                       ())
        for i, radius, bit, below, table in axes:
            e = mono[i]
            if e:
                lowered = list(mono)
                lowered[i] -= 1
                out = acc[tuple(lowered)]
                get = out.get
                for key, c in rows:
                    c *= -e if (key & below).bit_count() & 1 else e
                    key ^= bit
                    out[key] = get(key, 0) + c
            raised_here = raised_rows[radius]
            if not raised_here:
                continue
            raised = list(mono)
            if table is None or not e:
                raised[i] += 1
                out = acc[tuple(raised)]
                get = out.get
                for key, c in raised_here:
                    c = -c if (key & below).bit_count() & 1 else c
                    key ^= bit
                    out[key] = get(key, 0) + c
                continue
            # x_p^2 R^(a-2) -> (R^2 - sum_{j<p} x_j^2) R^(a-2), with x_p^1 in mono
            raised[i] = 0
            signed = [(key ^ bit, -c if (key & below).bit_count() & 1 else c) for key, c in raised_here]
            for mt, ea, sign in table:
                out = acc[_mono_mul(raised, mt)]
                get = out.get
                shift = ea << (m + 64 * radius)
                for key, c in signed:
                    key += shift
                    out[key] = get(key, 0) + c if sign > 0 else get(key, 0) - c
    return acc


# Below this many rows the split's fixed costs (a rule call per side, the
# packing, the cross terms) outweigh what it shares: on the benchmark's
# outputs it loses at 96 rows and wins from 117.  Past this many bits in a
# class's packed int (its slots times W), a row's cross term, a numerator
# times such an int, costs more than the row's share of the per-row rule:
# the (3,3) ft_plus outputs of zbar^n break even near n = 300, 4615 bits.
_SPLIT_MIN_ROWS = 100
_SPLIT_MAX_BITS = 4096


def _split_rows(frame: AxisFrame, groups: _Groups):
    """A normal form's rows as x part times y part for ``dirac``, as
    (W, parts, slots, counts), or None when the split does not pay.

    An x part is a row's X0 and x exponents (``mono[:xe]``), x mask and r
    exponent, a y part its y exponents, y mask and rho exponent.  ``slots``
    maps y monomial -> {y key (y mask and rho field): slot}, the slots
    numbered within each y class (y-degree + rho exponent), and ``counts``
    a class to its number of slots.  ``parts`` maps x monomial -> {x key:
    [(slot, numerator), ...]}, where an x key is the row's key less its y
    mask with the class in the rho field.  W is the slot width,
    2^(W-1) > 2 E sum |c| with E = max(coordinate exponent, |a| + 1,
    |b| + 1).

    None, before a row is read, in a single-axis frame (no y side), below
    ``_SPLIT_MIN_ROWS`` rows, or with fewer than 2 rows per distinct x or
    y monomial; after the split, with fewer than 2 rows per x key or y
    part, or when a class's rows fill less than 1/8 of its x keys times y
    parts (packed ints of empty slots).  The split also stops as soon as a
    class's packed int would pass ``_SPLIT_MAX_BITS`` bits at the width
    that the numerators and the monomial exponents give, which W exceeds
    only by the bits of a large radial exponent."""
    xe = frame.x_indices.stop
    nrows = sum(map(len, groups.values()))
    if (not frame.q or nrows < _SPLIT_MIN_ROWS
            or nrows < 2 * max(len({mono[:xe] for mono in groups}), len({mono[xe:] for mono in groups}))):
        return None
    m = frame.m
    mb = m + 64
    ybits = (1 << m) - (1 << frame.p)
    ykeep, xkeep = ybits | (-1 << mb), ~ybits
    parts: dict[Mono, dict[int, list[tuple[int, int]]]] = {}
    slots: dict[Mono, dict[int, int]] = {}
    counts: dict[int, int] = defaultdict(int)
    top, total = max(map(max, groups)), sum(sum(map(abs, inner.values())) for inner in groups.values())
    # the slots a class may take at W's width before the radial exponents
    most = _SPLIT_MAX_BITS // ((2 * top * total).bit_length() + 1)
    for mono, inner in groups.items():
        xm, ym = mono[:xe], mono[xe:]
        dy = sum(ym)
        shift = dy << mb
        xparts = parts.setdefault(xm, {})
        yslots = slots.setdefault(ym, {})
        for key, c in inner.items():
            yk = key & ykeep
            s = yslots.get(yk)
            if s is None:
                b = key >> mb
                top = max(top, abs(b) + 1)
                s = yslots[yk] = counts[dy + b]
                if s == most:
                    return None
                counts[dy + b] += 1
            xk = (key & xkeep) + shift
            pairs = xparts.get(xk)
            if pairs is None:
                top = max(top, abs(((key >> m) & _A_FIELD) - _A_OFFSET) + 1)
                xparts[xk] = [(s, c)]
            else:
                pairs.append((s, c))
    # class -> [x keys, rows]
    fill: dict[int, list[int]] = defaultdict(lambda: [0, 0])
    for xparts in parts.values():
        for xk, pairs in xparts.items():
            entry = fill[xk >> mb]
            entry[0] += 1
            entry[1] += len(pairs)
    if (nrows < 2 * sum(x for x, _n in fill.values()) or nrows < 2 * sum(counts.values())
            or any(8 * n < x * counts[k] for k, (x, n) in fill.items())):
        return None
    return (2 * top * total).bit_length() + 1, parts, slots, counts


def dirac(f: RadialExpr, scope: str = SCOPE_FULL) -> RadialExpr:
    """Left Dirac operator sum_j e_j d_j over the scope's vector coordinates.

    The cauchy-riemann scope adds d/dX0 with unit coefficient and needs a
    frame with the scalar axis.  The row rule ``_dirac_rule`` reads the
    operand's cached normal form and lands its image in normal form, so
    the image is stored as its own and ``is_monogenic`` asks whether it is
    empty.

    In the full and cauchy-riemann scopes the image is first tested for
    zero on the rows' factors.  The frame puts every x generator before
    every y generator, so a normal-form row is an x part X = x^alpha e_A
    r^a (with X0's power) times a y part Y = y^beta e_B rho^b:

    * e_i (X Y) = (e_i X) Y for an x generator, and e_j (X Y) = (-1)^|A|
      X (e_j Y) for a y generator, which anticommutes with e_A.  So
      D = D_x (x) 1 + iota (x) D_y, iota the parity sign of the x mask;
      d/dX0 has no generator and joins D_x.
    * A normal-form x part times a normal-form y part is a normal-form row,
      and distinct (X, Y) pairs are distinct rows: the pairs are faithful
      coordinates of the image.

    So D_x runs once per distinct x part and D_y once per distinct y part
    (``_split_rows``), and the cross terms are summed as Kronecker-packed
    ints.  Y parts get slots numbered within their y class (y-degree + rho
    exponent), and an x part's numerator in class k is sum c 2^(W slot(Y))
    over its rows there.  D_x keeps the class, so the rule runs unchanged on
    those numerators; D_y lowers it by one, so each y part's image packs
    into Q_Y over class k - 1, and each row adds iota c Q_Y to its x part's
    class k - 1 numerator.  An image digit is a sum over the operand's rows
    of c (d_x + iota d_y), each d an image coefficient of the rule, at most
    E = max(coordinate exponent, |a| + 1, |b| + 1) in size, and W makes
    2^(W-1) > 2 E sum |c|.  So every digit v_k is below 2^(W-1) in size,
    and sum v_k 2^(W k) = 0 exactly when every v_k = 0: the image is zero
    exactly when every packed int is.  A nonzero image is formed by the
    rule on the rows, which costs less than decoding it, as is every image
    where the split does not pay and in a group scope, which has one side's
    axes only.
    """
    frame = f.frame
    _check_scope(frame, scope)
    m = frame.m
    normal = f._normal()
    axes, x_axes, y_axes = _frame_context(frame).plans[scope]
    found = _split_rows(frame, normal) if y_axes is not None else None
    if found is not None:
        width, parts, slots, counts = found
        mb = m + 64
        # D_y once per y part, each tagged by its slot in the r field, which
        # no y axis reads (a y monomial starts at coordinate xe);
        # q_images[k][slot] is Q_Y of class k's part
        tagged = {ym: {yk | (s << m): 1 for yk, s in yslots.items()} for ym, yslots in slots.items()}
        q_images = {k: [0] * n for k, n in counts.items()}
        ykeep = ((1 << m) - (1 << frame.p)) | (-1 << mb)
        for ym, inner in _dirac_rule(m, tagged, y_axes, defaultdict(dict)).items():
            dy = sum(ym)
            yslots = slots.setdefault(ym, {})
            for key, d in inner.items():
                if d:
                    yk = key & ykeep
                    k = dy + (key >> mb)
                    s = yslots.get(yk)
                    if s is None:
                        s = yslots[yk] = counts[k]
                        counts[k] += 1
                    q_images[k + 1][(key >> m) & _A_FIELD] += d << (width * s)
        # the packed numerators, and iota times the cross terms one class down
        low, down = (1 << m) - 1, 1 << mb
        packed: _Groups = {}
        acc: _Groups = defaultdict(dict)
        for xm, xparts in parts.items():
            packed[xm] = {xk: sum(c << (width * s) for s, c in pairs) for xk, pairs in xparts.items()}
            out = acc[xm]
            for xk, pairs in xparts.items():
                q = q_images[xk >> mb]
                v = sum(c * q[s] for s, c in pairs)
                out[xk - down] = -v if (xk & low).bit_count() & 1 else v
        _dirac_rule(m, packed, x_axes, acc)
        if not any(any(inner.values()) for inner in acc.values()):
            return f._normalized({}, f._den)
    return f._normalized(_nonzero(_dirac_rule(m, normal, axes, defaultdict(dict))), f._den)


def laplacian(f: RadialExpr, scope: str = SCOPE_FULL) -> RadialExpr:
    """One application of sum_j d_j^2 over the scope's coordinates.

    Closed per-term rule: for a monomial mu of x-degree d and a term
    mu c r^a rho^b, the x-part contributes (Delta_x mu) r^a plus
    a (p + 2d + a - 2) mu r^{a-2}; likewise in y, plus d^2/dX0^2 in the
    cauchy-riemann scope.  Equivalent to composing partial derivatives,
    just without the intermediate blowup.  Each monomial's lowered
    monomials, e(e-1) and p + 2d - 2 are worked out once per call.
    """
    frame = f.frame
    _check_scope(frame, scope)
    do_x = scope != SCOPE_SECOND
    do_y = scope != SCOPE_FIRST and frame.q > 0
    xs, ys = frame.x_indices, frame.y_indices
    x_part, y_part = slice(xs.start, xs.stop), slice(ys.start, ys.stop)
    lowering = [*(xs if do_x else ()), *(ys if do_y else ()), *((0,) if scope == SCOPE_CR else ())]
    m = frame.m
    r_step, rho_step = 2 << m, 2 << (m + 64)
    groups = f._terms
    acc: _Groups = {}
    # A monomial's radial rows land on the monomial itself, so they go first,
    # each group's into a fresh dict; the lowered rows are added after.
    for mono, inner in groups.items():
        if do_x:
            px = frame.p + 2 * sum(mono[x_part]) - 2
            out = {key - r_step: a * (px + a) * c for key, c in inner.items()
                   if (a := ((key >> m) & _A_FIELD) - _A_OFFSET) and px + a}
        else:
            out = {}
        if do_y:
            qy = frame.q + 2 * sum(mono[y_part]) - 2
            get = out.get
            for key, c in inner.items():
                b = key >> (m + 64)
                if b and qy + b:
                    key -= rho_step
                    out[key] = get(key, 0) + b * (qy + b) * c
        acc[mono] = out
    for mono, inner in groups.items():
        for i in lowering:
            e = mono[i]
            if e > 1:
                lowered = list(mono)
                lowered[i] -= 2
                lowered = tuple(lowered)
                k = e * (e - 1)
                out = acc.get(lowered)
                if out is None:
                    acc[lowered] = {key: k * c for key, c in inner.items()}
                else:
                    _add_rows(out, inner, k)
    return f._like(_nonzero(acc), f._den)


def laplacian_power(f: RadialExpr, n: int, scope: str = SCOPE_FULL) -> RadialExpr:
    """n applications of ``laplacian``, stopped once a step leaves no
    stored rows: every further step would map zero to zero."""
    if n < 0:
        raise ValueError("Laplacian power must be >= 0")
    while n:
        f, n = laplacian(f, scope), n - 1
        if not f._terms:
            break
    return f


def _stored_group_classes(frame: AxisFrame, groups: _Groups, group: str) -> dict[tuple[int, int], _Groups] | None:
    """Stored groups of one axial group split into R^e * (own-group
    polynomial of monomial degree d), keyed (e, d), with R = r for group
    "x" and rho for group "y" and the rows stored at exponent 0; None when
    a row leaves the group (a coordinate outside it, a blade outside its
    algebra or a nonzero exponent of the other radius), or the frame has
    no such group.  Read off the int keys: a blade lies in the group's
    algebra when its mask has no bit outside the group's generators.  Each
    distinct radial part (a key shifted right by m) is decoded and checked
    once per call, and each monomial's target dict once per radial part."""
    idxs = frame.group_indices(group)
    if not idxs:
        return None
    part = slice(idxs.start, idxs.stop)
    m = frame.m
    low = (1 << m) - 1
    lo, hi = frame.generator_of(idxs.start), frame.generator_of(idxs.stop - 1)
    outside = low ^ ((1 << hi) - (1 << (lo - 1)))
    zero = _radial_bits(frame, 0, 0)
    # radial part -> the R exponent e; parts carrying the other radius are refused
    powers: dict[int, int] = {}
    classes: dict[tuple[int, int], _Groups] = {}
    for mono, inner in groups.items():
        d = sum(mono[part])
        if d != sum(mono):
            return None
        targets: dict[int, dict[int, int]] = {}
        for key, c in inner.items():
            if key & outside:
                return None
            radial = key >> m
            out = targets.get(radial)
            if out is None:
                e = powers.get(radial)
                if e is None:
                    a, b = _exponents(0, radial)
                    e, other = (a, b) if group == "x" else (b, a)
                    if other:
                        return None
                    powers[radial] = e
                out = targets[radial] = classes.setdefault((e, d), {}).setdefault(mono, {})
            out[key & low | zero] = c
    return classes


def _factor_chains(f: RadialExpr, group: str, n: int) -> list[tuple[int, int, list[RadialExpr]]]:
    """(e, d, [P, Delta P, ..., Delta^i P]) per class of
    ``_stored_group_classes``, the chain taken with the group-scope
    Laplacian for at most n steps and stopped at zero.  The stored rows are
    split when they all lie in the group, and the normal form otherwise;
    PreconditionError when neither does (the map's input check,
    ``fueter.homogeneous_group_degree``, names how a factor leaves its
    group)."""
    classes = _stored_group_classes(f.frame, f._terms, group)
    if classes is None:
        classes = _stored_group_classes(f.frame, f._normal(), group)
        if classes is None:
            raise PreconditionError(f"a factor of the separated assembly leaves the {group} group")
    scope = GROUP_SCOPES[group]
    out = []
    for (e, d), groups in classes.items():
        steps = [f._like(groups, f._den)]
        while len(steps) <= n:
            nxt = laplacian(steps[-1], scope)
            if not nxt._terms:
                break
            steps.append(nxt)
        out.append((e, d, steps))
    return out


def separated_laplacian_power(triples: Iterable[tuple[BivariateRadial, RadialExpr, RadialExpr]],
                              n: int) -> RadialExpr:
    """Delta^n of sum W(r, rho) P(x) Q(y) over the triples (W, P, Q), group by group.

    Delta = Delta_x + Delta_y, and for an x-polynomial P of degree d
    Delta_x(r^E P) = E(p + 2d + E - 2) r^{E-2} P + r^E Delta_x P (likewise
    in y), the term rule of ``laplacian``.  So each factor is split into
    classes r^e P_{e,d}, each class gets its chain Delta_x^i P_{e,d}, and the
    Laplacian power runs on scalar tables: the state (x chain, i, y chain, j)
    holds {(E, F): numerator} for sum c r^E rho^F Delta_x^i P Delta_y^j Q.
    A step lowers E (or F) in place with the coefficient above and moves the
    table to i + 1 (or j + 1).  Each distinct factor is chained once per
    call: factors are matched by identity (``RadialExpr`` is unhashable,
    and the triples hold the references), so triples that share a factor
    share its chains and their states merge.

    The output is assembled from the surviving states' tables and the
    chain entries' cached normal forms, with no ``re_mul``: it relies on
    the frame putting every x generator e_1..e_p before every y generator
    e_{p+1}..e_{p+q}, so the product of an x blade and a y blade is their
    union with sign +1.  An entry's normal form carries x_p (y_q) at most
    to the first power, its x_p^2 (y_q^2) rewritten into r^(2k) (rho^(2k))
    rows, so every assembled row is a normal-form row and so is their sum:
    the output is returned as its own normal form, which the proof, ``==``
    and the printers read without forming one.  Its rows are the normal
    form of the full-scope ``laplacian_power`` of the expanded integrand,
    key for key.  With n = 0 no chain takes a step and the state loop does
    not run, so the result is the plain product sum W P Q, assembled the
    same way; the loop also stops once no state is left, so a huge n
    whose image dies early costs only the steps up to that point.
    """
    if n < 0:
        raise ValueError("Laplacian power must be >= 0")
    triples = list(triples)
    frame = triples[0][1].frame
    den = lcm(*(w._den for w, _p, _q in triples))
    xchains: list[tuple[int, int, list[RadialExpr]]] = []
    ychains: list[tuple[int, int, list[RadialExpr]]] = []
    # (id of a factor, group) -> the indices of its chains in xchains or ychains
    spans: dict[tuple[int, str], range] = {}

    def chained(factor: RadialExpr, group: str, chains: list) -> range:
        span = spans.get((id(factor), group))
        if span is None:
            found = _factor_chains(factor, group, n)
            span = spans[id(factor), group] = range(len(chains), len(chains) + len(found))
            chains += found
        return span

    state: dict[tuple[int, int, int, int], dict[tuple[int, int], int]] = {}
    for w, p_factor, q_factor in triples:
        p_factor._check_context(q_factor)
        scale = den // w._den
        xs, ys = chained(p_factor, "x", xchains), chained(q_factor, "y", ychains)
        for ix in xs:
            e = xchains[ix][0]
            for iy in ys:
                f = ychains[iy][0]
                table = state.setdefault((ix, 0, iy, 0), {})
                for (a, b), c in w._terms.items():
                    key = (a + e, b + f)
                    table[key] = table.get(key, 0) + scale * c
    state = _nonzero(state)
    p, q = frame.p, frame.q
    for _ in range(n):
        if not state:
            break
        nxt: dict[tuple[int, int, int, int], dict[tuple[int, int], int]] = defaultdict(dict)
        for (ix, i, iy, j), table in state.items():
            (_e, dx, xchain), (_f, dy, ychain) = xchains[ix], ychains[iy]
            px = p + 2 * (dx - 2 * i) - 2
            qy = q + 2 * (dy - 2 * j) - 2
            out = nxt[ix, i, iy, j]
            get = out.get
            for (e, f), c in table.items():
                if e and px + e:
                    key = (e - 2, f)
                    out[key] = get(key, 0) + e * (px + e) * c
                if f and qy + f:
                    key = (e, f - 2)
                    out[key] = get(key, 0) + f * (qy + f) * c
            if i + 1 < len(xchain):
                _add_rows(nxt[ix, i + 1, iy, j], table, 1)
            if j + 1 < len(ychain):
                _add_rows(nxt[ix, i, iy, j + 1], table, 1)
        state = _nonzero(nxt)
    # Chain rows sit at r^0 rho^0 (``_stored_group_classes``), so an entry's
    # normal form holds r^(2k) rho^0 (x) or r^0 rho^(2k) (y) rows, and a
    # table entry r^E rho^F shifts their radial parts.  Each x chain entry's
    # states are summed over the y side first, over the common denominator
    # pden, and then multiplied once by the entry's rows.
    x_states: dict[tuple[int, int], list[tuple[int, int, dict[tuple[int, int], int]]]] = defaultdict(list)
    for (ix, i, iy, j), table in state.items():
        x_states[ix, i].append((iy, j, table))
    pden = lcm(*(xchains[ix][2][i]._den * ychains[iy][2][j]._den for ix, i, iy, j in state))
    m = frame.m
    offset = _A_OFFSET << m
    acc: _Groups = defaultdict(dict)
    for (ix, i), ys in x_states.items():
        x_elem = xchains[ix][2][i]
        x_normal = x_elem._normal()
        # the highest r power in the entry's rows: keys with rho^0 order by it first
        x_top = (max(map(max, x_normal.values())) >> m) - _A_OFFSET
        y_sum: _Groups = defaultdict(dict)
        for iy, j, table in ys:
            y_elem = ychains[iy][2][j]
            y_normal = y_elem._normal()
            y_top = max(map(max, y_normal.values())) >> (m + 64)
            scale = pden // (x_elem._den * y_elem._den)
            shifts = [(_radial_shift(m, e, f, x_top, y_top), scale * t) for (e, f), t in table.items()]
            for mono, inner in y_normal.items():
                out = y_sum[mono]
                get = out.get
                for key, c in inner.items():
                    for shift, t in shifts:
                        k = key + shift
                        out[k] = get(k, 0) + c * t
        y_rows = [(mono, list(inner.items())) for mono, inner in _nonzero(y_sum).items()]
        for x_mono, x_inner in x_normal.items():
            # an x row adds its mask, which no y mask shares, and its r power
            x_rows = [(key - offset, c) for key, c in x_inner.items()]
            for y_mono, rows in y_rows:
                out = acc[_mono_mul(x_mono, y_mono)]
                get = out.get
                for x_part, cx in x_rows:
                    for key, cy in rows:
                        key += x_part
                        out[key] = get(key, 0) + cx * cy
    return triples[0][1]._normalized(*_lowest_terms(_nonzero(acc), pden * den))


def is_monogenic(f: RadialExpr, scope: str = SCOPE_FULL) -> bool:
    """Whether ``dirac(f, scope)``, stored in normal form, is empty."""
    return dirac(f, scope).is_zero()


# -- frame-level builders --------------------------------------------------


def _unit_vector(frame: AxisFrame, indices: Iterable[int], a: int = 0, b: int = 0) -> RadialExpr:
    """sum_j x_j e_j r^a rho^b over the given coordinates."""
    part = _radial_bits(frame, a, b)
    return RadialExpr._from_merged({_unit_mono(frame, idx): {1 << (frame.generator_of(idx) - 1) | part: 1}
                                    for idx in indices}, 1, frame)


def vector_x(frame: AxisFrame) -> RadialExpr:
    """The vector x = sum_j x_j e_j of the first group."""
    return _frame_context(frame).vectors["x"]


def vector_y(frame: AxisFrame) -> RadialExpr:
    return _frame_context(frame).vectors["y"]


def omega(frame: AxisFrame) -> RadialExpr:
    """Unit vector x / r as the Laurent expression x * r^{-1}."""
    return _frame_context(frame).vectors["omega"]


def nu(frame: AxisFrame) -> RadialExpr:
    """Unit vector y / rho as the Laurent expression y * rho^{-1}."""
    if frame.q == 0:
        raise PreconditionError("nu needs a second axial group (q >= 1)")
    return _frame_context(frame).vectors["nu"]


def _inner(frame: AxisFrame, indices: range, vec: Iterable[Rational], size: str) -> RadialExpr:
    """sum_j vec_j x_j over the given coordinates; vec must match them in length."""
    cs = list(vec)
    if len(cs) != len(indices):
        raise ValueError(f"vector length {len(cs)} does not match {size}={len(indices)}")
    return RadialExpr(frame, {(_unit_mono(frame, idx), SCALAR_BLADE, 0, 0): c for idx, c in zip(indices, cs)})


def inner_x(frame: AxisFrame, t: Iterable[Rational]) -> RadialExpr:
    """Scalar inner product <x, t> for a fixed rational vector t."""
    return _inner(frame, frame.x_indices, t, "p")


def inner_y(frame: AxisFrame, s: Iterable[Rational]) -> RadialExpr:
    return _inner(frame, frame.y_indices, s, "q")


def constant_vector_x(frame: AxisFrame, t: Iterable[Rational]) -> RadialExpr:
    """Constant Clifford vector sum t_j e_j over the first group."""
    return RadialExpr.constant(frame, vector_embed(t, dim=frame.m))


def constant_vector_y(frame: AxisFrame, s: Iterable[Rational]) -> RadialExpr:
    """Constant Clifford vector sum s_j e_{p+j} over the second group."""
    return RadialExpr.constant(frame, vector_embed(s, dim=frame.m, offset=frame.p))


# -- exact evaluation at points ----------------------------------------------


def _rational_root(square: Fraction, what: str) -> Fraction:
    """The positive square root of a positive rational, when it is rational."""
    if square <= 0:
        raise ValueError(f"{what} must be positive at the evaluation point")
    num, den = isqrt(square.numerator), isqrt(square.denominator)
    if num * num != square.numerator or den * den != square.denominator:
        raise ValueError(f"{what} is irrational at the evaluation point ({what}^2 = {square})")
    return Fraction(num, den)


def evaluate_terms(frame: AxisFrame, terms: Iterable[tuple[TermKey, Rational]],
                   point: Mapping[str, Rational]) -> dict[Blade, Fraction]:
    """Exact value, blade by blade, of a term list at a rational point.

    The point must have rational radii r and rho (see ``rational_point``);
    ValueError otherwise.  Blades whose value is zero are omitted, so the
    terms sum to zero at the point exactly when the result is empty.

    Over the common denominator D of the point, a coordinate is X/D, r is
    R/D and rho is P/D, so c mu r^a rho^b is c X^mu R^a P^b / D^deg with
    deg = |mu| + a + b.  Scaled by L D^top R^-amin P^-bmin (L clears the
    coefficients' denominators, top is the largest deg, amin and bmin the
    smallest negative exponents) every term is an integer, with X^mu read
    off per-coordinate power tables; each blade's sum is divided back once.
    """
    coords = [Fraction(point[name]) for name in frame.coord_names()]
    r = _rational_root(sum(coords[i] ** 2 for i in frame.x_indices), "r")
    rho = _rational_root(sum(coords[i] ** 2 for i in frame.y_indices), "rho") if frame.q else Fraction(1)
    rows = [(mono, blade, a, b, c, sum(mono) + a + b) for (mono, blade, a, b), c in terms]
    if not rows:
        return {}
    den = lcm(*(x.denominator for x in (*coords, r, rho)))
    big_x = [x.numerator * (den // x.denominator) for x in coords]
    big_r, big_p = (x.numerator * (den // x.denominator) for x in (r, rho))
    x_pows = [[x ** e for e in range(max(row[0][i] for row in rows) + 1)] for i, x in enumerate(big_x)]
    amin = min(0, *(row[2] for row in rows))
    bmin = min(0, *(row[3] for row in rows))
    top = max(row[5] for row in rows)
    scale = lcm(*(row[4].denominator for row in rows))
    sums: dict[Blade, int] = defaultdict(int)
    for mono, blade, a, b, c, deg in rows:
        v = c.numerator * (scale // c.denominator) * big_r ** (a - amin) * big_p ** (b - bmin) * den ** (top - deg)
        for table, e in zip(x_pows, mono):
            if e:
                v *= table[e]
        sums[blade] += v
    num = den ** -top if top < 0 else 1
    total = scale * den ** max(top, 0) * big_r ** -amin * big_p ** -bmin
    return {blade: Fraction(v * num, total) for blade, v in sums.items() if v}


def _sphere_point(rng: random.Random, n: int) -> list[Fraction]:
    """A rational point of the unit sphere in Q^n: the inverse stereographic
    image (2u, 1 - |u|^2) / (1 + |u|^2) of a random u in Q^(n-1)."""
    u = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n - 1)]
    u2 = sum(c * c for c in u)
    return [2 * c / (1 + u2) for c in u] + [(1 - u2) / (1 + u2)]


def rational_point(frame: AxisFrame, rng: random.Random) -> dict[str, Fraction]:
    """A random point with rational r and rho, for ``evaluate_terms``.

    Each group is a random rational radius times a rational point of its
    unit sphere; X0, when present, is any rational.
    """
    values = [Fraction(0)] * frame.ncoords
    for indices in (frame.x_indices, frame.y_indices):
        if indices:
            radius = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            for i, c in zip(indices, _sphere_point(rng, len(indices))):
                values[i] = radius * c
    if frame.scalar_axis:
        values[0] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return dict(zip(frame.coord_names(), values))
