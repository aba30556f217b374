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

is applied until no term carries x_p or y_q to a power above 1; the
scalar coordinate X0 and the radial exponents (any integers) are left
alone.  This is the Groebner normal form of Cox, Little and O'Shea,
*Ideals, Varieties, and Algorithms*, ch. 2.

It is sound because R[x] is a free module over R[x_1..x_{p-1}, r^2] with
basis {1, x_p} (r^2 is monic of degree 2 in x_p), and likewise in y.  So
the functions x_p^{0|1} x'^alpha y_q^{0|1} y'^beta r^a rho^b are linearly
independent on {r > 0, rho > 0}: odd powers of r or rho are not rational
in the coordinates, and a common even power of the radii clears negative
exponents.  After merging equal keys, an expression is zero exactly when
its normal form is empty, two expressions are equal exactly when their
difference is, and the sorted normal form is what gets printed.

Operators keep terms merged by exact key only; the normal form is
computed at the first zero test, equality or display and then cached.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import sqrt
from typing import Iterable, Mapping, Union

from .bivariate import BivariateRadial
from .clifford import Blade, Multivector, SCALAR_BLADE, blade_product, vector_embed
from .errors import PreconditionError
from .frame import AxisFrame

Rational = Union[int, Fraction]
Mono = tuple[int, ...]
TermKey = tuple[Mono, Blade, int, int]

SCOPE_FIRST = "first-group"
SCOPE_SECOND = "second-group"
SCOPE_FULL = "full"
SCOPE_CR = "cauchy-riemann"

_SCOPES = (SCOPE_FIRST, SCOPE_SECOND, SCOPE_FULL, SCOPE_CR)

# Bound on cached (R^2 - other squares)^k expansions; a run needs a few per frame.
_SQUARE_CACHE_SIZE = 256


def _mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


class RadialExpr:
    """Immutable Clifford-valued Laurent-radial expression."""

    __slots__ = ("frame", "_terms", "_canonical_cache")

    def __init__(self, frame: AxisFrame,
                 terms: Mapping[TermKey, Rational] | Iterable[tuple[TermKey, Rational]] = (),
                 *, _merged: bool = False):
        items = terms.items() if isinstance(terms, Mapping) else terms
        if _merged and isinstance(terms, dict):
            acc = terms
        else:
            acc = {}
            n = frame.ncoords
            for (mono, blade, a, b), coeff in items:
                mono = tuple(mono)
                blade = tuple(blade)
                if len(mono) != n:
                    raise ValueError(f"monomial length {len(mono)} does not match frame coordinates {n}")
                if any(e < 0 for e in mono):
                    raise ValueError("monomial exponents must be >= 0")
                if frame.q == 0 and b != 0:
                    raise ValueError("rho exponent must be 0 in a single-axis frame")
                key = (mono, blade, a, b)
                c = acc.get(key, 0) + Fraction(coeff)
                if c:
                    acc[key] = c
                elif key in acc:
                    del acc[key]
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "_terms", acc)
        object.__setattr__(self, "_canonical_cache", None)

    def __setattr__(self, name, value):
        raise AttributeError("RadialExpr is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, frame: AxisFrame) -> "RadialExpr":
        return cls(frame)

    @classmethod
    def scalar(cls, frame: AxisFrame, value: Rational) -> "RadialExpr":
        value = Fraction(value)
        if not value:
            return cls(frame)
        mono = (0,) * frame.ncoords
        return cls(frame, {(mono, SCALAR_BLADE, 0, 0): value}, _merged=True)

    @classmethod
    def constant(cls, frame: AxisFrame, mv: Multivector) -> "RadialExpr":
        if mv.dim != frame.m:
            raise ValueError(f"multivector dimension {mv.dim} does not match frame m={frame.m}")
        mono = (0,) * frame.ncoords
        return cls(frame, {(mono, blade, 0, 0): c for blade, c in mv.terms.items()}, _merged=True)

    @classmethod
    def coordinate(cls, frame: AxisFrame, name: str) -> "RadialExpr":
        idx = frame.coord_index(name)
        mono = tuple(1 if i == idx else 0 for i in range(frame.ncoords))
        return cls(frame, {(mono, SCALAR_BLADE, 0, 0): Fraction(1)}, _merged=True)

    @classmethod
    def monomial(cls, frame: AxisFrame, exponents: Mapping[str, int],
                 coeff: Multivector | Rational = 1, a: int = 0, b: int = 0) -> "RadialExpr":
        mono = [0] * frame.ncoords
        for name, e in exponents.items():
            if e < 0:
                raise ValueError("monomial exponents must be >= 0")
            mono[frame.coord_index(name)] += e
        if not isinstance(coeff, Multivector):
            coeff = Multivector.scalar(coeff, frame.m)
        key_mono = tuple(mono)
        return cls(frame, {(key_mono, blade, a, b): c for blade, c in coeff.terms.items()})

    @classmethod
    def radial(cls, frame: AxisFrame, a: int = 0, b: int = 0, coeff: Rational = 1) -> "RadialExpr":
        """The scalar term coeff * r^a * rho^b."""
        coeff = Fraction(coeff)
        if not coeff:
            return cls(frame)
        if frame.q == 0 and b != 0:
            raise ValueError("rho exponent must be 0 in a single-axis frame")
        mono = (0,) * frame.ncoords
        return cls(frame, {(mono, SCALAR_BLADE, a, b): coeff}, _merged=True)

    @classmethod
    def from_bivariate(cls, frame: AxisFrame, h: BivariateRadial) -> "RadialExpr":
        """Embed a scalar Laurent function of (r, rho)."""
        mono = (0,) * frame.ncoords
        acc: dict[TermKey, Fraction] = {}
        for (a, b), c in h.terms.items():
            if frame.q == 0 and b != 0:
                raise ValueError("rho exponent must be 0 in a single-axis frame")
            acc[(mono, SCALAR_BLADE, a, b)] = c
        return cls(frame, acc, _merged=True)

    @classmethod
    def from_bivariate_classical(cls, frame: AxisFrame, h: BivariateRadial) -> "RadialExpr":
        """Embed a function of (X0, R): slot 1 is the X0 power, slot 2 the r power."""
        if not frame.scalar_axis:
            raise PreconditionError("classical embedding needs a frame with the scalar axis X0")
        acc: dict[TermKey, Fraction] = {}
        for (i, j), c in h.terms.items():
            if i < 0:
                raise ValueError("X0 powers must be >= 0")
            mono = tuple(i if k == 0 else 0 for k in range(frame.ncoords))
            acc[(mono, SCALAR_BLADE, j, 0)] = c
        return cls(frame, acc, _merged=True)

    # -- basic structure ----------------------------------------------

    @property
    def raw_terms(self) -> Mapping[TermKey, Fraction]:
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._normal())

    def is_zero(self) -> bool:
        return not self._normal()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RadialExpr.scalar(self.frame, other)
        if not isinstance(other, RadialExpr):
            return NotImplemented
        if self.frame != other.frame:
            return False
        return (self - other).is_zero()

    __hash__ = None  # equality is functional, not structural

    # -- arithmetic ----------------------------------------------------

    def _check_frame(self, other: "RadialExpr") -> None:
        if self.frame != other.frame:
            raise ValueError(f"frame mismatch: {self.frame} vs {other.frame}")

    def __neg__(self) -> "RadialExpr":
        return RadialExpr(self.frame, {k: -c for k, c in self._terms.items()}, _merged=True)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RadialExpr.scalar(self.frame, other)
        if isinstance(other, Multivector):
            other = RadialExpr.constant(self.frame, other)
        if not isinstance(other, RadialExpr):
            return NotImplemented
        self._check_frame(other)
        acc = dict(self._terms)
        for k, c in other._terms.items():
            v = acc.get(k, 0) + c
            if v:
                acc[k] = v
            elif k in acc:
                del acc[k]
        return RadialExpr(self.frame, acc, _merged=True)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RadialExpr.scalar(self.frame, other)
        if isinstance(other, Multivector):
            other = RadialExpr.constant(self.frame, other)
        if not isinstance(other, RadialExpr):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return RadialExpr(self.frame)
            return RadialExpr(self.frame, {k: v * c for k, v in self._terms.items()}, _merged=True)
        if isinstance(other, Multivector):
            other = RadialExpr.constant(self.frame, other)
        if not isinstance(other, RadialExpr):
            return NotImplemented
        return re_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        if isinstance(other, Multivector):
            return re_mul(RadialExpr.constant(self.frame, other), self)
        return NotImplemented

    def __pow__(self, n: int) -> "RadialExpr":
        if n < 0:
            raise ValueError("expression power must be >= 0")
        out = RadialExpr.scalar(self.frame, 1)
        for _ in range(n):
            out = out * self
        return out

    # -- normal form ----------------------------------------------------

    def _normal(self) -> dict[TermKey, Fraction]:
        """The cached normal form; empty iff the expression is zero."""
        cached = self._canonical_cache
        if cached is None:
            cached = _normal_form(self.frame, self._terms)
            object.__setattr__(self, "_canonical_cache", cached)
        return cached

    def canonical_terms(self) -> dict[TermKey, Fraction]:
        """The normal form as a fresh dict, sorted by key."""
        return dict(self._normal())

    def canonicalized(self) -> "RadialExpr":
        return RadialExpr(self.frame, self.canonical_terms(), _merged=True)

    def homogeneity_degree(self) -> int | None:
        """Common total degree (monomial + a + b), or None when mixed or zero."""
        degs = {sum(mono) + a + b for (mono, _blade, a, b) in self._normal()}
        if len(degs) == 1:
            return degs.pop()
        return None

    def blade_parity_split(self) -> tuple["RadialExpr", "RadialExpr"]:
        """Split by coefficient blade cardinality into even/odd valued parts."""
        even: dict[TermKey, Fraction] = {}
        odd: dict[TermKey, Fraction] = {}
        for key, c in self._terms.items():
            (even if len(key[1]) % 2 == 0 else odd)[key] = c
        return (RadialExpr(self.frame, even, _merged=True),
                RadialExpr(self.frame, odd, _merged=True))

    def negate_group(self, group: str) -> "RadialExpr":
        """Substitute x -> -x (or y -> -y) coordinatewise; radii are unchanged."""
        idxs = self.frame.x_indices if group == "x" else self.frame.y_indices
        acc: dict[TermKey, Fraction] = {}
        for (mono, blade, a, b), c in self._terms.items():
            if sum(mono[i] for i in idxs) % 2 == 1:
                c = -c
            acc[(mono, blade, a, b)] = c
        return RadialExpr(self.frame, acc, _merged=True)

    def __repr__(self) -> str:
        from .formatting import format_expression

        return f"RadialExpr({format_expression(self)})"


# -- normal form internals ------------------------------------------------


@lru_cache(maxsize=_SQUARE_CACHE_SIZE)
def _lead_square_power(frame: AxisFrame, group: str, k: int) -> tuple[tuple[Mono, int, int], ...]:
    """(R^2 - sum of the group's other squares)^k, the rewrite of the
    group's last coordinate to the power 2k, as (monomial, R exponent,
    coefficient) triples; R is r for group "x" and rho for group "y"."""
    others = (frame.x_indices if group == "x" else frame.y_indices)[:-1]
    out: dict[tuple[Mono, int], int] = {((0,) * frame.ncoords, 0): 1}
    for _ in range(k):
        nxt: dict[tuple[Mono, int], int] = {}
        for (mono, e), c in out.items():
            nxt[(mono, e + 2)] = nxt.get((mono, e + 2), 0) + c
            for i in others:
                m = list(mono)
                m[i] += 2
                key = (tuple(m), e)
                nxt[key] = nxt.get(key, 0) - c
        out = nxt
    return tuple((mono, e, c) for (mono, e), c in out.items())


def _normal_form(frame: AxisFrame, terms: Mapping[TermKey, Fraction]) -> dict[TermKey, Fraction]:
    """Rewrite x_p^2 and y_q^2 away, merge by exact key, drop zeros, sort."""
    xp = frame.x_indices[-1]
    yq = frame.y_indices[-1] if frame.q else None
    acc: dict[TermKey, Fraction] = {}
    for key, c in terms.items():
        mono, blade, a, b = key
        kx = mono[xp] // 2
        ky = mono[yq] // 2 if yq is not None else 0
        if not kx and not ky:
            acc[key] = acc.get(key, 0) + c
            continue
        base = list(mono)
        base[xp] -= 2 * kx
        if ky:
            base[yq] -= 2 * ky
        py = _lead_square_power(frame, "y", ky)
        for mx, ea, cx in _lead_square_power(frame, "x", kx):
            mbase = _mono_mul(base, mx)
            for my, eb, cy in py:
                k2 = (_mono_mul(mbase, my), blade, a + ea, b + eb)
                acc[k2] = acc.get(k2, 0) + c * cx * cy
    return {k: acc[k] for k in sorted(acc) if acc[k]}


def proportionality_constant(got: RadialExpr, want: RadialExpr) -> Fraction | None:
    """The scalar lam with got = lam * want, or None when there is none.

    lam is read off the first key of want's normal form and then verified.
    """
    want_terms = want._normal()
    if not want_terms:
        return Fraction(0) if got.is_zero() else None
    key = next(iter(want_terms))
    lam = got._normal().get(key, Fraction(0)) / want_terms[key]
    if (got - lam * want).is_zero():
        return lam
    return None


# -- products ------------------------------------------------------------


def re_mul(f: RadialExpr, g: RadialExpr) -> RadialExpr:
    """Termwise product; coefficients multiply by the geometric product in
    the given order (left factor's coefficient on the left)."""
    if f.frame != g.frame:
        raise ValueError(f"frame mismatch: {f.frame} vs {g.frame}")
    acc: dict[TermKey, Fraction] = {}
    for (m1, b1, a1, r1), c1 in f._terms.items():
        for (m2, b2, a2, r2), c2 in g._terms.items():
            sign, blade = blade_product(b1, b2)
            key = (_mono_mul(m1, m2), blade, a1 + a2, r1 + r2)
            v = acc.get(key, 0) + sign * c1 * c2
            if v:
                acc[key] = v
            elif key in acc:
                del acc[key]
    return RadialExpr(f.frame, acc, _merged=True)


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
    in_x = idx in frame.x_indices
    in_y = idx in frame.y_indices
    acc: dict[TermKey, Fraction] = {}
    for (mono, blade, a, b), c in f._terms.items():
        e = mono[idx]
        if e:
            m = list(mono)
            m[idx] -= 1
            key = (tuple(m), blade, a, b)
            v = acc.get(key, 0) + e * c
            if v:
                acc[key] = v
            elif key in acc:
                del acc[key]
        if in_x and a:
            m = list(mono)
            m[idx] += 1
            key = (tuple(m), blade, a - 2, b)
            v = acc.get(key, 0) + a * c
            if v:
                acc[key] = v
            elif key in acc:
                del acc[key]
        elif in_y and b:
            m = list(mono)
            m[idx] += 1
            key = (tuple(m), blade, a, b - 2)
            v = acc.get(key, 0) + b * c
            if v:
                acc[key] = v
            elif key in acc:
                del acc[key]
    return RadialExpr(frame, acc, _merged=True)


def _scope_vector_coords(frame: AxisFrame, scope: str) -> list[int]:
    if scope not in _SCOPES:
        raise ValueError(f"unknown scope {scope!r}; expected one of {_SCOPES}")
    if scope == SCOPE_FIRST:
        return list(frame.x_indices)
    if scope == SCOPE_SECOND:
        return list(frame.y_indices)
    return list(frame.x_indices) + list(frame.y_indices)


def dirac(f: RadialExpr, scope: str = SCOPE_FULL) -> RadialExpr:
    """Left Dirac operator sum_j e_j d_j over the scope's vector coordinates.

    The cauchy-riemann scope adds d/dX0 with unit coefficient and needs a
    frame with the scalar axis.
    """
    frame = f.frame
    if scope == SCOPE_CR and not frame.scalar_axis:
        raise PreconditionError("cauchy-riemann scope needs a frame with the scalar axis X0")
    coords = _scope_vector_coords(frame, scope)
    acc: dict[TermKey, Fraction] = {}
    for idx in coords:
        gen = (frame.generator_of(idx),)
        part = partial_derivative(f, idx)
        for (mono, blade, a, b), c in part._terms.items():
            sign, nb = blade_product(gen, blade)
            key = (mono, nb, a, b)
            v = acc.get(key, 0) + sign * c
            if v:
                acc[key] = v
            elif key in acc:
                del acc[key]
    if scope == SCOPE_CR:
        part = partial_derivative(f, 0)
        for key, c in part._terms.items():
            v = acc.get(key, 0) + c
            if v:
                acc[key] = v
            elif key in acc:
                del acc[key]
    return RadialExpr(frame, acc, _merged=True)


def laplacian(f: RadialExpr, scope: str = SCOPE_FULL) -> RadialExpr:
    """One application of sum_j d_j^2 over the scope's coordinates.

    Closed per-term rule: for a monomial mu of x-degree d and a term
    mu c r^a rho^b, the x-part contributes (Delta_x mu) r^a plus
    a (p + 2d + a - 2) mu r^{a-2}; likewise in y, plus d^2/dX0^2 in the
    cauchy-riemann scope.  Equivalent to composing partial derivatives,
    just without the intermediate blowup.
    """
    frame = f.frame
    if scope == SCOPE_CR and not frame.scalar_axis:
        raise PreconditionError("cauchy-riemann scope needs a frame with the scalar axis X0")
    xs = tuple(frame.x_indices)
    ys = tuple(frame.y_indices)
    do_x = scope in (SCOPE_FIRST, SCOPE_FULL, SCOPE_CR)
    do_y = scope in (SCOPE_SECOND, SCOPE_FULL, SCOPE_CR) and frame.q > 0
    do_x0 = scope == SCOPE_CR
    p, q = frame.p, frame.q
    acc: dict[TermKey, Fraction] = {}

    def bump(key: TermKey, delta) -> None:
        v = acc.get(key, 0) + delta
        if v:
            acc[key] = v
        elif key in acc:
            del acc[key]

    for (mono, blade, a, b), c in f._terms.items():
        if do_x:
            dx = 0
            for i in xs:
                e = mono[i]
                if e:
                    dx += e
                    if e > 1:
                        m = list(mono)
                        m[i] -= 2
                        bump((tuple(m), blade, a, b), e * (e - 1) * c)
            if a:
                coeff = a * (p + 2 * dx + a - 2)
                if coeff:
                    bump((mono, blade, a - 2, b), coeff * c)
        if do_y:
            dy = 0
            for i in ys:
                e = mono[i]
                if e:
                    dy += e
                    if e > 1:
                        m = list(mono)
                        m[i] -= 2
                        bump((tuple(m), blade, a, b), e * (e - 1) * c)
            if b:
                coeff = b * (q + 2 * dy + b - 2)
                if coeff:
                    bump((mono, blade, a, b - 2), coeff * c)
        if do_x0:
            e = mono[0]
            if e > 1:
                m = list(mono)
                m[0] -= 2
                bump((tuple(m), blade, a, b), e * (e - 1) * c)
    return RadialExpr(frame, acc, _merged=True)


def laplacian_power(f: RadialExpr, n: int, scope: str = SCOPE_FULL) -> RadialExpr:
    if n < 0:
        raise ValueError("Laplacian power must be >= 0")
    cur = f
    for _ in range(n):
        cur = laplacian(cur, scope)
    return cur


def is_monogenic(f: RadialExpr, scope: str = SCOPE_FULL) -> bool:
    return dirac(f, scope).is_zero()


def homogeneity_degree(f: RadialExpr) -> int | None:
    return f.homogeneity_degree()


# -- frame-level builders --------------------------------------------------


def vector_x(frame: AxisFrame) -> RadialExpr:
    """The vector x = sum_j x_j e_j of the first group."""
    acc: dict[TermKey, Fraction] = {}
    for idx in frame.x_indices:
        mono = tuple(1 if i == idx else 0 for i in range(frame.ncoords))
        acc[(mono, (frame.generator_of(idx),), 0, 0)] = Fraction(1)
    return RadialExpr(frame, acc, _merged=True)


def vector_y(frame: AxisFrame) -> RadialExpr:
    acc: dict[TermKey, Fraction] = {}
    for idx in frame.y_indices:
        mono = tuple(1 if i == idx else 0 for i in range(frame.ncoords))
        acc[(mono, (frame.generator_of(idx),), 0, 0)] = Fraction(1)
    return RadialExpr(frame, acc, _merged=True)


def omega(frame: AxisFrame) -> RadialExpr:
    """Unit vector x / r as the Laurent expression x * r^{-1}."""
    acc: dict[TermKey, Fraction] = {}
    for idx in frame.x_indices:
        mono = tuple(1 if i == idx else 0 for i in range(frame.ncoords))
        acc[(mono, (frame.generator_of(idx),), -1, 0)] = Fraction(1)
    return RadialExpr(frame, acc, _merged=True)


def nu(frame: AxisFrame) -> RadialExpr:
    """Unit vector y / rho as the Laurent expression y * rho^{-1}."""
    if frame.q == 0:
        raise PreconditionError("nu needs a second axial group (q >= 1)")
    acc: dict[TermKey, Fraction] = {}
    for idx in frame.y_indices:
        mono = tuple(1 if i == idx else 0 for i in range(frame.ncoords))
        acc[(mono, (frame.generator_of(idx),), 0, -1)] = Fraction(1)
    return RadialExpr(frame, acc, _merged=True)


def inner_x(frame: AxisFrame, t: Iterable[Rational]) -> RadialExpr:
    """Scalar inner product <x, t> for a fixed rational vector t."""
    ts = [Fraction(c) for c in t]
    if len(ts) != frame.p:
        raise ValueError(f"vector length {len(ts)} does not match p={frame.p}")
    acc: dict[TermKey, Fraction] = {}
    for j, idx in enumerate(frame.x_indices):
        if ts[j]:
            mono = tuple(1 if i == idx else 0 for i in range(frame.ncoords))
            acc[(mono, SCALAR_BLADE, 0, 0)] = ts[j]
    return RadialExpr(frame, acc, _merged=True)


def inner_y(frame: AxisFrame, s: Iterable[Rational]) -> RadialExpr:
    ss = [Fraction(c) for c in s]
    if len(ss) != frame.q:
        raise ValueError(f"vector length {len(ss)} does not match q={frame.q}")
    acc: dict[TermKey, Fraction] = {}
    for j, idx in enumerate(frame.y_indices):
        if ss[j]:
            mono = tuple(1 if i == idx else 0 for i in range(frame.ncoords))
            acc[(mono, SCALAR_BLADE, 0, 0)] = ss[j]
    return RadialExpr(frame, acc, _merged=True)


def constant_vector_x(frame: AxisFrame, t: Iterable[Rational]) -> RadialExpr:
    """Constant Clifford vector sum t_j e_j over the first group."""
    return RadialExpr.constant(frame, vector_embed(t, dim=frame.m))


def constant_vector_y(frame: AxisFrame, s: Iterable[Rational]) -> RadialExpr:
    """Constant Clifford vector sum s_j e_{p+j} over the second group."""
    return RadialExpr.constant(frame, vector_embed(s, dim=frame.m, offset=frame.p))


# -- numeric smoke evaluation ----------------------------------------------


def evaluate_terms(frame: AxisFrame, terms: Iterable[tuple[TermKey, Rational]],
                   point: Mapping[str, Rational]) -> dict[Blade, float]:
    """Float evaluation of a term list at a rational sample point.

    r and rho are computed as floating square roots, so this is only a
    smoke-test companion to the exact zero test, never part of it.
    """
    coords = [float(Fraction(point[name])) for name in frame.coord_names()]
    r2 = sum(coords[i] ** 2 for i in frame.x_indices)
    rho2 = sum(coords[i] ** 2 for i in frame.y_indices)
    r = sqrt(r2)
    rho = sqrt(rho2) if frame.q else 1.0
    out: dict[Blade, float] = {}
    for (mono, blade, a, b), c in terms:
        val = float(Fraction(c))
        for i, e in enumerate(mono):
            if e:
                val *= coords[i] ** e
        if a:
            val *= r ** a
        if b:
            val *= rho ** b
        out[blade] = out.get(blade, 0.0) + val
    return out


def evaluate_numeric(f: RadialExpr, point: Mapping[str, Rational]) -> dict[Blade, float]:
    return evaluate_terms(f.frame, f._terms.items(), point)
