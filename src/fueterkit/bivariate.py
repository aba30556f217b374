"""Scalar Laurent calculus in the two radii (r, rho).

BivariateRadial is a sparse sum c_{ab} r^a rho^b with integer exponents
of either sign.  The radial operators (x^{-1} d/dx)^n and (d/dx x^{-1})^n
act by monomial rules, which are exact and total on this class, so no
domain bookkeeping is needed.  The same representation doubles for
functions of (X0, R) in the single-axis constructions, since the operator
rules are plain power rules in each slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .sparse import Rational, TermMap, collect, items_of

_R = "r"
_RHO = "rho"


@dataclass(frozen=True)
class BiaxialParams:
    """Homogeneity degrees (k, l) and group dimensions (p, q)."""

    k: int
    l: int
    p: int
    q: int

    def __post_init__(self):
        if self.k < 0 or self.l < 0:
            raise ValueError("degrees k, l must be >= 0")
        if self.p < 1 or self.q < 1:
            raise ValueError("group dimensions p, q must be >= 1")


class BivariateRadial(TermMap):
    """Sparse exact Laurent expression in (r, rho); pure scalar."""

    __slots__ = ()

    def __init__(self, terms: Mapping[tuple[int, int], Rational] | Iterable[tuple[tuple[int, int], Rational]] = ()):
        super().__init__(((a, b), c) for (a, b), c in items_of(terms))

    @classmethod
    def monomial(cls, a: int, b: int, coeff: Rational = 1) -> "BivariateRadial":
        return cls({(a, b): coeff})

    @classmethod
    def constant(cls, value: Rational) -> "BivariateRadial":
        return cls({(0, 0): value})

    def _unit_key(self) -> tuple[int, int]:
        return (0, 0)

    def _products(self, other: "BivariateRadial"):
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                yield (a1 + a2, b1 + b2), c1 * c2

    def shift(self, da: int, db: int) -> "BivariateRadial":
        """Multiply by r^da rho^db."""
        return self._like({(a + da, b + db): c for (a, b), c in self._terms.items()}, self._den)

    def derivative(self, var: str) -> "BivariateRadial":
        """Plain partial derivative in r or rho."""
        return self._like(_lower(self._terms, _check_var(var)), self._den)

    def __repr__(self) -> str:
        from .formatting import format_bivariate

        return f"BivariateRadial({format_bivariate(self)})"


def _check_var(var: str) -> int:
    if var == _R:
        return 0
    if var == _RHO:
        return 1
    raise ValueError(f"variable must be 'r' or 'rho', got {var!r}")


def _lower(terms: dict[tuple[int, int], int], slot: int) -> dict[tuple[int, int], int]:
    """Monomial rule x^e -> e x^{e - 1} in the given slot."""
    return collect(((a - 1, b) if slot == 0 else (a, b - 1), (a, b)[slot] * c) for (a, b), c in terms.items())


def _falling(e: int, n: int) -> int:
    """The step-2 falling product e (e - 2) ... (e - 2n + 2), 1 for n = 0."""
    return math.prod(range(e, e - 2 * n, -2))


def _radial_operator_power(f: BivariateRadial, n: int, var: str, shift: int) -> BivariateRadial:
    """n-fold power of the operator x^e -> (e - shift) x^{e-2} in one pass:
    x^e -> prod_{i<n} (e - shift - 2i) x^{e-2n}.  A term whose product is 0
    is dropped; distinct exponents stay distinct, so no terms merge."""
    slot = _check_var(var)
    if n < 0:
        raise ValueError("operator power must be >= 0")
    out = {}
    for (a, b), c in f._terms.items():
        e = (a, b)[slot] - shift
        c *= _falling(e, n)
        if c:
            out[(a - 2 * n, b) if slot == 0 else (a, b - 2 * n)] = c
    return f._like(out, f._den)


def apply_xinv_dx(f: BivariateRadial, n: int, var: str = _R) -> BivariateRadial:
    """n-fold (x^{-1} d/dx) in the chosen radius; monomial rule a -> a*x^{a-2}."""
    return _radial_operator_power(f, n, var, 0)


def apply_dx_xinv(f: BivariateRadial, n: int, var: str = _R) -> BivariateRadial:
    """n-fold (d/dx x^{-1}); monomial rule a -> (a-1)*x^{a-2}."""
    return _radial_operator_power(f, n, var, 1)


def delta2_power(f: BivariateRadial, n: int) -> BivariateRadial:
    """n-fold planar Laplacian d^2/dr^2 + d^2/drho^2."""
    if n < 0:
        raise ValueError("operator power must be >= 0")

    def step(terms):
        for (a, b), c in terms.items():
            yield (a - 2, b), a * (a - 1) * c
            yield (a, b - 2), b * (b - 1) * c

    terms = f._terms
    for _ in range(n):
        if not terms:
            break
        terms = collect(step(terms))
    return f._like(terms, f._den)


def expansion_coefficient(j1: int, j2: int, params: BiaxialParams) -> int:
    """Integer weight attached to the (j1, j2) operator term.

    The product of the one-sided step-2 falling products
    prod_{s=1..j}(2k + p - (2s - 1)) and its (l, q) twin; vanishes once a
    factor hits zero, which truncates the expansion for odd p, q.
    """
    if j1 < 0 or j2 < 0:
        raise ValueError("indices must be >= 0")
    return _falling(2 * params.k + params.p - 1, j1) * _falling(2 * params.l + params.q - 1, j2)


def multinomial(n: int, j1: int, j2: int) -> int:
    """n! / (j1! j2! (n - j1 - j2)!)."""
    if j1 < 0 or j2 < 0 or j1 + j2 > n:
        raise ValueError(f"multinomial indices out of range: n={n}, j1={j1}, j2={j2}")
    return math.comb(n, j1) * math.comb(n - j1, j2)


def operator_term(h: BivariateRadial, n: int, j1: int, j2: int, s1: int, s2: int) -> BivariateRadial:
    """Mixed operator string applied to h.

    Applies Delta_2^{n-j1-j2} first, then j1 copies of the r-operator
    ((r^{-1} d_r) for s1 = 0, (d_r r^{-1}) for s1 = 1), then j2 copies of
    the rho-operator selected by s2.
    """
    if j1 < 0 or j2 < 0 or j1 + j2 > n:
        raise ValueError(f"operator indices out of range: n={n}, j1={j1}, j2={j2}")
    if s1 not in (0, 1) or s2 not in (0, 1):
        raise ValueError("s1, s2 must be 0 or 1")
    out = delta2_power(h, n - j1 - j2)
    out = apply_xinv_dx(out, j1, _R) if s1 == 0 else apply_dx_xinv(out, j1, _R)
    out = apply_xinv_dx(out, j2, _RHO) if s2 == 0 else apply_dx_xinv(out, j2, _RHO)
    return out


def laplacian_expansion(h: BivariateRadial, n: int, s1: int, s2: int, params: BiaxialParams) -> BivariateRadial:
    """Scalar factor of Delta_X^n (h omega^s1 nu^s2 Pk Pl) as an operator sum.

    Sum over j1 + j2 <= n of multinomial(n; j1, j2) * expansion weight *
    the mixed operator term, as one linear combination over the pairs whose
    weight is nonzero; multiplying the result back by omega^s1 nu^s2 Pk Pl
    reproduces the n-fold Laplacian exactly.
    """
    if n < 1:
        raise ValueError("expansion order n must be >= 1")
    # for odd dim, every weight past j = d + (dim - 1)/2 has the factor 0
    top1, top2 = (min(n, d + (dim - 1) // 2) if dim % 2 else n
                  for d, dim in ((params.k, params.p), (params.l, params.q)))
    return h._combination((operator_term(h, n, j1, j2, s1, s2),
                           multinomial(n, j1, j2) * expansion_coefficient(j1, j2, params))
                          for j1 in range(top1 + 1) for j2 in range(min(n - j1, top2) + 1))
