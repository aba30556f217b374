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
from functools import lru_cache
from typing import Iterable, Mapping

from .sparse import Rational, TermMap, collect, items_of

_R = "r"
_RHO = "rho"

# Bound on kept falling products: Lemma 5 at order n meets O(n^2) distinct
# (e, n) pairs, each many times (3402 pairs at n = 80).
_FALLING_CACHE_SIZE = 4096


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


@lru_cache(maxsize=_FALLING_CACHE_SIZE)
def _falling(e: int, n: int) -> int:
    """The step-2 falling product e (e - 2) ... (e - 2n + 2), 1 for n = 0;
    kept, since an operator power forms one per term and Lemma 5's pairs
    ask for the same ones many times."""
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


def _delta2_step(terms: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """One planar Laplacian d^2/dr^2 + d^2/drho^2 on stored numerators."""
    return collect(pair for (a, b), c in terms.items()
                   for pair in (((a - 2, b), a * (a - 1) * c), ((a, b - 2), b * (b - 1) * c)))


def delta2_power(f: BivariateRadial, n: int) -> BivariateRadial:
    """n-fold planar Laplacian d^2/dr^2 + d^2/drho^2."""
    if n < 0:
        raise ValueError("operator power must be >= 0")
    terms = f._terms
    for _ in range(n):
        if not terms:
            break
        terms = _delta2_step(terms)
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


def _check_styles(s1: int, s2: int) -> None:
    if s1 not in (0, 1) or s2 not in (0, 1):
        raise ValueError("s1, s2 must be 0 or 1")


def _operator_string(f: BivariateRadial, j1: int, j2: int, s1: int, s2: int) -> BivariateRadial:
    """j1 copies of the r-operator ((r^{-1} d_r) for s1 = 0, (d_r r^{-1})
    for s1 = 1), then j2 copies of the rho-operator selected by s2,
    applied to f."""
    f = apply_xinv_dx(f, j1, _R) if s1 == 0 else apply_dx_xinv(f, j1, _R)
    return apply_xinv_dx(f, j2, _RHO) if s2 == 0 else apply_dx_xinv(f, j2, _RHO)


def operator_term(h: BivariateRadial, n: int, j1: int, j2: int, s1: int, s2: int) -> BivariateRadial:
    """Mixed operator string applied to h: Delta_2^{n-j1-j2} first, then
    ``_operator_string``'s j1 r-operators and j2 rho-operators."""
    if j1 < 0 or j2 < 0 or j1 + j2 > n:
        raise ValueError(f"operator indices out of range: n={n}, j1={j1}, j2={j2}")
    _check_styles(s1, s2)
    return _operator_string(delta2_power(h, n - j1 - j2), j1, j2, s1, s2)


def laplacian_expansion(h: BivariateRadial, n: int, s1: int, s2: int, params: BiaxialParams) -> BivariateRadial:
    """Scalar factor of Delta_X^n (h omega^s1 nu^s2 Pk Pl) as an operator sum.

    Sum over j1 + j2 <= n of multinomial(n; j1, j2) * expansion weight *
    the mixed operator term, as one linear combination over the pairs whose
    weight is nonzero; multiplying the result back by omega^s1 nu^s2 Pk Pl
    reproduces the n-fold Laplacian exactly.  Each pair's term is
    ``operator_term``'s, built from shared parts: Delta_2^i h is taken
    once, by one step from Delta_2^(i-1) h, for every i = n - j1 - j2 a
    pair asks for, and each pair applies its operator string to that
    power.
    """
    if n < 1:
        raise ValueError("expansion order n must be >= 1")
    _check_styles(s1, s2)
    # for odd dim, every weight past j = d + (dim - 1)/2 has the factor 0
    top1, top2 = (min(n, d + (dim - 1) // 2) if dim % 2 else n
                  for d, dim in ((params.k, params.p), (params.l, params.q)))
    # Delta_2^i h for i from n - top1 - top2, the least a pair asks for, to n;
    # a power past the first zero one is zero and stays out
    powers: dict[int, BivariateRadial] = {}
    terms = h._terms
    for i in range(n + 1):
        if not terms:
            break
        if i >= n - top1 - top2:
            powers[i] = h._like(terms, h._den)
        if i < n:
            terms = _delta2_step(terms)
    zero = h._like({}, h._den)
    return h._combination((_operator_string(powers.get(n - j1 - j2, zero), j1, j2, s1, s2), multinomial(n, j1, j2) * expansion_coefficient(j1, j2, params))
                          for j1 in range(top1 + 1) for j2 in range(min(n - j1, top2) + 1))
