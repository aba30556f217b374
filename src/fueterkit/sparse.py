"""The sparse core shared by every term-map class.

RadialExpr, BivariateRadial, ComplexBivarPoly and Multivector all store a
dict from an exact key to a nonzero coefficient.  Every operator on them
produces a stream of (key, coefficient) contributions, and ``collect`` is
the one place that turns such a stream into a stored dict: it sums equal
keys in arrival order and drops zeros once, at the end.  Cancellation in
the middle of a stream therefore costs nothing, and coefficients of any
type with ``+`` and truth testing work alike (int, Fraction,
ComplexRational), with no per-caller zero value.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, TypeVar

K = TypeVar("K", bound=Hashable)
C = TypeVar("C")


def collect(pairs: Iterable[tuple[K, C]], start: Mapping[K, C] | None = None) -> dict[K, C]:
    """Sum ``pairs`` by key onto a copy of ``start``; return the nonzero entries.

    Keys keep the order of their first arrival.  ``start`` is not modified.
    """
    acc: dict[K, C] = dict(start) if start else {}
    get = acc.get
    for key, c in pairs:
        old = get(key)
        acc[key] = c if old is None else old + c
    # Delete in place rather than filter into a second dict: the
    # accumulator is the largest object an operator builds.
    for key in [key for key, c in acc.items() if not c]:
        del acc[key]
    return acc
