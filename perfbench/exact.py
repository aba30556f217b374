"""Exact evaluation of map outputs at points with rational radii.

The benchmark checks outputs without going back through the library's
parser or canonical form: a printed plain-text expression, or the raw
terms of an expression, is evaluated term by term at a point whose group
radii are rational.  The result is one exact rational per basis blade,
which is compared with a reference evaluated the same way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, isqrt
from pathlib import Path

Blade = tuple[int, ...]
Value = dict[Blade, Fraction]

# Coordinates with integer norms: |(1,2,2)| = 3, |(2,3,6)| = 7,
# |(1,1,1,2,3)| = 4, |(2,2,2,2,3)| = 5.
X_POINTS = {3: (1, 2, 2), 5: (1, 1, 1, 2, 3)}
Y_POINTS = {3: (2, 3, 6), 5: (2, 2, 2, 2, 3)}

REFERENCE_FILE = Path(__file__).with_name("large_reference.json")


def _norm(coords: tuple[int, ...]) -> Fraction:
    n2 = sum(c * c for c in coords)
    root = isqrt(n2)
    if root * root != n2:
        raise ValueError(f"{coords} has no rational norm")
    return Fraction(root)


class Point:
    """Evaluation point x = X_POINTS[p], y = Y_POINTS[q] of a (p, q) frame."""

    def __init__(self, p: int, q: int):
        x, y = X_POINTS[p], Y_POINTS[q]
        self.coords = [Fraction(c) for c in x + y]
        self.r = _norm(x)
        self.rho = _norm(y)
        self.index = {f"x{i + 1}": i for i in range(p)}
        self.index.update({f"y{j + 1}": p + j for j in range(q)})
        self._pieces: dict[str, tuple[Fraction, Blade | None]] = {}

    def _piece(self, piece: str) -> tuple[Fraction, Blade | None]:
        """(factor, blade) of one '*'-separated piece of a printed term."""
        hit = self._pieces.get(piece)
        if hit is not None:
            return hit
        name, caret, exp = piece.partition("^")
        e = int(exp) if caret else 1
        if name in self.index:
            out = (self.coords[self.index[name]] ** e, None)
        elif name == "r":
            out = (self.r ** e, None)
        elif name == "rho":
            out = (self.rho ** e, None)
        elif name.startswith("e{") and name.endswith("}") and not caret:
            out = (Fraction(1), tuple(int(j) for j in name[2:-1].split(",")))
        elif name.startswith("e") and name[1:].isdigit() and not caret:
            out = (Fraction(1), tuple(int(j) for j in name[1:]))
        elif not caret:
            out = (Fraction(piece), None)
        else:
            raise ValueError(f"unreadable term piece {piece!r}")
        self._pieces[piece] = out
        return out

    def evaluate_plain(self, text: str) -> tuple[Value, int]:
        """Value of a printed plain expression and its number of terms."""
        text = text.strip()
        if text == "0":
            return {}, 0
        tokens = text.split(" ")
        if len(tokens) % 2 != 1:
            raise ValueError("plain expression has a dangling operator")
        first = tokens[0]
        signed = [(-1, first[1:]) if first.startswith("-") else (1, first)]
        for op, body in zip(tokens[1::2], tokens[2::2]):
            if op not in ("+", "-"):
                raise ValueError(f"expected '+' or '-' between terms, got {op!r}")
            signed.append((1 if op == "+" else -1, body))
        acc: Value = {}
        for sign, body in signed:
            val = Fraction(sign)
            blade: Blade = ()
            for piece in body.split("*"):
                factor, b = self._piece(piece)
                val *= factor
                if b is not None:
                    blade = b
            acc[blade] = acc.get(blade, 0) + val
        return _nonzero(acc), len(signed)

    def evaluate_terms(self, items) -> Value:
        """Value of raw ((mono, blade, a, b), coeff) terms."""
        acc: Value = {}
        for (mono, blade, a, b), c in items:
            val = Fraction(c) * self.r ** a * self.rho ** b
            for i, e in enumerate(mono):
                if e:
                    val *= self.coords[i] ** e
            acc[blade] = acc.get(blade, 0) + val
        return _nonzero(acc)


def _nonzero(acc: Value) -> Value:
    return {b: c for b, c in acc.items() if c}


def scaled(value: Value, c: Fraction) -> Value:
    return _nonzero({b: c * v for b, v in value.items()})


# -- large_apply references ----------------------------------------------


@dataclass(frozen=True)
class LargeCase:
    """One large `apply` input: <x,t>^k and <y,s>^l over a (p, q) frame."""

    name: str
    p: int
    q: int
    variant: str
    seed: str
    k: int
    l: int


LARGE_CASES = (
    LargeCase("p3q3_plus_zbar11", 3, 3, "plus", "zbar^11", 2, 1),
    LargeCase("p5q5_plus_zbar9", 5, 5, "plus", "zbar^9", 1, 1),
    LargeCase("p5q5_minus_zbar10", 5, 5, "minus", "zbar^10", 1, 1),
)


def monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of every monomial of the given degree."""
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def multinomial(exps: tuple[int, ...]) -> int:
    out = factorial(sum(exps))
    for e in exps:
        out //= factorial(e)
    return out


def _power(vec, exps) -> Fraction:
    out = Fraction(1)
    for v, e in zip(vec, exps):
        out *= Fraction(v) ** e
    return out


def blade_key(blade: Blade) -> str:
    return ",".join(map(str, blade))


def load_references() -> dict:
    """Reference tables keyed by case name, values as exact Fractions."""
    raw = json.loads(REFERENCE_FILE.read_text())
    out = {}
    for name, entry in raw["cases"].items():
        table = []
        for row in entry["table"]:
            value = {tuple(int(j) for j in key.split(",") if j): Fraction(v)
                     for key, v in row["value"].items()}
            table.append((tuple(row["x"]), tuple(row["y"]), value))
        out[name] = table
    return out


def large_reference(table, t, s) -> Value:
    """Map value at the case's point for vectors t, s.

    The map is linear in Hk * Hl, and <x,t>^k = sum over |alpha| = k of
    multinomial(alpha) t^alpha x^alpha, so the table's per-monomial values
    combine into the value for any t and s.
    """
    acc: Value = {}
    for xa, yb, value in table:
        w = multinomial(xa) * multinomial(yb) * _power(t, xa) * _power(s, yb)
        for blade, v in value.items():
            acc[blade] = acc.get(blade, 0) + w * v
    return _nonzero(acc)
