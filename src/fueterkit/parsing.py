"""One recursive-descent parser for the three input languages.

Every grammar shares one skeleton (whitespace insensitive):

    expr     := [sign] term {("+" | "-") term}
    term     := factor {"*" factor}
    factor   := rational ["^" int] | "(" expr ")" ["^" int] | atom ["^" int]
              | radial ["^" signed-int]
    rational := digits ["/" digits]
    radial   := "r" | "rho"          (the only factors with negative exponents)

and differs only in its atoms:

* expressions (Hk, Hl, ``--expr``): radial, coordinates ``x``digits,
  ``y``digits and ``X0``, blades ``e``digits and ``e{`` int {"," int} ``}``,
  and inner products ``ip(`` (``x`` | ``y``) ``,`` name ``)``;
* seeds w(z, zbar): ``z``, ``zbar``, ``i``, ``x``, ``y`` (no radial);
* bivariate Laurent scalars h(r, rho): radial only.

``_Parser`` owns the skeleton; each entry point hands it the grammar's
constant, its atom handler and, where the grammar has them, r and rho.
The vectors of ``--t`` and ``--s`` take the same rational rule:
``vector := [sign] rational {"," [sign] rational}``.  Digits are ASCII
0-9, at most ``sys.int_info.default_max_str_digits`` to a literal; a name
is an ASCII letter, then ASCII letters, digits and "_".
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import partial
from typing import Callable, Mapping, Sequence

from .bivariate import BivariateRadial
from .clifford import Multivector
from .errors import ParseError
from .frame import AxisFrame
from .radial import RadialExpr, inner_x, inner_y
from .seeds import ComplexBivarPoly

_SYMBOLS = "+-*/^(){},"

# Deepest parenthesis nesting accepted.  The parsers recurse about three
# frames per level, so this keeps any input far from the recursion limit.
MAX_DEPTH = 100


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        i = 0
        n = len(text)
        depth = 0
        limit = sys.int_info.default_max_str_digits
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if "0" <= c <= "9":
                j = i
                while j < n and "0" <= text[j] <= "9":
                    j += 1
                if j - i > limit:
                    raise ParseError(f"number longer than {limit} digits", i)
                self.tokens.append(("num", text[i:j], i))
                i = j
                continue
            if c.isascii() and c.isalpha():
                j = i
                while j < n and text[j].isascii() and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("name", text[i:j], i))
                i = j
                continue
            if c in _SYMBOLS:
                if c == "(":
                    depth += 1
                    if depth > MAX_DEPTH:
                        raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", i)
                elif c == ")":
                    depth -= 1
                self.tokens.append((c, c, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {c!r}", i)
        self.tokens.append(("end", "", n))
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def sign(self) -> int:
        """Read an optional "+" or "-"; -1 after a "-", else 1."""
        kind = self.peek()[0]
        if kind in ("+", "-"):
            self.pos += 1
        return -1 if kind == "-" else 1

    def end(self) -> None:
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])


def _parse_int(tz: _Tokenizer) -> int:
    return tz.sign() * int(tz.expect("num")[1])


def _parse_rational(tz: _Tokenizer, first: tuple[str, str, int]) -> Fraction:
    num = int(first[1])
    if tz.peek()[0] == "/":
        tz.next()
        den_tok = tz.expect("num")
        den = int(den_tok[1])
        if den == 0:
            raise ParseError("zero denominator", den_tok[2])
        return Fraction(num, den)
    return Fraction(num)


class _Parser:
    """The skeleton every grammar shares: expr, term and factor.

    ``constant`` turns a rational into the grammar's value.  ``atom``, when
    given, is called as ``atom(tz, name, pos)`` on every other name and
    returns its value; it may read further tokens (``e{1,2}``, ``ip(x,t)``).
    ``radial``, when given, is called as ``radial(name, n, pos)`` for
    ``r^n`` and ``rho^n``, the only factors whose exponent may be negative.
    Every other factor takes the ``^n`` rule with n >= 0.  A factor takes
    at most one exponent, so ``r^2^3`` and ``x1^2^3`` end at the second
    ``^``.
    """

    def __init__(self, text: str, constant: Callable, atom: Callable | None, radial: Callable | None = None):
        self.tz = _Tokenizer(text)
        self.constant = constant
        self.atom = atom
        self.radial = radial

    def parse(self):
        out = self._expr()
        self.tz.end()
        return out

    def _expr(self):
        """The signed terms, summed as one linear combination."""
        parts = []
        while not parts or self.tz.peek()[0] in ("+", "-"):
            sign = self.tz.sign()
            parts.append((self._term(), sign))
        return parts[0][0]._combination(parts)

    def _term(self):
        out = self._factor()
        while self.tz.peek()[0] == "*":
            self.tz.next()
            out = out * self._factor()
        return out

    def _factor(self):
        tok = self.tz.next()
        kind, value, pos = tok
        if kind == "name" and value in ("r", "rho") and self.radial is not None:
            n = self._exponent() if self.tz.peek()[0] == "^" else 1
            return self.radial(value, n, pos)
        if kind == "num":
            base = self.constant(_parse_rational(self.tz, tok))
        elif kind == "(":
            base = self._expr()
            self.tz.expect(")")
        elif kind == "name" and self.atom is not None:
            base = self.atom(self.tz, value, pos)
        else:
            raise ParseError(f"unexpected token {value or 'end of input'!r}", pos)
        if self.tz.peek()[0] != "^":
            return base
        n = self._exponent()
        if n < 0:
            raise ParseError(f"negative exponent {n}: only r and rho take negative powers", pos)
        return base ** n

    def _exponent(self) -> int:
        self.tz.next()
        return _parse_int(self.tz)


def _parse_blade_name(name: str, pos: int) -> tuple[int, ...]:
    digits = name[1:]
    if not digits.isdecimal():
        raise ParseError(f"invalid blade name {name!r}", pos)
    return tuple(map(int, digits))


def _expression_atom(frame: AxisFrame, vectors: Mapping[str, Sequence[Fraction]],
                     tz: _Tokenizer, name: str, pos: int) -> RadialExpr:
    """Coordinates, ``e``-blades and ``ip(x|y, name)``; ``Multivector.blade``
    checks a blade's indices."""
    if name == "ip":
        return _inner(tz, pos, frame, vectors)
    if name.startswith("e") and (len(name) > 1 and name[1:].isdigit() or tz.peek()[0] == "{"):
        if len(name) > 1:
            if frame.m > 9:
                raise ParseError("use e{...} blade syntax for frames with m >= 10", pos)
            blade = _parse_blade_name(name, pos)
        else:
            blade = _braced_blade(tz)
        try:
            return RadialExpr.constant(frame, Multivector.blade(blade, frame.m))
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None
    try:
        return RadialExpr.coordinate(frame, name)
    except ValueError as exc:
        raise ParseError(str(exc), pos) from None


def _braced_blade(tz: _Tokenizer) -> tuple[int, ...]:
    """The indices of ``e{i,j,...}``; an index with a leading zero is no
    alias of the plain one."""
    tz.expect("{")
    tokens = [tz.expect("num")]
    while tz.peek()[0] == ",":
        tz.next()
        tokens.append(tz.expect("num"))
    tz.expect("}")
    for _kind, digits, pos in tokens:
        if len(digits) > 1 and digits[0] == "0":
            raise ParseError(f"blade index {digits!r} has a leading zero", pos)
    return tuple(int(digits) for _kind, digits, _pos in tokens)


def _inner(tz: _Tokenizer, pos: int, frame: AxisFrame, vectors: Mapping[str, Sequence[Fraction]]) -> RadialExpr:
    tz.expect("(")
    group_tok = tz.expect("name")
    if group_tok[1] not in ("x", "y"):
        raise ParseError("inner product group must be 'x' or 'y'", group_tok[2])
    tz.expect(",")
    name_tok = tz.expect("name")
    name = name_tok[1]
    tz.expect(")")
    if name not in vectors:
        raise ParseError(f"unbound vector name {name!r}", name_tok[2])
    vec = vectors[name]
    try:
        if group_tok[1] == "x":
            return inner_x(frame, vec)
        return inner_y(frame, vec)
    except ValueError as exc:
        raise ParseError(str(exc), pos) from None


def parse_expression(text: str, frame: AxisFrame,
                     vectors: Mapping[str, Sequence[Fraction]] | None = None) -> RadialExpr:
    """Parse an expression as the grammar builds it (normal form on first read)."""

    def radial(name: str, n: int, pos: int) -> RadialExpr:
        if name == "r":
            return RadialExpr.radial(frame, n, 0)
        if frame.q == 0:
            raise ParseError("rho is undefined in a single-axis frame", pos)
        return RadialExpr.radial(frame, 0, n)

    atom = partial(_expression_atom, frame, dict(vectors or {}))
    return _Parser(text, partial(RadialExpr.scalar, frame), atom, radial).parse()


_SEED_ATOMS = {
    "z": ComplexBivarPoly.z,
    "zbar": ComplexBivarPoly.zbar,
    "i": ComplexBivarPoly.i,
    "x": lambda: ComplexBivarPoly.coordinate("x"),
    "y": lambda: ComplexBivarPoly.coordinate("y"),
}


def _seed_atom(tz: _Tokenizer, name: str, pos: int) -> ComplexBivarPoly:
    if name not in _SEED_ATOMS:
        raise ParseError(f"unknown seed atom {name!r}", pos)
    return _SEED_ATOMS[name]()


def parse_seed(text: str) -> ComplexBivarPoly:
    """Parse a seed polynomial over the atoms z, zbar, i, x, y."""
    return _Parser(text, ComplexBivarPoly.constant, _seed_atom).parse()


def parse_bivariate(text: str) -> BivariateRadial:
    """Parse a pure scalar Laurent expression in r and rho."""

    def radial(name: str, n: int, pos: int) -> BivariateRadial:
        return BivariateRadial.monomial(n, 0) if name == "r" else BivariateRadial.monomial(0, n)

    return _Parser(text, BivariateRadial.constant, None, radial).parse()


def parse_vector(text: str) -> list[Fraction]:
    """Parse a comma-separated list of signed rationals like ``1,0,-3/2``."""
    tz = _Tokenizer(text)
    out = []
    while True:
        out.append(tz.sign() * _parse_rational(tz, tz.expect("num")))
        if tz.peek()[0] != ",":
            tz.end()
            return out
        tz.next()
