"""Recursive-descent parsers for expressions, seeds, and radial scalars.

Grammar (whitespace insensitive):

    expr   := [sign] term {("+" | "-") term}
    term   := factor {"*" factor}
    factor := atom ["^" signed-int]
    atom   := rational | coord | blade | radial | inner | "(" expr ")"
    coord  := "x"digits | "y"digits | "X0"
    blade  := "e"digits | "e{" int {"," int} "}"
    radial := "r" | "rho"            (negative exponents allowed here only)
    inner  := "ip(" ("x" | "y") "," name ")"

Seeds use the atoms z, zbar, i, x, y with rational coefficients, and the
bivariate form is the expression grammar restricted to rationals and
radials.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .bivariate import BivariateRadial
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
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if c.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.tokens.append(("num", text[i:j], i))
                i = j
                continue
            if c.isalpha():
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
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


def _parse_int(tz: _Tokenizer) -> int:
    sign = 1
    tok = tz.peek()
    if tok[0] in ("+", "-"):
        tz.next()
        if tok[0] == "-":
            sign = -1
    tok = tz.expect("num")
    return sign * int(tok[1])


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


def _parse_blade_name(name: str, pos: int, frame: AxisFrame) -> tuple[int, ...]:
    digits = name[1:]
    indices = []
    for ch in digits:
        j = int(ch)
        if j == 0:
            raise ParseError("blade index 0 is invalid", pos)
        indices.append(j)
    return _validate_blade_indices(indices, pos, frame)


def _validate_blade_indices(indices: Sequence[int], pos: int, frame: AxisFrame) -> tuple[int, ...]:
    last = 0
    for j in indices:
        if j <= last:
            raise ParseError(f"blade indices must be strictly increasing, got {list(indices)}", pos)
        if j > frame.m:
            raise ParseError(f"blade index {j} exceeds frame dimension m={frame.m}", pos)
        last = j
    return tuple(indices)


class _ExprParser:
    def __init__(self, text: str, frame: AxisFrame, vectors: Mapping[str, Sequence[Fraction]] | None):
        self.tz = _Tokenizer(text)
        self.frame = frame
        self.vectors = dict(vectors or {})

    def parse(self) -> RadialExpr:
        out = self._expr()
        tok = self.tz.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return out

    def _expr(self) -> RadialExpr:
        sign = 1
        tok = self.tz.peek()
        if tok[0] in ("+", "-"):
            self.tz.next()
            if tok[0] == "-":
                sign = -1
        out = self._term() * sign
        while True:
            tok = self.tz.peek()
            if tok[0] == "+":
                self.tz.next()
                out = out + self._term()
            elif tok[0] == "-":
                self.tz.next()
                out = out - self._term()
            else:
                return out

    def _term(self) -> RadialExpr:
        out = self._factor()
        while self.tz.peek()[0] == "*":
            self.tz.next()
            out = out * self._factor()
        return out

    def _factor(self) -> RadialExpr:
        tok = self.tz.next()
        kind, value, pos = tok
        if kind == "num":
            coeff = _parse_rational(self.tz, tok)
            return self._maybe_pow(RadialExpr.scalar(self.frame, coeff), pos)
        if kind == "(":
            inner = self._expr()
            self.tz.expect(")")
            return self._maybe_pow(inner, pos)
        if kind != "name":
            raise ParseError(f"unexpected token {value or 'end of input'!r}", pos)
        if value in ("r", "rho"):
            exponent = 1
            if self.tz.peek()[0] == "^":
                self.tz.next()
                exponent = _parse_int(self.tz)
            if value == "rho" and self.frame.q == 0:
                raise ParseError("rho is undefined in a single-axis frame", pos)
            a, b = (exponent, 0) if value == "r" else (0, exponent)
            return RadialExpr.radial(self.frame, a, b)
        if value == "ip":
            return self._maybe_pow(self._inner(pos), pos)
        if value.startswith("e") and (len(value) > 1 and value[1:].isdigit() or self.tz.peek()[0] == "{"):
            if len(value) > 1:
                if self.frame.m > 9:
                    raise ParseError("use e{...} blade syntax for frames with m >= 10", pos)
                blade = _parse_blade_name(value, pos, self.frame)
            else:
                blade = self._braced_blade(pos)
            from .clifford import Multivector

            expr = RadialExpr.constant(self.frame, Multivector.blade(blade, self.frame.m))
            return self._maybe_pow(expr, pos)
        try:
            idx_expr = RadialExpr.coordinate(self.frame, value)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None
        return self._maybe_pow(idx_expr, pos)

    def _braced_blade(self, pos: int) -> tuple[int, ...]:
        self.tz.expect("{")
        indices = [int(self.tz.expect("num")[1])]
        while self.tz.peek()[0] == ",":
            self.tz.next()
            indices.append(int(self.tz.expect("num")[1]))
        self.tz.expect("}")
        return _validate_blade_indices(indices, pos, self.frame)

    def _inner(self, pos: int) -> RadialExpr:
        self.tz.expect("(")
        group_tok = self.tz.expect("name")
        if group_tok[1] not in ("x", "y"):
            raise ParseError("inner product group must be 'x' or 'y'", group_tok[2])
        self.tz.expect(",")
        name_tok = self.tz.expect("name")
        name = name_tok[1]
        self.tz.expect(")")
        if name not in self.vectors:
            raise ParseError(f"unbound vector name {name!r}", name_tok[2])
        vec = self.vectors[name]
        try:
            if group_tok[1] == "x":
                return inner_x(self.frame, vec)
            return inner_y(self.frame, vec)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None

    def _maybe_pow(self, base: RadialExpr, pos: int) -> RadialExpr:
        if self.tz.peek()[0] != "^":
            return base
        self.tz.next()
        n = _parse_int(self.tz)
        if n < 0:
            raise ParseError("negative exponents are only allowed on r and rho", pos)
        return base ** n


def parse_expression(text: str, frame: AxisFrame,
                     vectors: Mapping[str, Sequence[Fraction]] | None = None) -> RadialExpr:
    """Parse an expression and return it in canonical form."""
    return _ExprParser(text, frame, vectors).parse().canonicalized()


class _SeedParser:
    def __init__(self, text: str):
        self.tz = _Tokenizer(text)

    def parse(self) -> ComplexBivarPoly:
        out = self._expr()
        tok = self.tz.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return out

    def _expr(self) -> ComplexBivarPoly:
        sign = 1
        tok = self.tz.peek()
        if tok[0] in ("+", "-"):
            self.tz.next()
            if tok[0] == "-":
                sign = -1
        out = self._term() * sign
        while True:
            tok = self.tz.peek()
            if tok[0] == "+":
                self.tz.next()
                out = out + self._term()
            elif tok[0] == "-":
                self.tz.next()
                out = out - self._term()
            else:
                return out

    def _term(self) -> ComplexBivarPoly:
        out = self._factor()
        while self.tz.peek()[0] == "*":
            self.tz.next()
            out = out * self._factor()
        return out

    def _factor(self) -> ComplexBivarPoly:
        tok = self.tz.next()
        kind, value, pos = tok
        if kind == "num":
            base = ComplexBivarPoly.constant(_parse_rational(self.tz, tok))
        elif kind == "(":
            base = self._expr()
            self.tz.expect(")")
        elif kind == "name":
            if value == "i":
                from .seeds import ComplexRational

                base = ComplexBivarPoly.constant(ComplexRational.of(0, 1))
            elif value == "z":
                base = ComplexBivarPoly.z()
            elif value == "zbar":
                base = ComplexBivarPoly.zbar()
            elif value in ("x", "y"):
                base = ComplexBivarPoly.coordinate(value)
            else:
                raise ParseError(f"unknown seed atom {value!r}", pos)
        else:
            raise ParseError(f"unexpected token {value or 'end of input'!r}", pos)
        if self.tz.peek()[0] == "^":
            self.tz.next()
            n = _parse_int(self.tz)
            if n < 0:
                raise ParseError("seed powers must be >= 0", pos)
            base = base ** n
        return base


def parse_seed(text: str) -> ComplexBivarPoly:
    """Parse a seed polynomial over the atoms z, zbar, i, x, y."""
    return _SeedParser(text).parse()


class _BivariateParser:
    def __init__(self, text: str):
        self.tz = _Tokenizer(text)

    def parse(self) -> BivariateRadial:
        out = self._expr()
        tok = self.tz.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return out

    def _expr(self) -> BivariateRadial:
        sign = 1
        tok = self.tz.peek()
        if tok[0] in ("+", "-"):
            self.tz.next()
            if tok[0] == "-":
                sign = -1
        out = self._term() * sign
        while True:
            tok = self.tz.peek()
            if tok[0] == "+":
                self.tz.next()
                out = out + self._term()
            elif tok[0] == "-":
                self.tz.next()
                out = out - self._term()
            else:
                return out

    def _term(self) -> BivariateRadial:
        out = self._factor()
        while self.tz.peek()[0] == "*":
            self.tz.next()
            out = out * self._factor()
        return out

    def _factor(self) -> BivariateRadial:
        tok = self.tz.next()
        kind, value, pos = tok
        if kind == "num":
            base = BivariateRadial.constant(_parse_rational(self.tz, tok))
            if self.tz.peek()[0] == "^":
                self.tz.next()
                n = _parse_int(self.tz)
                if n < 0:
                    raise ParseError("negative exponents are only allowed on r and rho", pos)
                out = BivariateRadial.constant(1)
                for _ in range(n):
                    out = out * base
                return out
            return base
        if kind == "(":
            base = self._expr()
            self.tz.expect(")")
            if self.tz.peek()[0] == "^":
                self.tz.next()
                n = _parse_int(self.tz)
                if n < 0:
                    raise ParseError("negative exponents are only allowed on r and rho", pos)
                out = BivariateRadial.constant(1)
                for _ in range(n):
                    out = out * base
                return out
            return base
        if kind == "name" and value in ("r", "rho"):
            exponent = 1
            if self.tz.peek()[0] == "^":
                self.tz.next()
                exponent = _parse_int(self.tz)
            return BivariateRadial.monomial(exponent, 0) if value == "r" else BivariateRadial.monomial(0, exponent)
        raise ParseError(f"unexpected token {value or 'end of input'!r} in radial scalar", pos)


def parse_bivariate(text: str) -> BivariateRadial:
    """Parse a pure scalar Laurent expression in r and rho."""
    return _BivariateParser(text).parse()


def parse_vector(text: str) -> list[Fraction]:
    """Parse a comma-separated list of rationals like ``1,0,-3/2``."""
    out = []
    for i, chunk in enumerate(text.split(",")):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError(f"empty vector component at position {i}")
        try:
            out.append(Fraction(chunk))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"invalid rational {chunk!r} in vector") from None
    return out
