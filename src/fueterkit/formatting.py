"""Deterministic pretty printers: plain text, JSON, LaTeX.

Each printer passes its terms, in its own print order, to the one term
writer ``_write``: (radial part or None, rows) buckets of (monomial or
None, blade or None, numerator) rows over one denominator, None where the
printed class has no such part.  Expressions come in
``RadialExpr.display_order`` (buckets by (parity sector, a, b), rows by
(monomial, blade)), Laurent scalars by (a, b), multivectors by (grade,
blade) and seeds by (i, j, mask), a seed's monomial being i^mask x^i y^j,
so equal values print identically.  Text joins a term's monomial,
blade and radial text, each built once per call or bucket, and reduces
its coefficient by one gcd; JSON keys a term mono, blade, coeff, r, rho,
as far as the class has them.  The plain form reparses to an equal value
while every coefficient has at most 4300 digits, the grammar's literal
bound.
"""

from __future__ import annotations

import json
from math import gcd
from typing import Sequence

from .bivariate import BivariateRadial
from .clifford import Multivector, blade_text, mask_blade
from .radial import RadialExpr
from .sparse import Memo

STYLES = ("plain", "json", "latex")

# The separator between the factors of a term, per text style.
_SEP = {"plain": "*", "latex": r"\,"}


def _signed(num: int, den: int, body: str, style: str) -> tuple[int, str]:
    """(sign, text) of the term num/den * body; the magnitude is written
    unless it is 1 and the body is not empty."""
    mag = abs(num)
    if mag != den or not body:
        g = gcd(mag, den)
        mag, d = mag // g, den // g
        coeff = str(mag) if d == 1 else (f"{mag}/{d}" if style == "plain" else rf"\frac{{{mag}}}{{{d}}}")
        body = f"{coeff}{_SEP[style]}{body}" if body else coeff
    return (1 if num > 0 else -1), body


def _join_signed(parts: list[tuple[int, str]]) -> str:
    text = "".join((" - " if sign < 0 else " + ") + body for sign, body in parts)
    return ("-" if parts[0][0] < 0 else "") + text[3:]


def _power(base: str, e: int, style: str) -> str:
    if e == 1:
        return base
    return f"{base}^{e}" if style == "plain" else f"{base}^{{{e}}}"


def _radial_text(a: int, b: int, style: str) -> str:
    rho = "rho" if style == "plain" else r"\rho"
    return _SEP[style].join(_power(base, e, style) for base, e in (("r", a), (rho, b)) if e)


def _blade_text(blade, dim: int, style: str) -> str:
    if not blade:
        return ""
    if style == "plain":
        return blade_text(blade, dim)
    return "e_{" + ("," if dim > 9 else "").join(map(str, blade)) + "}"


def _latex_coord(name: str) -> str:
    if name == "X0":
        return "X_{0}"
    return f"{name[0]}_{{{name[1:]}}}"


def _write(buckets, den: int, style: str, dim: int = 0, names: Sequence[str] = ()) -> str | list[dict]:
    """The one term writer (module docstring): the text of the terms, or
    for the json style the list of their term objects.  ``dim`` is the
    blades' algebra dimension and ``names`` the coordinate names."""
    if style not in STYLES:
        raise ValueError(f"unknown style {style!r}; expected one of {STYLES}")
    if style == "json":
        mono_items = Memo(lambda mono: [(names[i], e) for i, e in enumerate(mono) if e])
        out = []
        for radial, rows in buckets:
            tail = {} if radial is None else {"r": radial[0], "rho": radial[1]}
            for mono, blade, c in rows:
                term = {} if mono is None else {"mono": dict(mono_items[mono])}
                if blade is not None:
                    term["blade"] = list(blade)
                g = gcd(c, den)
                term["coeff"] = {"num": c // g, "den": den // g}
                term.update(tail)
                out.append(term)
        return out
    sep = _SEP[style]
    if style == "latex":
        names = [_latex_coord(name) for name in names]
    mono_text = Memo(lambda mono: sep.join(_power(names[i], e, style) for i, e in enumerate(mono) if e))
    blade_text_ = Memo(lambda blade: _blade_text(blade, dim, style))
    mono_text[None] = blade_text_[None] = ""  # a part the class does not have
    parts = []
    for radial, rows in buckets:
        radial_text = "" if radial is None else _radial_text(*radial, style)
        for mono, blade, c in rows:
            body = sep.join(filter(None, (mono_text[mono], blade_text_[blade], radial_text)))
            parts.append(_signed(c, den, body, style))
    return _join_signed(parts) if parts else "0"


def _printed(buckets, den: int, style: str, dim: int = 0, names: Sequence[str] = ()) -> str:
    out = _write(buckets, den, style, dim, names)
    return json.dumps(out, separators=(",", ":")) if style == "json" else out


def format_expression(f: RadialExpr, style: str = "plain") -> str:
    """Render an expression; the plain style round-trips through the parser
    while every coefficient has at most 4300 digits."""
    return _printed(*f.display_order(), style, f.frame.m, f.frame.coord_names())


def expression_json_object(f: RadialExpr) -> dict:
    """CLI wire form: frame header plus the terms of ``format_expression``'s JSON."""
    frame = f.frame
    return {
        "frame": {"p": frame.p, "q": frame.q, "scalar_axis": frame.scalar_axis},
        "terms": _write(*f.display_order(), "json", frame.m, frame.coord_names()),
    }


def format_bivariate(h: BivariateRadial, style: str = "plain") -> str:
    return _printed([(ab, [(None, None, c)]) for ab, c in sorted(h._terms.items())], h._den, style)


def format_multivector(mv: Multivector, style: str = "plain") -> str:
    rows = sorted(((None, mask_blade(mask), c) for mask, c in mv._terms.items()),
                  key=lambda row: (len(row[1]), row[1]))
    return _printed([(None, rows)], mv._den, style, mv.dim)

