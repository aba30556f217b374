"""Deterministic pretty printers: plain text, JSON, LaTeX.

Terms are emitted sorted by (parity sector, radial exponents, monomial,
blade), so identical expressions always print identically.  The plain
form reparses to an equal expression.

An expression is printed from its cached normal form, read straight off
the int row keys: the rows are bucketed by radial part, the few buckets
sorted by (parity sector, a, b) and each bucket's rows by (monomial,
blade).  Each coefficient, an ``int`` numerator over the shared
denominator, is brought to lowest terms by one gcd, and the text of each
monomial, blade and (r, rho) power is built once per call.
"""

from __future__ import annotations

import json
from math import gcd

from .bivariate import BivariateRadial
from .clifford import Multivector, blade_text
from .radial import RadialExpr
from .sparse import Memo

STYLES = ("plain", "json", "latex")

# The separator between the factors of a term, per text style.
_SEP = {"plain": "*", "latex": r"\,"}


def _check_style(style: str) -> None:
    if style not in STYLES:
        raise ValueError(f"unknown style {style!r}; expected one of {STYLES}")


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


def _json_terms(f: RadialExpr) -> list[dict]:
    """The JSON terms of an expression, its radial exponents under "r" and "rho"."""
    names = f.frame.coord_names()
    mono_items = Memo(lambda mono: [(names[i], e) for i, e in enumerate(mono) if e])
    buckets, den = f.display_order()
    out = []
    for a, b, rows in buckets:
        for mono, blade, c in rows:
            g = gcd(c, den)
            out.append({"mono": dict(mono_items[mono]), "blade": list(blade),
                        "coeff": {"num": c // g, "den": den // g}, "r": a, "rho": b})
    return out


def format_expression(f: RadialExpr, style: str = "plain") -> str:
    """Render an expression; the plain style round-trips through the parser."""
    _check_style(style)
    if style == "json":
        return json.dumps(_json_terms(f), separators=(",", ":"))
    buckets, den = f.display_order()
    if not buckets:
        return "0"
    frame, sep = f.frame, _SEP[style]
    names = frame.coord_names() if style == "plain" else [_latex_coord(n) for n in frame.coord_names()]
    mono_text = Memo(lambda mono: sep.join(_power(names[i], e, style) for i, e in enumerate(mono) if e))
    blade_text_ = Memo(lambda blade: _blade_text(blade, frame.m, style))
    parts = []
    for a, b, rows in buckets:
        radial = _radial_text(a, b, style)
        for mono, blade, c in rows:
            body = sep.join(filter(None, (mono_text[mono], blade_text_[blade], radial)))
            parts.append(_signed(c, den, body, style))
    return _join_signed(parts)


def expression_json_object(f: RadialExpr) -> dict:
    """CLI wire form: frame header plus the terms of ``format_expression``'s JSON."""
    frame = f.frame
    return {
        "frame": {"p": frame.p, "q": frame.q, "scalar_axis": frame.scalar_axis},
        "terms": _json_terms(f),
    }


def format_bivariate(h: BivariateRadial, style: str = "plain") -> str:
    _check_style(style)
    items = h.items()
    if style == "json":
        return json.dumps(
            [{"coeff": {"num": c.numerator, "den": c.denominator}, "r": a, "rho": b}
             for (a, b), c in items],
            separators=(",", ":"))
    if not items:
        return "0"
    return _join_signed([_signed(c.numerator, c.denominator, _radial_text(a, b, style), style)
                         for (a, b), c in items])


def format_multivector(mv: Multivector, style: str = "plain") -> str:
    _check_style(style)
    items = sorted(mv.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
    if style == "json":
        return json.dumps(
            [{"blade": list(b), "coeff": {"num": c.numerator, "den": c.denominator}} for b, c in items],
            separators=(",", ":"))
    if not items:
        return "0"
    return _join_signed([_signed(c.numerator, c.denominator, _blade_text(blade, mv.dim, style), style)
                         for blade, c in items])


def format_components(comp, style: str = "plain") -> str:
    """Factored biaxial form with the unit vectors written explicitly."""
    first = format_bivariate(comp.first, style)
    second = format_bivariate(comp.second, style)
    if style == "latex":
        if comp.kind == "plus":
            return (rf"\bigl({first} + \underline{{\omega}}\,\underline{{\nu}}\,({second})\bigr)"
                    r"P_k(\underline{x})P_\ell(\underline{y})")
        return (rf"\bigl(\underline{{\omega}}\,({first}) + \underline{{\nu}}\,({second})\bigr)"
                r"P_k(\underline{x})P_\ell(\underline{y})")
    if comp.kind == "plus":
        return f"(({first}) + omega*nu*({second}))*Pk*Pl"
    return f"(omega*({first}) + nu*({second}))*Pk*Pl"
