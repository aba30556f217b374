"""Deterministic pretty printers: plain text, JSON, LaTeX.

Each printer passes its terms, in its own print order, to the one term
writer ``_write`` as a table (monomials, blades, buckets) over one
denominator: a bucket is (radial part or None, [(rank, numerator)]), and
a row's rank is monomial index * len(blades) + blade index, so one int
names its (monomial, blade) pair.  A label is None where the printed
class has no such part.  Expressions come in ``RadialExpr.display_order``
(buckets by (parity sector, a, b), ranks by sorted (monomial, blade)),
Laurent scalars by (a, b), multivectors by (grade, blade) and seeds by
(i, j, mask), a seed's monomial being i^mask x^i y^j, so equal values
print identically.  The text of each monomial and of each blade is built
once per call, of each (monomial, blade) pair once per rank and of each
radial part once per bucket; a term is then written in one step, its sign,
its coefficient reduced by one gcd (left out when it is 1 and the body is
not empty), its pair text and its radial text.  JSON keys a term mono,
blade, coeff, r, rho, as far as the class has them.  The plain form
reparses to an equal value while every coefficient has at most 4300
digits, the grammar's literal bound.
"""

from __future__ import annotations

import json
from math import gcd
from typing import Sequence

from .bivariate import BivariateRadial
from .clifford import Multivector, blade_text, mask_blade
from .radial import RadialExpr

STYLES = ("plain", "json", "latex")

# The separator between the factors of a term, per text style.
_SEP = {"plain": "*", "latex": r"\,"}


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


def _write(table, den: int, style: str, dim: int = 0, names: Sequence[str] = ()) -> str | list[dict]:
    """The one term writer (module docstring): the text of the terms of
    ``table`` = (monomials, blades, buckets), or for the json style the
    list of their term objects.  ``dim`` is the blades' algebra dimension
    and ``names`` the coordinate names."""
    if style not in STYLES:
        raise ValueError(f"unknown style {style!r}; expected one of {STYLES}")
    monos, blades, buckets = table
    width = len(blades)
    if style == "json":
        mono_items = [None if mono is None else [(names[i], e) for i, e in enumerate(mono) if e] for mono in monos]
        out = []
        for radial, rows in buckets:
            tail = {} if radial is None else {"r": radial[0], "rho": radial[1]}
            for rank, c in rows:
                mono, blade = divmod(rank, width)
                items, blade = mono_items[mono], blades[blade]
                term = {} if items is None else {"mono": dict(items)}
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
    mono_texts = ["" if mono is None else sep.join(_power(names[i], e, style) for i, e in enumerate(mono) if e)
                  for mono in monos]
    blade_texts = ["" if blade is None else _blade_text(blade, dim, style) for blade in blades]
    pair_texts: dict[int, str] = {}
    parts = []
    for radial, rows in buckets:
        radial_text = "" if radial is None else _radial_text(*radial, style)
        suffix = f"{sep}{radial_text}" if radial_text else ""
        for rank, c in rows:
            head = pair_texts.get(rank)
            if head is None:
                mono, blade = divmod(rank, width)
                mono, blade = mono_texts[mono], blade_texts[blade]
                head = pair_texts[rank] = f"{mono}{sep}{blade}" if mono and blade else mono or blade
            tail = suffix
            if not head:
                head, tail = radial_text, ""
            sign = " - " if c < 0 else " + "
            mag = abs(c)
            if mag == den and head:
                parts.append(f"{sign}{head}{tail}")
                continue
            if den != 1:
                g = gcd(mag, den)
                mag, d = mag // g, den // g
                if d != 1:
                    mag = f"{mag}/{d}" if style == "plain" else rf"\frac{{{mag}}}{{{d}}}"
            parts.append(f"{sign}{mag}{sep}{head}{tail}" if head else f"{sign}{mag}")
    if not parts:
        return "0"
    text = "".join(parts)
    return f"-{text[3:]}" if text[1] == "-" else text[3:]


def _printed(table, den: int, style: str, dim: int = 0, names: Sequence[str] = ()) -> str:
    out = _write(table, den, style, dim, names)
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
    return _printed(([None], [None], [(ab, [(0, c)]) for ab, c in sorted(h._terms.items())]), h._den, style)


def format_multivector(mv: Multivector, style: str = "plain") -> str:
    order = sorted(((mask_blade(mask), c) for mask, c in mv._terms.items()), key=lambda row: (len(row[0]), row[0]))
    rows = [(i, c) for i, (_blade, c) in enumerate(order)]
    return _printed(([None], [blade for blade, _c in order], [(None, rows)]), mv._den, style, mv.dim)
