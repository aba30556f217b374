import json
import random
from fractions import Fraction
from math import gcd

import pytest

from fueterkit.bivariate import BivariateRadial
from fueterkit.clifford import Multivector
from fueterkit.formatting import (
    expression_json_object,
    format_bivariate,
    format_expression,
    format_multivector,
)
from fueterkit.frame import AxisFrame
from fueterkit.parsing import parse_expression, parse_seed
from fueterkit.radial import RadialExpr, partial_derivative
from fueterkit.seeds import ComplexBivarPoly

F33 = AxisFrame(3, 3)
F55 = AxisFrame(5, 5)


class TestExpressionStyles:
    def test_zero_forms(self):
        zero = RadialExpr.zero(F33)
        assert format_expression(zero, "plain") == "0"
        assert format_expression(zero, "json") == "[]"
        assert format_expression(zero, "latex") == "0"

    def test_plain_term_shape(self):
        expr = parse_expression("3/2*x1^2*e12*r^-3", F33)
        assert format_expression(expr) == "3/2*x1^2*e12*r^-3"

    def test_explicit_radial_exponents(self):
        expr = parse_expression("r^-1*rho^-1*x1*y1*e14", F33)
        text = format_expression(expr)
        assert "r^-1" in text and "rho^-1" in text

    def test_json_array_schema(self):
        expr = parse_expression("x1*e1*r^-1", F33)
        data = json.loads(format_expression(expr, "json"))
        assert data == [{"mono": {"x1": 1}, "blade": [1],
                         "coeff": {"num": 1, "den": 1}, "r": -1, "rho": 0}]

    def test_json_object_schema(self):
        expr = parse_expression("x1*e1*r^-1", F33)
        obj = expression_json_object(expr)
        assert obj["frame"] == {"p": 3, "q": 3, "scalar_axis": False}
        assert obj["terms"][0]["r"] == -1 and obj["terms"][0]["rho"] == 0

    def test_latex_symbols(self):
        expr = parse_expression("3/2*x1*rho^-2*e12", F33)
        text = format_expression(expr, "latex")
        assert r"\frac{3}{2}" in text and r"\rho^{-2}" in text and "e_{12}" in text

    def test_deterministic_ordering(self):
        a = parse_expression("x1 + y1*rho^-1 + e12*r^2", F33)
        b = parse_expression("e12*r^2 + y1*rho^-1 + x1", F33)
        assert format_expression(a) == format_expression(b)

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            format_expression(RadialExpr.zero(F33), "html")

    def test_plain_reparses(self):
        expr = parse_expression("-2*x1*x2*e13*r^-5*rho + 7*y2^2 - 1/3", F33)
        assert parse_expression(format_expression(expr), F33) == expr

    def test_numerators_sharing_a_factor_with_the_denominator(self):
        # The derivative keeps the denominator 2 over the numerator 2, so the
        # printers must reduce the coefficient 2/2 to 1 (and 3*2/2 to 3).
        expr = partial_derivative(parse_expression("1/2*x1^2 + 3/2*x1^2*y1*e14", F33), "x1")
        assert expr.display_order()[1] == 2
        assert format_expression(expr) == "x1 + 3*x1*y1*e14"
        assert format_expression(expr, "latex") == r"x_{1} + 3\,x_{1}\,y_{1}\,e_{14}"
        coeffs = [term["coeff"] for term in json.loads(format_expression(expr, "json"))]
        assert coeffs == [{"num": 1, "den": 1}, {"num": 3, "den": 1}]

    def test_wide_blades_and_fractions(self):
        frame = AxisFrame(5, 5)
        expr = parse_expression("-5/6*x1*e{1,10}*r^-3 + 7/4*y4^3*e{10}*rho^-1", frame)
        assert format_expression(expr) == "7/4*y4^3*e{10}*rho^-1 - 5/6*x1*e{1,10}*r^-3"
        assert format_expression(expr, "latex") == (
            r"\frac{7}{4}\,y_{4}^{3}\,e_{10}\,\rho^{-1} - \frac{5}{6}\,x_{1}\,e_{1,10}\,r^{-3}")


def _random_expression(rng, frame):
    """A derivative of random terms: negative and odd radial powers, x_p
    and y_q squares for the normal form to rewrite, blades whose masks sort
    differently from their tuples (e{1,m} against e2), and numerators that
    share a factor with the kept denominator."""
    m = frame.m
    blades = [(), (2,), (1, m), (1, 2), (m,), (2, m - 1), (1, 2, m)]
    terms = []
    for _ in range(rng.randint(2, 8)):
        mono = tuple(rng.randint(0, 3) for _ in range(frame.ncoords))
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        for blade in rng.sample(blades, rng.randint(1, 3)):
            terms.append(((mono, blade, a, b), Fraction(rng.randint(-5, 5) or 1, rng.choice((1, 2, 6)))))
    return partial_derivative(RadialExpr(frame, terms), rng.choice(frame.coord_names()))


def _joined(texts):
    """Single-term texts joined the way the printers join signed terms."""
    if not texts:
        return "0"
    return texts[0] + "".join(f" - {t[1:]}" if t.startswith("-") else f" + {t}" for t in texts[1:])


class TestDisplayOrder:
    """Every printer emits the normal form's terms sorted by
    (a&1, b&1, a, b, monomial, blade)."""

    @pytest.mark.parametrize("frame", [F33, F55], ids=["3,3", "5,5"])
    def test_terms_come_in_sector_order(self, frame):
        rng = random.Random(1700 + frame.m)
        names = frame.coord_names()
        for _ in range(25):
            expr = _random_expression(rng, frame)
            want = sorted(expr.canonical_terms().items(),
                          key=lambda kv: (kv[0][2] & 1, kv[0][3] & 1, kv[0][2], kv[0][3], kv[0][0], kv[0][1]))
            terms = json.loads(format_expression(expr, "json"))
            assert terms == expression_json_object(expr)["terms"]
            assert all(t["coeff"]["den"] > 0 and gcd(t["coeff"]["num"], t["coeff"]["den"]) == 1 for t in terms)
            got = [((tuple(t["mono"].get(name, 0) for name in names), tuple(t["blade"]), t["r"], t["rho"]),
                    Fraction(t["coeff"]["num"], t["coeff"]["den"])) for t in terms]
            assert got == want
            for style in ("plain", "latex"):
                singles = [format_expression(RadialExpr(frame, [term]), style) for term in want]
                assert format_expression(expr, style) == _joined(singles)


class TestBivariateAndMultivector:
    def test_bivariate_plain(self):
        h = BivariateRadial({(2, 0): Fraction(5), (0, -3): Fraction(-1, 2)})
        assert format_bivariate(h) == "-1/2*rho^-3 + 5*r^2"

    def test_bivariate_json(self):
        h = BivariateRadial({(1, 0): 2})
        assert json.loads(format_bivariate(h, "json")) == [
            {"coeff": {"num": 2, "den": 1}, "r": 1, "rho": 0}]

    def test_multivector_plain(self):
        mv = Multivector(3, {(): 1, (1, 2): Fraction(-1, 2)})
        assert format_multivector(mv) == "1 - 1/2*e12"

    def test_multivector_large_dim_blades(self):
        mv = Multivector(11, {(1, 11): 1})
        assert format_multivector(mv) == "e{1,11}"

    def test_bivariate_latex(self):
        h = BivariateRadial({(2, 0): Fraction(5), (0, -3): Fraction(-1, 2), (0, 0): 1, (1, 1): -1})
        assert format_bivariate(h, "latex") == r"-\frac{1}{2}\,\rho^{-3} + 1 - r\,\rho + 5\,r^{2}"
        assert format_bivariate(BivariateRadial.zero(), "latex") == "0"

    def test_multivector_latex(self):
        mv = Multivector(11, {(1, 11): Fraction(3, 4), (2,): -1, (): 2})
        assert format_multivector(mv, "latex") == r"2 - e_{2} + \frac{3}{4}\,e_{1,11}"
        assert format_multivector(Multivector(3, {(1, 2): -1}), "latex") == "-e_{12}"

    def test_multivector_json(self):
        mv = Multivector(3, {(1, 2): Fraction(-1, 2), (3,): 4, (): 1})
        assert json.loads(format_multivector(mv, "json")) == [
            {"blade": [], "coeff": {"num": 1, "den": 1}},
            {"blade": [3], "coeff": {"num": 4, "den": 1}},
            {"blade": [1, 2], "coeff": {"num": -1, "den": 2}}]
        assert format_multivector(Multivector(3), "json") == "[]"

    # (value, repr): zero, scalar only, a leading negative term
    @pytest.mark.parametrize("value, text", [
        (Multivector(3), "Multivector(0)"),
        (Multivector.scalar(Fraction(-3, 2), 3), "Multivector(-3/2)"),
        (Multivector(3, {(): 2, (1, 2): -1}), "Multivector(2 - e12)"),
        (Multivector(3, {(1,): -1, (2, 3): Fraction(1, 3)}), "Multivector(-e1 + 1/3*e23)"),
        (BivariateRadial.zero(), "BivariateRadial(0)"),
        (BivariateRadial.constant(7), "BivariateRadial(7)"),
        (BivariateRadial({(0, 0): -1, (2, -1): 3}), "BivariateRadial(-1 + 3*r^2*rho^-1)"),
        (BivariateRadial({(-1, 0): Fraction(-1, 2), (1, 0): 1}), "BivariateRadial(-1/2*r^-1 + r)"),
        (ComplexBivarPoly(), "ComplexBivarPoly(0)"),
        (ComplexBivarPoly.constant(Fraction(5, 2)), "ComplexBivarPoly(5/2)"),
        (ComplexBivarPoly({(0, 1, ()): -1, (2, 0, ()): Fraction(1, 3)}), "ComplexBivarPoly(-y + 1/3*x^2)"),
        (ComplexBivarPoly.zbar() ** 3, "ComplexBivarPoly(i*y^3 - 3*x*y^2 - 3*i*x^2*y + x^3)"),
    ], ids=["mv-zero", "mv-scalar", "mv-leading-scalar", "mv-leading-negative",
            "h-zero", "h-scalar", "h-leading-constant", "h-leading-negative",
            "w-zero", "w-real", "w-leading-negative", "w-with-i"])
    def test_reprs_print_through_the_plain_writer(self, value, text):
        assert repr(value) == text
        if isinstance(value, ComplexBivarPoly):
            assert parse_seed(text[len("ComplexBivarPoly("):-1]) == value
