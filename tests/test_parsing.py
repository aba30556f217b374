import random
import re
import sys
from fractions import Fraction

import pytest

from fueterkit.bivariate import BivariateRadial
from fueterkit.cli import main
from fueterkit.errors import ParseError
from fueterkit.formatting import format_expression
from fueterkit.frame import AxisFrame
from fueterkit.fueter import apply_map
from fueterkit.parsing import MAX_DEPTH, parse_bivariate, parse_expression, parse_seed, parse_vector
from fueterkit.radial import RadialExpr, inner_x
from fueterkit.seeds import ComplexBivarPoly, conj_power

F33 = AxisFrame(3, 3)


class TestExpressionGrammar:
    def test_two_term_expression(self):
        expr = parse_expression("x1^2 + 3/2*e1*e2", F33)
        terms = expr.canonical_terms()
        assert len(terms) == 2
        e12_key = next(k for k in terms if k[1] == (1, 2))
        assert terms[e12_key] == Fraction(3, 2)

    def test_inner_product_power(self):
        expr = parse_expression("ip(x,t)^2", F33, {"t": [Fraction(1), Fraction(0), Fraction(0)]})
        want = parse_expression("x1^2", F33)
        assert expr == want

    def test_a_factor_is_kept_as_built(self):
        """The parser returns the product the grammar builds: ip(x,t)^2
        keeps its x3^2 row, whose normal form rewrites it, and the factor
        equals, prints and maps as its canonicalized form."""
        t = [Fraction(1), Fraction(-2), Fraction(1, 2)]
        built = parse_expression("ip(x,t)^2", F33, {"t": t})
        x3 = F33.coord_index("x3")
        assert any(mono[x3] == 2 for mono in built._terms)
        canonical = built.canonicalized()
        assert all(mono[x3] < 2 for mono in canonical._terms)
        assert built == canonical and format_expression(built) == format_expression(canonical)
        hl = parse_expression("y1", F33)
        for seed, variant in ((conj_power(7), "plus"), (conj_power(6), "minus")):
            got, want = (apply_map(seed, hk, hl, F33, variant) for hk in (built, canonical))
            assert (got._terms, got._den) == (want._terms, want._den)

    def test_laurent_term(self):
        expr = parse_expression("r^-3 * x1", F33)
        ((mono, blade, a, b),) = list(expr.canonical_terms())
        assert a == -3 and b == 0 and blade == ()

    def test_rho_and_coordinates(self):
        expr = parse_expression("2*rho^2*y1 - y1*rho^2", F33)
        assert expr == parse_expression("y1*rho^2", F33)

    def test_unary_minus(self):
        assert parse_expression("-x1 + x1", F33).is_zero()

    def test_parenthesized_power(self):
        expr = parse_expression("(x1 + y1)^2", F33)
        want = parse_expression("x1^2 + 2*x1*y1 + y1^2", F33)
        assert expr == want

    def test_braced_blade(self):
        frame = AxisFrame(7, 5)
        expr = parse_expression("e{1,12}", frame)
        ((_, blade, _, _),) = list(expr.canonical_terms())
        assert blade == (1, 12)

    def test_scalar_axis_coordinate(self):
        frame = AxisFrame(3, 0, scalar_axis=True)
        expr = parse_expression("X0^2 - r^2", frame)
        assert not expr.is_zero()


class TestExpressionErrors:
    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("x1 + + ?", F33)
        assert "column" in str(err.value)

    def test_unbound_vector(self):
        with pytest.raises(ParseError, match="unbound vector"):
            parse_expression("ip(x,t)", F33)

    def test_coordinate_out_of_range(self):
        with pytest.raises(ParseError):
            parse_expression("x7", F33)

    @pytest.mark.parametrize("text, column, message", [
        ("x01", 0, "unknown coordinate 'x01'"),
        ("x1*y002", 3, "unknown coordinate 'y002'"),
        ("e{01,2}", 2, "blade index '01' has a leading zero"),
        ("x1*e{1,002}", 7, "blade index '002' has a leading zero"),
    ])
    def test_leading_zeros_are_no_aliases(self, capsys, text, column, message):
        with pytest.raises(ParseError, match=message) as err:
            parse_expression(text, F33)
        assert err.value.position == column
        # the CLI reports it as one stderr line with exit code 2
        assert main(["check-monogenic", "--p", "3", "--q", "3", "--expr", text]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"parse error: {err.value}\n")

    def test_coordinate_digits_are_those_of_the_index(self):
        # One coordinate table: X0 when present, then x1..xp, then y1..yq.
        for frame in (F33, AxisFrame(1, 3), AxisFrame(3, 0, scalar_axis=True), AxisFrame(4, 7)):
            head = ["X0"] if frame.scalar_axis else []
            names = head + [f"x{j}" for j in range(1, frame.p + 1)] + [f"y{j}" for j in range(1, frame.q + 1)]
            assert frame.coord_names() == names and frame.ncoords == len(names)
            for i, name in enumerate(names):
                assert frame.coord_name(i) == name and frame.coord_index(name) == i
            assert [frame.coord_name(i) for i in frame.x_indices] == names[len(head):len(head) + frame.p]
            assert [frame.coord_name(i) for i in frame.y_indices] == names[len(head) + frame.p:]
            assert [frame.generator_of(i) for i in (*frame.x_indices, *frame.y_indices)] == list(range(1, frame.m + 1))
            for index in (-1, len(names)):
                with pytest.raises(ValueError, match=f"coordinate index {index} out of range"):
                    frame.coord_name(index)
            # y{q+1} is y1 at q = 0
            for name in ("x01", "y03", "x\u0661", "x", "x+1", "x0", f"x{frame.p + 1}", f"y{frame.q + 1}"):
                message = f"unknown coordinate {name!r} for frame p={frame.p}, q={frame.q}"
                with pytest.raises(ValueError, match=re.escape(message)):
                    frame.coord_index(name)
            if frame.scalar_axis:
                with pytest.raises(ValueError, match="X0 has no Clifford generator"):
                    frame.generator_of(0)
            else:
                with pytest.raises(ValueError, match="frame has no scalar axis X0"):
                    frame.coord_index("X0")

    def test_rho_in_single_axis_frame(self):
        with pytest.raises(ParseError):
            parse_expression("rho", AxisFrame(3, 0))

    def test_negative_power_on_coordinate(self):
        with pytest.raises(ParseError):
            parse_expression("x1^-1", F33)

    def test_blade_out_of_range(self):
        with pytest.raises(ParseError):
            parse_expression("e7", F33)

    def test_decreasing_blade(self):
        with pytest.raises(ParseError):
            parse_expression("e21", F33)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expression("x1 x2", F33)

    def test_malformed_blade_name(self):
        with pytest.raises(ParseError, match="invalid blade name 'e1x1'") as err:
            parse_expression("y1 + e1x1{2}", F33)
        assert err.value.position == 5

    def test_non_ascii_digits_are_unexpected_characters(self):
        for text, column in (("\u00b2", 0), ("2\u00b2", 1)):
            with pytest.raises(ParseError, match="unexpected character") as err:
                parse_expression(text, F33)
            assert err.value.position == column

    def test_nesting_depth_is_bounded_in_every_grammar(self):
        for parse, atom in ((lambda t: parse_expression(t, F33), "x1"), (parse_seed, "zbar"),
                            (parse_bivariate, "r")):
            parse("(" * MAX_DEPTH + atom + ")" * MAX_DEPTH)
            for depth in (MAX_DEPTH + 1, 3000):
                with pytest.raises(ParseError, match="nested deeper"):
                    parse("(" * depth + atom + ")" * depth)


# Each grammar with the atom that stands for "A" in the skeleton tables,
# its value, and the grammar's constant.
GRAMMARS = [
    pytest.param(lambda t: parse_expression(t, F33, {"t": [1, 2, -1]}), "ip(x,t)", inner_x(F33, [1, 2, -1]),
                 lambda c: RadialExpr.scalar(F33, c), id="expression"),
    pytest.param(parse_seed, "zbar", ComplexBivarPoly.zbar(), ComplexBivarPoly.constant, id="seed"),
    pytest.param(parse_bivariate, "rho", BivariateRadial.monomial(0, 1), BivariateRadial.constant, id="bivariate"),
]

# (input with "A" for the atom, the value built from the atom a and the constant c)
SKELETON_VALUES = [
    ("-A", lambda a, c: c(-1) * a),
    ("+A - 2*A + 3*A", lambda a, c: c(2) * a),
    ("A*A*2", lambda a, c: a * a * c(2)),
    ("(A + 1)*(A - 1)", lambda a, c: a * a - c(1)),
    ("((A))", lambda a, c: a),
    ("2^3*A", lambda a, c: c(8) * a),
    ("(A + 2)^2", lambda a, c: a * a + c(4) * a + c(4)),
    ("-(A - 1/2)^3", lambda a, c: c(-1) * (a - c(Fraction(1, 2))) * (a - c(Fraction(1, 2))) * (a - c(Fraction(1, 2)))),
    ("(A)^0 + 0^0", lambda a, c: c(2)),
    ("A^2 - A*A", lambda a, c: c(0)),
    ("3/4*A - 1/4", lambda a, c: c(Fraction(3, 4)) * a - c(Fraction(1, 4))),
]

# (input with "A" for the atom, its error column given the atom's length n, message)
SKELETON_ERRORS = [
    ("2/0", lambda n: 2, "zero denominator"),
    ("", lambda n: 0, "unexpected token 'end of input'"),
    ("+-A", lambda n: 1, "unexpected token '-'"),
    ("A - -1", lambda n: n + 3, "unexpected token '-'"),
    ("A^", lambda n: n + 1, "expected 'num'"),
    ("(A", lambda n: n + 1, "expected '\\)'"),
    ("A)", lambda n: n, "unexpected trailing input '\\)'"),
    ("A^2^3", lambda n: n + 2, "unexpected trailing input '\\^'"),
    ("2*A^2^3", lambda n: n + 4, "unexpected trailing input '\\^'"),
    ("(A)^-1", lambda n: 0, "negative exponent -1"),
    ("A + (2*A)^-2", lambda n: n + 3, "negative exponent -2"),
    ("2^-1", lambda n: 0, "negative exponent -1"),
    ("(" * (MAX_DEPTH + 1) + "A" + ")" * (MAX_DEPTH + 1), lambda n: MAX_DEPTH, "nested deeper"),
]


# Blades that Multivector.blade rejects at m = 3, each at column 4 of its text.
BAD_BLADES = [
    ("x1*e21", "blade indices must be strictly increasing: (2, 1)"),
    ("x1*e4", "blade index 4 exceeds algebra dimension 3"),
    ("x1*e{1,4}", "blade index 4 exceeds algebra dimension 3"),
    ("x1*e{2,1}", "blade indices must be strictly increasing: (2, 1)"),
    ("x1*e0", "blade index 0 is invalid"),
    ("x1*e{0,1}", "blade index 0 is invalid"),
]


@pytest.mark.parametrize("text, message", BAD_BLADES, ids=[text for text, _ in BAD_BLADES])
def test_a_bad_blade_is_a_parse_error_at_its_atom(capsys, text, message):
    with pytest.raises(ParseError) as err:
        parse_expression(text, AxisFrame(2, 1))
    assert str(err.value) == f"{message} (at column 4)" and err.value.position == 3
    # the CLI reports it as one stderr line with exit code 2
    assert main(["check-monogenic", "--p", "2", "--q", "1", "--expr", text]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"parse error: {message} (at column 4)\n")


class TestSharedSkeleton:
    """The skeleton inputs give the same results in all three grammars."""

    @pytest.mark.parametrize("parse, atom, value, const", GRAMMARS)
    @pytest.mark.parametrize("template, build", SKELETON_VALUES, ids=[t for t, _ in SKELETON_VALUES])
    def test_value(self, parse, atom, value, const, template, build):
        assert parse(template.replace("A", atom)) == build(value, const)

    @pytest.mark.parametrize("parse, atom, value, const", GRAMMARS)
    @pytest.mark.parametrize("template, column, message", SKELETON_ERRORS,
                             ids=[t if len(t) < 20 else "MAX_DEPTH+1" for t, _, _ in SKELETON_ERRORS])
    def test_error(self, parse, atom, value, const, template, column, message):
        with pytest.raises(ParseError, match=message) as err:
            parse(template.replace("A", atom))
        assert err.value.position == column(len(atom))


class TestRoundTrip:
    def _random_expr(self, rng, frame):
        raw = []
        for _ in range(rng.randint(1, 5)):
            mono = tuple(rng.randint(0, 2) if rng.random() < 0.6 else 0
                         for _ in range(frame.ncoords))
            blade = tuple(sorted(rng.sample(range(1, frame.m + 1), rng.randint(0, 2))))
            a = rng.randint(-3, 3)
            b = rng.randint(-3, 3) if frame.q else 0
            coeff = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))
            raw.append(((mono, blade, a, b), coeff))
        return RadialExpr(frame, raw)

    def test_hundred_random_expressions(self):
        rng = random.Random(2024)
        frames = [F33, AxisFrame(3, 5), AxisFrame(5, 3), AxisFrame(1, 1), AxisFrame(2, 0)]
        count = 0
        while count < 100:
            frame = rng.choice(frames)
            expr = self._random_expr(rng, frame)
            text = format_expression(expr)
            back = parse_expression(text, frame)
            assert back == expr, f"round trip failed for {text!r}"
            count += 1

    def test_zero_round_trip(self):
        assert parse_expression("0", F33).is_zero()
        assert format_expression(RadialExpr.zero(F33)) == "0"


class TestSeedGrammar:
    def test_simple_powers(self):
        assert parse_seed("zbar^3") == ComplexBivarPoly.zbar() ** 3
        assert parse_seed("z^2*zbar^5") == ComplexBivarPoly.z() ** 2 * ComplexBivarPoly.zbar() ** 5

    def test_i_coefficient(self):
        assert parse_seed("i*zbar^2") == ComplexBivarPoly.zbar() ** 2 * ComplexBivarPoly.i()

    def test_rational_combination(self):
        got = parse_seed("3/2*zbar^5 - i*zbar^3")
        want = (ComplexBivarPoly.zbar() ** 5 * Fraction(3, 2)
                - ComplexBivarPoly.zbar() ** 3 * ComplexBivarPoly.i())
        assert got == want

    def test_xy_atoms(self):
        got = parse_seed("x^2 - y^2")
        assert got == ComplexBivarPoly({(2, 0, ()): 1, (0, 2, ()): -1})

    def test_seed_errors(self):
        with pytest.raises(ParseError):
            parse_seed("zbar^-1")
        with pytest.raises(ParseError):
            parse_seed("w^2")


class TestBivariateGrammar:
    def test_monomials(self):
        assert parse_bivariate("r^2*rho^-1") == BivariateRadial.monomial(2, -1)
        assert parse_bivariate("r") == BivariateRadial.monomial(1, 0)

    def test_sums(self):
        got = parse_bivariate("5*r^2 + 3*rho^2 - 1")
        assert got == BivariateRadial({(2, 0): 5, (0, 2): 3, (0, 0): -1})

    def test_rejects_coordinates(self):
        with pytest.raises(ParseError):
            parse_bivariate("x1*r")


class TestVectors:
    def test_parse_vector(self):
        assert parse_vector("1,0,-3/2") == [Fraction(1), Fraction(0), Fraction(-3, 2)]

    def test_bad_component(self):
        with pytest.raises(ParseError):
            parse_vector("1,,2")
        with pytest.raises(ParseError):
            parse_vector("1,abc")

    def test_signs_and_spaces(self):
        assert parse_vector(" +1 , -2/4,3 ") == [Fraction(1), Fraction(-1, 2), Fraction(3)]

    # Each text breaks the rule vector := [sign] rational {"," [sign] rational}.
    @pytest.mark.parametrize("text, column, message", [
        ("1.5,2,3", 1, "unexpected character '.'"),
        ("1e3,2,3", 1, "unexpected trailing input 'e3'"),
        ("1e10000000,2,3", 1, "unexpected trailing input 'e10000000'"),
        ("1_0,2,3", 1, "unexpected character '_'"),
        ("1,,3", 2, "expected 'num', found ','"),
        ("1,2,", 4, "expected 'num', found 'end of input'"),
        ("", 0, "expected 'num', found 'end of input'"),
        ("+-1,2,3", 1, "expected 'num', found '-'"),
        ("1/0,2,3", 2, "zero denominator"),
        ("1 2,3", 2, "unexpected trailing input '2'"),
    ], ids=["decimal", "exponent", "huge-exponent", "underscore", "empty-component", "trailing-comma",
            "empty", "two-signs", "zero-denominator", "missing-comma"])
    def test_a_component_is_a_signed_rational(self, text, column, message):
        with pytest.raises(ParseError) as err:
            parse_vector(text)
        assert str(err.value) == f"{message} (at column {column + 1})" and err.value.position == column


class TestNumberRule:
    """Digits are ASCII 0-9, at most sys.int_info.default_max_str_digits to
    a literal, and names are ASCII, in every grammar and in vectors."""

    @pytest.mark.parametrize("parse, atom, value, const", GRAMMARS)
    def test_digit_bound_in_every_grammar(self, parse, atom, value, const):
        limit = sys.int_info.default_max_str_digits
        assert parse(f"{atom} - " + "9" * limit) == value - const(10 ** limit - 1)
        with pytest.raises(ParseError, match=f"^number longer than {limit} digits") as err:
            parse(f"{atom} - " + "9" * (limit + 1))
        assert err.value.position == len(atom) + 3

    def test_digit_bound_in_vectors(self):
        limit = sys.int_info.default_max_str_digits
        assert parse_vector("1,-" + "9" * limit) == [1, 1 - 10 ** limit]
        with pytest.raises(ParseError, match=f"^number longer than {limit} digits") as err:
            parse_vector("1,-" + "9" * (limit + 1))
        assert err.value.position == 3

    @pytest.mark.parametrize("parse, text, column", [
        (lambda t: parse_expression(t, F33), "x\u0661^\u0662 + \u0663/\u0662*y2", 1),
        (lambda t: parse_expression(t, F33), "x1 + x\u00e91", 6),
        (parse_seed, "zbar^\u0663", 5),
        (parse_seed, "\u00e9", 0),
        (parse_bivariate, "r^\uff12", 2),
        (parse_vector, "\u0661,\u0662,3", 0),
    ], ids=["arabic-indic-coordinate", "latin-letter", "arabic-indic-exponent", "latin-atom",
            "fullwidth-exponent", "arabic-indic-vector"])
    def test_non_ascii_digits_and_letters_are_unexpected_characters(self, parse, text, column):
        with pytest.raises(ParseError, match="^unexpected character") as err:
            parse(text)
        assert err.value.position == column
