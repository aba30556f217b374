import dataclasses
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fueterkit import catalog, selfcheck
from fueterkit.cli import _build_parser, main
from fueterkit.errors import ParseError, PreconditionError, ShapeError, VerificationError
from fueterkit.frame import AxisFrame
from fueterkit.fueter import apply_map
from fueterkit.parsing import parse_expression, parse_seed
from fueterkit.seeds import SeedFunction

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv, env=None, monkeypatch=None):
    if env and monkeypatch:
        for key, value in env.items():
            monkeypatch.setenv(key, value)
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestApply:
    def test_reference_invocation(self, capsys):
        code, out, _err = run(capsys, "apply", "--p", "3", "--q", "3", "--variant", "plus",
                              "--seed", "zbar^8", "--Hk", "ip(x,t)", "--Hl", "ip(y,s)",
                              "--t", "1,0,0", "--s", "0,1,0")
        assert code == 0
        assert "1720320*x1*y2" in out

    def test_json_format(self, capsys):
        code, out, _err = run(capsys, "apply", "--p", "3", "--q", "3", "--variant", "plus",
                              "--seed", "zbar^8", "--Hk", "ip(x,t)", "--Hl", "ip(y,s)",
                              "--t", "1,0,0", "--s", "0,1,0", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["frame"] == {"p": 3, "q": 3, "scalar_axis": False}
        assert all({"mono", "blade", "coeff", "r", "rho"} <= set(t) for t in data["terms"])

    def test_parity_violation_exit_code(self, capsys):
        code, _out, err = run(capsys, "apply", "--p", "2", "--q", "3", "--variant", "plus",
                              "--seed", "zbar^4", "--Hk", "x1", "--Hl", "y1")
        assert code == 1
        assert "precondition" in err

    def test_parse_error_exit_code(self, capsys):
        code, _out, err = run(capsys, "apply", "--p", "3", "--q", "3", "--variant", "plus",
                              "--seed", "zbar^4", "--Hk", "x1 +", "--Hl", "y1")
        assert code == 2
        assert "parse error" in err

    def test_seed_order_violation(self, capsys):
        code, _out, _err = run(capsys, "apply", "--p", "3", "--q", "3", "--variant", "plus",
                               "--mu", "0", "--seed", "zbar^5*z",
                               "--Hk", "x1*e1-x2*e2", "--Hl", "y1*e4-y2*e5")
        assert code == 1

    def test_higher_order_with_monogenic_factors(self, capsys):
        code, out, _err = run(capsys, "apply", "--p", "3", "--q", "3", "--variant", "plus",
                              "--seed", "zbar^5*z", "--Hk", "x1*e1-x2*e2", "--Hl", "y1*e4-y2*e5")
        assert code == 0
        assert out.strip() != ""

    def test_non_monogenic_factor_with_positive_mu(self, capsys):
        code, _out, _err = run(capsys, "apply", "--p", "3", "--q", "3", "--variant", "plus",
                               "--seed", "zbar^5*z", "--Hk", "x1", "--Hl", "y1",
                               "--t", "1,0,0")
        assert code == 1

    def test_deterministic_output(self, capsys):
        argv = ("apply", "--p", "3", "--q", "3", "--variant", "minus",
                "--seed", "zbar^9", "--Hk", "ip(x,t)", "--Hl", "ip(y,s)",
                "--t", "1,2,-1", "--s", "1/2,0,3")
        _code, out1, _ = run(capsys, *argv)
        _code, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_parser_is_built_once_per_process(self, capsys):
        argv = ("apply", "--p", "3", "--q", "3", "--variant", "plus",
                "--seed", "zbar^5", "--Hk", "ip(x,t)", "--Hl", "ip(y,s)",
                "--t", "1,2,-1", "--s", "1/2,0,3", "--format", "json")
        _code, first, _ = run(capsys, *argv)
        assert run(capsys, "lemma5", "--h", "r^2", "--n", "1", "--s1", "0", "--s2", "0",
                   "--k", "0", "--l", "0")[:2] == (0, "6\n")
        _code, again, _ = run(capsys, *argv)
        assert first and again == first
        assert _build_parser() is _build_parser()

    def test_negative_leading_component_in_spaced_form(self, capsys):
        apply = ("apply", "--p", "3", "--q", "3", "--variant", "plus")
        vectors = ("--t=1,2,-1", "--s=1/2,0,3")
        # (argv before, option, value starting with "-", argv after)
        table = [
            (apply + ("--seed", "zbar^5", "--Hk", "ip(x,t)", "--Hl", "ip(y,s)"), "--t", "-1,2,2",
             ("--s", "1/2,0,3")),
            (apply + ("--seed", "zbar^5", "--Hk", "ip(x,t)", "--Hl", "ip(y,s)", "--t", "1,2,2"), "--s",
             "-1/2,0,3", ()),
            (apply, "--seed", "-zbar^5", ("--Hk", "ip(x,t)", "--Hl", "ip(y,s)") + vectors),
            (apply + ("--seed", "zbar^5"), "--Hk", "-ip(x,t)", ("--Hl", "ip(y,s)") + vectors),
            (apply + ("--seed", "zbar^5", "--Hk", "ip(x,t)"), "--Hl", "-ip(y,s)", vectors),
            (("check-monogenic", "--p", "3", "--q", "3"), "--expr", "-x1*e1 + x2*e2", ()),
            (("check-monogenic", "--p", "3", "--q", "3"), "--expr", "-x1", ()),
            (("fischer", "--p", "3"), "--H", "-ip(x,t)^2", ("--t", "1,2,-1")),
            (("lemma5", "--n", "1", "--s1", "0", "--s2", "0", "--k", "0", "--l", "0"), "--h", "-r^2", ()),
        ]
        for before, option, value, after in table:
            code, spaced, err = run(capsys, *before, option, value, *after)
            assert code == 0 and spaced.strip(), (option, value, err)
            code, joined, _err = run(capsys, *before, f"{option}={value}", *after)
            assert code == 0 and joined == spaced, (option, value)

    @pytest.mark.parametrize("mu", ["abc", "1.5", "-1"])
    def test_mu_outside_its_help_exits_2(self, capsys, mu):
        code, out, err = run(capsys, "apply", "--p", "3", "--q", "3", "--variant", "plus", "--mu", mu,
                             "--seed", "zbar^5", "--Hk", "x1", "--Hl", "y1")
        assert code == 2
        assert out == ""
        assert err == f"parse error: argument --mu: expected auto or a nonnegative integer, got '{mu}'\n"

    def test_missing_option_value_still_exits_2(self, capsys):
        code, _out, err = run(capsys, "apply", "--p", "3", "--q", "3", "--variant", "plus",
                              "--seed", "--Hk", "x1", "--Hl", "y1")
        assert code == 2
        assert err == "parse error: argument --seed: expected one argument\n"

    def test_random_vectors_seeded(self, capsys, monkeypatch):
        argv = ("apply", "--p", "3", "--q", "3", "--variant", "plus",
                "--seed", "zbar^5", "--Hk", "ip(x,t)", "--Hl", "ip(y,s)",
                "--t", "random", "--s", "random")
        monkeypatch.setenv("FUETER_SEED", "42")
        code, out1, err1 = run(capsys, *argv)
        assert code == 0
        assert "# rng-seed: 42" in err1
        code, out2, _err = run(capsys, *argv)
        assert out1 == out2


class TestCheckMonogenic:
    def test_true(self, capsys):
        code, out, _ = run(capsys, "check-monogenic", "--p", "3", "--q", "3",
                           "--expr", "x1*e1 - x2*e2")
        assert code == 0 and out.strip() == "true"

    def test_false(self, capsys):
        code, out, _ = run(capsys, "check-monogenic", "--p", "3", "--q", "3",
                           "--expr", "x1*e1 + x2*e2")
        assert code == 0 and out.strip() == "false"

    def test_scope_flag(self, capsys):
        code, out, _ = run(capsys, "check-monogenic", "--p", "3", "--q", "3",
                           "--expr", "y1*e4 - y2*e5", "--scope", "second-group")
        assert code == 0 and out.strip() == "true"

    def test_second_group_scope_without_second_group(self, capsys):
        code, out, err = run(capsys, "check-monogenic", "--p", "3", "--q", "0",
                             "--scope", "second-group", "--expr", "x1")
        assert (code, out) == (1, "")
        assert err.startswith("precondition violation:") and err.count("\n") == 1

    def test_cauchy_riemann_scope(self, capsys):
        code, out, _ = run(capsys, "check-monogenic", "--p", "3", "--q", "0",
                           "--scalar-axis", "--scope", "cauchy-riemann",
                           "--expr", "-12*X0 - 4*x1*e1 - 4*x2*e2 - 4*x3*e3")
        assert code == 0 and out.strip() == "true"


class TestExponentLimit:
    @pytest.mark.parametrize("expr", [
        "x3^1180591620717411303424*e1",
        "y3^1180591620717411303424*e4",
        "r^-1180591620717411303424*x1*e1",
        "rho^1180591620717411303424",
    ])
    def test_radial_exponent_beyond_the_limit_exits_1(self, capsys, expr):
        # The first two once hung (a power loop, then a huge rewrite); the
        # last two printed "false".
        start = time.perf_counter()
        code, out, err = run(capsys, "check-monogenic", "--p", "3", "--q", "3", "--expr", expr)
        assert time.perf_counter() - start < 2
        assert (code, out) == (1, "")
        assert err.startswith("precondition violation: radial exponent ") and err.count("\n") == 1
        assert "1180591620717411303424 is beyond the limit |e| <= 2^62" in err

    def test_a_power_of_one_row_past_the_limit_exits_1(self, capsys):
        code, out, err = run(capsys, "check-monogenic", "--p", "3", "--q", "3",
                             "--expr", "(r^2)^4611686018427387904")
        assert (code, out) == (1, "")
        assert err == ("precondition violation: radial exponent 9223372036854775808 "
                       "is beyond the limit |e| <= 2^62\n")

    def test_a_huge_power_below_the_rewrite_stays_exact(self, capsys):
        code, out, _ = run(capsys, "check-monogenic", "--p", "3", "--q", "3",
                           "--expr", "x1^1180591620717411303424*e1")
        assert (code, out.strip()) == (0, "false")


class TestFischer:
    def test_linear_example(self, capsys):
        code, out, _ = run(capsys, "fischer", "--p", "3", "--H", "x1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n=0:") and lines[1].startswith("n=1:")
        assert "-1/3*e1" in lines[1]

    def test_json_terms_use_the_radial_keys(self, capsys):
        code, out, _ = run(capsys, "fischer", "--p", "3", "--H", "x1", "--format", "json")
        assert code == 0
        layers = [json.loads(line.split(": ", 1)[1]) for line in out.splitlines()]
        assert layers[1] == [{"mono": {}, "blade": [1], "coeff": {"num": -1, "den": 3}, "r": 0, "rho": 0}]

    def test_inner_product_factor(self, capsys):
        code, out, _ = run(capsys, "fischer", "--p", "5", "--H", "ip(x,t)^2",
                           "--t", "1,0,2,0,1")
        assert code == 0
        assert len(out.strip().splitlines()) == 3


class TestExpansionCommand:
    def test_reference_value(self, capsys):
        code, out, _ = run(capsys, "lemma5", "--h", "r^2", "--n", "1",
                           "--s1", "0", "--s2", "0", "--k", "0", "--l", "0")
        assert code == 0 and out.strip() == "6"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "lemma5", "--h", "r^2+rho^2", "--n", "1",
                           "--s1", "0", "--s2", "0", "--k", "0", "--l", "0",
                           "--format", "json")
        assert code == 0
        assert json.loads(out) == [{"coeff": {"num": 12, "den": 1}, "r": 0, "rho": 0}]


class TestExamples:
    def test_all_pass_with_fixed_vectors(self, capsys):
        code, out, _ = run(capsys, "examples", "--trials", "1",
                           "--t", "1,2,-1", "--s", "1/2,1,3")
        assert code == 0
        assert "6/6 PASS" in out
        assert out.count("PASS (engine =") == 6

    def test_fixed_vectors_draw_no_seed(self, capsys):
        code, _out, err = run(capsys, "examples", "--trials", "1", "--t", "1,2,-1", "--s", "1/2,1,3")
        assert code == 0
        assert "# rng-seed" not in err

    def test_one_fixed_vector_still_announces_the_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("FUETER_SEED", "5")
        code, out, err = run(capsys, "examples", "--trials", "1", "--t", "1,2,-1")
        assert code == 0 and "6/6 PASS" in out
        assert err.count("# rng-seed: 5\n") == 1

    def test_seeded_random_trials(self, capsys, monkeypatch):
        monkeypatch.setenv("FUETER_SEED", "7")
        code, out, _ = run(capsys, "examples", "--trials", "2")
        assert code == 0 and "6/6 PASS" in out

    @pytest.mark.parametrize("argv, name", [
        (("--t", "0,0,0", "--s", "1/2,1,3"), "t"),
        (("--t", "1,2,-1", "--s", "0,0,0"), "s"),
        (("--t", "0,0,0", "--s", "random"), "t"),
    ])
    def test_zero_fixed_vector_is_invalid_input(self, capsys, argv, name):
        code, out, err = run(capsys, "examples", *argv)
        assert (code, out) == (1, "")
        assert err == f"invalid input: --{name} must be a nonzero vector\n"

    def test_a_wrong_scale_fails_with_both_outputs(self, capsys, monkeypatch):
        wrong = dataclasses.replace(catalog.REFERENCE_CASES[1], scale=Fraction(1))
        monkeypatch.setattr("fueterkit.cli.REFERENCE_CASES", (wrong,))
        code, out, _ = run(capsys, "examples", "--trials", "2", "--t", "1,2,-1", "--s", "1/2,1,3")
        lines = out.splitlines()
        assert code == 3 and len(lines) == 4 and lines[-1] == "0/1 PASS"
        assert lines[0] == f"example 2 {wrong.name}: FAIL (proportionality 172032, expected 1)"
        assert lines[1].startswith("  engine:  ") and lines[2].startswith("  formula: ")

    def test_a_raising_case_is_one_fail_line(self, capsys, monkeypatch):
        def broken(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr("fueterkit.cli.run_case", broken)
        code, out, _ = run(capsys, "examples", "--trials", "3", "--t", "1,2,-1", "--s", "1/2,1,3")
        assert code == 3
        assert out.splitlines() == [f"example {case.index} {case.name}: FAIL (internal error: RuntimeError: boom)"
                                    for case in catalog.REFERENCE_CASES] + ["0/6 PASS"]

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_is_invalid_input(self, capsys, trials):
        code, out, err = run(capsys, "examples", "--trials", trials, "--t", "1,2,-1", "--s", "1/2,1,3")
        assert (code, out) == (1, "")
        assert err == f"invalid input: --trials must be >= 1, got {trials}\n"


class TestSelftest:
    def test_runs_green(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "11/11 suites passed"
        assert len(lines) == 12 and all(line.startswith("PASS ") for line in lines[:-1])

    def test_seed_249_draws_nonzero_vectors(self, capsys):
        # The reference suite once drew t = 0 here and crashed building <x,t>.
        code, out, _ = run(capsys, "selftest", "--seed", "249")
        assert code == 0
        assert "11/11 suites passed" in out

    def test_every_suite_runs_once(self):
        suites = {fn for name, fn in vars(selfcheck).items() if name.startswith("check_")}
        assert len(set(selfcheck.ALL_CHECKS)) == len(selfcheck.ALL_CHECKS)
        assert set(selfcheck.ALL_CHECKS) == suites

    def test_only_selftest_loads_the_suites(self):
        probe = ("import sys, fueterkit.cli as cli; loaded = 'fueterkit.selfcheck' in sys.modules; "
                 "cli.main(['lemma5', '--h', 'r^2', '--n', '1', '--s1', '0', '--s2', '0', '--k', '0', '--l', '0']); "
                 "print(loaded, 'fueterkit.selfcheck' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False False"

    def test_a_crashing_suite_is_one_fail_line(self, capsys, monkeypatch):
        def check_broken(seed, size=1):
            raise RuntimeError("boom")

        monkeypatch.setattr(selfcheck, "ALL_CHECKS", (selfcheck.check_classical_map, check_broken))
        code, out, _ = run(capsys, "selftest")
        assert code == 3
        assert out.splitlines()[1:] == ["FAIL broken (crash: boom)", "1/2 suites passed"]


class TestHostileInput:
    def test_deep_nesting_is_a_one_line_parse_error(self, capsys):
        deep = lambda atom: "(" * 400 + atom + ")" * 400
        for argv in (("check-monogenic", "--p", "3", "--q", "3", "--expr", deep("x1")),
                     ("apply", "--p", "3", "--q", "3", "--variant", "plus", "--seed", deep("zbar"),
                      "--Hk", "x1", "--Hl", "y1")):
            code, _out, err = run(capsys, *argv)
            assert code == 2
            assert err.startswith("parse error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        ((), "the following arguments are required: command"),
        (("bogus",), "argument command: invalid choice: 'bogus'"),
        (("apply", "--p", "x"), "argument --p: invalid int value: 'x'"),
        (("apply", "--p", "3"), "the following arguments are required: --q, --variant, --seed, --Hk, --Hl"),
    ], ids=["empty", "unknown-command", "bad-int", "missing-options"])
    def test_a_usage_error_is_a_one_line_parse_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"parse error: {message}") and err.count("\n") == 1

    def test_help_still_prints_and_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["apply", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: fueterkit apply")

    @pytest.mark.parametrize("exc, code, prefix", [
        (ParseError("bad"), 2, "parse error: bad"),
        (ShapeError("bad"), 1, "precondition violation: bad"),
        (PreconditionError("bad"), 1, "precondition violation: bad"),
        (VerificationError("bad"), 3, "internal verification failure: bad"),
        (ValueError("bad"), 1, "invalid input: bad"),
    ], ids=["parse", "shape", "precondition", "verification", "value"])
    def test_each_error_has_its_exit_code(self, capsys, monkeypatch, exc, code, prefix):
        def broken(*args):
            raise exc

        monkeypatch.setattr("fueterkit.cli.is_monogenic", broken)
        assert run(capsys, "check-monogenic", "--p", "3", "--q", "3", "--expr", "x1") == (code, "", prefix + "\n")

    def test_unexpected_exception_is_a_one_line_exit_3(self, capsys, monkeypatch):
        def broken(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr("fueterkit.cli.is_monogenic", broken)
        code, _out, err = run(capsys, "check-monogenic", "--p", "3", "--q", "3", "--expr", "x1")
        assert code == 3
        assert err == "internal error: RuntimeError: boom\n"


# Number strings that no grammar reads as a [sign] rational.
HOSTILE_NUMBERS = {
    "decimal": "1.5",
    "exponent": "1e3",
    "underscore": "1_0",
    "unicode-digit": "\u0663",
    "4301-digits": "9" * 4301,
    "zero-denominator": "1/0",
    "empty": "",
    "two-signs": "+-1",
}

APPLY = ("apply", "--p", "3", "--q", "3", "--variant", "plus")


def _hostile_argvs(seed: int) -> dict[str, tuple[str, ...]]:
    """Every hostile number in every option where a number may stand: a
    --t or --s component (the seed picks the option and the component),
    --Hk, --seed, --expr and lemma5 --h."""
    rng = random.Random(seed)
    out = {}
    for name, text in HOSTILE_NUMBERS.items():
        option = rng.choice(("--t", "--s"))
        vector = ["1", "2", "3"]
        vector[rng.randrange(3)] = text
        vectors = {"--t": "1,2,3", "--s": "1,2,3", option: ",".join(vector)}
        vector_args = ("--t", vectors["--t"], "--s", vectors["--s"])
        out.update({
            f"{name}-apply{option}": APPLY + ("--seed", "zbar^5", "--Hk", "ip(x,t)", "--Hl", "ip(y,s)") + vector_args,
            f"{name}-examples{option}": ("examples",) + vector_args,
            f"{name}-Hk": APPLY + ("--seed", "zbar^5", "--Hk", f"{text}*x1", "--Hl", "y1"),
            f"{name}-seed": APPLY + ("--seed", f"{text}*zbar^5", "--Hk", "x1", "--Hl", "y1"),
            f"{name}-expr": ("check-monogenic", "--p", "3", "--q", "3", "--expr", f"x1 + {text}*x2"),
            f"{name}-lemma5": ("lemma5", "--h", f"{text}*r^2", "--n", "1", "--s1", "0", "--s2", "0",
                               "--k", "0", "--l", "0"),
        })
    return out


HOSTILE_ARGVS = _hostile_argvs(1931)


class TestHostileNumbers:
    """A hostile number is a one-line parse error wherever it stands: exit
    2, nothing on stdout, no traceback, within a second."""

    @pytest.mark.parametrize("name", sorted(HOSTILE_ARGVS))
    def test_exits_2_with_one_stderr_line(self, capsys, name):
        start = time.perf_counter()
        code, out, err = run(capsys, *HOSTILE_ARGVS[name])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("parse error: ") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv, column", [
        (("check-monogenic", "--p", "3", "--q", "3", "--expr", "x\u0661^\u0662 + \u0663/\u0662*y2"), 2),
        (APPLY + ("--seed", "zbar^\u0663", "--Hk", "x1", "--Hl", "y1"), 6),
        (APPLY + ("--seed", "zbar^5", "--Hk", "ip(x,t)", "--Hl", "y1", "--t", "\u0661,\u0662,3"), 1),
    ], ids=["expression", "seed", "vector"])
    def test_non_ascii_digits_exit_2(self, capsys, argv, column):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("parse error: unexpected character ") and err.endswith(f"(at column {column})\n")

    @pytest.mark.parametrize("option", ["--Hk", "--expr", "--h", "--t"])
    def test_a_5000_digit_literal_is_a_parse_error_in_every_option(self, capsys, option):
        big = "9" * 5000
        argv = {
            "--Hk": APPLY + ("--seed", "zbar^5", "--Hk", f"x1 + {big}*x2", "--Hl", "y1"),
            "--expr": ("check-monogenic", "--p", "3", "--q", "3", "--expr", f"x1 + {big}*x2"),
            "--h": ("lemma5", "--h", f"r^2 + {big}", "--n", "1", "--s1", "0", "--s2", "0", "--k", "0", "--l", "0"),
            "--t": APPLY + ("--seed", "zbar^5", "--Hk", "ip(x,t)", "--Hl", "y1", "--t", f"1,{big},3"),
        }[option]
        code, out, err = run(capsys, *argv)
        column = next(value for value in argv if big in value).index(big) + 1
        assert (code, out, err) == (2, "", f"parse error: number longer than 4300 digits (at column {column})\n")

    def test_a_result_beyond_the_int_text_limit_prints_exactly(self, capsys):
        # <x,t>^5 with a 1000-digit component of t gives coefficients of
        # over 4300 digits; the CLI lifts the int-to-text limit to print them.
        nines = "9" * 1000
        argv = APPLY + ("--seed", "zbar^5", "--Hk", "ip(x,t)^5", "--Hl", "ip(y,s)",
                        "--t", f"{nines},2,3", "--s", "1,1,1", "--format", "json")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        try:
            code, out, err = run(capsys, *argv)
            assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
            assert (code, err) == (0, "")
            sys.set_int_max_str_digits(0)  # the test's own reading of the long numbers
            got = {(tuple(t["mono"].items()), tuple(t["blade"]), t["r"], t["rho"]):
                   Fraction(t["coeff"]["num"], t["coeff"]["den"]) for t in json.loads(out)["terms"]}
        finally:
            sys.set_int_max_str_digits(limit)
        frame = AxisFrame(3, 3)
        vectors = {"t": [int(nines), 2, 3], "s": [1, 1, 1]}
        want = apply_map(SeedFunction.create(parse_seed("zbar^5")), parse_expression("ip(x,t)^5", frame, vectors),
                         parse_expression("ip(y,s)", frame, vectors), frame, "plus")
        names = frame.coord_names()
        assert got == {(tuple((names[i], e) for i, e in enumerate(mono) if e), blade, a, b): c
                       for (mono, blade, a, b), c in want.canonical_terms().items()}
        assert max(abs(c.numerator) for c in got.values()) > 10 ** 4300


class TestIntTextLimit:
    """main lifts the int-to-text limit while it runs and gives the caller
    its own limit back, whichever way it ends."""

    @pytest.mark.parametrize("argv, code", [
        (APPLY + ("--seed", "zbar^5", "--Hk", "x1", "--Hl", "y1"), 0),
        (APPLY + ("--seed", "zbar^5", "--Hk", "x1 +", "--Hl", "y1"), 2),
    ], ids=["success", "error"])
    def test_the_callers_limit_is_restored(self, capsys, argv, code):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            assert run(capsys, *argv)[0] == code
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(limit)

    def test_an_argparse_exit_restores_it_too(self, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            code, _out, err = run(capsys, "apply", "--p", "3")
            assert code == 2 and len(err.splitlines()) == 1
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(limit)


class TestProcessDeterminism:
    def test_byte_identical_across_hash_seeds(self):
        argv = [sys.executable, "-m", "fueterkit.cli", "apply", "--p", "3", "--q", "3",
                "--variant", "plus", "--seed", "zbar^10", "--Hk", "ip(x,t)",
                "--Hl", "ip(y,s)", "--t", "1,2,-1", "--s", "1/2,0,3", "--format", "json"]
        outputs = set()
        for hash_seed in ("0", "1", "12345"):
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin",
                                       "PYTHONPATH": SRC})
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1


class TestClosedPipe:
    def test_closed_stdout_pipe_exits_141_quietly(self):
        # About 76 KB of output, more than a pipe buffer holds.
        argv = [sys.executable, "-m", "fueterkit.cli", "apply", "--p", "5", "--q", "5",
                "--variant", "minus", "--seed", "zbar^10", "--Hk", "ip(x,t)", "--Hl", "ip(y,s)",
                "--t", "1,2,-1,1/2,3", "--s", "1/2,1,3,-2,5/3", "--format", "json"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC})
        assert proc.stdout.read(16)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""


class TestOutOfMemory:
    def test_a_memory_error_is_one_line_and_exit_3(self):
        """The normal form of x3^200*y3^200 at (3,3) has 5151 * 5151 rows:
        under a 192 MB address-space limit, set on the child only, it runs
        out of memory and must still report one line."""
        import resource

        limit = 192 << 20
        argv = [sys.executable, "-m", "fueterkit.cli", "check-monogenic", "--p", "3", "--q", "3",
                "--expr", "x3^200*y3^200"]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=60,
                              env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"},
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.splitlines() == ["internal error: MemoryError: "]
        assert "Traceback" not in proc.stderr and proc.stdout == ""
