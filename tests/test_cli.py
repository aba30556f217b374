import json

from fueterkit.cli import main


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

    def test_cauchy_riemann_scope(self, capsys):
        code, out, _ = run(capsys, "check-monogenic", "--p", "3", "--q", "0",
                           "--scalar-axis", "--scope", "cauchy-riemann",
                           "--expr", "-12*X0 - 4*x1*e1 - 4*x2*e2 - 4*x3*e3")
        assert code == 0 and out.strip() == "true"


class TestFischer:
    def test_linear_example(self, capsys):
        code, out, _ = run(capsys, "fischer", "--p", "3", "--H", "x1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n=0:") and lines[1].startswith("n=1:")
        assert "-1/3*e1" in lines[1]

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

    def test_seeded_random_trials(self, capsys, monkeypatch):
        monkeypatch.setenv("FUETER_SEED", "7")
        code, out, _ = run(capsys, "examples", "--trials", "2")
        assert code == 0 and "6/6 PASS" in out


class TestSelftest:
    def test_runs_green(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "8/8 suites passed" in out


class TestProcessDeterminism:
    def test_byte_identical_across_hash_seeds(self):
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")

        argv = [sys.executable, "-m", "fueterkit.cli", "apply", "--p", "3", "--q", "3",
                "--variant", "plus", "--seed", "zbar^10", "--Hk", "ip(x,t)",
                "--Hl", "ip(y,s)", "--t", "1,2,-1", "--s", "1/2,0,3", "--format", "json"]
        outputs = set()
        for hash_seed in ("0", "1", "12345"):
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin",
                                       "PYTHONPATH": src})
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1
