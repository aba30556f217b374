"""tools/probes.py against a stubbed runner: no program runs here."""

import importlib.util
import math
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "probes.py"
_SPEC = importlib.util.spec_from_file_location("probes", _PATH)
probes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(probes)

COMMANDS = {"apply", "check-monogenic", "fischer", "lemma5", "examples", "selftest"}


def _stub(calls, exits=None):
    """A runner whose parent takes 2 s and change 1 s per run, each
    printing 3 bytes; `exits` maps (side, probe name) to an exit code."""
    names = {tuple(argv): name for name, argv in probes.PROBES}

    def run(side, argv):
        calls.append((side, names[tuple(argv)]))
        code = (exits or {}).get((side, names[tuple(argv)]), 0)
        return {"exit": code, "seconds": 2.0 if side == "parent" else 1.0, "stdout_bytes": 3}

    return run


class TestRecord:
    def test_every_probe_runs_on_both_sides_alternating(self):
        calls = []
        record = probes.probe_all(probes.PROBES[:2], 3, _stub(calls))
        first, second = (name for name, _argv in probes.PROBES[:2])
        assert calls == [("parent", first), ("change", first)] * 3 + [("parent", second), ("change", second)] * 3
        assert record["runs"] == 3
        assert record["same_exits"] is True
        assert [p["name"] for p in record["probes"]] == [first, second]

    def test_a_probe_record_holds_each_run_and_the_medians(self):
        record = probes.probe_all(probes.PROBES[:1], 3, _stub([]))
        (probe,) = record["probes"]
        assert probe["argv"] == probes.PROBES[0][1]
        assert probe["parent"] == {"exit": [0, 0, 0], "seconds": [2.0] * 3, "stdout_bytes": [3] * 3, "median_s": 2.0}
        assert probe["change"]["seconds"] == [1.0] * 3
        assert probe["change_over_parent"] == 0.5
        assert probe["same_exit"] is True

    def test_a_different_exit_is_flagged(self):
        name = probes.PROBES[1][0]
        record = probes.probe_all(probes.PROBES[:2], 1, _stub([], {("change", name): probes.TIMEOUT_EXIT}))
        assert [p["same_exit"] for p in record["probes"]] == [True, False]
        assert record["probes"][1]["change"]["exit"] == [probes.TIMEOUT_EXIT]
        assert record["same_exits"] is False


class TestTable:
    def test_about_a_dozen_named_cli_calls(self):
        names = [name for name, _argv in probes.PROBES]
        assert 10 <= len(names) <= 17
        assert len(set(names)) == len(names)
        for _name, argv in probes.PROBES:
            assert argv[0] in COMMANDS
            assert all(isinstance(arg, str) for arg in argv)

    def test_the_layout_probes_are_in_the_table(self):
        exprs = {argv[-1] for _name, argv in probes.PROBES if argv[0] == "check-monogenic"}
        assert {"x3^2000", "(x1+y1)^600"} <= exprs
        diagonal = next(expr for expr in exprs if expr.startswith("x1 + "))
        assert diagonal.count("+") == 599
        assert ["selftest"] in [argv for _name, argv in probes.PROBES]

    def test_the_wide_frame_probe_is_in_the_table(self):
        """A (40, 40) input, 80 generators, with 10 * 10 * 10 * 9 distinct
        x blades."""
        (argv,) = [argv for _name, argv in probes.PROBES if argv[1:5] == ["--p", "40", "--q", "40"]]
        factors = argv[-1].split(")*(")
        assert len(factors) == 5
        assert math.prod(factor.count("e{") for factor in factors[1:]) == 9000

    def test_the_fischer_probes_are_in_the_table(self):
        """Decompositions that finish within the timeout, so a Fischer
        slowdown shows as a ratio and not as a shared timeout; one input
        carries the group's last coordinate, x3."""
        argvs = [argv for _name, argv in probes.PROBES]
        for power in ("(x1+x2)^30", "(x1+x2)^40", "(x1+x2+x3)^30"):
            assert ["fischer", "--p", "3", "--H", power] in argvs
