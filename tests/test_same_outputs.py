"""tools/same_outputs.py against stubbed sides: no program runs here."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from fueterkit import formatting
from fueterkit.frame import AxisFrame
from fueterkit.radial import RadialExpr

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
_SPEC = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)

WORKLOADS = ["catalog_apply", "route_check"]
SEEDS = [3, 7]


def _stub(calls, differ=None, extra=None):
    """Sides that print the same three calls per (workload, seed), except
    the change side's call `differ` = (workload, seed, index) and one more
    change-side call at `extra` = (workload, seed)."""

    def run(side, workload, seed):
        calls.append((side, workload, seed))
        out = [(f"call {i}", same_outputs.digest(f"{workload} {seed} {i}")) for i in range(3)]
        if side == "change" and differ and differ[:2] == (workload, seed):
            index = differ[2]
            out[index] = (out[index][0], same_outputs.digest("other"))
        if side == "change" and extra == (workload, seed):
            out.append(("call 3", same_outputs.digest("more")))
        return out

    return run


class TestCompare:
    def test_agreeing_sides_cover_every_call(self):
        calls = []
        record = same_outputs.compare(WORKLOADS, SEEDS, _stub(calls))
        assert record == {"same": True, "workloads": WORKLOADS, "seeds": SEEDS, "calls": 12}
        assert sorted(calls) == sorted((side, w, s) for side in ("parent", "change") for w in WORKLOADS for s in SEEDS)

    def test_the_first_difference_is_named_and_ends_the_run(self):
        calls = []
        record = same_outputs.compare(WORKLOADS, SEEDS, _stub(calls, differ=("catalog_apply", 7, 1)))
        assert record["same"] is False
        assert (record["workload"], record["seed"], record["call"]) == ("catalog_apply", 7, "#1 call 1")
        assert record["parent"]["label"] == record["change"]["label"] == "call 1"
        assert record["parent"]["sha256"] != record["change"]["sha256"]
        # route_check never ran
        assert {workload for _side, workload, _seed in calls} == {"catalog_apply"}

    def test_a_different_number_of_calls_is_a_difference(self):
        record = same_outputs.compare(WORKLOADS, SEEDS, _stub([], extra=("route_check", 3)))
        assert record == {"same": False, "workload": "route_check", "seed": 3, "call": None,
                          "calls": {"parent": 3, "change": 4}}


class TestDigest:
    def test_an_expression_is_digested_by_its_normal_form(self):
        frame = AxisFrame(3, 3)
        square = RadialExpr.monomial(frame, {"x3": 2})
        rewritten = (RadialExpr.radial(frame, 2, 0) - RadialExpr.monomial(frame, {"x1": 2})
                     - RadialExpr.monomial(frame, {"x2": 2}))
        assert square.raw_terms != rewritten.raw_terms
        assert same_outputs.digest(square) == same_outputs.digest(rewritten)
        assert same_outputs.digest(square) != same_outputs.digest(2 * square)

    @pytest.mark.parametrize("style", ["plain", "latex", "json"])
    def test_an_expression_is_digested_by_its_printed_text_too(self, style, monkeypatch):
        expr = RadialExpr.monomial(AxisFrame(3, 3), {"x1": 1, "y2": 2}, Fraction(-3, 2), -1, 2)
        before = same_outputs.digest(expr)
        real = formatting.format_expression
        monkeypatch.setattr(formatting, "format_expression",
                            lambda f, s="plain": real(f, s) + (" " if s == style else ""))
        assert same_outputs.digest(expr) != before

    def test_text_is_digested_as_printed(self):
        assert same_outputs.digest("a\n") != same_outputs.digest("a")
        assert len(same_outputs.digest("")) == 64
