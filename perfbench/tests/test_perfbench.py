"""Tests of the benchmark itself.  Run: python3 -m pytest -q perfbench/tests"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from fueterkit import fueter, radial  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _result(capsys, *extra) -> dict:
    rc = run.main(["--workload", "catalog_apply", "--seed", "3", "--seconds", "0", *extra])
    assert rc == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_printed_metric_names_match_benchmark_json(capsys):
    plain = _result(capsys, "--trace", "0")
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] == 24
    assert list(plain["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert _units(plain) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    traced = _result(capsys, "--trace", "1")
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert _units(traced) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_corrupted_output_counts_as_failed():
    calls = workloads.build_catalog(5)[:1]
    text = calls[0].run()
    assert calls[0].check(text).ok
    flipped = text.replace(" + ", " - ", 1)
    garbled = text.replace("*", "*q", 1)
    for bad in (flipped, garbled, RuntimeError("raised")):
        failed, _ = run._check(calls, [run.Pass([0.0], [[run.KERNEL_REF_S]], [bad], None)])
        assert failed == 1, bad if isinstance(bad, Exception) else bad[:80]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_two_seeds_give_equal_term_counts(name):
    counts = []
    for seed in (11, 12):
        calls = workloads.WORKLOADS[name].build(seed)
        checks = [call.check(call.run()) for call in calls]
        assert all(c.ok for c in checks)
        counts.append([c.terms for c in checks])
    assert counts[0] == counts[1]


def test_large_apply_reproduces_the_baseline_pin():
    call = workloads.build_large(7)[0]
    tracer = spans.Tracer()
    tracer.install()
    try:
        call.run()
    finally:
        tracer.uninstall()
    pin = run._pin([run.Pass([], [], [], [tracer.take()])])
    assert pin == workloads.BASELINE_PIN


def test_tracer_rebinds_aliases_and_restores_them():
    original = radial.dirac
    assert fueter.dirac is original
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert fueter.dirac is not original and fueter.dirac is radial.dirac
    finally:
        tracer.uninstall()
    assert fueter.dirac is original and radial.dirac is original


def test_tracer_fails_on_a_missing_entry_point(monkeypatch):
    monkeypatch.setattr(spans, "ENTRY_POINTS",
                        spans.ENTRY_POINTS + (("radial.gone", "fueterkit.radial", "no_such_function", None),))
    with pytest.raises(spans.TraceError, match="no_such_function"):
        spans.Tracer().install()
    assert not hasattr(radial.re_mul, "__wrapped__")


def test_tracer_fails_when_an_expected_layer_records_nothing():
    with pytest.raises(spans.TraceError, match="fueter.fischer_route"):
        spans.check_reached([], {"fueter.fischer_route"}, "route_check")
