"""Every layer of the benchmark stays reached.

``perfbench/run.py --trace 1`` wraps the program's entry points from
outside (``perfbench/spans.py``).  A refactor that deletes an entry point,
or stops calling it on a workload's path, makes that run raise
``TraceError``.  This test runs one pass of each workload under the same
tracer, so such a refactor fails the test suite instead.  The benchmark
files are only imported, never changed.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_pass_reaches_every_layer_of_the_workload(name):
    workload = workloads.WORKLOADS[name]
    calls = workload.build(1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        outputs = [call.run() for call in calls]
    finally:
        tracer.uninstall()
    spans.check_reached(tracer.take(), set(workload.layers), name)
    assert all(call.check(out).ok for call, out in zip(calls, outputs))
