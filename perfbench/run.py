"""fueterkit benchmark: one workload, one process, one thread, one client.

    python3 perfbench/run.py --workload catalog_apply --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program is called in-process from a
closed loop: the fixed call list of the workload (one "pass") is repeated
until --seconds have passed.  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it times untraced passes for half the
time and traced passes for the other half, and reports the per-layer
metrics and the tracing overhead.  Every output is checked after the timed
region.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it are a
readable report.  README.md describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5

# The machine's speed drifts by up to 2x over seconds to minutes (other
# tenants of the host), which no estimator inside one run can average
# out.  So every time is measured next to a fixed calibration kernel and
# scaled by KERNEL_REF_S / (the kernel's median time around it): times are
# reported at the speed the machine has when the kernel takes
# KERNEL_REF_S, near its uncontended speed on the 2-core Xeon machine that
# defined the benchmark.  The raw times are printed in the report.
KERNEL_ROUNDS = 600
KERNEL_REF_S = 0.003
KERNEL_EVERY_S = 0.1

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "calls_per_s": "1/s",
    "call_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "output_terms": "count",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="fueterkit benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up (import, build inputs, one warm-up call) and exit")
    return parser.parse_args(argv)


def _environment() -> dict:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "commit": commit, "nproc": os.cpu_count(), "cpu": cpu}


def _kernel() -> float:
    """Seconds taken by a fixed pure-Python loop of Fraction and dict work,
    the kind of work fueterkit does."""
    start = perf_counter()
    acc, counts = Fraction(0), {}
    for i in range(1, KERNEL_ROUNDS):
        acc += Fraction(i % 7 + 1, i % 5 + 1) * Fraction(3, i % 11 + 1)
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    return perf_counter() - start


def _scale(kernels: list[float]) -> float:
    return KERNEL_REF_S / statistics.median(kernels)


def _setup_seconds(args) -> tuple[list[float], list[float]]:
    """(raw, scaled) wall times of fresh processes that only set up:
    interpreter start, import, input generation and one warm-up call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        kernels = [_kernel() for _ in range(5)]
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        raw.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()}")
        kernels += [_kernel() for _ in range(5)]
        scaled.append(raw[-1] * _scale(kernels))
    return raw, scaled


class Pass:
    """One timed run of the call list."""

    def __init__(self, latencies: list[float], kernels: list[list[float]], outcomes: list,
                 spans: list | None):
        self.latencies = latencies  # raw seconds per call
        self.outcomes = outcomes    # output, or the exception a call raised
        self.spans = spans          # per call, when traced
        # each call scaled by the kernel times taken right after it
        self.scales = [_scale(after) for after in kernels]
        self.calibrated = [lat * scale for lat, scale in zip(latencies, self.scales)]


def _per_call(passes: list[Pass]) -> list[float]:
    """Each call's median calibrated time over the passes.  Summing these
    gives a typical pass in which per-call jitter cannot reshuffle calls
    of very different sizes."""
    return [statistics.median(p.calibrated[i] for p in passes) for i in range(len(passes[0].calibrated))]


def _time_passes(calls, seconds: float, tracer=None, keep=None) -> list[Pass]:
    """Repeat whole passes until `seconds` have passed (at least one).

    Only the first pass keeps its outputs; later outputs that equal the
    first pass's are replaced by a marker, so memory does not grow with the
    number of passes.
    """
    passes: list[Pass] = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        latencies, kernels, outcomes, spans = [], [], [], []
        for call in calls:
            c0 = perf_counter()
            try:
                out = call.run()
            except Exception as exc:  # counted as a failed call
                out = exc
            latencies.append(perf_counter() - c0)
            outcomes.append(out)
            if tracer is not None:
                spans.append(tracer.take())
            kernels.append([_kernel() for _ in range(1 + int(latencies[-1] / KERNEL_EVERY_S))])
        first = keep if keep is not None else (passes[0].outcomes if passes else None)
        if first is not None:
            outcomes = [SAME if _same(a, b) else a for a, b in zip(outcomes, first)]
        passes.append(Pass(latencies, kernels, outcomes, spans if tracer is not None else None))
    return passes


SAME = object()


def _same(out, first) -> bool:
    if isinstance(out, Exception) or isinstance(first, Exception):
        return False
    if isinstance(out, str):
        return out == first
    return out.raw_terms == first.raw_terms


def _check(calls, passes: list[Pass]):
    """(failed calls, per-call Checked of the first pass) over all passes."""
    first_checks = []
    failed = 0
    for i, call in enumerate(calls):
        first_checks.append(_check_one(call, passes[0].outcomes[i]))
    for p in passes:
        for i, out in enumerate(p.outcomes):
            checked = first_checks[i] if (out is SAME or p is passes[0]) else _check_one(calls[i], out)
            if checked is None or not checked.ok:
                failed += 1
    return failed, first_checks


def _check_one(call, out):
    if isinstance(out, Exception):
        print(f"# call {call.label} raised {type(out).__name__}: {out}", file=sys.stderr)
        return None
    try:
        checked = call.check(out)
    except Exception as exc:  # an unreadable output fails its check
        print(f"# call {call.label} output unreadable: {exc}", file=sys.stderr)
        return None
    if not checked.ok:
        print(f"# call {call.label} output does not match its reference", file=sys.stderr)
    return checked


def _pin(passes: list[Pass]) -> dict | None:
    """Term counts of the first large_apply call in the first traced pass."""
    spans = passes[0].spans[0]
    steps = sorted((s for s in spans if s.layer == "radial.laplacian"), key=lambda s: s.start)
    canon = [s.counts["terms_out"] for s in spans if s.layer == "radial.canonical"]
    if not steps or not canon:
        return None
    return {"integrand": steps[0].counts["terms_in"], "laplacian": [s.counts["terms_out"] for s in steps],
            "canonical": max(canon)}


def _line(name: str, value, unit: str, samples: str) -> None:
    print(f"metric {name} = {value} {unit} ({samples})")


def run(args) -> int:
    import spans as spanlib
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    calls = workload.build(args.seed)
    if args.setup_probe:
        calls[0].run()
        return 0

    setup_raw, setup = ([], []) if args.trace else _setup_seconds(args)
    calls[0].run()  # warm-up, so lazily filled caches are in place before timing

    env = _environment()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"calls_per_pass={len(calls)}")
    print(f"env python={env['python']} commit={env['commit']} nproc={env['nproc']} cpu={env['cpu']!r}")

    metrics: dict[str, dict] = {}
    if args.trace:
        untraced = _time_passes(calls, args.seconds / 2)
        tracer = spanlib.Tracer()
        tracer.install()
        try:
            traced = _time_passes(calls, args.seconds / 2, tracer, keep=untraced[0].outcomes)
        finally:
            tracer.uninstall()
        spanlib.check_reached([s for p in traced for c in p.spans for s in c], workload.layers, args.workload)
        values = spanlib.median_metrics([spanlib.layer_metrics(p.spans, p.scales) for p in traced])
        untraced_wall = sum(_per_call(untraced))
        values["trace.untraced_wall_s"] = untraced_wall
        values["trace.overhead_s"] = sum(_per_call(traced)) - untraced_wall
        for name, unit in spanlib.PER_LAYER_UNITS.items():
            metrics[name] = {"value": values[name], "unit": unit}
            _line(name, values[name], unit,
                  f"calibrated, {len(untraced)} untraced and {len(traced)} traced passes"
                  if name.startswith("trace.") else f"median of {len(traced)} traced passes, times calibrated")
        if args.workload == "large_apply":
            pin = _pin(traced)
            verdict = "matches" if pin == workloads.BASELINE_PIN else f"differs from {workloads.BASELINE_PIN}"
            print(f"baseline pin {pin} {verdict}")
        passes = untraced + traced
    else:
        passes = _time_passes(calls, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, first = _check(calls, passes)
    attempted = len(calls) * len(passes)
    print(f"checked {attempted} calls, {failed} failed; failed_frac = {failed / attempted}")

    if not args.trace:
        per_call = _per_call(passes)
        wall = sum(per_call)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "calls_per_s": len(calls) / wall,
            "call_p50_ms": statistics.median(per_call) * 1000,
            "peak_rss_mb": rss_mb,
            "output_terms": sum(c.terms for c in first if c is not None),
        }
        each = f"each of the {len(calls)} calls' median of {len(passes)} passes"
        samples = {
            "setup_s": f"calibrated, median of {len(setup)} fresh processes",
            "wall_s": f"calibrated, sum of {each}",
            "calls_per_s": f"{len(calls)} calls per pass / wall_s",
            "call_p50_ms": f"calibrated, median of {each}",
            "peak_rss_mb": "ru_maxrss of this process after the timed passes",
            "output_terms": f"canonical terms over the {len(calls)} outputs of one pass",
        }
        for name, unit in END_TO_END_UNITS.items():
            metrics[name] = {"value": values[name], "unit": unit}
            _line(name, values[name], unit, samples[name])
        latencies = [x for p in passes for x in p.calibrated]
        if len(latencies) >= 100:
            _line("call_p90_ms", statistics.quantiles(latencies, n=10)[-1] * 1000, "ms",
                  f"calibrated, of {len(latencies)} calls")
        else:
            print(f"metric call_p90_ms not reported: {len(latencies)} calls, fewer than 100")
        nbytes = sum(c.nbytes for c in first if c is not None)
        if nbytes:
            _line("output_bytes", nbytes, "bytes", f"printed by the {len(calls)} calls of one pass")
        else:
            print("metric output_bytes not reported: the workload prints nothing")
        raw_wall = statistics.median(sum(p.latencies) for p in passes)
        print(f"raw (uncalibrated) setup {statistics.median(setup_raw)} s, median pass {raw_wall} s, "
              f"median call {statistics.median(x for p in passes for x in p.latencies) * 1000} ms")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "fueterkit" / "__init__.py").is_file():
        print(f"perfbench: fueterkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
