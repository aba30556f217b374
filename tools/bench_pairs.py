"""Alternating parent/change runs of perfbench, written to one BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent HEAD --seed0 2301 --pairs 10 --out BENCH_17.json

Run from the repository root; only the standard library is needed.  The
parent commit is exported with `git archive`, and the working tree's
`src/` and `perfbench/` are copied, each side into its own temporary
directory without any `__pycache__`.  Both sides run with
PYTHONDONTWRITEBYTECODE=1, so neither reads bytecode left by an earlier
run: bytecode moves `setup_s` and `peak_rss_mb`.  An export has no `.git`,
so `perfbench/run.py` reports `commit=unknown`; the parent commit is
recorded in its own field instead.  The change side records what it
measured: `change.dirty` is true when `src/` or `perfbench/` differ from
HEAD (untracked files included), and `change.tree_sha256` is the digest
of the copied files, so a later run can tell whether a commit holds
exactly that code.

Pair i runs every workload with seed seed0 + i on both sides, the parent
first when i is even and the change first when i is odd.  The output has
one schema whatever the options: per workload and metric, the parent and
change values of every pair, their medians and quartiles, the change over
parent ratio of the medians, and the number of pairs the change won
(better in the direction BENCHMARK.json gives, ties lost).  The file is
rewritten after every pair, so an interrupted run keeps what it measured.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "bench_pairs/1"
SIDES = ("parent", "change")
# The directories a side's copy holds.
COPIED = ("src", "perfbench")

# runner(side, workload, seed) -> the JSON object on the last line of run.py's stdout
Runner = Callable[[str, str, int], dict]


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_parent(commit: str, dest: Path) -> None:
    """The committed files of `commit`, unpacked into dest."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest)


def copy_working_tree(dest: Path) -> None:
    """The working tree's sources and benchmark, without bytecode."""
    for name in COPIED:
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))


def tree_sha256(root: Path) -> str:
    """SHA-256 over the files under root, without `__pycache__`: each
    file's relative path, size and bytes, in sorted path order."""
    files = {path.relative_to(root).as_posix(): path for path in root.rglob("*")
             if path.is_file() and "__pycache__" not in path.relative_to(root).parts}
    digest = hashlib.sha256()
    for rel in sorted(files):
        data = files[rel].read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def perfbench_runner(dirs: dict[str, Path], seconds: float, trace: int) -> Runner:
    """A runner that starts perfbench/run.py in each side's directory."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")

    def run(side: str, workload: str, seed: int) -> dict:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=dirs[side], env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{side} {workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    return run


def metric_directions(benchmark: dict) -> dict[str, str]:
    """Metric name -> "lower" or "higher", from BENCHMARK.json."""
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in benchmark.get(key, ())}


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def _won(change: float, parent: float, better: str) -> bool:
    return change < parent if better == "lower" else change > parent


def summarize(runs: list[dict], directions: dict[str, str]) -> dict:
    """Per workload: failed calls per side, and per metric the values of
    both sides in pair order, medians, quartiles, ratio and pairs won."""
    out: dict[str, dict] = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["pair"], {})[run["side"]] = run
        done = [pair for _i, pair in sorted(pairs.items()) if len(pair) == 2]
        if not done:
            continue
        metrics = {}
        for name, unit in done[0]["parent"]["units"].items():
            better = directions.get(name, "lower")
            values = {side: [pair[side]["metrics"][name] for pair in done] for side in SIDES}
            medians = {side: statistics.median(values[side]) for side in SIDES}
            metrics[name] = {
                "unit": unit,
                "better": better,
                "parent": values["parent"],
                "change": values["change"],
                "parent_median": medians["parent"],
                "change_median": medians["change"],
                "parent_quartiles": _quartiles(values["parent"]),
                "change_quartiles": _quartiles(values["change"]),
                "change_over_parent": medians["change"] / medians["parent"] if medians["parent"] else None,
                "pairs_won": sum(_won(c, p, better) for c, p in zip(values["change"], values["parent"])),
                "pairs": len(done),
            }
        out[workload] = {
            "failed": {side: [pair[side]["failed"] for pair in done] for side in SIDES},
            "attempted": {side: [pair[side]["attempted"] for pair in done] for side in SIDES},
            "metrics": metrics,
        }
    return out


def bench(workloads: list[str], seeds: list[int], runner: Runner,
          after_pair: Callable[[list[dict]], None] = lambda runs: None) -> list[dict]:
    """Run every workload on both sides for each seed, alternating which
    side goes first; one record per run."""
    runs: list[dict] = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for position, side in enumerate(order):
                result = runner(side, workload, seed)
                runs.append({
                    "workload": workload, "pair": i, "seed": seed, "side": side, "position": position,
                    "failed": result["failed"], "attempted": result["attempted"],
                    "metrics": {name: m["value"] for name, m in result["metrics"].items()},
                    "units": {name: m["unit"] for name, m in result["metrics"].items()},
                })
                print(f"# pair {i} seed {seed} {workload} {side}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items()
                                 if k in ("wall_s", "formatting.ms")), file=sys.stderr, flush=True)
        after_pair(runs)
    return runs


def report(runs: list[dict], directions: dict[str, str], header: dict) -> dict:
    return {"schema": SCHEMA, **header, "workloads": summarize(runs, directions), "runs": runs}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="commit to compare the working tree against")
    parser.add_argument("--seed0", type=int, required=True, help="pair i uses seed seed0 + i")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--description", default="")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    seeds = [args.seed0 + i for i in range(args.pairs)]
    parent = _git("rev-parse", f"{args.parent}^{{commit}}").decode().strip()
    header = {
        "description": args.description,
        "command": f"python3 perfbench/run.py --workload <w> --seed <seed> --seconds {args.seconds:g} "
                   f"--trace {args.trace}, from the root of each side's copy with PYTHONDONTWRITEBYTECODE=1",
        "parent_commit": parent,
        "change": {"base_commit": _git("rev-parse", "HEAD").decode().strip(),
                   "dirty": bool(_git("status", "--porcelain", "--untracked-files=all", "--", *COPIED).strip())},
        "environment": {"python": platform.python_version(), "nproc": os.cpu_count(), "machine": platform.machine()},
        "seconds": args.seconds,
        "trace": args.trace,
        "order": "pair i runs the parent first when i is even, the change first when i is odd",
        "seeds": seeds,
    }
    directions = metric_directions(benchmark)
    out = Path(args.out)

    def write(runs: list[dict]) -> None:
        out.write_text(json.dumps(report(runs, directions, header), indent=1) + "\n")

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        dirs = {side: Path(tmp) / side for side in SIDES}
        export_parent(parent, dirs["parent"])
        copy_working_tree(dirs["change"])
        header["change"]["tree_sha256"] = tree_sha256(dirs["change"])
        write(bench(workloads, seeds, perfbench_runner(dirs, args.seconds, args.trace), write))
    return 0


if __name__ == "__main__":
    sys.exit(main())
