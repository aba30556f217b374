"""Hostile and oversized CLI calls, run on a parent commit and on the working tree.

    python3 tools/probes.py --parent HEAD --runs 3

Run from the repository root; only the standard library is needed.  The
parent commit is exported with `bench_pairs.export_parent` and the working
tree copied with `bench_pairs.copy_working_tree`, each into its own
temporary directory.  Every probe of `PROBES` runs `python3 -m
fueterkit.cli <argv>` in a fresh process from each side's copy, one after
another, with PYTHONDONTWRITEBYTECODE=1, a 20 s wall-clock timeout (a
probe stopped there reads exit code 124, as with `timeout(1)`) and a
2048 MB address-space limit, so a probe that grows without bound ends
instead of taking the machine's memory.  A probe's runs alternate between
the sides, the parent first.

One JSON record is printed: per probe its argv and, per side, the exit
code, seconds and stdout bytes of each run and the median seconds; the
change over parent ratio of the medians; and whether every run of both
sides exited the same way.  The exit status is 0 when every probe exits
as at the parent, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from bench_pairs import ROOT, SIDES, copy_working_tree, export_parent  # noqa: E402

_APPLY = ["apply", "--p", "3", "--q", "3", "--variant", "plus", "--t", "1,2,-1", "--s", "1/2,1,3"]
# sum x1 r^i y1^i rho^-i for i < 600: each y part in the one class 0, each x part on one row
_DIAGONAL = " + ".join(["x1"] + [f"x1*y1^{i}*r^{i}*rho^-{i}" for i in range(1, 600)])
# (x1 + y1) times 9000 distinct x 4-blades at (40, 40), m = 80: the
# wide-frame probe: 80 generators, 9,000 distinct blade masks on 18,000 rows
_WIDE_BLADES = "(x1+y1)*" + "*".join(
    "(" + "+".join(f"e{{{g}}}" for g in range(start, stop)) + ")"
    for start, stop in ((2, 12), (12, 22), (22, 32), (32, 41)))

# (name, argv): oversized inputs that must end with a defined exit code
# (one of them runs out of memory under the limit),
# the large operands of the Dirac kernel's layout rule, and Fischer
# decompositions that finish on both sides, so a slowdown reads as a ratio
# (one of them on an input that carries the group's last coordinate), and
# the wide-frame probe
PROBES: tuple[tuple[str, list[str]], ...] = (
    ("apply zbar^400", _APPLY + ["--seed", "zbar^400", "--Hk", "ip(x,t)", "--Hl", "ip(y,s)"]),
    ("apply Hk (x1+x2+x3)^60", _APPLY + ["--seed", "zbar^5", "--Hk", "(x1+x2+x3)^60", "--Hl", "ip(y,s)"]),
    ("apply Hk x1^100000000", _APPLY + ["--seed", "zbar^5", "--Hk", "x1^100000000", "--Hl", "ip(y,s)"]),
    ("apply zbar^100000", _APPLY + ["--seed", "zbar^100000", "--Hk", "ip(x,t)", "--Hl", "ip(y,s)"]),
    ("fischer (x1+x2)^30", ["fischer", "--p", "3", "--H", "(x1+x2)^30"]),
    ("fischer (x1+x2)^40", ["fischer", "--p", "3", "--H", "(x1+x2)^40"]),
    ("fischer (x1+x2)^80", ["fischer", "--p", "3", "--H", "(x1+x2)^80"]),
    ("fischer (x1+x2+x3)^30", ["fischer", "--p", "3", "--H", "(x1+x2+x3)^30"]),
    ("lemma5 n=100000", ["lemma5", "--h", "r^2", "--n", "100000", "--s1", "0", "--s2", "0", "--k", "0", "--l", "0"]),
    ("examples trials=100000", ["examples", "--trials", "100000"]),
    ("check-monogenic x3^2000", ["check-monogenic", "--p", "3", "--q", "3", "--expr", "x3^2000"]),
    ("check-monogenic x3^600*y3^600", ["check-monogenic", "--p", "3", "--q", "3", "--expr", "x3^600*y3^600"]),
    ("check-monogenic (x1+y1)^600", ["check-monogenic", "--p", "3", "--q", "3", "--expr", "(x1+y1)^600"]),
    ("check-monogenic diagonal 600", ["check-monogenic", "--p", "3", "--q", "3", "--expr", _DIAGONAL]),
    ("check-monogenic wide 9000 blades", ["check-monogenic", "--p", "40", "--q", "40", "--expr", _WIDE_BLADES]),
    ("selftest", ["selftest"]),
)

TIMEOUT_S = 20.0
TIMEOUT_EXIT = 124
MEMORY_MB = 2048

# runner(side, argv) -> {"exit": int, "seconds": float, "stdout_bytes": int}
Runner = Callable[[str, list[str]], dict]


def cli_runner(dirs: dict[str, Path]) -> Runner:
    """A runner that starts the CLI of each side's copy in a fresh process."""
    limit = MEMORY_MB << 20

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    def run(side: str, argv: list[str]) -> dict:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(dirs[side] / "src"))
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "fueterkit.cli", *argv], cwd=dirs[side], env=env,
                                  capture_output=True, timeout=TIMEOUT_S, preexec_fn=cap)
        except subprocess.TimeoutExpired as stopped:
            return {"exit": TIMEOUT_EXIT, "seconds": TIMEOUT_S, "stdout_bytes": len(stopped.stdout or b"")}
        return {"exit": proc.returncode, "seconds": time.perf_counter() - start, "stdout_bytes": len(proc.stdout)}

    return run


def probe_all(probes, runs: int, runner: Runner) -> dict:
    """Every probe `runs` times per side, the sides alternating; one record."""
    out = []
    for name, argv in probes:
        got: dict[str, list[dict]] = {side: [] for side in SIDES}
        for _ in range(runs):
            for side in SIDES:
                got[side].append(runner(side, argv))
                print(f"# {name} {side}: exit {got[side][-1]['exit']} {got[side][-1]['seconds']:.3f} s",
                      file=sys.stderr, flush=True)
        sides = {side: {key: [r[key] for r in got[side]] for key in ("exit", "seconds", "stdout_bytes")}
                 for side in SIDES}
        for side in SIDES:
            sides[side]["median_s"] = statistics.median(sides[side]["seconds"])
        exits = {code for side in SIDES for code in sides[side]["exit"]}
        out.append({"name": name, "argv": argv, **sides,
                    "change_over_parent": sides["change"]["median_s"] / sides["parent"]["median_s"],
                    "same_exit": len(exits) == 1})
    return {"runs": runs, "probes": out, "same_exits": all(p["same_exit"] for p in out)}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="commit to compare the working tree against")
    parser.add_argument("--runs", type=int, default=3, help="runs per probe and side")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    parent = subprocess.run(["git", "rev-parse", f"{args.parent}^{{commit}}"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="probes_") as tmp:
        dirs = {side: Path(tmp) / side for side in SIDES}
        export_parent(parent, dirs["parent"])
        copy_working_tree(dirs["change"])
        record = probe_all(PROBES, args.runs, cli_runner(dirs))
    print(json.dumps({"parent_commit": parent, "timeout_s": TIMEOUT_S, "memory_mb": MEMORY_MB, **record}))
    return 0 if record["same_exits"] else 1


if __name__ == "__main__":
    sys.exit(main())
