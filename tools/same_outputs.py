"""Run every benchmark call on a parent commit and on the working tree, and
check that both give the same outputs.

    python3 tools/same_outputs.py --parent HEAD --seeds 3 7 11

Run from the repository root; only the standard library is needed.  The
parent commit is exported with `bench_pairs.export_parent` and the working
tree copied with `bench_pairs.copy_working_tree`, each into its own
temporary directory.  For every workload of `perfbench/workloads.py` and
every seed, each side builds the workload's calls in a process of its own
and runs each call once, untimed.  A call's output is reduced to one
SHA-256 digest: of the text an apply call prints, and of the normal-form
rows (`canonical_terms()`) of a route_check output together with its
plain, LaTeX and JSON renderings, so two outputs that store different
rows of the same function agree and every printer style is compared.
The sides are compared call by call in workload, seed and call order.
One JSON record is printed; the exit status is 0 when every call agrees,
and 1 at the first difference, which the record names.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from bench_pairs import ROOT, SIDES, copy_working_tree, export_parent  # noqa: E402

# runner(side, workload, seed) -> [(call label, digest)] in call order
Runner = Callable[[str, str, int], list[tuple[str, str]]]


def digest(output) -> str:
    """SHA-256 of a call's output: printed text as it is, an expression by
    its normal-form rows and its text in every printer style."""
    if isinstance(output, str):
        text = output
    else:
        from fueterkit import formatting

        text = "\n".join([repr(list(output.canonical_terms().items())),
                          *(formatting.format_expression(output, style) for style in ("plain", "latex", "json"))])
    return hashlib.sha256(text.encode()).hexdigest()


def compare(workloads: list[str], seeds: list[int], runner: Runner) -> dict:
    """Both sides' digests, workload by workload and seed by seed; the
    record of the first difference, or of agreement on every call."""
    calls = 0
    for workload in workloads:
        for seed in seeds:
            got = {side: runner(side, workload, seed) for side in SIDES}
            where = {"workload": workload, "seed": seed}
            if len(got["parent"]) != len(got["change"]):
                return {"same": False, **where, "call": None,
                        "calls": {side: len(got[side]) for side in SIDES}}
            for index, (parent, change) in enumerate(zip(got["parent"], got["change"])):
                if parent != change:
                    return {"same": False, **where, "call": f"#{index} {parent[0]}",
                            **{side: dict(zip(("label", "sha256"), pair))
                               for side, pair in zip(SIDES, (parent, change))}}
            calls += len(got["parent"])
    return {"same": True, "workloads": workloads, "seeds": seeds, "calls": calls}


def side_runner(dirs: dict[str, Path]) -> Runner:
    """A runner that runs this script's worker in each side's directory."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")

    def run(side: str, workload: str, seed: int) -> list[tuple[str, str]]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", workload, "--seeds", str(seed)]
        proc = subprocess.run(cmd, cwd=dirs[side], env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{side} {workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
        return [tuple(pair) for pair in json.loads(proc.stdout)]

    return run


def _worker(workload: str, seed: int) -> None:
    """Print [label, digest] for every call of one workload, with the
    program and benchmark of the current directory."""
    sys.path[:0] = [str(Path.cwd() / "src"), str(Path.cwd() / "perfbench")]
    import workloads

    calls = workloads.WORKLOADS[workload].build(seed)
    print(json.dumps([[call.label, digest(call.run())] for call in calls]))


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="commit to compare the working tree against")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--worker", metavar="WORKLOAD",
                        help="run one workload's calls in the current directory and print their digests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.worker:
        for seed in args.seeds:
            _worker(args.worker, seed)
        return 0
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    parent = subprocess.run(["git", "rev-parse", f"{args.parent}^{{commit}}"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        dirs = {side: Path(tmp) / side for side in SIDES}
        export_parent(parent, dirs["parent"])
        copy_working_tree(dirs["change"])
        record = compare(workloads, args.seeds, side_runner(dirs))
    print(json.dumps({"parent_commit": parent, **record}))
    return 0 if record["same"] else 1


if __name__ == "__main__":
    sys.exit(main())
