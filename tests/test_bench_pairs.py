"""tools/bench_pairs.py against a stubbed runner: no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

DIRECTIONS = {"wall_s": "lower", "calls_per_s": "higher", "output_terms": "lower"}


def _stub(calls):
    """A runner whose change side is faster in every pair but pair 3."""

    def run(side, workload, seed):
        calls.append((side, workload, seed))
        pair = seed - 100
        wall = 1.0 + pair / 100 if side == "parent" else (1.5 if pair == 3 else 0.8 + pair / 100)
        return {"correct": True, "attempted": 24, "failed": 0,
                "metrics": {"wall_s": {"value": wall, "unit": "s"},
                            "calls_per_s": {"value": 24 / wall, "unit": "1/s"},
                            "output_terms": {"value": 3996, "unit": "count"}}}

    return run


@pytest.fixture
def result():
    calls = []
    runs = bench_pairs.bench(["catalog_apply", "large_apply"], list(range(100, 110)), _stub(calls))
    return calls, bench_pairs.report(runs, DIRECTIONS, {"parent_commit": "abc"})


class TestBenchPairs:
    def test_pairs_alternate_which_side_runs_first(self, result):
        calls, _ = result
        firsts = [calls[i][0] for i in range(0, len(calls), 2)]
        assert firsts == [side for i in range(10) for side in (("parent", "change")[i % 2],) * 2]
        assert all(calls[i][2] == calls[i + 1][2] and calls[i][0] != calls[i + 1][0]
                   for i in range(0, len(calls), 2))

    def test_schema(self, result):
        _, report = result
        assert json.loads(json.dumps(report)) == report
        assert report["schema"] == "bench_pairs/1" and report["parent_commit"] == "abc"
        assert list(report["workloads"]) == ["catalog_apply", "large_apply"]
        assert len(report["runs"]) == 40
        workload = report["workloads"]["catalog_apply"]
        assert workload["failed"] == {"parent": [0] * 10, "change": [0] * 10}
        assert set(workload["metrics"]) == set(DIRECTIONS)
        for entry in workload["metrics"].values():
            assert set(entry) == {"unit", "better", "parent", "change", "parent_median", "change_median",
                                  "parent_quartiles", "change_quartiles", "change_over_parent",
                                  "pairs_won", "pairs"}
            assert entry["pairs"] == 10 and len(entry["parent"]) == len(entry["change"]) == 10

    def test_win_counts_follow_each_metric_direction(self, result):
        metrics = result[1]["workloads"]["large_apply"]["metrics"]
        assert metrics["wall_s"]["pairs_won"] == 9
        assert metrics["calls_per_s"]["pairs_won"] == 9
        assert metrics["output_terms"]["pairs_won"] == 0  # ties are not wins
        wall = metrics["wall_s"]
        assert wall["parent_median"] == pytest.approx(1.045)
        assert wall["change_median"] == pytest.approx(0.855)
        assert wall["parent_quartiles"] == pytest.approx([1.0225, 1.0675])
        assert wall["change_over_parent"] == pytest.approx(0.855 / 1.045)

    def test_an_unfinished_pair_is_left_out(self):
        runs = bench_pairs.bench(["catalog_apply"], [100, 101], _stub([]))
        report = bench_pairs.report(runs[:-1], DIRECTIONS, {})
        assert report["workloads"]["catalog_apply"]["metrics"]["wall_s"]["pairs"] == 1

    def test_directions_come_from_the_benchmark_file(self):
        benchmark = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())
        directions = bench_pairs.metric_directions(benchmark)
        assert directions["calls_per_s"] == "higher" and directions["wall_s"] == "lower"
        assert directions["formatting.ms"] == "lower"


class TestTreeDigest:
    def _tree(self, root, files):
        for rel, data in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        return bench_pairs.tree_sha256(root)

    def test_the_digest_covers_paths_and_bytes_but_not_bytecode(self, tmp_path):
        files = {"src/pkg/a.py": b"x = 1\n", "src/pkg/b.py": b"y = 2\n", "perfbench/run.py": b"pass\n"}
        base = self._tree(tmp_path / "base", files)
        assert len(base) == 64
        # the same files written in another order
        assert self._tree(tmp_path / "again", dict(reversed(files.items()))) == base
        # bytecode is not copied, so it is not measured
        assert self._tree(tmp_path / "bytecode", {**files, "src/pkg/__pycache__/a.pyc": b"\0"}) == base
        changed = [{**files, "src/pkg/a.py": b"x = 2\n"},
                   {**files, "src/pkg/new.py": b""},
                   {"src/pkg/c.py" if rel == "src/pkg/a.py" else rel: data for rel, data in files.items()},
                   # the same bytes split differently between two files
                   {**files, "src/pkg/a.py": b"x = 1\ny", "src/pkg/b.py": b" = 2\n"}]
        digests = {self._tree(tmp_path / f"changed{i}", tree) for i, tree in enumerate(changed)}
        assert len(digests) == len(changed) and base not in digests
