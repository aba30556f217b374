"""Regenerate large_reference.json, the stored check values of large_apply.

Run from the repository root:

    python3 perfbench/make_reference.py

For every large case, the map is computed through the Fischer route
(ft_general_via_fischer), which is independent of the direct Laplacian
power that `apply` runs, once per monomial pair x^alpha * y^beta of the
factor degrees.  Each output is evaluated exactly at the case's point and
stored as rationals.  The benchmark recombines these values for the t, s
drawn from its seed (see exact.large_reference).  This takes about a
minute; it is needed only when a case or a point changes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from exact import LARGE_CASES, REFERENCE_FILE, Point, blade_key, monomials  # noqa: E402
from fueterkit.frame import AxisFrame  # noqa: E402
from fueterkit.fueter import ft_general_via_fischer  # noqa: E402
from fueterkit.parsing import parse_seed  # noqa: E402
from fueterkit.radial import RadialExpr  # noqa: E402
from fueterkit.seeds import SeedFunction  # noqa: E402


def _monomial(frame: AxisFrame, group: str, exps) -> RadialExpr:
    return RadialExpr.monomial(frame, {f"{group}{i + 1}": e for i, e in enumerate(exps) if e})


def build_case(case) -> dict:
    frame = AxisFrame(case.p, case.q)
    point = Point(case.p, case.q)
    seed = SeedFunction.create(parse_seed(case.seed))
    table = []
    for xa in monomials(case.p, case.k):
        for yb in monomials(case.q, case.l):
            start = time.perf_counter()
            out = ft_general_via_fischer(seed, _monomial(frame, "x", xa), _monomial(frame, "y", yb),
                                         frame, case.variant)
            value = point.evaluate_terms(out.raw_terms.items())
            table.append({"x": list(xa), "y": list(yb),
                          "value": {blade_key(b): str(c) for b, c in sorted(value.items())}})
            print(f"{case.name} x^{xa} y^{yb}: {time.perf_counter() - start:.1f} s", flush=True)
    return {"p": case.p, "q": case.q, "variant": case.variant, "seed": case.seed,
            "k": case.k, "l": case.l, "x_point": [str(c) for c in point.coords[:case.p]],
            "y_point": [str(c) for c in point.coords[case.p:]], "table": table}


def main() -> int:
    cases = {case.name: build_case(case) for case in LARGE_CASES}
    REFERENCE_FILE.write_text(json.dumps({"route": "ft_general_via_fischer", "cases": cases},
                                         indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
