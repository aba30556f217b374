"""Count the lines of `src/` on a parent commit and in the working tree.

    python3 tools/src_lines.py --parent HEAD

Run from the repository root; only the standard library is needed.  The
parent commit is exported with `bench_pairs.export_parent` into a
temporary directory, and the working tree's `src/` is read in place.
Every `.py` file under `src/` is one module.  Each of its lines is counted
once, in the first class that holds it:

* docstring: inside the `ast` span of a module, class or function
  docstring, blank lines within it included;
* blank: only whitespace;
* comment: a `#` is its first non-blank character;
* code: every other line.

One JSON record is printed: per side (`parent`, `change`) the counts per
module and in total, and `delta`, change minus parent, per module and in
total; a module on one side only counts as zero on the other.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from bench_pairs import ROOT, export_parent  # noqa: E402

KINDS = ("lines", "code", "docstring", "comment", "blank")
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The 1-based numbers of the lines that module, class and function
    docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count_source(source: str) -> dict[str, int]:
    """The line counts of one module's text, by kind."""
    docs = docstring_lines(source)
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        kind = "docstring" if number in docs else "blank" if not text else "comment" if text[0] == "#" else "code"
        counts[kind] += 1
        counts["lines"] += 1
    return counts


def count_tree(src: Path) -> dict:
    """Counts per module (its path under src) and in total."""
    modules = {path.relative_to(src).as_posix(): count_source(path.read_text())
               for path in sorted(src.rglob("*.py")) if "__pycache__" not in path.parts}
    total = {kind: sum(counts[kind] for counts in modules.values()) for kind in KINDS}
    return {"total": total, "modules": modules}


def delta(parent: dict, change: dict) -> dict:
    """change minus parent, per module and in total."""
    zero = dict.fromkeys(KINDS, 0)
    names = sorted(parent["modules"].keys() | change["modules"].keys())

    def diff(a: dict, b: dict) -> dict:
        return {kind: b[kind] - a[kind] for kind in KINDS}

    return {"total": diff(parent["total"], change["total"]),
            "modules": {name: diff(parent["modules"].get(name, zero), change["modules"].get(name, zero))
                        for name in names}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the commit to compare with, e.g. HEAD")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        export_parent(args.parent, Path(tmp))
        parent = count_tree(Path(tmp) / "src")
    change = count_tree(ROOT / "src")
    print(json.dumps({"parent": {"commit": args.parent, **parent}, "change": change,
                      "delta": delta(parent, change)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
