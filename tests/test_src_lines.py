"""tools/src_lines.py on synthetic modules: no commit is exported here."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

# 3 docstring lines (module), 2 (class, with its blank line), 1 (method);
# 3 comments, one of them indented; 6 blank lines; 7 code lines, the
# string assignment, the "#" inside a string and the trailing comment included.
MODULE = '''"""A module.

Two more lines."""

# a comment
import os


class A:
    """Class doc.
    """

    def f(self):
        """Method doc."""
        # indented comment
        x = "not a docstring"
        return os.path.join(x, "#")


def g():
    return 1  # trailing comment, a code line
# last comment
'''


def test_a_module_is_split_into_its_kinds():
    assert src_lines.count_source(MODULE) == {"lines": 22, "code": 7, "docstring": 6, "comment": 3, "blank": 6}


def test_trees_count_per_module_and_the_delta_reads_change_minus_parent(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        (root / "pkg" / "__pycache__").mkdir(parents=True)
        (root / "pkg" / "__pycache__" / "stale.py").write_text("x = 1\n")
    (parent / "pkg" / "a.py").write_text(MODULE)
    (parent / "pkg" / "gone.py").write_text("x = 1\n\n")
    (change / "pkg" / "a.py").write_text(MODULE + "y = 2\n")
    (change / "pkg" / "new.py").write_text('"""Doc."""\n')
    before, after = src_lines.count_tree(parent), src_lines.count_tree(change)
    assert sorted(before["modules"]) == ["pkg/a.py", "pkg/gone.py"]
    assert before["total"] == {"lines": 24, "code": 8, "docstring": 6, "comment": 3, "blank": 7}
    delta = src_lines.delta(before, after)
    assert delta["modules"] == {
        "pkg/a.py": {"lines": 1, "code": 1, "docstring": 0, "comment": 0, "blank": 0},
        "pkg/gone.py": {"lines": -2, "code": -1, "docstring": 0, "comment": 0, "blank": -1},
        "pkg/new.py": {"lines": 1, "code": 0, "docstring": 1, "comment": 0, "blank": 0},
    }
    assert delta["total"] == {"lines": 0, "code": 0, "docstring": 1, "comment": 0, "blank": -1}
