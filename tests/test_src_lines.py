import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from src_lines import code_lines, main  # noqa: E402

MODULE = '''"""A module docstring
over two lines."""

# a comment
    # an indented comment
import math


def area(r):
    """Docstring lines count."""
    return math.pi * r * r  # a trailing comment keeps its line
\t
'''


def test_blank_and_comment_lines_are_skipped(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(MODULE, encoding="utf-8")
    # the docstring's two lines, the import, def, its docstring and return
    assert code_lines(path) == 6


def test_rows_per_module_sorted_then_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "a.py").write_text("x = 1\n\n# note\ny = 2\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not a module\n", encoding="utf-8")
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     2 a.py", "     6 b.py", "     8 total"]
