"""Count the non-blank, non-comment lines of each module of ``src/beamilc``.

    python3 tools/src_lines.py [SRC_DIR]

A line counts unless it is blank or its first non-blank character is ``#``;
docstrings count. Prints one ``lines module`` row per module, sorted by
name, then the total. It checks nothing and always exits 0.
"""
from __future__ import annotations

import sys
from pathlib import Path


def code_lines(path):
    """Lines of ``path`` that are neither blank nor ``#`` comments."""
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip() and not line.lstrip().startswith("#"))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "beamilc"
    counts = {path.name: code_lines(path) for path in sorted(root.glob("*.py"))}
    for name, count in counts.items():
        print(f"{count:6d} {name}")
    print(f"{sum(counts.values()):6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
