#!/usr/bin/env python3
"""Count the code lines of the engine's source files.

A code line is a line that holds a token of code: blank lines, comment
lines and the lines of docstrings (the leading string of a module, class
or function) are left out.  A statement split over several lines counts
every line it spans.  Prints one count per file and the total:

    python3 scripts/src_lines.py [directory]   # default: src/conic
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT = Path(__file__).resolve().parent.parent / "src" / "conic"

# tokens that are no code of their own
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def count(directory: Path) -> dict[str, int]:
    """Code lines per ``.py`` file of a directory, by file name."""
    return {path.name: code_lines(path.read_text())
            for path in sorted(directory.glob("*.py"))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("directory", nargs="?", type=Path, default=DEFAULT,
                    help="directory of .py files (default: src/conic)")
    args = ap.parse_args(argv)
    counts = count(args.directory)
    for name, n in counts.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
