"""Count the code lines of each module of the library.

Run from the repository root:

    python tests/code_lines.py

A code line is a line of a module of `src/snfglp` that holds a token of
code: not blank, not only a `#` comment, and not in a docstring (the
string that opens a module, class or function body).  A line in a
multi-line string or bracket counts where it holds code.  The count is
printed per module, in name order, and the total last.  It uses the
standard library alone; pytest does not collect it.
"""
from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "snfglp")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines in the source `text`."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def main() -> int:
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                count = code_lines(fh.read())
            total += count
            print(f"{name[:-3]} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
