#!/usr/bin/env python3
"""Print the code lines of each module of src/prunemip and their total.

    python3 tools/loc.py

A code line is a line that is not blank, not a comment line and not part of
a module, class or function docstring. A string that is not a docstring
counts, and so does a line that holds code before its comment.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "prunemip"


def code_lines(path):
    """The number of code lines in the Python file at path."""
    text = Path(path).read_text()
    skip = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                skip.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skip)


def main():
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = code_lines(path)
        total += lines
        print(f"{path.name} {lines}")
    print(f"total {total}")


if __name__ == "__main__":
    main()
