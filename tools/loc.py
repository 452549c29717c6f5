"""Count the logical source lines of a Python tree.

A line counts when it holds a code token: blank lines, comment-only lines
and the lines of docstrings (a string-literal statement that opens a
module, class or function body) are skipped. A statement spread over
several lines counts each line that holds a token. Standard library only.

Usage: ``python3 tools/loc.py [ROOT]`` (default ``src``). Prints one
``count path`` line per module, then the total.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by the docstrings in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> int:
    """Lines of ``source`` that hold a code token outside a docstring."""
    skip = docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skip)


def main(argv: list[str]) -> None:
    root = Path(argv[1] if len(argv) > 1 else "src")
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = count(path.read_text())
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv)
