#!/usr/bin/env python3
"""Line counts of the library sources under src/brandt, per module and in total.

Each non-blank line is counted once: as a docstring line when it lies in a
module, class or function docstring (found with ``ast``), as a comment line
when its first token is a comment (found with ``tokenize``), and as a code
line otherwise.  A code line with a trailing comment counts as code.  Takes
no options; run it from any directory.
"""

import ast
import io
import tokenize
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "brandt"


def docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def comment_lines(text: str) -> set:
    lines, seen = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT):
            continue
        row = tok.start[0]
        if row not in seen and tok.type == tokenize.COMMENT:
            lines.add(row)
        seen.add(row)
    return lines


def count(path: Path) -> tuple[int, int]:
    """(code lines, docstring-plus-comment lines) of one module."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text)) | comment_lines(text)
    nonblank = {i for i, line in enumerate(text.splitlines(), 1) if line.strip()}
    return len(nonblank - docs), len(nonblank & docs)


def main():
    rows = [(path.name, *count(path)) for path in sorted(SOURCES.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module'.ljust(width)}  {'code':>5}  {'docs':>5}")
    for name, code, docs in rows:
        print(f"{name.ljust(width)}  {code:>5}  {docs:>5}")


if __name__ == "__main__":
    main()
