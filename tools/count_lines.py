"""Line counts of Python sources: raw, code and docstring lines.

A line is a code line when it holds a token other than a comment or
whitespace and lies outside every module, class and function docstring.
A docstring line lies in such a docstring's range, first line to last.
Blank and comment-only lines are neither.  Lines inside any other
string, a multi-line argument or help text, are code.

    python tools/count_lines.py src
    python tools/count_lines.py src/hybrid_nls/solver.py tools

prints one row per file, the files under each directory argument
sorted, and a total row.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

#: tokens that hold no code: comments, line ends and indentation
_BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> tuple[int, int, int]:
    """(raw, code, docstring) line counts of one module's source."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _BLANK:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docs), len(docs)


def files(paths: list[str]) -> list[Path]:
    """The .py files named, and those under each directory named, sorted."""
    out = []
    for p in map(Path, paths):
        out.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="Python files or directories")
    args = parser.parse_args(argv)
    total = [0, 0, 0]
    print(f"{'raw':>6} {'code':>6} {'doc':>6}  path")
    for path in files(args.paths):
        row = count(path.read_text(encoding="utf-8"))
        total = [t + n for t, n in zip(total, row)]
        print(f"{row[0]:6d} {row[1]:6d} {row[2]:6d}  {path}")
    print(f"{total[0]:6d} {total[1]:6d} {total[2]:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
