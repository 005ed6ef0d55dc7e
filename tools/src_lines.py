"""Line counts of the package sources: `wc -l` and code lines per module.

A code line holds at least one token that is not a comment and lies
outside every docstring (the leading string statement of a module, class
or function, found with `ast`).  Blank lines, comment-only lines and
docstring lines are not code.  Run from anywhere:

    python3 tools/src_lines.py

Each module of the package under `src/` gets one line, then the totals.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path
from typing import Set, Tuple

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coxloops"
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
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


def counts(source: str) -> Tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    skip = docstring_lines(ast.parse(source))
    code: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return source.count("\n"), len(code)


def main() -> None:
    total_lines = total_code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines, code = counts(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{path.name:16} {lines:6} {code:6}")
    print(f"{'total':16} {total_lines:6} {total_code:6}")


if __name__ == "__main__":
    main()
