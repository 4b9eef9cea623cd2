"""Print the code-line count of the isingchain package.

A code line is a source line that holds a token other than a comment or a
docstring; blank lines, comment lines and docstring lines do not count.
Run from anywhere: ``python3 tools/code_lines.py``.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "isingchain"

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """(line, column) where each module, class or function docstring starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0].value
            starts.add((doc.lineno, doc.col_offset))
    return starts


def code_lines(source: str) -> int:
    docstrings = _docstring_starts(source)
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    print(sum(code_lines(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))))


if __name__ == "__main__":
    main()
