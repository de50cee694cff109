"""Count the code lines of Python modules.

Usage:  python3 .github/code_lines.py [DIR]    (default: src)

A code line holds a token other than a comment or layout (newlines,
indentation), by ``tokenize``; a token that spans several lines, such as a
triple-quoted string, holds each of them.  The lines of module, class and
function docstrings, found with ``ast``, are not counted.  Prints the count
of each module under DIR and the total; it reports and gates nothing.
"""

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.ENCODING,
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            if isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in _LAYOUT:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(path.read_bytes())))


def main(root: str) -> None:
    total = 0
    for path in sorted(Path(root).rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src")
