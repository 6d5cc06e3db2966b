"""Print the code lines of each module of src/hardylab, and their total.

A code line is a line that holds a token of code: blank lines, comments and
docstrings (the leading string of a module, class or function) do not count.

    python3 scripts/code_lines.py
"""

from __future__ import annotations

import ast
import pathlib
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "hardylab"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: pathlib.Path) -> int:
    """The number of code lines of the module at path."""
    skip = docstring_lines(ast.parse(path.read_text()))
    with path.open("rb") as source:
        tokens = tokenize.tokenize(source.readline)
        return len({line for tok in tokens if tok.type not in NOT_CODE
                    for line in range(tok.start[0], tok.end[0] + 1)} - skip)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")


if __name__ == "__main__":
    main()
