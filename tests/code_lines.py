"""Code lines of ``src/polystack/*.py``, in total and per module.

Run from the repository root with ``python tests/code_lines.py``, or give
the source directory as the first argument. A code line is one covered by
an AST statement or expression that is not blank, not a comment and not
inside a docstring (the first string statement of a module, class or
function). A change meant to simplify the code shows as a smaller total.
pytest does not collect this file.
"""

import ast
import sys
from pathlib import Path


def code_lines(source: str) -> int:
    tree = ast.parse(source)
    covered, docstrings = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.stmt, ast.expr)):
            covered.update(range(node.lineno, node.end_lineno + 1))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = source.splitlines()
    return sum(
        1
        for i in covered - docstrings
        if lines[i - 1].strip() and not lines[i - 1].lstrip().startswith("#")
    )


def main(root: Path) -> None:
    counts = {path.name: code_lines(path.read_text()) for path in sorted(root.glob("*.py"))}
    print(f"total {sum(counts.values())}")
    for name, count in counts.items():
        print(f"{name} {count}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent.parent / "src" / "polystack")
