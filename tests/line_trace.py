"""Statements of ``src/polystack/*.py`` that no test runs.

Run from the repository root with ``python tests/line_trace.py``; any
further arguments go to pytest (by default the whole suite). It runs
pytest in this process under ``sys.settrace``, recording the lines run
in ``src/polystack/`` only, and prints the statements none of them
covers, per module, with a total. A statement is an AST statement other
than a docstring, a ``def`` or ``class`` header, an ``import``, ``global``
or ``nonlocal``; it ran when any line it spans ran. Code that runs only
in a subprocess counts as not run. The trace is installed before
``polystack`` is imported, so module-level statements count too. The
trace slows the suite several times over. pytest does not collect this
file.
"""

import ast
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polystack"
_SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
         ast.Global, ast.Nonlocal)


def statements(source: str) -> list[ast.stmt]:
    """The statements a test can run, in source order."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.add(id(first))
    found = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and not isinstance(node, _SKIP) and id(node) not in docstrings
    ]
    return sorted(found, key=lambda node: (node.lineno, node.col_offset))


def trace(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines run per file under SRC."""
    prefix = str(SRC) + "/"
    ran: dict[str, set[int]] = {}

    def global_trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        lines = ran.setdefault(name, set())

        def local_trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local_trace

        return local_trace

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        import pytest

        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(pytest_args: list[str]) -> int:
    code, ran = trace(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *pytest_args])
    total = 0
    report = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = ran.get(str(path), set())
        missed = [
            node
            for node in statements(source)
            if not lines.intersection(range(node.lineno, node.end_lineno + 1))
        ]
        total += len(missed)
        if missed:
            text = source.splitlines()
            report.append(f"{path.name} {len(missed)}")
            report += [f"  {node.lineno}: {text[node.lineno - 1].strip()}" for node in missed]
    print(f"not run: total {total}")
    print("\n".join(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
