"""Report the engine statements that the tier-1 tests never run.

Usage: python tools/reach.py [extra pytest arguments]

Runs the tier-1 suite in this process under `sys.settrace` and
`threading.settrace`, records every line executed in `src/semqa`, then
prints each statement none of whose lines ran as `path:line: text`,
followed by the counts per module and in total.  A statement is an
`ast.stmt` other than a `def`, a `class` or a docstring; a compound
statement (`if`, `for`, `with`, `try`, ...) counts as run when its header
ran.  It reports and gates nothing, and writes no file into the
repository: bytecode caching and the pytest cache are switched off, and
hypothesis keeps its files in a temporary directory.

A traced run is several times slower than a plain one, and a test that
counts garbage objects may see the tracer's frames.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINE = ROOT / "src" / "semqa"


def statements(path: Path) -> dict[int, tuple[int, int]]:
    """First line -> the (first, last) lines a line event of the statement
    may carry, for every counted statement of one module."""
    tree = ast.parse(path.read_text("utf-8"))
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.add(first)
    spans = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in docstrings or isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno   # a header ends before its body
        spans[node.lineno] = (node.lineno, max(last, node.lineno))
    return spans


def main(argv: list[str]) -> int:
    sys.dont_write_bytecode = True
    ran: dict[str, set[int]] = {}
    prefix = str(ENGINE) + "/"

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set())
        return local

    import pytest

    with tempfile.TemporaryDirectory() as scratch:
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = scratch
        threading.settrace(tracer)
        sys.settrace(tracer)
        try:
            status = pytest.main(["-q", "-p", "no:cacheprovider",
                                  "--continue-on-collection-errors",
                                  "--rootdir", str(ROOT), str(ROOT), *argv])
        finally:
            sys.settrace(None)
            threading.settrace(None)

    total = missed = 0
    counts = []
    for path in sorted(ENGINE.rglob("*.py")):
        lines = path.read_text("utf-8").splitlines()
        hit = ran.get(str(path), set())
        spans = statements(path)
        never = [first for first, (lo, hi) in sorted(spans.items())
                 if not any(n in hit for n in range(lo, hi + 1))]
        for first in never:
            print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
        counts.append((path.relative_to(ROOT), len(never), len(spans)))
        total += len(spans)
        missed += len(never)
    for name, n, of in counts:
        print(f"{name}: {n} of {of} statements never ran")
    print(f"total: {missed} of {total} statements never ran (pytest exit status {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
