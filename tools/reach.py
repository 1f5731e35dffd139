"""Report the engine statements and lexicon records that the tier-1
tests never reach.

Usage: python tools/reach.py [extra pytest arguments]

Runs the tier-1 suite in this process under `sys.settrace` and
`threading.settrace`, records every line executed in `src/semqa`, then
prints each statement none of whose lines ran as `path:line: text`,
followed by the counts per module and in total.  A statement is an
`ast.stmt` other than a `def`, a `class` or a docstring; a compound
statement (`if`, `for`, `with`, `try`, ...) counts as run when its header
ran.

Then it prints each record of `src/semqa/data/core.lex` that the run
never reached, as `path:line: record`, followed by the counts per kind
and in total.  For the run, three `Matcher` methods are wrapped to note
what they are given: a form is reached when some matcher built the
prototype element of its surface (`_new_form`), a `vc=` sense when it was
cast (`_cast_sense`), a consolidation when it fired (`_consolidate`), and
a literal when it claimed its words (the prototype of its words, joined
by spaces, built with its emitted sense).

It reports and gates nothing, and writes no file into the repository:
bytecode caching and the pytest cache are switched off, and hypothesis
keeps its files in a temporary directory.

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
LEXICON = ENGINE / "data" / "core.lex"
RECORD_KINDS = ("form", "vc= sense", "consolidation", "literal")


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


def lexicon_records(path: Path) -> list[tuple[str, int, str, tuple[str, ...]]]:
    """(kind, line, record text, key) for each counted record of a lexicon
    file, in file order.  The key is what the wrapped methods note: a
    form's surface, a sense's or a consolidation's id, and a literal's
    words joined by spaces with its emitted sense."""
    from semqa.lexicon import _split_record

    out = []
    for lineno, raw in enumerate(path.read_text("utf-8").splitlines(), start=1):
        parts = _split_record(raw, lineno)
        if not parts:
            continue
        if parts[0] == "form":
            kind, key = "form", (parts[1],)
        elif parts[0] == "sense" and len(parts) > 3 and "vc=" in parts[3]:
            kind, key = "vc= sense", (parts[1],)
        elif parts[0] == "phrase" and parts[2] == "consolidation":
            kind, key = "consolidation", (parts[1],)
        elif parts[0] == "phrase":
            words = [p.removeprefix("sel:word=") for p in parts if p.startswith("sel:word=")]
            emit = next(p.removeprefix("emit=") for p in parts if p.startswith("emit="))
            kind, key = "literal", (" ".join(words), emit)
        else:
            continue
        out.append((kind, lineno, raw.strip(), key))
    return out


def watch_lexicon(reached: set[tuple[str, tuple[str, ...]]]):
    """Wrap the `Matcher` methods that reach lexicon records so that each
    call adds (kind, key) to `reached`; returns the function that
    restores them."""
    from semqa.matcher import Matcher

    new_form, cast_sense, consolidate = Matcher._new_form, Matcher._cast_sense, \
        Matcher._consolidate

    def noting_new_form(self, surface, senses, position):
        reached.add(("form", (surface,)))
        reached.update(("literal", (surface, sense)) for sense, _ in senses)
        return new_form(self, surface, senses, position)

    def noting_cast_sense(self, sense_id, *args):
        reached.add(("vc= sense", (sense_id,)))
        return cast_sense(self, sense_id, *args)

    def noting_consolidate(self, pat, window):
        reached.add(("consolidation", (pat.id,)))
        return consolidate(self, pat, window)

    Matcher._new_form = noting_new_form
    Matcher._cast_sense = noting_cast_sense
    Matcher._consolidate = noting_consolidate

    def restore():
        Matcher._new_form, Matcher._cast_sense, Matcher._consolidate = \
            new_form, cast_sense, consolidate
    return restore


def main(argv: list[str]) -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ENGINE.parent))    # the engine the tests import
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

    reached: set[tuple[str, tuple[str, ...]]] = set()
    with tempfile.TemporaryDirectory() as scratch:
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = scratch
        threading.settrace(tracer)
        sys.settrace(tracer)
        restore = watch_lexicon(reached)    # traced: it imports the engine
        try:
            status = pytest.main(["-q", "-p", "no:cacheprovider",
                                  "--continue-on-collection-errors",
                                  "--rootdir", str(ROOT), str(ROOT), *argv])
        finally:
            sys.settrace(None)
            threading.settrace(None)
            restore()

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

    records = lexicon_records(LEXICON)
    for kind, line, text, key in records:
        if (kind, key) not in reached:
            print(f"{LEXICON.relative_to(ROOT)}:{line}: {text}")
    for kind in RECORD_KINDS:
        of = [key for k, _, _, key in records if k == kind]
        never = sum((kind, key) not in reached for key in of)
        print(f"{kind}: {never} of {len(of)} records never reached")
    never = sum((kind, key) not in reached for kind, _, _, key in records)
    print(f"total: {never} of {len(records)} lexicon records never reached")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
