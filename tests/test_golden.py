"""Golden snapshot of what the engine produces on a fixed input set.

Covers every bundled fixture and a small fixed synthetic sample (a few
stories per task family, plus task-5 stories with injected stale answers).
For each story it records the context trace (every ingested item's
trace line) and, for each question:

* the question's rendered logical structure and operators;
* the harness's keyword answer, status, audit classification and
  explanation (`run_task` with the default task config);
* the untrimmed answer: polarity, match heads and support item ids;
* the natural answer under the REPL's default config.

A refactor that claims "same behaviour" must leave the snapshot
byte-identical.  After an intended behaviour change, regenerate it with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

import semqa
from semqa.babi import TaskConfig, parse_babi_file, run_task
from semqa.context import ContextTracker, QueryConfig
from semqa.matcher import Matcher
from semqa.nlg import RealizationRequest, realize_answer
from semqa.semantics import render

from test_synthetic_scale import run_synthetic

GOLDEN = Path(__file__).resolve().parent / "golden" / "engine_snapshot.txt"
SYNTHETIC_TASKS = (1, 5, 6, 7, 8, 9, 11, 12, 13)
SYNTHETIC_STORIES = 3


def fixture_documents() -> list[tuple[str, int | None, str]]:
    folder = resources.files("semqa").joinpath("data/fixtures")
    out = []
    for name in sorted(p.name for p in folder.iterdir() if p.name.endswith(".txt")):
        digits = "".join(c for c in name if c.isdigit())
        out.append((name, int(digits) if digits else None,
                    semqa.fixture_path(name).read_text("utf-8")))
    return out


def synthetic_sets():
    for task in SYNTHETIC_TASKS:
        stories, _ = run_synthetic(task, SYNTHETIC_STORIES, seed=500 + task)
        yield f"synthetic task {task}", task, stories
    # injections are rare: keep the stories that carry one
    stories, injected = run_synthetic(5, 10, seed=222, inject_errors=True,
                                      min_injected=3)
    assert len(injected) >= 3
    yield ("synthetic task 5 injected", 5,
           [stories[i - 1] for i in sorted({story for story, _ in injected})])


def _error(exc: Exception) -> str:
    return f"! {type(exc).__name__}: {exc}"


def snapshot_story(lex, matcher, story, results) -> list[str]:
    """The REPL path over one story, next to the harness's results."""
    tracker = ContextTracker(lex, QueryConfig())
    lines = []
    for rec in story:
        if not rec.is_question:
            try:
                tracker.ingest(matcher.parse_single(rec.text))
            except Exception as exc:
                lines.append(f"  statement {rec.line_id}: {_error(exc)}")
            continue
        r = next(results)
        assert (r.line_id, r.question) == (rec.line_id, rec.text)
        lines.append(f"  q {rec.line_id} {rec.text} (expected {rec.expected})")
        lines.append(f"    run: {r.produced} [{r.status} {r.classification}] "
                     f"{r.explanation or ''}".rstrip())
        try:
            prop = matcher.parse_single(rec.text)
            ops = prop.operators
            lines.append(f"    ls: {render(prop.ls, lex)} [{ops.describe()};"
                         f"{ops.person},{ops.number}]")
            content = tracker.answer_question(prop)
            lines.append(f"    matches: {content.polarity} "
                         + " | ".join(f"{render(b, lex)}@{s}" for b, s in zip(
                             content.bindings, content.support))
                         + f" support={content.support}")
            lines.append("    natural: " + realize_answer(
                RealizationRequest(content, mode="natural"), lex))
        except Exception as exc:
            lines.append(f"    repl: {_error(exc)}")
    return ["  trace:"] + ["    " + t for t in tracker.trace().splitlines()] + lines


def build_snapshot(lex) -> str:
    matcher = Matcher(lex)
    sets = [(name, task, parse_babi_file(doc)) for name, task, doc in fixture_documents()]
    sets += list(synthetic_sets())
    out = []
    for name, task, stories in sets:
        results = iter(run_task(stories, lex, TaskConfig(task=task)))
        for story_id, story in enumerate(stories, start=1):
            out.append(f"== {name} story {story_id}")
            out += snapshot_story(lex, matcher, story, results)
        assert next(results, None) is None
    return "\n".join(out) + "\n"


def test_engine_output_matches_golden_snapshot(lex):
    expected = GOLDEN.read_text("utf-8")
    actual = build_snapshot(lex)
    if actual != expected:
        diff = [f"line {i}: expected {e!r}\n        got {a!r}"
                for i, (e, a) in enumerate(zip(expected.splitlines(),
                                               actual.splitlines()), start=1)
                if e != a]
        raise AssertionError("engine output differs from the golden snapshot:\n"
                             + "\n".join(diff[:10] or ["(length differs)"]))


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(build_snapshot(semqa.load_core_lexicon()), "utf-8")
    print(f"wrote {GOLDEN}")
