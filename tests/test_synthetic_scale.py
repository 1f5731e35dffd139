"""Synthetic stories with an independent world simulator as oracle.

The stories come from the benchmark's simulator, `perfbench/synth.py`,
which tracks positions and holdings with plain dicts, writes stories in
the benchmark sentence shapes, and computes every answer itself; the
engine must agree with the written answer and with the simulator's truth
on all of them.  A second run injects stale expected answers (the
documented dataset-error patterns) and checks the auditor classifies
every one, leaving zero unexplained failures.
"""

from __future__ import annotations

import time

from semqa.babi import TaskConfig, run_task, score

from conftest import synthetic_stories


def test_synthetic_tasks_agree_with_simulator(lex, synth):
    started = time.time()
    questions = 0
    for task in (1, 5, 6, 7, 8, 9, 11, 12, 13):
        stories, asked = synthetic_stories(task, 120, seed=task * 17)
        results = run_task(stories, lex, TaskConfig(task=task))
        report = score(results)
        questions += report.total
        assert report.strict_accuracy == 1.0, (
            task, [(r.question, r.produced, r.expected, r.explanation)
                   for r in results if r.status != "passed"][:3])
        assert len(results) == len(asked)
        wrong = [(r.question, r.produced, q.truth) for r, q in zip(results, asked)
                 if not synth.keyword_ok(q, r.produced)]
        assert not wrong, (task, wrong[:3])
    elapsed = time.time() - started
    # the full-dataset budget is 10k lines in under a minute
    assert questions / elapsed > 50, f"{questions} questions in {elapsed:.1f}s"


def test_injected_dataset_errors_all_classified(lex, synth):
    stories, asked = synthetic_stories(5, 200, seed=99, stale=5)
    results = run_task(stories, lex, TaskConfig(task=5))
    assert len(results) == len(asked)
    injected = [(r.story_id, r.line_id) for r, q in zip(results, asked) if q.injected]
    assert injected, "the generator should have injected stale answers"
    report = score(results)
    assert report.failed == 0, [
        (r.question, r.produced, r.expected, r.explanation)
        for r in results if r.status == "failed"][:3]
    flagged = {(r.story_id, r.line_id) for r in results if r.status == "gigo"}
    assert flagged == set(injected)
    assert all(r.classification == "G1" for r in results if r.status == "gigo")
    # each flagged answer is the simulator's truth, not the stale one
    assert all(synth.keyword_ok(q, r.produced) for r, q in zip(results, asked)
               if r.status == "gigo")
