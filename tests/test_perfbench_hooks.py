"""The benchmark in `perfbench/` wraps engine functions by name and builds
engine configs.  A refactor that renames or removes one of them must fail
here, in the test suite, not later in a benchmark run.  Only reads
`perfbench/`.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

import semqa
from semqa import babi, context

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    # no bytecode cache is written into the benchmark's directory
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        importlib.import_module("workloads")
        yield importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved


def test_every_traced_name_resolves(tracer):
    hooks = tracer.SPANS + tracer.COUNTED
    assert hooks
    for name, owner, attr in hooks:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner!r} has no {attr!r}"


def test_workload_configs_construct(tracer, lex):
    assert babi.TaskConfig(task=1).babi_last
    context.QueryConfig()
    semqa.Matcher(lex)


def test_parse_cache_sits_behind_the_traced_parse(lex, monkeypatch):
    # the tracer counts every parse request at `parse_utterance` and only
    # the misses below it; `matcher.distinct_text_share` depends on both
    calls = {"parse_utterance": 0, "match_phrases": 0}

    def counted(attr):
        original = getattr(semqa.Matcher, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)
        return wrapper

    for attr in calls:
        monkeypatch.setattr(semqa.Matcher, attr, counted(attr))
    m = semqa.Matcher(lex)
    m.parse_single("Mary went to the kitchen.")
    m.parse_single("Mary went to the kitchen.")
    assert calls == {"parse_utterance": 2, "match_phrases": 1}


def test_workloads_run_the_engine_calls(tracer, lex, synth):
    # the calls each workload makes, once, on two small mixed stories
    workloads = sys.modules["workloads"]
    rng = synth.rng_for(1, "hooks")
    stories = [synth.mixed_story(rng, 12, every=4, inject=True) for _ in range(2)]
    inputs = workloads.Inputs(documents=[workloads._document(None, stories)], replay=stories)
    tally = workloads.Tally()
    workloads.batch_pass(lex, inputs, tally, workloads.Samples())
    for story in stories:
        workloads.repl_story(lex, semqa.Matcher(lex), story, tally, workloads.Latencies())
    assert tally.failed == 0 and tally.attempted == 2 * len(inputs.documents[0].questions) == 12
