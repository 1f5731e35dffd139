"""Span tracer that wraps the engine's public functions from outside.

Each wrapper is installed where the name is looked up at call time: a
method on its class, or a module global in the module that calls it
(`parse_utterance` calls `semqa.matcher.tokenize`, the context module
calls `semqa.context.unify`, `run_task` calls `semqa.babi.realize_answer`).
Spans (name, start, end, parent) stay in memory until their pass ends;
the last traced pass's spans are written out at the end.  A span's
self time is its duration minus the durations of its direct children; one
thread runs everything, so children never overlap.

The hottest functions are counted, not timed: a timing wrapper around
every call inflates the run by tens of percent.
"""

from __future__ import annotations

import gzip
from collections import Counter, defaultdict
from time import perf_counter

import semqa
from semqa import babi, context, matcher, nlg
from semqa.context import ContextTracker
from semqa.lexicon import Lexicon
from semqa.matcher import Matcher

# (layer.function, owner, attribute)
SPANS = [
    ("lexicon.load_lexicon", semqa, "load_lexicon"),
    ("matcher.tokenize", matcher, "tokenize"),
    ("matcher.match_phrases", Matcher, "match_phrases"),
    ("matcher.extract_operators", Matcher, "extract_operators"),
    ("matcher.parse_utterance", Matcher, "parse_utterance"),
    ("context.ingest", ContextTracker, "ingest"),
    ("context.answer_question", ContextTracker, "answer_question"),
    ("context.trace", ContextTracker, "trace"),
    ("semantics.unify", context, "unify"),
    ("nlg.realize_answer", nlg, "realize_answer"),
    ("nlg.realize_answer", babi, "realize_answer"),
    ("babi.parse_babi_file", babi, "parse_babi_file"),
    ("babi.check_vocabulary", babi, "check_vocabulary"),
    ("babi.run_task", babi, "run_task"),
    ("babi.audit_mismatch", babi, "audit_mismatch"),
]
COUNTED = [
    ("lexicon.holds_category", Lexicon, "holds_category"),
    ("semantics.render", context, "render"),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.sums: Counter[str] = Counter()     # observed sizes, see _observe
        self.texts: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self):
        for name, owner, attr in SPANS:
            self._patch(owner, attr, self._span(name, getattr(owner, attr)))
        for name, owner, attr in COUNTED:
            self._patch(owner, attr, self._count(name, getattr(owner, attr)))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = self._observe

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            observe(name, args, result)
            return result
        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _observe(self, name, args, result):
        """Sizes seen at a boundary, for the per-layer ratios."""
        if name == "matcher.match_phrases":
            self.sums["tokens"] += len(args[1])
            self.sums["elements"] += len(result)
        elif name == "matcher.parse_utterance":
            self.texts.add(args[1])
        elif name == "context.answer_question":
            self.sums["items_scanned"] += len(args[0].items)
        elif name == "context.trace":
            self.sums["items_rendered"] += len(args[0].items)

    # -- results ----------------------------------------------------------

    def end_pass(self) -> list[tuple[str, float, float, int]]:
        """Fold this pass's spans into the totals; returns and forgets them,
        so memory holds one pass of spans at a time."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            self.self_s[name] += end - start - child[i]
            self.calls[name] += 1
        spans = list(self.spans)
        self.spans.clear()
        return spans


def write_spans(spans, path, header: str):
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write(f"# {header}\n")
        fh.write("index\tname\tstart\tend\tparent\n")
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def layer_metrics(tracer: Tracer, passes: int, questions: int) -> dict[str, float]:
    """Per-layer metrics, per traced pass over the workload's inputs."""
    self_s, calls = tracer.self_s, tracer.calls
    out: dict[str, float] = {}
    for name in sorted({n for n, _, _ in SPANS}):
        out[f"{name}.self_s"] = self_s[name] / passes
        out[f"{name}.calls"] = calls[name] / passes
    for name, _, _ in COUNTED:
        out[f"{name}.calls"] = calls[name] / passes
    sums = tracer.sums
    answers = calls["context.answer_question"]
    out["matcher.elements_per_token"] = sums["elements"] / max(sums["tokens"], 1)
    # every pass parses the same texts: distinct texts over one pass's parses
    out["matcher.distinct_text_share"] = len(tracer.texts) / max(
        calls["matcher.parse_utterance"] / passes, 1)
    out["context.items_per_answer"] = sums["items_scanned"] / max(answers, 1)
    out["context.answers_per_question"] = answers / passes / max(questions, 1)
    out["context.trace.items_rendered"] = sums["items_rendered"] / passes
    return out
