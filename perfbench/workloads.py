"""The benchmark's three workloads and the engine calls they make.

Every workload runs in one process and one thread as a closed loop: the
next line goes in only after the previous one returns.

* Batch passes make the calls `semqa run` makes for each task document:
  `parse_babi_file` -> `run_task` -> `score` (the CSV export is left out
  to keep disk writes out of the numbers).
* REPL lines make the calls `semqa repl` makes with its default config:
  `Matcher.parse_single` -> `ContextTracker.ingest` or `answer_question`
  -> `realize_answer(mode="natural")`, each line timed on its own.

babi-short and babi-long time batch passes for throughput and replay some
of the same stories through the REPL calls for per-line latency;
long-story is one REPL session that never enters the batch harness.
Every answer is checked against the simulator in `synth`, never against
the engine.
"""

from __future__ import annotations

import gc
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

from semqa import babi, nlg
from semqa.context import ContextTracker, QueryConfig
from semqa.nlg import RealizationRequest

import synth

# babi-short: the bAbI shape, one document per supported task family.
SHORT_STORIES_PER_TASK = 120
SHORT_REPLAY_PER_TASK = 30
# babi-long: long mixed batch stories, a question every few statements.
LONG_STATEMENTS = 300
LONG_QUESTION_EVERY = 4
LONG_STORIES = 6
# long-story: one REPL session, probe batches at three store sizes.
SESSION_PROBES = {100: 33, 1000: 33, 4000: 110}   # whole PROBE_MIX cycles
SESSION_ITEMS = max(SESSION_PROBES)


@dataclass
class Document:
    task: int | None
    text: str
    questions: list[synth.Question]
    stories: int
    lines: int


@dataclass
class Inputs:
    documents: list[Document] = field(default_factory=list)
    replay: list[list[synth.Line]] = field(default_factory=list)
    session: list[synth.Line] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        repl = self.replay + ([self.session] if self.session else [])
        return {
            "batch_documents": len(self.documents),
            "batch_stories": sum(d.stories for d in self.documents),
            "batch_lines": sum(d.lines for d in self.documents),
            "batch_questions": sum(len(d.questions) for d in self.documents),
            "batch_injected": sum(q.injected for d in self.documents for q in d.questions),
            "repl_stories": len(repl),
            "repl_lines": sum(len(s) for s in repl),
            "repl_questions": sum(1 for s in repl for line in s if line.question),
        }


def _document(task, stories) -> Document:
    return Document(task, synth.babi_document(stories),
                    [line.question for s in stories for line in s if line.question],
                    len(stories), sum(len(s) for s in stories))


def make_inputs(workload: str, seed: int) -> Inputs:
    """The workload's generated text; the same seed gives the same text."""
    inputs = Inputs()
    if workload == "babi-short":
        for task in synth.FAMILIES:
            stories = synth.family_stories(synth.rng_for(seed, f"short-{task}"),
                                           task, SHORT_STORIES_PER_TASK)
            inputs.documents.append(_document(task, stories))
            inputs.replay += stories[:SHORT_REPLAY_PER_TASK]
    elif workload == "babi-long":
        rng = synth.rng_for(seed, "long")
        stories = [synth.mixed_story(rng, LONG_STATEMENTS, every=LONG_QUESTION_EVERY,
                                     inject=True)
                   for _ in range(LONG_STORIES)]
        inputs.documents.append(_document(None, stories))
        inputs.replay = stories
    elif workload == "long-story":
        inputs.session = synth.mixed_story(synth.rng_for(seed, "session"),
                                           SESSION_ITEMS, probes=SESSION_PROBES)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


class Tally:
    """Questions checked against the oracle, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"wrong: {what}", file=sys.stderr)

    def error(self, what: str):
        self.failed += 1
        if self.failed <= 5:
            print(f"error: {what}", file=sys.stderr)


@dataclass
class Latencies:
    """Per-line REPL latencies of one pass, in the order the lines went in."""
    line_ms: list[float] = field(default_factory=list)
    statement_ms: list[float] = field(default_factory=list)
    answer_ms: list[float] = field(default_factory=list)
    answer_items: list[int] = field(default_factory=list)   # store size when asked

    def answers_at(self, items: int) -> list[float]:
        return [ms for ms, n in zip(self.answer_ms, self.answer_items) if n == items]


@dataclass
class Samples:
    """What a run measured.  Every pass sends the same lines, so a line's
    latency is the median of its timings over the passes, and percentiles
    are taken over lines: a hiccup of the machine slows one timing of a
    line, not its median.  Rates get one value per pass and their median."""
    pass_s: list[float] = field(default_factory=list)
    per_pass: dict[str, list[float]] = field(default_factory=dict)
    line_ms: dict[str, list[list[float]]] = field(default_factory=dict)

    def add(self, name: str, value: float):
        self.per_pass.setdefault(name, []).append(value)

    def add_lines(self, name: str, ms: list[float]):
        """One pass's latencies of the lines `name`, in line order."""
        self.line_ms.setdefault(name, []).append(ms)

    def medians(self) -> dict[str, float]:
        out = {name: statistics.median(v) for name, v in self.per_pass.items()}
        lines = {name: [statistics.median(t) for t in zip(*passes)]
                 for name, passes in self.line_ms.items()}
        if "line" in lines:     # a session's rate, from its lines' medians
            out["lines_per_s"] = 1e3 * len(lines["line"]) / sum(lines["line"])
        if "statement" in lines:
            out["statement_ms_p50"] = statistics.median(lines["statement"])
            out["statement_ms_p99"] = percentile(lines["statement"], 99)
        if "answer" in lines:
            out["answer_ms_p50"] = statistics.median(lines["answer"])
            out["answer_ms_p90"] = percentile(lines["answer"], 90)
        for size in SESSION_PROBES:
            if f"answer_{size}" in lines:
                out[f"answer_ms_p50_{size}_items"] = statistics.median(lines[f"answer_{size}"])
                out[f"answer_ms_max_{size}_items"] = max(lines[f"answer_{size}"])
        return out


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def batch_pass(lexicon, inputs: Inputs, tally: Tally, samples: Samples):
    """Every document through the `semqa run` calls; only the calls are
    timed, the oracle check and dropping the results are not."""
    elapsed = 0.0
    for doc in inputs.documents:
        gc.collect()
        start = perf_counter()
        stories = babi.parse_babi_file(doc.text)
        results = babi.run_task(stories, lexicon, babi.TaskConfig(task=doc.task))
        report = babi.score(results)
        seconds = perf_counter() - start
        elapsed += seconds
        if doc.task is not None:
            samples.add(f"lines_per_s_task{doc.task}", doc.lines / seconds)
        check_batch(doc, results, report, tally)
        del stories, results
    samples.pass_s.append(elapsed)
    samples.add("lines_per_s", sum(d.lines for d in inputs.documents) / elapsed)


def check_batch(doc: Document, results, report, tally: Tally):
    if len(results) != len(doc.questions):
        tally.error(f"{len(results)} results for {len(doc.questions)} questions")
        return
    for r, q in zip(results, doc.questions):
        ok = synth.keyword_ok(q, r.produced)
        if q.injected:      # a stale expected answer: the audit must say G1
            ok = ok and r.status == "gigo" and r.classification == "G1"
        else:
            ok = ok and r.status == "passed"
        tally.check(ok, f"story {r.story_id} {r.question!r} -> {r.produced!r} "
                        f"[{r.status} {r.classification}], truth {q.truth!r}")
    gigo = sum(q.injected for q in doc.questions)
    if report.gigo != gigo or report.total != len(doc.questions):
        tally.error(f"score {report.summary()}; {gigo} injected")


def repl_story(lexicon, matcher, lines, tally: Tally, lat: Latencies):
    """One story through the `semqa repl` calls, each line timed."""
    tracker = ContextTracker(lexicon, QueryConfig())
    for line in lines:
        q = line.question
        start = perf_counter()
        try:
            prop = matcher.parse_single(line.text)
            if q is None:
                tracker.ingest(prop)
            else:
                content = tracker.answer_question(prop)
                answer = nlg.realize_answer(
                    RealizationRequest(content, mode="natural"), lexicon)
        except Exception as exc:    # an engine failure is a wrong answer
            tally.error(f"{line.text!r} raised {type(exc).__name__}: {exc}")
            if q is not None:
                tally.attempted += 1
            continue
        ms = (perf_counter() - start) * 1e3
        lat.line_ms.append(ms)
        if q is None:
            lat.statement_ms.append(ms)
        else:
            lat.answer_ms.append(ms)
            lat.answer_items.append(len(tracker.items))
            tally.check(synth.natural_ok(q, answer),
                        f"{line.text!r} -> {answer!r}, truth {q.truth!r}")


def replay(lexicon, matcher, inputs: Inputs, tally: Tally, samples: Samples):
    gc.collect()
    lat = Latencies()
    for story in inputs.replay:
        repl_story(lexicon, matcher, story, tally, lat)
    samples.add_lines("statement", lat.statement_ms)
    samples.add_lines("answer", lat.answer_ms)


def session(lexicon, matcher, inputs: Inputs, tally: Tally, samples: Samples):
    """The long-story REPL session; its line rate counts every line and
    its answer latency is taken at the largest store."""
    gc.collect()
    lat = Latencies()
    start = perf_counter()
    repl_story(lexicon, matcher, inputs.session, tally, lat)
    samples.pass_s.append(perf_counter() - start)
    samples.add_lines("line", lat.line_ms)
    if set(lat.answer_items) != set(SESSION_PROBES):
        tally.error(f"probes answered at store sizes {sorted(set(lat.answer_items))}, "
                    f"expected {sorted(SESSION_PROBES)}")
        return
    samples.add_lines("statement", lat.statement_ms)
    samples.add_lines("answer", lat.answers_at(SESSION_ITEMS))
    for size in SESSION_PROBES:
        samples.add_lines(f"answer_{size}", lat.answers_at(size))


def main_pass(workload: str, lexicon, matcher, inputs, tally, samples, replay_too=True):
    """One pass over the workload's inputs."""
    if workload == "long-story":
        session(lexicon, matcher, inputs, tally, samples)
        return
    batch_pass(lexicon, inputs, tally, samples)
    if replay_too:
        replay(lexicon, matcher, inputs, tally, samples)


def warm_up(lexicon, matcher, inputs: Inputs):
    """A short untimed pass so lazy caches fill before timing."""
    lines = inputs.session[:300] if inputs.session else inputs.replay[0]
    repl_story(lexicon, matcher, [ln for ln in lines if ln.question is None],
               Tally(), Latencies())
    for doc in inputs.documents:
        stories = babi.parse_babi_file(doc.text)[:3]
        babi.run_task(stories, lexicon, babi.TaskConfig(task=doc.task))


END_TO_END = ("lines_per_s", "statement_ms_p50", "statement_ms_p99",
              "answer_ms_p50", "answer_ms_p90")
