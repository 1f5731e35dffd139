"""Benchmark harness for numbered-line story files.

Parses the task file format (line ids reset to 1 per story; question lines
carry tab-separated expected answer and supporting line ids), runs stories
through the matcher/context/realizer pipeline, scores keyword answers, and
classifies mismatches as engine errors or documented dataset errors (GIGO).

Scoring is reported two ways: strict (a dataset-error mismatch still counts
as failed) and audited (classified dataset errors are excluded).
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import (
    AnswerContent,
    ContextItem,
    ContextTracker,
    QueryConfig,
    item_receive_candidates,
    latest_match,
)
from .errors import SemqaError
from .lexicon import Lexicon
from .matcher import Matcher, tokenize
from .nlg import RealizationRequest, realize_answer
from .semantics import Referent


class BabiFormatError(SemqaError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class VocabularyGapError(SemqaError):
    def __init__(self, words: list[str]):
        super().__init__("vocabulary gaps: " + ", ".join(sorted(words)))
        self.words = sorted(words)


@dataclass(frozen=True)
class BabiRecord:
    line_id: int
    text: str
    expected: str | None = None
    support: tuple[int, ...] = ()

    @property
    def is_question(self) -> bool:
        return self.expected is not None


@dataclass(frozen=True)
class TaskConfig(QueryConfig):
    """The engine settings of a run: the answering flags of `QueryConfig`,
    the parse flag `strict_take`, and `babi_last`, which cuts transfer
    answers to their latest match as the bAbI datasets expect."""

    # Never read.  Kept because the benchmark builds TaskConfig(task=...);
    # it goes when the benchmark moves to a single engine config.
    task: int | None = None
    babi_last: bool = True
    strict_take: bool = False


@dataclass
class RunResult:
    story_id: int
    line_id: int
    question: str
    expected: str
    produced: str
    status: str                   # passed | failed | gigo
    support: tuple[int, ...] = ()
    classification: str | None = None
    explanation: str | None = None


def parse_babi_file(document: str) -> list[list[BabiRecord]]:
    """Split a task document into stories of records; id 1 starts a story."""
    stories: list[list[BabiRecord]] = []
    current: list[BabiRecord] = []
    for lineno, raw in enumerate(document.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        head, sep, rest = line.partition(" ")
        if not sep or not head.isdigit():
            raise BabiFormatError(f"malformed line {line!r}", lineno)
        line_id = int(head)
        if line_id == 1 and current:
            stories.append(current)
            current = []
        if "\t" in rest:
            fields = rest.split("\t")
            if len(fields) < 2:
                raise BabiFormatError("question line needs an answer field", lineno)
            text = fields[0].strip()
            expected = fields[1].strip()
            support: tuple[int, ...] = ()
            if len(fields) > 2 and fields[2].strip():
                try:
                    support = tuple(int(s) for s in fields[2].split())
                except ValueError:
                    raise BabiFormatError(
                        f"bad supporting ids {fields[2]!r}", lineno) from None
            current.append(BabiRecord(line_id, text, expected, support))
        else:
            current.append(BabiRecord(line_id, rest.strip()))
    if current:
        stories.append(current)
    return stories


def story_vocabulary(stories: list[list[BabiRecord]]) -> set[str]:
    words: set[str] = set()
    for story in stories:
        for rec in story:
            tokens, _ = tokenize(rec.text)
            words.update(tokens)
    return words


def check_vocabulary(lexicon: Lexicon, stories: list[list[BabiRecord]]) -> list[str]:
    """Words with no form link and no literal phrase claiming them."""
    literal_words = {sel.word for rec in lexicon.phrase_records if rec.kind == "literal"
                     for sel in rec.selectors}
    missing = []
    for word in sorted(story_vocabulary(stories)):
        if not lexicon.senses_of(word) and word not in literal_words:
            missing.append(word)
    return missing


def normalize_answer(text: str) -> str:
    text = text.strip().lower()
    stripped = True
    while stripped:
        stripped = False
        for prefix in ("the ", "a ", "an ", "in ", "on ", "at "):
            if text.startswith(prefix):
                text = text[len(prefix):]
                stripped = True
    return text.strip()


def answers_match(produced: str, expected: str) -> bool:
    """Keyword comparison; list answers compare as sets."""
    if "," in produced or "," in expected:
        left = {normalize_answer(p) for p in produced.split(",") if p.strip()}
        right = {normalize_answer(p) for p in expected.split(",") if p.strip()}
        return left == right
    return normalize_answer(produced) == normalize_answer(expected)


def run_task(stories: list[list[BabiRecord]], lexicon: Lexicon,
             config: TaskConfig | None = None) -> list[RunResult]:
    """Run each story through a fresh tracker, answering in keyword mode."""
    config = config or TaskConfig()
    missing = check_vocabulary(lexicon, stories)
    if missing:
        raise VocabularyGapError(missing)
    matcher = Matcher(lexicon, strict_take=config.strict_take)
    results: list[RunResult] = []
    for story_id, story in enumerate(stories, start=1):
        tracker = ContextTracker(lexicon, config)
        broken: str | None = None
        for rec in story:
            if not rec.is_question:
                if broken:
                    continue
                try:
                    prop = matcher.parse_single(rec.text)
                    tracker.ingest(prop)
                except SemqaError as exc:           # engine error; report on questions
                    broken = f"{type(exc).__name__}: {exc}"
                continue
            result = RunResult(story_id, rec.line_id, rec.text,
                               rec.expected or "", "", "failed",
                               support=rec.support)
            if broken:
                result.produced = f"<error: {broken}>"
                result.explanation = broken
                results.append(result)
                continue
            try:
                content = tracker.answer_question(matcher.parse_single(rec.text))
                answer = latest_match(content) if config.babi_last else content
                result.produced = realize_answer(
                    RealizationRequest(answer, mode="keyword"), lexicon)
            except SemqaError as exc:
                result.produced = f"<error: {type(exc).__name__}: {exc}>"
                result.explanation = str(exc)
                results.append(result)
                continue
            if answers_match(result.produced, result.expected):
                result.status = "passed"
            else:
                classification, explanation = audit_mismatch(result, content,
                                                              tracker.items)
                if classification:
                    result.status = "gigo"
                    result.classification = classification
                result.explanation = explanation
            results.append(result)
    return results


def audit_mismatch(result: RunResult, content: AnswerContent,
                   items: list[ContextItem]) -> tuple[str | None, str]:
    """Classify a mismatch against the registered dataset-error rules;
    `content` is the untrimmed answer, `items` the story's context.

    G1: the expected answer matches an earlier transfer that a later
        give-equivalent supersedes (the dataset ignored the newer transfer).
    G2: a receive question whose latest gain is a self-acquisition
        (take/get/grab/pick up); the dataset expected the directed transfer.
    """
    if result.status == "passed":
        return None, ""
    if not content.bindings:
        return None, "no matching context items; engine or data gap"
    produced_norm = normalize_answer(result.produced)
    expected_norm = normalize_answer(result.expected)
    heads = [normalize_answer(b.head()) if isinstance(b, Referent)
             else normalize_answer(str(b)) for b in content.bindings]
    if produced_norm not in heads:
        return None, "produced answer not among matched items; engine error"
    if expected_norm not in heads[:-1]:
        return None, "expected answer never matched in context; engine error"
    last_index = content.support[-1] if content.support else None
    if last_index is not None:
        item = items[last_index - 1]
        gains = item_receive_candidates(item, strict=False)
        strict_gains = item_receive_candidates(item, strict=True)
        if gains and not strict_gains:
            return "G2", (
                f"latest gain (item #{last_index}) is a self-acquisition; "
                f"the story supports {result.produced!r} even though the "
                f"dataset expects {result.expected!r}")
    earlier = [i for i, h in zip(content.support, heads) if h == expected_norm]
    return "G1", (
        f"dataset answer comes from item #{earlier[-1]} but a later transfer "
        f"(item #{last_index}) supersedes it; all matches in order: "
        + ", ".join(heads))


@dataclass
class ScoreReport:
    total: int
    passed: int
    failed: int
    gigo: int

    @property
    def strict_accuracy(self) -> float | None:
        if self.total == 0:
            return None
        return self.passed / self.total

    @property
    def audited_accuracy(self) -> float | None:
        audited_total = self.total - self.gigo
        if audited_total == 0:
            return None
        return self.passed / audited_total

    def summary(self) -> str:
        if self.total == 0:
            return "no questions scored"
        strict = f"{100 * self.strict_accuracy:.1f}%"
        audited = (f"{100 * self.audited_accuracy:.1f}%"
                   if self.audited_accuracy is not None else "n/a")
        return (f"{self.passed}/{self.total} passed; strict {strict}, "
                f"audited {audited} ({self.gigo} dataset errors, "
                f"{self.failed} engine failures)")


def score(results: list[RunResult]) -> ScoreReport:
    passed = sum(1 for r in results if r.status == "passed")
    gigo = sum(1 for r in results if r.status == "gigo")
    failed = sum(1 for r in results if r.status == "failed")
    return ScoreReport(len(results), passed, failed, gigo)


def _csv_field(value: str) -> str:
    if any(c in value for c in ',"\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def export_csv(results: list[RunResult], path) -> None:
    """story_id,input,expected,answer,status rows; questions always quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("story_id,input,expected,answer,status\n")
        for r in results:
            fields = [str(r.story_id),
                      '"' + r.question.replace('"', '""') + '"',
                      _csv_field(r.expected),
                      _csv_field(r.produced),
                      r.status]
            fh.write(",".join(fields) + "\n")
