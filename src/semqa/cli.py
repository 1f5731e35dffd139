"""Command-line entry point.

Subcommands:
    run            score a task (bundled fixtures or an external data dir)
    score          summarize a previously exported results CSV
    repl           interactive story session with natural answers
    generate       verb-group realizer demo (English chain / French future)
    lexicon-check  report task-file words missing from the lexicon
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
from collections import Counter
from pathlib import Path

from . import fixture_path, load_core_lexicon
from .babi import (
    BabiFormatError,
    ScoreReport,
    TaskConfig,
    check_vocabulary,
    export_csv,
    parse_babi_file,
    run_task,
    score,
)
from .context import ContextTracker, latest_match, trace_line
from .errors import SemqaError
from .lexicon import LexiconError, load_lexicon
from .matcher import Matcher
from .nlg import (
    RealizationRequest,
    realize_answer,
    realize_verb_group,
    realize_verb_group_fr,
)
from .semantics import OperatorSet

LEXICON_ENV = "SEMQA_LEXICON"

FIXTURE_FILES = {1: "task1.txt", 5: "task5.txt", 6: "task6.txt", 7: "task7.txt",
                 8: "task8.txt", 9: "task9.txt", 11: "task11.txt",
                 12: "task12.txt", 13: "task13.txt"}


def _load_lexicon(path: str | None):
    path = path or os.environ.get(LEXICON_ENV)
    if not path:
        return load_core_lexicon()
    try:
        text = Path(path).read_text("utf-8")
    except OSError as exc:
        raise LexiconError(f"cannot read lexicon {path}: {exc.strerror}") from None
    return load_lexicon(text)


def _parse_document(label: str, document: str):
    try:
        return parse_babi_file(document)
    except BabiFormatError as exc:
        raise BabiFormatError(f"{label}: {exc}") from None


def _task_documents(args) -> list[tuple[str, str]]:
    """(label, document) pairs for the requested task."""
    if args.fixtures:
        name = FIXTURE_FILES.get(args.task)
        if name is None:
            raise SystemExit(f"no bundled fixture for task {args.task}")
        return [(name, fixture_path(name).read_text("utf-8"))]
    if not args.data:
        raise SystemExit("need --data DIR or --fixtures")
    pattern = os.path.join(args.data, f"qa{args.task}_*.txt")
    paths = sorted(glob.glob(pattern))
    if args.split != "both":
        paths = [p for p in paths if args.split in os.path.basename(p)]
    if not paths:
        raise SystemExit(f"no files match {pattern}")
    return [(os.path.basename(p), Path(p).read_text("utf-8")) for p in paths]


def _config_from(args) -> TaskConfig:
    return TaskConfig(
        babi_last=args.babi_last,
        strict_take=args.strict_take,
        strict_receive=args.strict_receive,
        include_current_position=args.include_current_position,
    )


def cmd_run(args) -> int:
    lexicon = _load_lexicon(args.lexicon)
    config = _config_from(args)
    exit_code = 0
    documents = _task_documents(args)
    for label, document in documents:
        stories = _parse_document(label, document)
        results = run_task(stories, lexicon, config)
        report = score(results)
        print(f"task {args.task} [{label}]: {report.summary()}")
        if args.verbose:
            for r in results:
                mark = {"passed": "ok", "gigo": "gigo"}.get(r.status, "FAIL")
                line = (f"  [{mark}] story {r.story_id} line {r.line_id}: "
                        f"{r.question} -> {r.produced} (expected {r.expected})")
                if r.classification:
                    line += f" [{r.classification}]"
                print(line)
                if r.status != "passed" and r.explanation:
                    print(f"        {r.explanation}")
        out = args.out or f"results_task{args.task}.csv"
        if len(documents) > 1:
            out = f"{out}.{label}"
        export_csv(results, out)
        print(f"  wrote {out}")
        if report.failed:
            exit_code = 1
        strict = report.strict_accuracy or 0.0
        if strict * 100 < args.min_accuracy:
            exit_code = 1
    return exit_code


def cmd_score(args) -> int:
    with open(args.csv, encoding="utf-8") as fh:
        if not fh.readline().startswith("story_id"):
            raise SystemExit(f"{args.csv} is not a results file")
        statuses = Counter(line.rstrip("\n").rsplit(",", 1)[-1] for line in fh)
    total, passed, gigo = sum(statuses.values()), statuses["passed"], statuses["gigo"]
    report = ScoreReport(total, passed, total - passed - gigo, gigo)
    print(report.summary())
    return 0 if report.failed == 0 else 1


def cmd_repl(args) -> int:
    lexicon = _load_lexicon(args.lexicon)
    config = _config_from(args)
    matcher = Matcher(lexicon, strict_take=config.strict_take)
    tracker = ContextTracker(lexicon, config)
    print("enter statements and questions; :trace shows context, :reset starts over, :quit exits")
    while True:
        try:
            line = input("> ").strip()
        except EOFError:
            return 0
        if not line:
            continue
        if line in (":quit", ":q"):
            return 0
        if line == ":reset":
            tracker = ContextTracker(lexicon, config)
            print("(new story)")
            continue
        if line == ":trace":
            print(tracker.trace() or "(empty)")
            continue
        try:
            prop = matcher.parse_single(line)
            if prop.operators.force == "question":
                content = tracker.answer_question(prop)
                if config.babi_last:
                    content = latest_match(content)
                req = RealizationRequest(content, mode=args.mode,
                                         style=args.polar_style)
                print(realize_answer(req, lexicon))
            else:
                tracker.ingest(prop)
                print(f"  + {trace_line(len(tracker.items), tracker.items[-1], lexicon)}")
        except SemqaError as exc:
            print(f"! {type(exc).__name__}: {exc}")


def cmd_generate(args) -> int:
    ops_tokens = [t for t in (args.ops or "").split(",") if t]
    kwargs = {}
    for tok in ops_tokens:
        if tok in ("past", "present", "future"):
            kwargs["tense"] = tok
        elif tok == "perfect":
            kwargs["perfect"] = True
        elif tok == "progressive":
            kwargs["progressive"] = True
        elif tok == "passive":
            kwargs["voice"] = "passive"
        elif tok == "negative":
            kwargs["polarity"] = "negative"
        elif tok == "question":
            kwargs["force"] = "question"
        elif tok == "plural":
            kwargs["number"] = "plural"
        else:
            raise SystemExit(f"unknown operator {tok!r}")
    ops = OperatorSet(person=args.person, **kwargs)
    if args.french:
        print(realize_verb_group_fr(ops, args.pred))
        return 0
    lexicon = _load_lexicon(args.lexicon)
    pred = args.pred if args.pred in lexicon.senses else f"p:{args.pred}"
    print(realize_verb_group(ops, pred, lexicon))
    return 0


def cmd_lexicon_check(args) -> int:
    lexicon = _load_lexicon(args.lexicon)
    documents = _task_documents(args)
    missing_all: set[str] = set()
    for label, document in documents:
        stories = _parse_document(label, document)
        missing = check_vocabulary(lexicon, stories)
        if missing:
            print(f"{label}: missing {len(missing)} words: " + ", ".join(missing))
            missing_all.update(missing)
        else:
            print(f"{label}: vocabulary covered")
    return 1 if missing_all else 0


def _add_engine_flags(p: argparse.ArgumentParser):
    p.add_argument("--lexicon", help=f"lexicon file (default ${LEXICON_ENV} or bundled)")
    p.add_argument("--babi-last", action=argparse.BooleanOptionalAction, default=True,
                   help="answer transfer questions with the latest match only")
    p.add_argument("--strict-take", action="store_true",
                   help="deictic 'there' forces the carried sense of take")
    p.add_argument("--strict-receive", action="store_true",
                   help="receiving requires a distinct transfer source")
    p.add_argument("--include-current-position",
                   action=argparse.BooleanOptionalAction, default=True,
                   help="past-tense position lists include the current position")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="semqa",
                                     description="meaning-based story QA engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run and score a task")
    p.add_argument("--task", type=int, required=True)
    p.add_argument("--data", help="directory of task files (qaN_*.txt)")
    p.add_argument("--fixtures", action="store_true",
                   help="use the bundled paper-transcribed fixtures")
    p.add_argument("--split", choices=["train", "test", "both"], default="both")
    p.add_argument("--out", help="CSV export path")
    p.add_argument("--min-accuracy", type=float, default=0.0,
                   help="exit nonzero below this strict accuracy (percent)")
    p.add_argument("--verbose", "-v", action="store_true")
    _add_engine_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("score", help="summarize an exported CSV")
    p.add_argument("csv")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("repl", help="interactive story session")
    p.add_argument("--polar-style", choices=["bare", "short", "full"],
                   default="short")
    p.add_argument("--mode", choices=["natural", "keyword"], default="natural")
    _add_engine_flags(p)
    p.set_defaults(func=cmd_repl, babi_last=False)

    p = sub.add_parser("generate", help="realize a verb group from operators")
    p.add_argument("--pred", required=True, help="predicate (e.g. speak)")
    p.add_argument("--ops", default="", help="comma list: future,negative,...")
    p.add_argument("--person", type=int, choices=(1, 2, 3), default=3)
    p.add_argument("--french", action="store_true",
                   help="treat --pred as a French infinitive stem")
    p.add_argument("--lexicon")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("lexicon-check", help="verify task vocabulary coverage")
    p.add_argument("--task", type=int, required=True)
    p.add_argument("--data")
    p.add_argument("--fixtures", action="store_true")
    p.add_argument("--split", choices=["train", "test", "both"], default="both")
    p.add_argument("--lexicon")
    p.set_defaults(func=cmd_lexicon_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SemqaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
