"""Run one workload of the semqa benchmark and print its metrics.

    python3 perfbench/run.py --workload babi-short --seed 1 --seconds 40 --trace 0

Run from the repository root.  The engine is imported from `src/`; the
run fails without printing a result when that source tree is missing.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
A run that finds any answer disagreeing with the simulator exits 1.
Provenance, the result and (traced) the spans go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("babi-short", "long-story", "babi-long")
SETUPS_PER_PASS = 3
SETUPS_TRACED = 7


def import_engine():
    if not (SRC / "semqa" / "__init__.py").is_file():
        sys.exit(f"no engine source at {SRC}/semqa; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import semqa
    if Path(semqa.__file__).resolve().parent != SRC / "semqa":
        sys.exit(f"imported semqa from {semqa.__file__}, not from {SRC}")
    return semqa


def provenance(args, counts: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "semqa").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "cpu": cpu, "nproc": os.cpu_count(), "commit": git_commit(),
        "source_sha256": digest.hexdigest(), "counts": counts,
    }


def git_commit() -> str:
    """HEAD from the checkout's .git, read directly; "unknown" without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def set_up(semqa, times: list[float]):
    """What a `semqa` command does before its first line: load the
    lexicon and build the matcher."""
    gc.collect()
    start = perf_counter()
    lexicon = semqa.load_core_lexicon()
    matcher = semqa.Matcher(lexicon)
    times.append(perf_counter() - start)
    return lexicon, matcher


def repeat_until(deadline: float, step):
    """Run `step` once, then again while the deadline is more than half a
    typical step away, so a run ends close to its measuring time."""
    laps: list[float] = []
    while True:
        start = perf_counter()
        step()
        laps.append(perf_counter() - start)
        if perf_counter() + statistics.median(laps) / 2 >= deadline:
            return


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    semqa = import_engine()
    import workloads as wl

    inputs = wl.make_inputs(args.workload, args.seed)
    prov = provenance(args, inputs.counts())
    tally, samples = wl.Tally(), wl.Samples()
    setup_s: list[float] = []
    if not args.trace:
        lexicon, matcher = set_up(semqa, setup_s)
        wl.warm_up(lexicon, matcher, inputs)

        def step():
            # timing-only set-ups spread over the run; the passes keep
            # the warmed lexicon
            for _ in range(SETUPS_PER_PASS):
                set_up(semqa, setup_s)
            wl.main_pass(args.workload, lexicon, matcher, inputs, tally, samples)
        repeat_until(perf_counter() + args.seconds, step)
        medians = samples.medians()
        metrics = {"setup_s": statistics.median(setup_s),
                   **{name: medians[name] for name in wl.END_TO_END},
                   "peak_rss_mb": peak_rss_mb()}
        units = {"setup_s": "s", "lines_per_s": "lines/s", "peak_rss_mb": "MB"}
    else:
        from tracer import Tracer, layer_metrics, write_spans
        tracer = Tracer()
        tracer.install()
        for _ in range(SETUPS_TRACED):
            lexicon, matcher = set_up(semqa, setup_s)
        tracer.uninstall()
        # load_lexicon is reported per set-up, the rest per traced pass
        setup_spans = tracer.end_pass()
        load_s = sum(end - start for name, start, end, _ in setup_spans
                     if name == "lexicon.load_lexicon") / SETUPS_TRACED
        tracer.self_s.clear()
        tracer.calls.clear()
        last_spans = []
        wl.warm_up(lexicon, matcher, inputs)
        traced = wl.Samples()

        def step():
            # an untraced and a traced pass over the same inputs; the
            # difference of their medians is the tracing overhead
            wl.main_pass(args.workload, lexicon, matcher, inputs, tally, samples,
                         replay_too=False)
            tracer.install()
            try:
                wl.main_pass(args.workload, lexicon, matcher, inputs, tally, traced,
                             replay_too=False)
            finally:
                tracer.uninstall()
            last_spans[:] = tracer.end_pass()
        repeat_until(perf_counter() + args.seconds, step)
        passes = len(traced.pass_s)
        questions = (sum(len(d.questions) for d in inputs.documents)
                     + sum(1 for line in inputs.session if line.question))
        metrics = layer_metrics(tracer, passes, questions)
        metrics["lexicon.load_lexicon.self_s"] = load_s
        metrics["lexicon.load_lexicon.calls"] = 1
        untraced_s = statistics.median(samples.pass_s)
        overhead = statistics.median(traced.pass_s) - untraced_s
        metrics["tracing.overhead_s"] = overhead
        metrics["tracing.overhead_share"] = overhead / untraced_s
        units = {}

    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units.get(name, unit_of(name))}
                    for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    detail = {"passes": len(samples.pass_s), "pass_s": samples.pass_s,
              **{name: value for name, value in samples.medians().items()
                 if name not in metrics}}
    stem.with_suffix(".json").write_text(json.dumps(
        {"provenance": prov, "detail": detail, "result": result}, indent=1))
    if args.trace:
        write_spans(setup_spans + last_spans, stem.with_suffix(".spans.tsv.gz"),
                    json.dumps(prov))
    print(json.dumps({"provenance": prov, "detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def unit_of(name: str) -> str:
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name.endswith("_per_token") \
            or name.endswith("_per_question"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
