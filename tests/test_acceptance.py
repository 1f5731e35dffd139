"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Criterion 2 needs externally supplied
10k task files (directory in SEMQA_BABI_DIR); it is skipped, not failed,
when the data is absent, since the repository does not vendor the datasets.
"""

from __future__ import annotations

import glob
import os
import time
from itertools import product

import pytest

import semqa
from conftest import PEOPLE, THINGS, make_tracker, random_question
from semqa import OperatorSet
from semqa.babi import TaskConfig, parse_babi_file, run_task, score
from semqa.matcher import MatchError, MeaninglessError, tokenize
from semqa.nlg import realize_verb_group, realize_verb_group_fr, split_fronted_aux
from semqa.semantics import render

FIXTURE_TASKS = (1, 6, 7, 8, 9, 11, 12, 13)


def report(criterion: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def fixture_results(lex, task, **cfg):
    doc = semqa.fixture_path(f"task{task}.txt").read_text("utf-8")
    return run_task(parse_babi_file(doc), lex, TaskConfig(task=task, **cfg))


# -- criterion 1: paper-fixture task accuracy (exact, < 1 s) --------------------

def test_criterion_1_fixture_accuracy(lex):
    started = time.time()
    for task in FIXTURE_TASKS:
        rep = score(fixture_results(lex, task))
        assert rep.strict_accuracy == 1.0, f"task {task} not 100%"
    results = fixture_results(lex, 5)
    rep = score(results)
    mism = {(r.story_id, r.line_id): r for r in results if r.status != "passed"}
    ok = (rep.failed == 0
          and set(mism) == {(2, 14), (2, 17), (4, 31), (5, 11)}
          and all(r.status == "gigo" for r in mism.values())
          and mism[(2, 14)].produced == "football"
          and mism[(2, 14)].expected == "apple"
          and mism[(2, 14)].classification == "G1"
          and mism[(2, 17)].classification == "G1"
          and mism[(4, 31)].produced == "football"
          and mism[(4, 31)].classification == "G1"
          and mism[(5, 11)].produced == "bill"
          and mism[(5, 11)].expected == "Mary"
          and mism[(5, 11)].classification == "G2")
    elapsed = time.time() - started
    ok = ok and elapsed < 1.0
    report("1", ok,
           f"tasks {FIXTURE_TASKS} at 100%; task 5 reproduces the four "
           f"documented dataset errors (G1/G1/G1/G2) in {elapsed:.2f}s")


# -- criterion 2: full-dataset reproduction (needs user-supplied files) ---------

def test_criterion_2_full_datasets(lex):
    data_dir = os.environ.get("SEMQA_BABI_DIR")
    if not data_dir:
        pytest.skip("ACCEPTANCE 2: SKIPPED - set SEMQA_BABI_DIR to the 10k "
                    "task files to run the full-dataset reproduction")
    summary = []
    for task in FIXTURE_TASKS:
        for path in sorted(glob.glob(os.path.join(data_dir, f"qa{task}_*.txt"))):
            results = run_task(parse_babi_file(open(path).read()), lex,
                               TaskConfig(task=task))
            rep = score(results)
            summary.append(f"task {task} {os.path.basename(path)}: {rep.summary()}")
            assert rep.strict_accuracy == 1.0, summary[-1]
    for path in sorted(glob.glob(os.path.join(data_dir, "qa5_*.txt"))):
        results = run_task(parse_babi_file(open(path).read()), lex, TaskConfig(task=5))
        rep = score(results)
        summary.append(f"task 5 {os.path.basename(path)}: {rep.summary()}")
        assert rep.strict_accuracy >= 0.995 - 0.001, summary[-1]
        assert rep.audited_accuracy == 1.0, summary[-1]
    report("2", True, "; ".join(summary))


# -- criterion 3: realizer goldens, character exact ------------------------------

TABLE_GOLDENS = [
    (dict(tense="past"), "ate"),
    (dict(tense="present"), "eats"),
    (dict(tense="present", polarity="negative"), "doesn't eat"),
    (dict(tense="present", polarity="negative", voice="passive",
          perfect=True, progressive=True), "hasn't been being eaten"),
    (dict(tense="present", polarity="negative", voice="passive",
          perfect=True, progressive=True, number="plural"),
     "haven't been being eaten"),
    (dict(tense="future", force="question", polarity="negative", voice="passive",
          perfect=True, progressive=True, number="plural"),
     "won't have been being eaten"),
    (dict(tense="present", polarity="negative", voice="passive",
          force="question"), "isn't eaten"),
]

FRENCH_GOLDENS = [((1, "singular"), "parlerai"), ((2, "singular"), "parleras"),
                  ((3, "singular"), "parlera"), ((1, "plural"), "parlerons"),
                  ((2, "plural"), "parlerez"), ((3, "plural"), "parleront")]


def test_criterion_3_nlg_goldens(lex):
    chain = realize_verb_group(
        OperatorSet(tense="future", voice="passive", perfect=True,
                    progressive=True, polarity="negative"), "p:speak", lex)
    assert chain == "won't have been being spoken"
    for ops_kw, expected in TABLE_GOLDENS:
        got = realize_verb_group(OperatorSet(**ops_kw), "p:eat-chew", lex)
        assert got == expected, f"{expected!r} != {got!r}"
    assert split_fronted_aux("won't have been being eaten") \
        == ("Won't", "have been being eaten")
    for (person, number), expected in FRENCH_GOLDENS:
        got = realize_verb_group_fr(
            OperatorSet(tense="future", person=person, number=number), "parler")
        assert got == expected
    report("3", True, "seven sentence verb groups, the five-operator chain and "
                      "six French futures are character-exact")


# -- criterion 4: property suites -------------------------------------------------

def test_criterion_4a_append_only(lex, matcher):
    import random
    from conftest import random_statement
    rng = random.Random(11)
    for _ in range(100):
        tracker = make_tracker(lex)
        previous: list[str] = []
        for _ in range(12):
            if rng.random() < 0.7:
                tracker.ingest(matcher.parse_single(random_statement(rng)))
            else:
                try:
                    tracker.answer_question(matcher.parse_single(random_question(rng)))
                except Exception:
                    pass
            snapshot = [item.trace_line() for item in tracker.items]
            assert snapshot[:len(previous)] == previous
            previous = snapshot
    report("4a", True, "append-only holds over 100 random operation sequences")


def test_criterion_4b_intersection_soundness(lex, matcher):
    from test_properties import check_intersection_soundness
    violations = check_intersection_soundness(lex, matcher, cases=1000, seed=77)
    report("4b", violations == 0,
           f"{violations} violations over 1000 random 10-sentence stories")


def test_criterion_4c_verb_grid(lex, matcher):
    cells = 0
    for pred in ("p:speak", "p:eat-chew"):
        for tense, perfect, progressive, voice, polarity in product(
                ("past", "present", "future"), (False, True), (False, True),
                ("active", "passive"), ("positive", "negative")):
            ops = OperatorSet(tense=tense, perfect=perfect,
                              progressive=progressive, voice=voice,
                              polarity=polarity)
            chain = realize_verb_group(ops, pred, lex)
            tokens, _ = tokenize(chain)
            got = matcher.extract_operators(matcher.match_phrases(tokens),
                                            "statement")
            assert (got.tense, got.perfect, got.progressive, got.voice,
                    got.polarity) == (tense, perfect, progressive, voice,
                                      polarity), chain
            cells += 1
    report("4c", cells == 96,
           "all 48 operator combinations realize and round-trip (2 verbs)")


def test_criterion_4d_ledger_conservation(lex, matcher):
    import random
    from test_properties import consistent_transfer_story, total_held
    rng = random.Random(13)
    checks = 0
    for _ in range(60):
        tracker = make_tracker(lex)
        before = 0
        for sentence, delta in consistent_transfer_story(rng, 12):
            tracker.ingest(matcher.parse_single(sentence))
            after = total_held(tracker)
            assert after - before == delta, sentence
            before = after
            checks += 1
    report("4d", True, f"conservation held across {checks} transfer events")


def test_criterion_4e_anti_bag_of_words(lex, matcher):
    assert render(matcher.parse_single("on the beach").ls) == "be-on'(the beach,0)"
    rejected = 0
    for scrambled in ("the on beach", "the beach on"):
        with pytest.raises(MatchError):
            matcher.parse_single(scrambled)
        rejected += 1
    report("4e", rejected == 2,
           "scrambled position phrases yield no logical structure")


def test_criterion_4f_particle_split(lex, matcher):
    pairs = 0
    for verb, particle in (("picked", "up"), ("put", "down"),
                           ("picks", "up"), ("puts", "down")):
        for subject in PEOPLE:
            for obj in THINGS + ["newspaper"]:
                adjacent = matcher.parse_single(
                    f"{subject} {verb} {particle} the {obj}.")
                split = matcher.parse_single(
                    f"{subject} {verb} the {obj} {particle}.")
                assert adjacent.ls == split.ls
                pairs += 1
    report("4f", True, f"{pairs} adjacent/split particle pairs produce identical "
                       "logical structures")


def test_criterion_4g_wsd_and_qualia(lex, matcher):
    chew = matcher.parse_single("the girl ate the sandwich")
    assert render(chew.ls, lex) == "do'(the girl,[eat'(the girl,the sandwich)])"
    with pytest.raises(MeaninglessError):
        matcher.parse_single("the girl ate the mountain")
    erode = matcher.parse_single("the wind ate the mountain")
    assert render(erode.ls, lex) == "do'(the wind,[erode'(the wind,the mountain)])"
    car = matcher.parse_single("Mary started the car")
    assert render(car.ls) == "do'(mary,[start'(mary,the car)])"
    report("4g", True, "sense selection accepts girl/sandwich and wind/mountain, "
                       "rejects girl/mountain, and start fits the car via has-a engine")


# -- criterion 5: embedded relative clause ------------------------------------------

def test_criterion_5_embedded_clause(lex, matcher):
    from semqa.nlg import RealizationRequest, realize_answer

    sentence = "Mary who went to the kitchen went to the garden."

    tracker = make_tracker(lex)
    tracker.ingest(matcher.parse_single(sentence))
    now = tracker.answer_question(matcher.parse_single("Where is Mary?"))
    now_text = realize_answer(RealizationRequest(now, mode="natural"), lex)
    past = tracker.answer_question(matcher.parse_single("Where was Mary?"))
    past_texts = [realize_answer(RealizationRequest(
        type(past)(kind="content", bindings=[b], focus="where"), mode="natural"), lex)
        for b in past.bindings]

    excl = make_tracker(lex, include_current_position=False)
    excl.ingest(matcher.parse_single(sentence))
    past_excl = excl.answer_question(matcher.parse_single("Where was Mary?"))
    excl_texts = [realize_answer(RealizationRequest(
        type(past_excl)(kind="content", bindings=[b], focus="where"),
        mode="natural"), lex) for b in past_excl.bindings]

    ok = (now_text == "In the garden."
          and "In the kitchen." in past_texts
          and excl_texts == ["In the kitchen."])
    report("5", ok,
           f"present -> {now_text!r}; past -> {past_texts}; "
           f"exclude-current -> {excl_texts}")
