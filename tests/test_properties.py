from __future__ import annotations

import random
from itertools import product

import pytest

from conftest import (
    PEOPLE,
    THINGS,
    ingest_all,
    make_tracker,
    random_question,
    random_story,
)
from semqa.context import have_events
from semqa.matcher import MatchError, tokenize
from semqa.semantics import OperatorSet, entity, render, unify, walk_referents
from semqa.nlg import realize_verb_group


# (a) append-only under random operation sequences ---------------------------

def test_append_only_under_random_operations(lex, matcher):
    rng = random.Random(101)
    for _ in range(50):
        tracker = make_tracker(lex)
        snapshots: list[list[str]] = []
        for _ in range(12):
            if rng.random() < 0.7:
                from conftest import random_statement
                tracker.ingest(matcher.parse_single(random_statement(rng)))
            else:
                try:
                    tracker.answer_question(matcher.parse_single(random_question(rng)))
                except Exception:
                    pass
            snapshot = [item.trace_line() for item in tracker.items]
            if snapshots:
                assert snapshot[:len(snapshots[-1])] == snapshots[-1]
            snapshots.append(snapshot)


# (b) intersection soundness against brute-force scan ------------------------

def check_intersection_soundness(lex, matcher, cases: int, seed: int = 202):
    rng = random.Random(seed)
    violations = 0
    for _ in range(cases):
        tracker = make_tracker(lex)
        ingest_all(matcher, tracker, random_story(rng, 10))
        question = random_question(rng)
        prop = matcher.parse_single(question)
        try:
            content = tracker.answer_question(prop)
        except Exception:
            continue
        # a negative polar answer's support is counter-evidence (the entity's
        # actual position); the soundness claim is about bindings
        if not (content.kind == "polar" and content.polarity == "no"):
            for idx in content.support:
                if unify(prop.ls, tracker.items[idx - 1].ls, lex) is None:
                    violations += 1
        # transfer content answers must equal the exhaustive scan
        queries = [r for r in walk_referents(prop.ls) if r.is_query]
        if (content.kind == "transfer" and queries
                and queries[0].focus in ("who", "what")
                and have_events(prop.ls)
                and "CAUSE" in render(prop.ls)):
            expected = []
            for item in tracker.items:
                result = unify(prop.ls, item.ls, lex)
                if result is not None:
                    value = result.get(queries[0].focus)
                    if value is not None:
                        expected.append(render(value))
            if [render(b) for b in content.bindings] != expected:
                violations += 1
    return violations


def test_intersection_soundness_sample(lex, matcher):
    assert check_intersection_soundness(lex, matcher, cases=200) == 0


# (c) verb-group grid totality + round trip ----------------------------------

GRID = list(product(("past", "present", "future"), (False, True), (False, True),
                    ("active", "passive"), ("positive", "negative")))


@pytest.mark.parametrize("pred", ["p:speak", "p:eat-chew", "p:give"])
def test_verb_group_grid_round_trip(lex, matcher, pred):
    assert len(GRID) == 48
    for tense, perfect, progressive, voice, polarity in GRID:
        ops = OperatorSet(tense=tense, perfect=perfect, progressive=progressive,
                          voice=voice, polarity=polarity)
        chain = realize_verb_group(ops, pred, lex)
        tokens, _ = tokenize(chain)
        elements = matcher.match_phrases(tokens)
        got = matcher.extract_operators(elements, "statement")
        assert (got.tense, got.perfect, got.progressive, got.voice, got.polarity) \
            == (tense, perfect, progressive, voice, polarity), chain


# (d) ledger conservation ------------------------------------------------------

def consistent_transfer_story(rng: random.Random, length: int):
    """Transfer sentences that never release or hand over an unheld object.

    Yields (sentence, expected-total-delta) pairs.
    """
    holders: dict[str, str | None] = {t: None for t in THINGS}
    out = []
    for _ in range(length):
        moves = []
        for obj, holder in holders.items():
            if holder is None:
                moves.append(("acquire", obj, None))
            else:
                moves.append(("release", obj, holder))
                moves.append(("give", obj, holder))
                moves.append(("take", obj, holder))
        kind, obj, holder = rng.choice(moves)
        if kind == "acquire":
            who = rng.choice(PEOPLE)
            verb = rng.choice(["picked up the", "got the", "grabbed the", "took the"])
            out.append((f"{who} {verb} {obj}.", +1))
            holders[obj] = who
        elif kind == "release":
            verb = rng.choice(["dropped the", "discarded the", "left the"])
            out.append((f"{holder} {verb} {obj}.", -1))
            holders[obj] = None
        elif kind == "give":
            other = rng.choice([p for p in PEOPLE if p != holder])
            verb = rng.choice(["gave", "handed", "passed"])
            out.append((f"{holder} {verb} the {obj} to {other}.", 0))
            holders[obj] = other
        else:
            other = rng.choice([p for p in PEOPLE if p != holder])
            out.append((f"{other} took the {obj} from {holder}.", 0))
            holders[obj] = other
    return out


def total_held(tracker) -> int:
    return sum(len(tracker.held_now(entity(f"r:{p}", "proper"))) for p in PEOPLE)


def test_ledger_conservation_on_random_transfers(lex, matcher):
    rng = random.Random(303)
    for _ in range(40):
        tracker = make_tracker(lex)
        before = 0
        for sentence, delta in consistent_transfer_story(rng, 12):
            tracker.ingest(matcher.parse_single(sentence))
            after = total_held(tracker)
            assert after - before == delta, sentence
            before = after
        assert tracker.diagnostics == []


# (e) anti-bag-of-words ----------------------------------------------------------

def test_scrambled_predicates_yield_no_structure(lex, matcher):
    assert render(matcher.parse_single("on the beach").ls) == "be-on'(the beach,0)"
    for scrambled in ("the on beach", "the beach on", "beach the on", "beach on the"):
        with pytest.raises(MatchError):
            matcher.parse_single(scrambled)


# (f) particle-split equivalence ----------------------------------------------------

@pytest.mark.parametrize("verb,particle", [("picked", "up"), ("put", "down")])
def test_particle_split_equivalence(lex, matcher, verb, particle):
    for subject in PEOPLE:
        for obj in THINGS + ["newspaper", "cake"]:
            adjacent = matcher.parse_single(f"{subject} {verb} {particle} the {obj}.")
            split = matcher.parse_single(f"{subject} {verb} the {obj} {particle}.")
            assert adjacent.ls == split.ls


# (g) disambiguation trio + qualia fallback -------------------------------------------

def test_wsd_trio_and_qualia(lex, matcher):
    from semqa.matcher import MeaninglessError

    ok = matcher.parse_single("the girl ate the sandwich")
    assert "eat'" in render(ok.ls, lex)
    with pytest.raises(MeaninglessError):
        matcher.parse_single("the girl ate the mountain")
    erode = matcher.parse_single("the wind ate the mountain")
    assert "erode'" in render(erode.ls, lex)
    car = matcher.parse_single("Mary started the car")
    assert render(car.ls) == "do'(mary,[start'(mary,the car)])"
