from __future__ import annotations

import gc

import pytest

from conftest import ingest_all, make_tracker
from semqa.context import (
    ContextError,
    PronounResolutionError,
    UnsupportedQuestionError,
    have_events,
    latest_match,
)
from semqa.nlg import RealizationRequest, realize_answer
from semqa.semantics import bundle, entity, render, walk_referents

MARY = entity("r:mary", "proper", "female", "singular")
DANIEL = entity("r:daniel", "proper", "male", "singular")
FRED = entity("r:fred", "proper", "male", "singular")


def answer(matcher, tracker, question):
    return tracker.answer_question(matcher.parse_single(question))


# -- ingestion ---------------------------------------------------------------

def test_no_longer_appends_two_items(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), ["Fred is no longer in the office."])
    assert len(t.items) == 2
    first, second = t.items
    assert first.operators.tense == "past"
    assert first.operators.polarity == "positive"
    assert second.operators.tense == "present"
    assert second.operators.polarity == "negative"


def test_embedded_clause_ingested_first(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex),
                   ["Mary who went to the kitchen went to the garden."])
    assert "the kitchen" in render(t.items[0].ls)
    assert "the garden" in render(t.items[1].ls)


def test_ingest_is_append_only(lex, matcher):
    t = make_tracker(lex)
    snapshots = []
    for s in ["Mary went to the kitchen.", "Fred is no longer in the office.",
              "Bill gave the milk to Mary."]:
        t.ingest(matcher.parse_single(s))
        snapshots.append([item.trace_line() for item in t.items])
    for earlier, later in zip(snapshots, snapshots[1:]):
        assert later[:len(earlier)] == earlier


def test_trace_line_format(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), ["Mary went to the kitchen."])
    assert t.trace() == ("#1 [past] do'(mary,[go'(mary)]) & "
                         "INGR be-in'(the kitchen,mary) :: "
                         "Mary went to the kitchen.")


def test_questions_are_not_ingested(lex, matcher):
    t = make_tracker(lex)
    with pytest.raises(ContextError):
        t.ingest(matcher.parse_single("Where is Mary?"))


# -- pronouns ------------------------------------------------------------------

def test_pronoun_resolves_to_last_mentioned(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), ["Daniel was in the kitchen."])
    assert t.resolve_pronoun(frozenset({"male", "singular"})).sense == "r:daniel"


def test_they_resolves_to_latest_bundle(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex),
                   ["Daniel and Sandra journeyed to the office."])
    ref = t.resolve_pronoun(frozenset({"plural"}))
    assert ref.kind == "bundle"
    assert {m.sense for m in ref.members} == {"r:daniel", "r:sandra"}


def test_pronoun_with_empty_context_fails(lex):
    t = make_tracker(lex)
    with pytest.raises(PronounResolutionError):
        t.resolve_pronoun(frozenset({"female", "singular"}))


def test_gender_agreement(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex),
                   ["Daniel was in the kitchen.", "Sandra went to the office."])
    assert t.resolve_pronoun(frozenset({"male", "singular"})).sense == "r:daniel"
    assert t.resolve_pronoun(frozenset({"female", "singular"})).sense == "r:sandra"


# -- positions -----------------------------------------------------------------

def test_positions_in_context_order(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), [
        "Mary went to the bathroom.",
        "John moved to the hallway.",
        "Mary travelled to the office."])
    heads = [e.state.arg1.sense for e in t.positions_of(MARY)]
    assert heads == ["r:bathroom", "r:office"]


def test_positions_via_bundle_membership(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), ["Mary and Jeff went to the kitchen."])
    assert [e.state.arg1.sense for e in t.positions_of(MARY)] == ["r:kitchen"]


def test_positions_of_unknown_entity(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), ["Mary went to the bathroom."])
    assert t.positions_of(FRED) == []


def test_present_answer_is_suffix_of_past_list(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), [
        "Mary went to the bathroom.", "Mary went to the kitchen.",
        "Mary went to the office."])
    past = t.past_positions(MARY)
    cur = t.current_position(MARY)
    assert cur.state.arg1.sense == past[-1].state.arg1.sense


# -- possession ledger -----------------------------------------------------------

def test_counting_ledger(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), [
        "Daniel picked up the football.",
        "Daniel dropped the football.",
        "Daniel got the milk.",
        "Daniel took the apple."])
    held = {obj.sense for obj, _ in t.held_now(DANIEL)}
    assert held == {"r:milk", "r:apple"}


def test_list_ledger(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), [
        "Daniel picks up the football.",
        "Daniel drops the newspaper.",
        "Daniel picks up the milk.",
        "John took the apple."])
    held = [obj.sense for obj, _ in t.held_now(DANIEL)]
    assert held == ["r:milk", "r:football"]


def test_drop_before_pickup_is_diagnostic_not_crash(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), ["Daniel dropped the football."])
    t.holdings_of(DANIEL)
    assert any("inconsistency" in d for d in t.diagnostics)
    assert t.held_now(DANIEL) == []


def test_inconsistency_is_noted_once_however_often_asked(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), ["Daniel dropped the football."])
    for _ in range(3):
        t.answer_question(matcher.parse_single("How many objects is Daniel holding?"))
    assert len(t.diagnostics) == 1
    assert "inconsistency" in t.diagnostics[0]


def test_transfer_updates_both_parties(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), [
        "Bill picked up the milk.", "Bill gave the milk to Mary."])
    assert t.held_now(entity("r:bill")) == []
    assert [o.sense for o, _ in t.held_now(MARY)] == ["r:milk"]


def test_have_events_extraction(lex, matcher):
    prop = matcher.parse_single("Bill gave the milk to Mary.")
    events = have_events(prop.ls)
    signs = {(e.party.sense, e.positive) for e in events}
    assert signs == {("r:bill", False), ("r:mary", True)}
    assert all(e.causer is not None and e.causer.sense == "r:bill" for e in events)


# -- question answering ------------------------------------------------------------

def test_where_present_returns_latest_only(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), [
        "Mary went to the bathroom.", "Mary travelled to the office."])
    content = answer(matcher, t, "Where is Mary?")
    assert [render(b) for b in content.bindings] == ["be-in'(the office,0)"]


def test_where_past_returns_list(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), [
        "Beth went to the kitchen.", "Then she went to the garden."])
    content = answer(matcher, t, "Where was she?")
    assert [render(b) for b in content.bindings] == [
        "be-in'(the kitchen,0)", "be-in'(the garden,0)"]


def test_where_did_go_solves_the_result_state(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), [
        "Mary went to the kitchen.", "Then she moved to the garden."])
    content = answer(matcher, t, "Where did Mary go?")
    assert [render(b) for b in content.bindings] == [
        "be-in'(the kitchen,0)", "be-in'(the garden,0)"]


def test_where_past_can_exclude_current(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex, include_current_position=False), [
        "Beth went to the kitchen.", "Then she went to the garden."])
    content = answer(matcher, t, "Where was Beth?")
    assert [render(b) for b in content.bindings] == ["be-in'(the kitchen,0)"]


MARY_MOVES = ["Mary went to the kitchen.", "Mary travelled to the garden.",
              "Mary went back to the kitchen.", "Mary moved to the office."]


@pytest.mark.parametrize("include_current, story, expected", [
    (True, MARY_MOVES, ["kitchen", "garden", "office"]),
    (False, MARY_MOVES, ["kitchen", "garden"]),
    # a negative ends the current position, so nothing is left out
    (True, MARY_MOVES + ["Mary is no longer in the office."], ["kitchen", "garden", "office"]),
    (False, MARY_MOVES + ["Mary is no longer in the office."], ["kitchen", "garden", "office"]),
])
def test_where_past_reads_the_positions_once(lex, matcher, monkeypatch, include_current,
                                              story, expected):
    t = ingest_all(matcher, make_tracker(lex, include_current_position=include_current), story)
    scans = []
    positions_of = type(t).positions_of
    monkeypatch.setattr(type(t), "positions_of",
                        lambda self, e: scans.append(e) or positions_of(self, e))
    content = answer(matcher, t, "Where was Mary?")
    assert [render(b) for b in content.bindings] == [
        f"be-in'(the {place},0)" for place in expected]
    assert len(scans) == 1


def test_polar_no_when_elsewhere(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), [
        "John moved to the playground.", "John went back to the hallway."])
    content = answer(matcher, t, "Is John in the playground?")
    assert content.polarity == "no"


def test_polar_negation_with_contrast(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), [
        "Sandra travelled to the office.", "Fred is no longer in the office."])
    no = answer(matcher, t, "Is Fred in the office?")
    assert no.polarity == "no"
    assert no.contrast is not None and no.contrast.sense == "r:sandra"
    yes = answer(matcher, t, "Is Sandra in the office?")
    assert yes.polarity == "yes"


def test_negative_does_not_erase_history(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), ["Fred is no longer in the office."])
    past = answer(matcher, t, "Where was Fred?")
    assert [render(b) for b in past.bindings] == ["be-in'(the office,0)"]
    now = answer(matcher, t, "Where is Fred?")
    assert now.bindings == []


def test_who_gave_binds_in_context_order(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), [
        "Mary gave the cake to Fred.", "Fred gave the cake to Bill."])
    content = answer(matcher, t, "Who gave the cake to Fred?")
    assert [b.sense for b in content.bindings] == ["r:mary"]


def test_transfer_answers_all_matches_by_default(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), [
        "Bill handed the apple to Jeff.", "Bill passed the football to Jeff."])
    content = answer(matcher, t, "What did Bill give to Jeff?")
    assert [b.sense for b in content.bindings] == ["r:apple", "r:football"]


def test_babi_last_returns_latest_match(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), [
        "Bill handed the apple to Jeff.", "Bill passed the football to Jeff."])
    content = latest_match(answer(matcher, t, "What did Bill give to Jeff?"))
    assert [b.sense for b in content.bindings] == ["r:football"]


def test_receive_includes_self_acquisition(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), [
        "Fred gave the football to Mary.", "Bill took the football there."])
    content = latest_match(answer(matcher, t, "Who received the football?"))
    assert [b.sense for b in content.bindings] == ["r:bill"]


def test_strict_receive_requires_transfer_source(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex, strict_receive=True), [
        "Fred gave the football to Mary.", "Bill took the football there."])
    content = latest_match(answer(matcher, t, "Who received the football?"))
    assert [b.sense for b in content.bindings] == ["r:mary"]


def test_give_matches_hand_and_pass(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), [
        "Mary passed the football to Fred."])
    content = answer(matcher, t, "Who gave the football to Fred?")
    assert [b.sense for b in content.bindings] == ["r:mary"]


def test_count_answer(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), [
        "Daniel picked up the football.", "Daniel dropped the football.",
        "Daniel got the milk.", "Daniel took the apple."])
    content = answer(matcher, t, "How many objects is Daniel holding?")
    assert content.kind == "count"
    assert len(content.bindings) == 2


def test_unsupported_question(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), ["Mary went to the kitchen."])
    with pytest.raises(UnsupportedQuestionError):
        t.answer_question(matcher.parse_single("Mary went to the kitchen."))


def test_intersection_bindings_come_from_unifying_items(lex, matcher):
    from semqa.semantics import unify
    t = ingest_all(matcher, make_tracker(lex), [
        "Bill grabbed the apple there.",
        "Bill handed the apple to Jeff.",
        "Jeff handed the apple to Bill.",
        "Bill passed the football to Jeff."])
    q = matcher.parse_single("What did Bill give to Jeff?")
    content = t.answer_question(q)
    for idx in content.support:
        assert unify(q.ls, t.items[idx - 1].ls, lex) is not None


# -- who-position and polar paths ------------------------------------------------

HANDOVER = ["Mary went to the kitchen.", "John went to the kitchen.",
            "Mary picked up the milk.", "Mary gave the milk to John."]


@pytest.mark.parametrize("question, keyword, support", [
    ("Who is in the kitchen?", "mary,john", [1, 2]),         # who-position
    ("Who is in the garden?", "unknown", []),
    ("Does John have the milk?", "yes", []),                 # polar have'
    ("Does Mary have the milk?", "no", []),
    ("Did John receive the milk?", "yes", [4]),              # polar receive
    ("Did Mary receive the milk?", "yes", [3]),
    ("Did Mary go to the kitchen?", "yes", [1]),             # polar unify fallback
    ("Did Mary go to the garden?", "no", []),
    ("Did Mary give the milk to John?", "yes", [4]),
    ("Did John give the milk to Mary?", "no", []),
])
def test_handover_answers(lex, matcher, question, keyword, support):
    t = ingest_all(matcher, make_tracker(lex), HANDOVER)
    content = answer(matcher, t, question)
    assert realize_answer(RealizationRequest(content, mode="keyword"), lex) == keyword
    assert content.support == support


def test_strict_receive_denies_a_self_acquisition_on_a_polar_question(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex, strict_receive=True), HANDOVER)
    assert answer(matcher, t, "Did Mary receive the milk?").polarity == "no"
    assert answer(matcher, t, "Did John receive the milk?").polarity == "yes"


# -- one pass per question, shared structures, no cyclic garbage ----------------

def _mixed_tracker(lex, matcher, synth, seed, statements, locations=False):
    """A tracker fed a synthetic mixed story (motion with pronouns and
    pairs, possession; with `locations`, also "is in", "is not in" and
    "no longer" lines).  Yields the rng, world and tracker after every
    statement."""
    rng = synth.rng_for(seed, "context")
    w, t = synth.World(), make_tracker(lex)
    for _ in range(statements):
        if locations and w.position and rng.random() < 0.25:
            text = synth.gen_location(rng, w)
        else:
            text = synth.mixed_statement(rng, w)
        t.ingest(matcher.parse_single(text))
        yield rng, w, t


def test_answering_leaves_no_cyclic_garbage(lex, matcher, synth):
    *_, (rng, w, t) = _mixed_tracker(lex, matcher, synth, 7, 300)
    statements = [matcher.parse_single(s) for s in
                  ("John went to the kitchen.", "He went to the garden.")]
    questions = [(kind, matcher.parse_single(synth.question_text(
        synth.mixed_question(rng, w, kind)))) for kind in synth.PROBE_MIX]
    gc.collect()
    gc.disable()      # an automatic collection would hide what a call leaves
    try:
        for prop in statements:
            t.ingest(prop)
            assert gc.collect() == 0, prop.source
        for kind, prop in questions:
            t.answer_question(prop)
            assert gc.collect() == 0, kind
    finally:
        gc.enable()


def test_statements_share_the_parsed_structure(lex, matcher):
    t = make_tracker(lex)
    prop = matcher.parse_single("John went to the kitchen.")
    t.ingest(prop)
    assert t.items[-1].ls is prop.ls
    john = prop.ls.left.actor

    prop = matcher.parse_single("He went to the kitchen.")
    t.ingest(prop)
    ls = t.items[-1].ls      # do'(he,[go'(he)]) & INGR be-in'(the kitchen,he)
    assert ls.left.actor is john and ls.right.inner.arg2 is john
    assert ls.right.inner.arg1 is prop.ls.right.inner.arg1

    prop = matcher.parse_single("He gave the milk to Mary.")
    t.ingest(prop)
    ls = t.items[-1].ls      # [do'(he,0)] CAUSE [BECOME NOT have'(he,milk) ∧ BECOME have'(mary,milk)]
    assert ls.left.actor is john
    assert ls.right.right is prop.ls.right.right


def _per_entity_rule(entries):
    """The current-position rule on one entity's own entries."""
    cur = None
    for e in entries:
        if e.polarity == "positive":
            cur = e
        elif cur is not None and (cur.state.pred, cur.state.arg1.sense) \
                == (e.state.pred, e.state.arg1.sense):
            cur = None
    return cur


def _expected_located(t):
    """Every positioned entity with its per-entity current position, in the
    order of its first position (ties: the order named in that item)."""
    def named(item):
        return [m.sense for r in walk_referents(item.ls)
                for m in (r.members if r.kind == "bundle" else (r,))]

    refs = {}
    for item in t.items:
        for r in walk_referents(item.ls):
            for m in (r.members if r.kind == "bundle" else (r,)):
                if m.kind == "entity":
                    refs.setdefault(m.sense, m)
    entries = {s: t.positions_of(r) for s, r in refs.items()}
    located = sorted((s for s in refs if entries[s]), key=lambda s: (
        entries[s][0].index, named(t.items[entries[s][0].index - 1]).index(s)))
    return [(refs[s].sense, _per_entity_rule(entries[s])) for s in located]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_pass_fold_agrees_with_the_per_entity_rule(lex, matcher, synth, seed):
    negatives = 0
    for _, _, t in _mixed_tracker(lex, matcher, synth, seed, 80, locations=True):
        negatives += t.items[-1].operators.polarity == "negative"
        located = t._located_positions()
        assert [(ref.sense, cur) for ref, cur in located] == _expected_located(t)
        for ref, cur in located:
            assert t.current_position(ref) == cur
    assert negatives
