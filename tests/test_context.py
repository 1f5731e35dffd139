from __future__ import annotations

import gc
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ingest_all, make_tracker
from semqa import context
from semqa.context import (
    ContextError,
    ContextTracker,
    PositionEntry,
    PronounResolutionError,
    UnsupportedQuestionError,
    have_events,
    latest_match,
    trace_line,
)
from semqa.lexicon import Lexicon, LexiconError
from semqa.matcher import MeaninglessError, Proposition
from semqa.nlg import RealizationRequest, realize_answer
from semqa.semantics import (
    State,
    antecedents,
    bundle,
    entity,
    referent_matches,
    render,
    walk_referents,
)

MARY = entity("r:mary", "proper", "female", "singular")
DANIEL = entity("r:daniel", "proper", "male", "singular")
FRED = entity("r:fred", "proper", "male", "singular")
KITCHEN = entity("r:kitchen", "definite", "singular")


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


def test_a_no_longer_relative_clause_keeps_its_past_half(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex),
                   ["Sandra who is no longer in the kitchen went to the garden."])
    assert [trace_line(n, item).partition(" :: ")[0] for n, item in enumerate(t.items, 1)] == [
        "#1 [past] be-in'(the kitchen,sandra)",
        "#2 [present,negative] be-in'(the kitchen,sandra)",
        "#3 [past] do'(sandra,[go'(sandra)]) & INGR be-in'(the garden,sandra)"]
    assert all(item.embedded == () for item in t.items)
    assert answer(matcher, t, "Was Sandra in the kitchen?").polarity == "yes"
    assert answer(matcher, t, "Is Sandra in the kitchen?").polarity == "no"


def test_ingest_is_append_only(lex, matcher):
    t = make_tracker(lex)
    snapshots = []
    for s in ["Mary went to the kitchen.", "Fred is no longer in the office.",
              "Bill gave the milk to Mary."]:
        t.ingest(matcher.parse_single(s))
        snapshots.append([trace_line(n, item) for n, item in enumerate(t.items, 1)])
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


def test_only_pronoun_statements_are_walked(lex, matcher, monkeypatch):
    story = ["Daniel went to the kitchen.", "He picked up the milk.",
             "Daniel and Sandra went to the office.", "They went to the garden.",
             "Mary who went to the hallway went to the garden.",
             "She and he went to the office."]
    # the reference resolves every statement, as if each held a pronoun
    reference = make_tracker(lex)
    for text in story:
        prop = matcher.parse_single(text)
        reference.ingest(replace(prop, antecedents=None, embedded=tuple(
            replace(emb, antecedents=None) for emb in prop.embedded)))
    resolved = []
    real = ContextTracker.resolve_pronoun
    monkeypatch.setattr(ContextTracker, "resolve_pronoun",
                        lambda self, attributes: resolved.append(attributes)
                        or real(self, attributes))

    def forbidden(*args):
        raise AssertionError("a pronoun statement walked twice")
    monkeypatch.setattr("semqa.context.walk_referents", forbidden)
    t = ingest_all(matcher, make_tracker(lex), story)
    assert t.trace() == reference.trace()
    # one resolution per distinct pronoun, however often the structure uses it
    he, they, she = (frozenset({"pronoun", "male", "singular"}), frozenset({"pronoun", "plural"}),
                     frozenset({"pronoun", "female", "singular"}))
    assert resolved == [he, they, she, he]
    # a proposition built by hand is resolved, in the same one walk
    pronoun = matcher.parse_single("She went to the kitchen.")
    t.ingest(Proposition(pronoun.ls, pronoun.operators))
    assert resolved[4:] == [she]
    assert {r.sense for r in walk_referents(t.items[-1].ls)} == {"r:mary", "r:kitchen"}


def test_only_pronoun_questions_are_walked(lex, matcher, monkeypatch):
    t = ingest_all(matcher, make_tracker(lex), ["Daniel went to the kitchen."])
    walked = []
    real = ContextTracker._resolve_ls
    monkeypatch.setattr(ContextTracker, "_resolve_ls",
                        lambda self, ls: walked.append(ls) or real(self, ls))
    named = answer(matcher, t, "Where is Daniel?")
    assert [render(b) for b in named.bindings] == ["be-in'(the kitchen,0)"]
    assert walked == []
    # a proposition built by hand is resolved
    question = matcher.parse_single("Where is he?")
    assert t.answer_question(Proposition(question.ls, question.operators)) == named
    assert len(walked) == 1


def test_pronoun_with_empty_context_fails(lex):
    t = make_tracker(lex)
    with pytest.raises(PronounResolutionError):
        t.resolve_pronoun(frozenset({"female", "singular"}))


def test_gender_agreement(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex),
                   ["Daniel was in the kitchen.", "Sandra went to the office."])
    assert t.resolve_pronoun(frozenset({"male", "singular"})).sense == "r:daniel"
    assert t.resolve_pronoun(frozenset({"female", "singular"})).sense == "r:sandra"


# -- the antecedent index ------------------------------------------------------

# what `they`, `he`, `she` and `it` ask for
AGREEMENTS = (frozenset({"pronoun", "plural"}), frozenset({"pronoun", "male", "singular"}),
              frozenset({"pronoun", "female", "singular"}),
              frozenset({"pronoun", "neuter", "singular"}))


def scanned_antecedent(lex, items, attributes):
    """The reference: the walk back through the stored items to the latest
    referent that agrees, which the antecedent index replaced; None when
    no referent agrees."""
    plural = "plural" in attributes
    gender = None
    for g in ("male", "female", "neuter"):
        if g in attributes:
            gender = g
    for item in reversed(items):
        for ref in walk_referents(item.ls):
            if plural:
                if ref.kind == "bundle":
                    return ref
                continue
            if ref.kind != "entity" or ref.sense is None:
                continue
            if not lex.holds_category(ref.sense, "r:person"):
                continue
            if gender in ("male", "female") and not ref.has(gender):
                continue
            return ref
    return None


def resolution(tracker, attributes):
    try:
        return tracker.resolve_pronoun(attributes)
    except PronounResolutionError:
        return None


def assert_index_agrees(lex, tracker, agreements=AGREEMENTS):
    for attributes in agreements:
        assert resolution(tracker, attributes) \
            == scanned_antecedent(lex, tracker.items, attributes), sorted(attributes)


INDEX_STORIES = [
    ["Daniel went to the kitchen.", "He picked up the milk.", "Sandra went to the office.",
     "She went to the garden.", "He gave the milk to Sandra.", "Then she went to the hallway."],
    ["Mary and John went to the garden.", "They went to the kitchen.", "Mary went to the office.",
     "They moved to the hallway.", "Bill and Fred picked up the milk.", "They dropped the milk."],
    ["Mary who went to the hallway went to the garden.", "Fred is no longer in the office.",
     "He went to the kitchen.", "It went to the bathroom."],
    ["The milk is in the kitchen.", "Mary gave John the milk.",
     "The milk was given to Mary by John.", "She went to the garden.",
     "Sandra and he went to the garden.", "They went to the office."],
]


@pytest.mark.parametrize("story", INDEX_STORIES)
def test_index_resolves_as_the_scan_after_every_item(lex, matcher, story):
    t = make_tracker(lex)
    assert_index_agrees(lex, t)
    for text in story:
        t.ingest(matcher.parse_single(text))
        assert_index_agrees(lex, t)


def assert_items_stored_resolved(lex, tracker):
    """Every item holds no embedded clause and no pronoun, and carries its
    own structure's antecedent summary."""
    for item in tracker.items:
        assert item.embedded == ()
        assert item.antecedents == antecedents(item.ls, lex)
        assert not any("pronoun" in m.attributes for r in walk_referents(item.ls)
                       for m in (r.members if r.kind == "bundle" else (r,)))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_interleaved_resolutions_match_the_scan(lex, matcher, synth, data):
    """Synthetic stories with pronouns and bundles, a pronoun conjunct now
    and then, resolutions drawn between any two ingests: summaries are
    folded in batches of any size, and every stored item is resolved and
    summarised as `semantics.antecedents` would."""
    family = data.draw(st.sampled_from(["pronouns", "pairs", "both", "mixed"]))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    w, t = synth.World(), make_tracker(lex)
    for _ in range(data.draw(st.integers(1, 40))):
        conjunct = rng.random() < 0.1
        if conjunct:
            text = (f"{rng.choice(synth.PEOPLE)} and {rng.choice(['he', 'she', 'they'])} "
                    f"went to the {rng.choice(synth.PLACES)}.")
        elif family == "mixed":
            text = synth.mixed_statement(rng, w)
        else:
            text = synth.gen_motion(rng, w, pronouns=family != "pairs",
                                    pairs=family != "pronouns")
        count = len(t.items)
        try:
            t.ingest(matcher.parse_single(text))
        except PronounResolutionError:     # a conjunct "they" with no bundle yet
            assert conjunct and len(t.items) == count
        assert_items_stored_resolved(lex, t)
        assert_index_agrees(lex, t, data.draw(st.lists(st.sampled_from(AGREEMENTS), max_size=2)))
    assert_index_agrees(lex, t)


def test_they_finds_a_bundle_500_items_back(lex, matcher):
    rng = random.Random(5)
    t = ingest_all(matcher, make_tracker(lex), ["Mary and John went to the garden."] + [
        f"{rng.choice(['Daniel', 'Sandra', 'Bill'])} went to the "
        f"{rng.choice(['kitchen', 'office', 'hallway'])}." for _ in range(500)])
    t.ingest(matcher.parse_single("They went to the bathroom."))
    assert {m.sense for m in t.items[-1].ls.left.actor.members} == {"r:mary", "r:john"}
    assert realize_answer(RealizationRequest(answer(matcher, t, "Where are Mary and John?"),
                                             mode="keyword"), lex) == "bathroom"


def test_they_without_a_bundle_fails(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), ["Mary went to the garden.",
                                                "John went to the kitchen."])
    with pytest.raises(PronounResolutionError):
        t.ingest(matcher.parse_single("They went to the office."))
    assert len(t.items) == 2


def test_a_pronoun_conjunct_is_resolved(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), ["Daniel went to the kitchen.",
                                                "Sandra and he went to the garden."])
    assert render(t.items[-1].ls) == ("do'(sandra and daniel,[go'(sandra and daniel)]) & "
                                      "INGR be-in'(the garden,sandra and daniel)")
    assert [render(b) for b in answer(matcher, t, "Where is Daniel?").bindings] \
        == ["be-in'(the garden,0)"]
    assert answer(matcher, t, "Is he in the garden?").polarity == "yes"
    assert answer(matcher, t, "Are Sandra and he in the garden?").polarity == "yes"


def test_a_plural_pronoun_conjunct_joins_a_flat_bundle(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), ["Daniel and Sandra went to the office.",
                                                "Mary and they went to the garden."])
    mover = t.items[-1].ls.left.actor
    assert [m.sense for m in mover.members] == ["r:mary", "r:daniel", "r:sandra"]
    assert all(m.kind == "entity" for m in mover.members)
    for question in ("Where is Sandra?", "Where are Mary and Daniel?"):
        assert [render(b) for b in answer(matcher, t, question).bindings] \
            == ["be-in'(the garden,0)"]
    # "they" takes the latest bundle, now the three of them
    t.ingest(matcher.parse_single("They went to the kitchen."))
    assert t.items[-1].ls.left.actor == mover


def test_a_pronoun_free_ingest_walks_nothing(lex, matcher, monkeypatch):
    story = ["Daniel went to the kitchen.", "Daniel and Sandra went to the office.",
             "Mary who went to the hallway went to the garden.",
             "Fred is no longer in the office.", "Bill gave the milk to Mary."]
    props = [matcher.parse_single(text) for text in story]

    def forbidden(*args):
        raise AssertionError("walked at ingest")
    for name in ("walk_referents", "map_referents", "note_antecedent"):
        monkeypatch.setattr(f"semqa.context.{name}", forbidden)
    monkeypatch.setattr(Lexicon, "holds_category", forbidden)
    monkeypatch.setattr(Lexicon, "is_a_closure", forbidden)
    t = make_tracker(lex)
    for prop in props:
        t.ingest(prop)
    assert len(t.items) == 7
    # a proposition with no embedded clauses is stored as it is, an
    # embedded clause too; one with them is stored without them
    shared = {0: props[0], 1: props[1], 2: props[2].embedded[0],
              4: props[3].embedded[0], 6: props[4]}
    assert all(t.items[k] is prop for k, prop in shared.items())
    assert [t.items[3], t.items[5]] == [replace(props[2], embedded=()),
                                        replace(props[3], embedded=())]
    assert all(item.embedded == () and item.antecedents is not None for item in t.items)


def test_a_hand_built_item_with_an_unknown_sense_fails_at_ingest(lex, matcher):
    # a hand-built proposition has no summary; it gets one at ingest
    went = matcher.parse_single("Mary went to the kitchen.")
    t = make_tracker(lex)
    t.ingest(Proposition(went.ls, went.operators))
    assert t.items[-1].antecedents == went.antecedents
    with pytest.raises(LexiconError, match="r:nobody"):
        t.ingest(Proposition(State("p:be-in", KITCHEN, entity("r:nobody")), went.operators))
    assert len(t.items) == 1


class CountingDict(dict):
    def __init__(self):
        super().__init__()
        self.folds = 0

    def update(self, pairs):
        self.folds += 1
        super().update(pairs)


def test_each_summary_is_folded_once(lex, matcher):
    t = make_tracker(lex)
    t._latest = CountingDict()
    for k, text in enumerate(INDEX_STORIES[0] + INDEX_STORIES[1], start=1):
        t.ingest(matcher.parse_single(text))
        if k % 3 == 0:
            t.resolve_pronoun(frozenset({"male"}))
            t.resolve_pronoun(frozenset({"female"}))
    t.resolve_pronoun(frozenset({"plural"}))
    assert t._latest.folds == len(t.items) == 12


# -- positions -----------------------------------------------------------------

def _places(content):
    return [b.arg1.sense for b in content.bindings]


def test_positions_in_context_order(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), [
        "Mary went to the bathroom.",
        "John moved to the hallway.",
        "Mary travelled to the office."])
    past = answer(matcher, t, "Where was Mary?")
    assert (_places(past), past.support) == (["r:bathroom", "r:office"], [1, 3])


def test_positions_via_bundle_membership(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), ["Mary and Jeff went to the kitchen."])
    assert _places(answer(matcher, t, "Where was Mary?")) == ["r:kitchen"]
    found, _ = t._positions(MARY)
    assert [(ref.sense, cur.index) for ref, cur in found.values()] == [("r:mary", 1)]


def test_positions_of_unknown_entity(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), ["Mary went to the bathroom."])
    assert answer(matcher, t, "Where was Fred?").bindings == []
    assert t._positions(FRED) == ({}, [])


def test_present_answer_is_suffix_of_past_list(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), [
        "Mary went to the bathroom.", "Mary went to the kitchen.",
        "Mary went to the office."])
    past = answer(matcher, t, "Where was Mary?")
    now = answer(matcher, t, "Where is Mary?")
    assert _places(now) == _places(past)[-1:] and now.support == past.support[-1:]


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
    assert t.held_now(DANIEL) == []
    assert any("inconsistency" in d for d in t.diagnostics)


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


@pytest.mark.parametrize("question", [
    "Who gave the milk to John?",        # unified with each item
    "Who received the milk?",            # matched against each item's gains
    "Did Mary give the milk to John?",   # the polar twin extracts them itself
])
def test_a_transfer_question_reads_its_have_leaves_once(lex, matcher, monkeypatch, question):
    t = ingest_all(matcher, make_tracker(lex), HANDOVER)
    prop = matcher.parse_single(question)
    read = []
    extract = context.have_events
    monkeypatch.setattr(context, "have_events", lambda ls: read.append(ls) or extract(ls))
    t.answer_question(prop)
    assert read.count(prop.ls) == 1


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
    t = ingest_all(matcher, make_tracker(lex, include_current_position=include_current),
                   story + ["John went to the garden."])
    reads = []
    position_states = context._position_states

    def counted(term, found=None):     # a top-level call only; it recurses with `found`
        if found is None:
            reads.append(term)
        return position_states(term, found)

    monkeypatch.setattr(context, "_position_states", counted)
    content = answer(matcher, t, "Where was Mary?")
    assert [render(b) for b in content.bindings] == [
        f"be-in'(the {place},0)" for place in expected]
    assert reads == [item.ls for item in t.items]
    reads.clear()
    answer(matcher, t, "Where were Mary and John?")     # once, not once per member
    assert reads == [item.ls for item in t.items]


@pytest.mark.parametrize("include_current, place, yes", [
    (True, "garden", True), (True, "kitchen", True), (True, "office", False),
    (False, "garden", True), (False, "kitchen", False), (False, "office", False),
])
def test_past_polar_position_asks_the_past_positions(lex, matcher, include_current, place,
                                                      yes):
    # "Was Mary in X?" says yes for the places "Where was Mary?" lists
    t = ingest_all(matcher, make_tracker(lex, include_current_position=include_current), [
        "Mary went to the garden.", "Mary went to the kitchen.", "John went to the office."])
    past = [render(b) for b in answer(matcher, t, "Where was Mary?").bindings]
    content = answer(matcher, t, f"Was Mary in the {place}?")
    assert (f"be-in'(the {place},0)" in past) == yes
    assert content.polarity == ("yes" if yes else "no")
    assert content.contrast is None
    assert content.support == ([1] if place == "garden" else [2] if yes else [])
    assert realize_answer(RealizationRequest(content, mode="natural"), lex) \
        == ("Yes, she was." if yes else "No, she wasn't.")


APART_THEN_TOGETHER = ["Mary and John went to the garden.", "John went to the kitchen.",
                       "Mary went to the kitchen."]


@pytest.mark.parametrize("include_current, story, expected, support", [
    (True, APART_THEN_TOGETHER, ["garden", "kitchen"], [1, 3]),
    (False, APART_THEN_TOGETHER, ["garden"], [1]),
    # together by separate moves, never in the office at once
    (True, ["Mary went to the office.", "John went to the kitchen.", "Mary went to the kitchen.",
            "John went to the office."], ["kitchen"], [3]),
    # a negative ends the bundle's stay without erasing it
    (True, ["Mary and John went to the garden.", "Mary is not in the garden.",
            "Mary went to the garden."], ["garden"], [1]),
    (False, ["Mary and John went to the garden.", "Mary is not in the garden."], ["garden"], [1]),
])
def test_a_bundle_was_where_its_members_were_together(lex, matcher, include_current, story,
                                                      expected, support):
    t = ingest_all(matcher, make_tracker(lex, include_current_position=include_current), story)
    content = answer(matcher, t, "Where were Mary and John?")
    assert [render(b) for b in content.bindings] == [
        f"be-in'(the {place},0)" for place in expected]
    assert content.support == support
    for place in ("garden", "kitchen", "office"):
        polar = answer(matcher, t, f"Were Mary and John in the {place}?")
        assert polar.polarity == ("yes" if place in expected else "no"), place


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


def test_bundle_position_follows_its_members(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex), [
        "Mary and John went to the garden.", "John went to the kitchen.",
        "Mary went to the kitchen."])
    polar = answer(matcher, t, "Are Mary and John in the kitchen?")
    assert (polar.polarity, polar.contrast, polar.support) == ("yes", None, [3])
    where = answer(matcher, t, "Where are Mary and John?")
    assert [render(b) for b in where.bindings] == ["be-in'(the kitchen,0)"]
    assert where.support == [3]
    # apart, the bundle is nowhere, and a member is no contrast to it
    ingest_all(matcher, t, ["John went to the garden."])
    assert answer(matcher, t, "Where are Mary and John?").bindings == []
    polar = answer(matcher, t, "Are Mary and John in the kitchen?")
    assert (polar.polarity, polar.contrast) == ("no", None)


@pytest.mark.parametrize("question, polarity, contrast, support", [
    ("Is Mary in the garden?", "no", "r:john", [1, 2]),
    ("Is Mary in the kitchen?", "yes", None, [1]),
    ("Will Mary be in the garden?", "no", "r:john", [1, 2]),
    ("Are Mary and John in the garden?", "no", "r:sandra", [3]),
    ("Are John and Sandra in the garden?", "yes", None, [3]),
])
def test_a_present_polar_reads_the_positions_once(lex, matcher, monkeypatch, question,
                                                  polarity, contrast, support):
    # the answer and its contrast ("No, but John is.") come from one fold
    t = ingest_all(matcher, make_tracker(lex), [
        "Mary went to the kitchen.", "John went to the garden.", "Sandra went to the garden."])
    reads = []
    position_states = context._position_states

    def counted(term, found=None):     # a top-level call only; it recurses with `found`
        if found is None:
            reads.append(term)
        return position_states(term, found)

    def forbidden(*args):
        raise AssertionError("a polar question asked who is there")
    monkeypatch.setattr(context, "_position_states", counted)
    monkeypatch.setattr(ContextTracker, "_answer_who_position", forbidden)
    content = answer(matcher, t, question)
    assert (content.polarity, content.contrast and content.contrast.sense,
            content.support) == (polarity, contrast, support)
    assert reads == [item.ls for item in t.items]


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


PASSIVE_GIVE = ["The milk was given to Mary."]   # the giver is left unspecified
PASSIVE_JOHN = ["The milk was given to John."]


@pytest.mark.parametrize("story, question, expected", [
    # have-state questions with a question word as the holder are parsed, not answered
    ([], "Who has the milk?", UnsupportedQuestionError),
    (HANDOVER, "What has the milk?", UnsupportedQuestionError),
    (HANDOVER, "How many objects did Mary pick up?", UnsupportedQuestionError),
    (HANDOVER, "How many objects is John carrying?", "one"),
    (HANDOVER, "Where did Mary give the milk?", UnsupportedQuestionError),
    (["Mary went to the kitchen and the garden."], "Where is Mary?", MeaninglessError),
    (["Bill took the football."], "Who took the football?", "bill"),
    (PASSIVE_GIVE, "What is Mary holding?", "milk"),
    (PASSIVE_GIVE + ["She went to the kitchen."], "Where is Mary?", "kitchen"),
    (["Mary has gone to the kitchen."], "Where is Mary?", "kitchen"),
    (["Mary and John went to the kitchen."], "Where were Mary and John?", "kitchen"),
    (["On the beach.", "Mary went to the kitchen."], "Where is Mary?", "kitchen"),
    # polar questions that fall back to unification with every stored item
    (["Mary went to the mat."], "Did Mary go to the kitchen?", "no"),
    (["Bill gave the milk to Jeff.", "Jeff read the book."], "Did Jeff eat the apple?", "no"),
    (["Jeff ate the cake."], "Did Jeff eat the apple?", "no"),
    (["Jeff read."], "Did Jeff read the book?", "no"),
    (["Bill gave the milk to Jeff.", "Jeff ate the apple."], "Did Jeff eat the apple?", "yes"),
    # a future position question asks where the entity is now
    (["Mary went to the kitchen.", "Mary went to the garden."],
     "Will Mary be in the kitchen?", "no"),
    (["Mary went to the kitchen.", "Mary went to the garden."],
     "Will Mary be in the garden?", "yes"),
    (["Mary went to the kitchen.", "Mary went to the garden."],
     "Where will Mary be?", "garden"),
    # a bundle asked against a bundle item matches the same members only
    (["Mary and John picked up the milk."], "Did Mary and John pick up the milk?", "yes"),
    (["Mary and John picked up the milk."], "Did Mary and Fred pick up the milk?", "no"),
    # an entity asked against an unspecified giver, a bundle against one picker
    (PASSIVE_JOHN, "Did Mary give the milk to John?", "no"),
    (["Mary picked up the milk."], "Did Mary and John pick up the milk?", "no"),
    # an unspecified party is never an answer
    (PASSIVE_JOHN, "Who gave the milk to John?", "unknown"),
    (["Mary gave the milk."], "Who did Mary give the milk to?", "unknown"),
    (["Mary gave the milk to John."] + PASSIVE_JOHN, "Who gave the milk to John?", "mary"),
])
def test_story_answer_or_typed_error(lex, matcher, story, question, expected):
    def keyword_answer():
        t = ingest_all(matcher, make_tracker(lex), story)
        assert len(t.trace().splitlines()) == len(t.items)
        return realize_answer(RealizationRequest(answer(matcher, t, question),
                                                 mode="keyword"), lex)

    if isinstance(expected, str):
        assert keyword_answer() == expected
    else:
        with pytest.raises(expected):
            keyword_answer()


def test_strict_receive_denies_a_self_acquisition_on_a_polar_question(lex, matcher):
    t = ingest_all(matcher, make_tracker(lex, strict_receive=True), HANDOVER)
    assert answer(matcher, t, "Did Mary receive the milk?").polarity == "no"
    assert answer(matcher, t, "Did John receive the milk?").polarity == "yes"


def _cited(twin, keep):
    """The content twin's (binding, item) pairs whose binding `keep` accepts."""
    return [(b, n) for b, n in zip(twin.bindings, twin.support) if keep(b)]


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_a_polar_answer_is_membership_in_its_content_twin(lex, matcher, synth, data):
    """Synthetic stories with bundles, negatives and transfers, under every
    query config: a polar question says yes exactly when its content twin,
    asked as a sentence, binds the asked value, and cites that binding's
    item; a future question's twin is the present one; a present- or
    future-tense "no" names as its contrast the first entity "Who is in
    P?" binds that is not the asked one."""
    t = make_tracker(lex, strict_receive=data.draw(st.booleans()),
                     include_current_position=data.draw(st.booleans()))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    w = synth.World()
    for _ in range(data.draw(st.integers(1, 30))):
        text = synth.gen_location(rng, w) if w.position and rng.random() < 0.2 \
            else synth.mixed_statement(rng, w)
        t.ingest(matcher.parse_single(text))
    p, q = (n.capitalize() for n in data.draw(st.permutations(synth.PEOPLE))[:2])
    place = data.draw(st.sampled_from(synth.PLACES))
    thing = data.draw(st.sampled_from(synth.THINGS))

    for names, (now, then) in (([p], ("is", "was")), ([p, q], ("are", "were"))):
        who = " and ".join(names)
        # a future question asks where the entity is now
        for polar_text, be in ((f"{now.capitalize()} {who} in the {place}?", now),
                               (f"{then.capitalize()} {who} in the {place}?", then),
                               (f"Will {who} be in the {place}?", now)):
            polar = answer(matcher, t, polar_text)
            hits = _cited(answer(matcher, t, f"Where {be} {who}?"),
                          lambda b: b.arg1.sense == f"r:{place}")
            assert polar.polarity == ("yes" if hits else "no")
            assert list(zip(polar.bindings, polar.support)) == hits[:1]
            others = [] if hits or be in ("was", "were") else [
                r for r in answer(matcher, t, f"Who is in the {place}?").bindings
                if r.sense not in {f"r:{n.lower()}" for n in names}]
            assert polar.contrast == (others[0] if others else None)

    polar = answer(matcher, t, f"Does {p} have the {thing}?")
    held = answer(matcher, t, f"What is {p} holding?")
    assert polar.polarity == ("yes" if any(b.sense == f"r:{thing}" for b in held.bindings)
                              else "no")
    assert (polar.bindings, polar.support) == ([], [])

    polar = answer(matcher, t, f"Did {p} receive the {thing}?")
    hits = _cited(answer(matcher, t, f"What did {p} receive?"),
                  lambda b: b.sense == f"r:{thing}")
    assert polar.polarity == ("yes" if hits else "no")
    assert (polar.bindings, polar.support) == ([], [n for _, n in hits])


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_every_answer_agrees_with_the_simulator_after_every_statement(lex, matcher, synth,
                                                                      data):
    """Ingests and questions interleaved: after each synthetic statement
    (motion with pronouns and pairs, possession, and "is in", "is not in"
    and "no longer" lines once someone is placed), one question of every
    probe kind gets the natural answer the world simulator expects."""
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    w, t = synth.World(), make_tracker(lex)
    for _ in range(data.draw(st.integers(1, 40))):
        text = synth.gen_location(rng, w) if w.position and rng.random() < 0.2 \
            else synth.mixed_statement(rng, w)
        t.ingest(matcher.parse_single(text))
        for kind in dict.fromkeys(synth.PROBE_MIX):
            q = synth.mixed_question(rng, w, kind)
            said = realize_answer(RealizationRequest(
                t.answer_question(matcher.parse_single(synth.question_text(q))),
                mode="natural"), lex)
            assert synth.natural_ok(q, said), (text, synth.question_text(q), said, q.truth)


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
    entries = {s: [PositionEntry(state, item.operators.polarity, n, item.operators.tense)
                   for n, item in enumerate(t.items, 1)
                   for state in context._position_states(item.ls)
                   if referent_matches(r, state.arg2)] for s, r in refs.items()}
    located = sorted((s for s in refs if entries[s]), key=lambda s: (
        entries[s][0].index, named(t.items[entries[s][0].index - 1]).index(s)))
    return [(refs[s].sense, _per_entity_rule(entries[s])) for s in located]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_pass_fold_agrees_with_the_per_entity_rule(lex, matcher, synth, seed):
    negatives = 0
    for _, _, t in _mixed_tracker(lex, matcher, synth, seed, 80, locations=True):
        negatives += t.items[-1].operators.polarity == "negative"
        located = t._positions()[0].values()
        assert [(ref.sense, cur) for ref, cur in located] == _expected_located(t)
        for ref, cur in located:      # the asked fold keeps the same slot
            assert list(t._positions(ref)[0].values()) == [[ref, cur]]
    assert negatives
