from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from conftest import random_question, random_statement
import semqa
from semqa import matcher as matcher_module
from semqa.lexicon import load_lexicon
from semqa.matcher import (
    AmbiguousMatchError,
    MatchError,
    Matcher,
    MeaninglessError,
    OperatorChainError,
    Proposition,
    UnknownWordError,
    tokenize,
)
from semqa.semantics import entity, render


def parse(matcher, text):
    return matcher.parse_single(text)


def ls_of(matcher, text):
    return render(parse(matcher, text).ls)


# -- tokenize ---------------------------------------------------------------

def test_tokenize_question_hint():
    assert tokenize("Where is Mary?") == (["where", "is", "mary"], "question")


def test_tokenize_statement():
    tokens, hint = tokenize("Bill picked up the football.")
    assert tokens == ["bill", "picked", "up", "the", "football"]
    assert hint == "statement"


def test_tokenize_empty():
    assert tokenize("") == ([], "statement")


def test_tokenize_expands_contractions():
    assert tokenize("won't")[0] == ["will", "not"]
    assert tokenize("hasn't")[0] == ["has", "not"]


# -- match_phrases ----------------------------------------------------------

def test_consolidation_the_old_cat(matcher):
    [element] = matcher.match_phrases(["the", "old", "cat"])
    assert element.surface == "cat"
    assert "definite" in element.ops
    labelled = [c.surface for c in _walk(element) if "adjective" in c.labels]
    assert labelled == ["old"]


def _walk(element):
    yield element
    for c in element.constituents:
        yield from _walk(c)


def test_breadcrumbs_block_rematch(matcher):
    elements = matcher.match_phrases(["the", "the", "the", "old", "cat"])
    # the consolidated referent is never re-consumed; two determiners dangle
    dangling = [e for e in elements if "determiner" in e.attributes]
    assert len(dangling) == 2
    with pytest.raises(MatchError):
        matcher.predicate_cast(elements, matcher.extract_operators(elements))


def test_unknown_word_reports_position(matcher):
    with pytest.raises(UnknownWordError) as err:
        matcher.match_phrases(["mary", "zzz", "kitchen"])
    assert err.value.position == 1


def test_split_particle_consolidates_same_as_adjacent(matcher):
    adjacent = matcher.match_phrases(["picked", "up", "the", "football"])
    split = matcher.match_phrases(["picked", "the", "football", "up"])
    assert [e.surface for e in adjacent] == [e.surface for e in split]
    assert all("particle-done" in e.attributes
               for e in adjacent + split if e.surface == "picked")


# -- extract_operators -------------------------------------------------------

def _ops_for(matcher, text):
    tokens, hint = tokenize(text)
    elements = matcher.match_phrases(tokens, hint)
    return matcher.extract_operators(elements, hint)


def test_operators_passive_past(matcher):
    ops = _ops_for(matcher, "was given")
    assert (ops.tense, ops.voice) == ("past", "passive")


def test_operators_no_longer(matcher):
    ops = _ops_for(matcher, "is no longer")
    assert (ops.tense, ops.polarity) == ("present", "negative")


def test_operators_full_chain(matcher):
    ops = _ops_for(matcher, "won't have been being spoken")
    assert ops.tense == "future"
    assert ops.polarity == "negative"
    assert ops.perfect and ops.progressive
    assert ops.voice == "passive"


def test_operators_inconsistent_chain(matcher):
    with pytest.raises(OperatorChainError):
        _ops_for(matcher, "will kitchen went")


# -- predication --------------------------------------------------------------

def test_wsd_girl_sandwich_selects_chew(lex, matcher):
    prop = parse(matcher, "the girl ate the sandwich")
    assert render(prop.ls, lex) == "do'(the girl,[eat'(the girl,the sandwich)])"


def test_wsd_girl_mountain_is_meaningless(matcher):
    with pytest.raises(MeaninglessError):
        parse(matcher, "the girl ate the mountain")


def test_wsd_wind_mountain_selects_erode(lex, matcher):
    prop = parse(matcher, "the wind ate the mountain")
    assert render(prop.ls, lex) == "do'(the wind,[erode'(the wind,the mountain)])"


def test_qualia_fallback_started_car(matcher):
    prop = parse(matcher, "Mary started the car")
    assert render(prop.ls) == "do'(mary,[start'(mary,the car)])"


def test_completeness_rejects_unconsumed_referent(matcher):
    with pytest.raises(MeaninglessError):
        parse(matcher, "Mary went the football to the kitchen.")


def test_required_role_must_fill(matcher):
    with pytest.raises(MeaninglessError):
        parse(matcher, "Mary went.")


def test_multiple_predicates_rejected(matcher):
    with pytest.raises(MatchError):
        parse(matcher, "Mary went travelled to the kitchen.")


def _with_records(records):
    return Matcher(load_lexicon(semqa.core_lexicon_text() + records))


def test_two_distinct_readings_are_ambiguous():
    m = _with_records(
        'sense p:eat-dine predicate {vc=activity,print=dine} "have a meal"\n'
        "frame p:eat-dine actor:r:person!required undergoer:r:food\n"
        "form ate -> p:eat-dine {past}\n")
    with pytest.raises(AmbiguousMatchError, match="2 distinct readings survived"):
        m.parse_single("The girl ate the sandwich.")


@pytest.mark.parametrize("records, text", [
    # give and hand build the same transfer structure: one proposition
    ("form handed -> p:give {past,past-participle}\n", "Bill handed the milk to Mary."),
    # a sense no template reads is skipped
    ('sense p:eat-idle predicate {} "read by no template"\nform ate -> p:eat-idle {past}\n',
     "The girl ate the sandwich."),
])
def test_a_second_sense_that_adds_no_reading(matcher, records, text):
    assert _with_records(records).parse_single(text) == parse(matcher, text)


@pytest.mark.parametrize("text, outcome", [
    ("Mary going to the kitchen.", OperatorChainError),
    ("Is in the kitchen?", MeaninglessError),
    ("Mary is.", MeaninglessError),
    ("Mary has.", MeaninglessError),
    ("Who has?", MeaninglessError),
    ("Mary has the kitchen.", MeaninglessError),
    ("Who has the kitchen?", MeaninglessError),
    # have links its roles through its frame: the question word is the holder
    ("Who has the milk?", "have'(Who,the milk)"),
    ("The milk is held by Mary.", "have'(mary,the milk)"),
    ("Mary picked the milk.", MeaninglessError),
    ("The man who went to the kitchen.", MeaninglessError),
    ("Mary who.", MeaninglessError),
    ("Mary and John.", MeaninglessError),
    ("Mary went to the kitchen garden.", MeaninglessError),
    ("Mary went to the kitchen .", None),    # tokenize drops the bare "."
    # the count slot takes its counted noun once, and Mary stays the holder
    ("How many objects Mary is carrying?", "have'(mary,How-many)"),
])
def test_sentence_outcomes(matcher, text, outcome):
    # an error class, a rendered logical structure, or None: that of the
    # same sentence without the stray token
    if outcome is None:
        assert parse(matcher, text).ls == parse(matcher, "Mary went to the kitchen.").ls
    elif isinstance(outcome, str):
        assert ls_of(matcher, text) == outcome
    else:
        with pytest.raises(outcome):
            parse(matcher, text)


# -- linking -------------------------------------------------------------------

def give(giver: str, obj: str, recipient: str) -> str:
    return (f"[do'({giver},0)] CAUSE [BECOME NOT have'({giver},{obj})"
            f" ∧ BECOME have'({recipient},{obj})]")


def take(taker: str, obj: str, source: str) -> str:
    return (f"[do'({taker},0)] CAUSE [BECOME have'({taker},{obj})"
            f" ∧ BECOME NOT have'({source},{obj})]")


@pytest.mark.parametrize("text, outcome", [
    # the voice links the actor: the subject, or the passive's by phrase
    ("Bill gave the milk to Mary.", give("bill", "the milk", "mary")),
    ("Jeff was given the milk by Bill.", give("bill", "the milk", "jeff")),
    ("The milk was given to Mary by Bill.", give("bill", "the milk", "mary")),
    ("The milk was given to Mary.", give("0", "the milk", "mary")),
    ("Mary discarded by Bill.", MeaninglessError),
    # a conjoined by phrase links as one actor
    ("The milk was given to Jeff by Mary and John.",
     give("mary and john", "the milk", "jeff")),
    ("Mary discarded by Bill and Fred.", MeaninglessError),
    # with two referents left an open recipient goes first
    ("Bill gave Mary the milk.", give("bill", "the milk", "mary")),
    ("Jeff was given the milk.", give("0", "the milk", "jeff")),
    ("What was Mary given?", give("0", "What", "mary")),
    ("What did Mary give John?", give("mary", "What", "john")),
    # a stranded role preposition labels the question slot
    ("Who did Fred give the cake to?", give("fred", "the cake", "Who")),
    ("Who did Mary take the milk from?", take("mary", "the milk", "Who")),
    ("Who was the milk given by?", give("Who", "the milk", "0")),
    ("Where is Mary in?", "be-LOC'(Where,mary)"),
    ("Who did Mary take to?", MeaninglessError),
    ("Mary was got the milk.", MeaninglessError),
    # a destination that is not one place fails inside sense selection
    ("He went to it.", MeaninglessError),
    ("He was moved.", MeaninglessError),
])
def test_linking_outcomes(matcher, text, outcome):
    if isinstance(outcome, str):
        assert ls_of(matcher, text) == outcome
    else:
        with pytest.raises(outcome):
            parse(matcher, text)


# -- the copula ----------------------------------------------------------------

def reading(matcher, text) -> str:
    """Each clause of the text's proposition, embedded ones first, as its
    tense, polarity and aspect and its rendered logical structure."""
    prop = parse(matcher, text)
    clauses = []
    for p in (*prop.embedded, prop):
        ops = p.operators
        aspect = ",progressive" * ops.progressive + ",perfect" * ops.perfect
        clauses.append(f"[{ops.tense},{ops.polarity}{aspect}] {render(p.ls)}")
    return " / ".join(clauses)


@pytest.mark.parametrize("text, outcome", [
    # where, who and polar questions
    ("Where is Mary?", "[present,positive] be-LOC'(Where,mary)"),
    ("Where was the milk?", "[past,positive] be-LOC'(Where,the milk)"),
    ("Who is in the kitchen?", "[present,positive] be-in'(the kitchen,Who)"),
    ("Who was in the garden?", "[past,positive] be-in'(the garden,Who)"),
    ("Who is where?", "[present,positive] be-LOC'(Where,Who)"),
    ("Is Mary in the kitchen?", "[present,positive] be-in'(the kitchen,mary)"),
    ("Was Sandra in the office?", "[past,positive] be-in'(the office,sandra)"),
    ("Mary is where?", "[present,positive] be-LOC'(Where,mary)"),
    # the located referent takes the frame's first role it fits
    ("The kitchen is where?", "[present,positive] be-LOC'(Where,the kitchen)"),
    # each position phrase names its positional predicate
    ("Mary is in the kitchen.", "[present,positive] be-in'(the kitchen,mary)"),
    ("Mary is on the mat.", "[present,positive] be-on'(the mat,mary)"),
    ("Mary is at the office.", "[present,positive] be-at'(the office,mary)"),
    ("In the kitchen is Mary.", "[present,positive] be-in'(the kitchen,mary)"),
    ("In the kitchen.", "[present,positive] be-in'(the kitchen,0)"),
    # bundle and pronoun subjects
    ("Where are Mary and John?", "[present,positive] be-LOC'(Where,mary and john)"),
    ("Mary and John are in the garden.", "[present,positive] be-in'(the garden,mary and john)"),
    ("The man and the woman were in the hallway.",
     "[past,positive] be-in'(the hallway,man and woman)"),
    ("Where is he?", "[present,positive] be-LOC'(Where,he)"),
    ("Where were they?", "[past,positive] be-LOC'(Where,they)"),
    ("She is in the kitchen.", "[present,positive] be-in'(the kitchen,she)"),
    ("Mary and he are in the kitchen.", "[present,positive] be-in'(the kitchen,mary and he)"),
    # "no longer", aspect and the future
    ("Mary is no longer in the kitchen.",
     "[past,positive] be-in'(the kitchen,mary) / [present,negative] be-in'(the kitchen,mary)"),
    ("Mary is being in the kitchen.", "[present,positive,progressive] be-in'(the kitchen,mary)"),
    ("Mary has been in the kitchen.", "[present,positive,perfect] be-in'(the kitchen,mary)"),
    ("Mary will be in the kitchen.", "[future,positive] be-in'(the kitchen,mary)"),
    # relative clauses, the copula inside and outside
    ("Mary who is in the kitchen went to the garden.",
     "[present,positive] be-in'(the kitchen,mary)"
     " / [past,positive] do'(mary,[go'(mary)]) & INGR be-in'(the garden,mary)"),
    ("Sandra who is no longer in the kitchen went to the garden.",
     "[present,negative] be-in'(the kitchen,sandra)"
     " / [past,positive] do'(sandra,[go'(sandra)]) & INGR be-in'(the garden,sandra)"),
    ("Mary who went to the kitchen is in the garden.",
     "[past,positive] do'(mary,[go'(mary)]) & INGR be-in'(the kitchen,mary)"
     " / [present,positive] be-in'(the garden,mary)"),
    ("Mary who went to the kitchen is no longer in the garden.",
     "[past,positive] do'(mary,[go'(mary)]) & INGR be-in'(the kitchen,mary)"
     " / [past,positive] be-in'(the garden,mary) / [present,negative] be-in'(the garden,mary)"),
    # no position to predicate, nothing to locate, or a referent left over
    ("Mary is the kitchen.", MeaninglessError),
    ("Mary is John.", MeaninglessError),
    ("Mary is.", MeaninglessError),
    ("Is Mary?", MeaninglessError),
    ("Where is?", MeaninglessError),
    ("Where is the kitchen Mary?", MeaninglessError),
    ("Mary is in the kitchen the garden.", MeaninglessError),
    ("Where is Mary in the kitchen?", MeaninglessError),
    # a where slot asks for the position, never for what is located
    ("Where is where?", MeaninglessError),
    ("Where is in the kitchen?", MeaninglessError),
    ("Is where in the kitchen?", MeaninglessError),
])
def test_copula_outcomes(matcher, text, outcome):
    if isinstance(outcome, str):
        assert reading(matcher, text) == outcome
    else:
        with pytest.raises(outcome):
            parse(matcher, text)


def test_a_where_slot_before_a_who_slot_fails(matcher):
    # the where slot, first of two question words, takes the located role,
    # and `who` is no place; "Who is where?" reads be-LOC'(Where,Who)
    with pytest.raises(MeaninglessError, match="required role 'position'"):
        parse(matcher, "Where is who?")


# -- full pipeline -----------------------------------------------------------

def test_embedded_clause_precedes_host(matcher):
    prop = parse(matcher, "Mary who went to the kitchen went to the garden")
    assert len(prop.embedded) == 1
    assert "the kitchen" in render(prop.embedded[0].ls)
    assert "the garden" in render(prop.ls)


@pytest.mark.parametrize("text, outcome", [
    # a relative clause's verb group ends at its first verb that is no
    # auxiliary, so a main verb right after it stays in the main clause
    ("Mary who spoke went to the kitchen.",
     "[past,positive] do'(mary,[speak'(mary)])"
     " / [past,positive] do'(mary,[go'(mary)]) & INGR be-in'(the kitchen,mary)"),
    ("Mary who was reading went to the kitchen.",
     "[past,positive,progressive] do'(mary,[read'(mary)])"
     " / [past,positive] do'(mary,[go'(mary)]) & INGR be-in'(the kitchen,mary)"),
    ("Mary who had been reading went to the kitchen.",
     "[past,positive,progressive,perfect] do'(mary,[read'(mary)])"
     " / [past,positive] do'(mary,[go'(mary)]) & INGR be-in'(the kitchen,mary)"),
])
def test_relative_clause_ends_before_the_main_verb(matcher, text, outcome):
    assert reading(matcher, text) == outcome


def test_conjunction_kept_as_bundle(matcher):
    prop = parse(matcher, "Mary and Jeff went to the kitchen")
    assert render(prop.ls) == ("do'(mary and jeff,[go'(mary and jeff)])"
                               " & INGR be-in'(the kitchen,mary and jeff)")
    assert prop.operators.number == "plural"


def test_bundle_surface_names_the_conjunction_once(matcher):
    tokens, _ = tokenize("The man and the woman went to the kitchen.")
    assert [el.surface for el in matcher.match_phrases(tokens)][:2] == [
        "man and woman", "went"]
    with pytest.raises(MeaninglessError, match="referent 'john and sandra' not consumed"):
        parse(matcher, "Mary went to the kitchen John and Sandra.")


def test_polar_question_treated_as_statement(matcher):
    prop = parse(matcher, "Is Beth in the kitchen?")
    assert render(prop.ls) == "be-in'(the kitchen,beth)"
    assert prop.operators.force == "question"


def test_motion_to_surface_location(matcher):
    assert ls_of(matcher, "Mary went to the mat.") \
        == "do'(mary,[go'(mary)]) & INGR be-on'(the mat,mary)"


def test_no_longer_emits_past_positive_twin(matcher):
    prop = parse(matcher, "Fred is no longer in the office.")
    assert prop.operators.polarity == "negative"
    assert prop.operators.tense == "present"
    [twin] = prop.embedded
    assert twin.operators.polarity == "positive"
    assert twin.operators.tense == "past"
    assert render(twin.ls) == render(prop.ls)


def test_plain_negation_statement(matcher):
    prop = parse(matcher, "Sandra is not in the bedroom.")
    assert render(prop.ls) == "be-in'(the bedroom,sandra)"
    assert prop.operators.polarity == "negative"
    assert prop.embedded == ()   # unlike "no longer", no past-positive twin


def test_take_there_keeps_acquisition_reading(matcher):
    assert ls_of(matcher, "Bill took the football there.") \
        == "[do'(bill,0)] CAUSE [BECOME have'(bill,the football)]"


def test_strict_take_forces_carry(lex):
    default, strict = Matcher(lex), Matcher(lex, strict_take=True)
    acquire = "[do'(bill,0)] CAUSE [BECOME have'(bill,the football)]"
    # each matcher caches its own readings; a second parse keeps them apart
    for _ in range(2):
        assert render(strict.parse_single("Bill took the football there.").ls) \
            == "do'(bill,[carry'(bill,the football)])"
        assert render(default.parse_single("Bill took the football there.").ls) == acquire
        # without the deictic the acquisition reading survives unchanged
        assert render(strict.parse_single("Bill took the football.").ls) == acquire


def test_question_word_order_reordered(matcher):
    prop = parse(matcher, "Where is Mary?")
    assert render(prop.ls) == "be-LOC'(Where,mary)"


@pytest.mark.parametrize("fronted, adjacent", [
    ("Will Mary go to the kitchen?", "Mary will go to the kitchen."),
    ("Won't Mary go to the kitchen?", "Mary won't go to the kitchen."),
    ("Did Mary go to the kitchen?", "Mary did go to the kitchen."),
    ("Didn't Mary go to the kitchen?", "Mary didn't go to the kitchen."),
    ("Does Mary have the milk?", "Mary does have the milk."),
    ("Has Mary gone to the kitchen?", "Mary has gone to the kitchen."),
    ("Had Mary gone to the kitchen?", "Mary had gone to the kitchen."),
    ("Is Mary going to the kitchen?", "Mary is going to the kitchen."),
    ("Was Mary going to the kitchen?", "Mary was going to the kitchen."),
    ("Was the milk given to Mary?", "The milk was given to Mary."),
    ("Are Mary and John going to the kitchen?", "Mary and John are going to the kitchen."),
    ("Was the milk not given to John?", "The milk was not given to John."),
    ("Is Mary not in the kitchen?", "Mary is not in the kitchen."),
    ("Did Mary not go to the kitchen?", "Mary did not go to the kitchen."),
    ("Is Mary no longer in the kitchen?", "Mary is no longer in the kitchen."),
    ("Did Mary who went to the kitchen go to the garden?",
     "Mary who went to the kitchen did go to the garden."),
    ("Did Mary who spoke go to the garden?", "Mary who spoke did go to the garden."),
    ("Did Mary who went to the kitchen not go to the garden?",
     "Mary who went to the kitchen did not go to the garden."),
])
def test_fronted_auxiliary_reads_as_adjacent(matcher, fronted, adjacent):
    # the fronted auxiliary joins its verb through the same chain record
    question, statement = parse(matcher, fronted), parse(matcher, adjacent)
    assert question.ls == statement.ls
    assert question.operators.force == "question"
    assert question.operators.with_(force="statement") == statement.operators


def test_order_sensitivity(matcher):
    assert ls_of(matcher, "on the beach") == "be-on'(the beach,0)"
    for scrambled in ("the on beach", "the beach on"):
        with pytest.raises(MatchError):
            parse(matcher, scrambled)


def test_wsd_deterministic(matcher):
    a = render(matcher.parse_utterance("the wind ate the mountain").ls)
    b = render(matcher.parse_utterance("the wind ate the mountain").ls)
    assert a == b


def test_motion_verbs_share_state_half(matcher):
    rendered = {
        ls_of(matcher, f"Mary {verb} to the kitchen.")
        for verb in ("went", "journeyed", "travelled", "moved")}
    assert len(rendered) == 1


def test_vacuous_markers_are_ignored(matcher):
    assert ls_of(matcher, "Then he went to the studio.") \
        == "do'(he,[go'(he)]) & INGR be-in'(the studio,he)"
    assert ls_of(matcher, "After that they moved to the hallway.") \
        == "do'(they,[go'(they)]) & INGR be-in'(the hallway,they)"


def test_empty_utterance(matcher):
    with pytest.raises(MeaninglessError, match="nothing to match"):
        matcher.parse_utterance("")


# -- parse cache ----------------------------------------------------------------

def test_repeat_parse_returns_equal_propositions(lex):
    m = Matcher(lex)
    first = m.parse_utterance("Mary who went to the kitchen went to the garden.")
    assert m.parse_utterance("Mary who went to the kitchen went to the garden.") == first


def test_repeat_parse_returns_the_cached_proposition(lex):
    m = Matcher(lex)
    first = m.parse_utterance("Bill gave the milk to Mary.")
    assert m.parse_single("Bill gave the milk to Mary.") is first


def test_remembered_openers_follow_the_attributes(lex):
    # both consolidate to "picked"; only the first still wants its particle
    m = Matcher(lex)
    made = []
    consolidate = m._consolidate

    def noting(pat, window):
        out = consolidate(pat, window)
        made.append(out[0])
        return out
    m._consolidate = noting
    for text in ("Mary has picked up the milk.", "Mary has picked the milk up."):
        made.clear()
        assert render(parse(m, text).ls) == "BECOME have'(mary,the milk)"
        picked = [el for el in made if el.surface == "picked"]
        assert [[p.id for p in el.openers] for el in picked] == [
            ["particle-up", "particle-up-split"], []]
        assert all(el.openers == m._openers(el) for el in picked)


def test_remembered_referents_keep_the_determiner(lex):
    m = Matcher(lex)
    assert ls_of(m, "Mary went to the kitchen.").endswith("be-in'(the kitchen,mary)")
    assert ls_of(m, "Mary went to a kitchen.").endswith("be-in'(kitchen,mary)")
    assert ls_of(m, "John got a football.") == "BECOME have'(john,football)"
    assert ls_of(m, "John got the football.") == "BECOME have'(john,the football)"


def test_pronoun_flag(matcher):
    # a structure that holds a pronoun has no antecedent summary
    assert parse(matcher, "She went to the kitchen.").antecedents is None
    assert parse(matcher, "Mary went to the kitchen.").antecedents is not None
    # a pronoun conjunct counts, in a statement and in a question
    assert parse(matcher, "Sandra and he went to the garden.").antecedents is None
    assert parse(matcher, "Where are Sandra and he?").antecedents is None
    assert parse(matcher, "Sandra and Daniel went to the garden.").antecedents is not None
    # built by hand, a proposition is taken to hold a pronoun; the summary
    # is derived from the structure, so equality ignores it
    by_hand = Proposition(entity("r:mary"), parse(matcher, "Mary went to the kitchen.").operators)
    assert by_hand.antecedents is None and by_hand == Proposition(by_hand.ls, by_hand.operators,
                                                                  antecedents=())


def test_antecedent_summary(matcher):
    # per agreement class, the first referent of the class in walk order
    summary = parse(matcher, "The milk was given to Mary by John.").antecedents
    assert [(cls, ref.sense) for cls, ref in summary] == [
        ("person", "r:john"), ("male", "r:john"), ("female", "r:mary")]
    [(cls, pair)] = parse(matcher, "Mary and John went to the garden.").antecedents
    assert cls == "plural" and [m.sense for m in pair.members] == ["r:mary", "r:john"]
    assert parse(matcher, "The milk is in the kitchen.").antecedents == ()
    # a structure that holds a pronoun has none until the context resolves it
    assert parse(matcher, "She went to the kitchen.").antecedents is None
    no_longer = parse(matcher, "Fred is no longer in the office.")
    assert no_longer.embedded[0].antecedents == no_longer.antecedents == (
        ("person", entity("r:fred", "proper", "male", "singular")),
        ("male", entity("r:fred", "proper", "male", "singular")))


def test_a_bundle_destination_fails_naming_the_sense(matcher):
    with pytest.raises(MeaninglessError,
                       match="p:go: destination kitchen and garden is not one place"):
        parse(matcher, "Mary went to the kitchen and the garden.")


def test_unknown_word_raises_on_every_call(lex):
    m = Matcher(lex)
    for _ in range(2):
        with pytest.raises(UnknownWordError):
            m.parse_utterance("Mary zorped to the kitchen.")


def test_parse_cache_is_bounded(lex, monkeypatch):
    monkeypatch.setattr(matcher_module, "PARSE_CACHE_SIZE", 3)
    m = Matcher(lex)
    # five texts of five shapes
    texts = ["Mary went to the kitchen.", "Mary moved to the garden.",
             "Mary travelled to the office.", "Mary journeyed to the hallway.",
             "Mary went back to the bedroom."]
    tables = ("_shapes", "_opened", "_referents")
    used = set()
    for text in texts + texts[:2]:
        m.parse_utterance(text)
        assert len(m._parses) <= 3
        for name in tables:
            assert len(getattr(m, name)) <= 3
            if getattr(m, name):
                used.add(name)
    assert used == set(tables)
    # oldest evicted first, from the text and the shape table alike
    assert list(m._parses) == [texts[4], texts[0], texts[1]]
    assert [prop.source for prop, _ in m._shapes.values()] == [texts[4], texts[0], texts[1]]


def _outcomes(m, texts):
    out = []
    for text in texts:
        try:
            out.append(m.parse_utterance(text))
        except MatchError as exc:
            out.append(type(exc).__name__)
    return out


class _YieldingDict(dict):
    """Gives up the interpreter lock between creating an iterator and its
    first step, so a racing caller's insert lands inside an eviction."""

    def __iter__(self):
        keys = super().__iter__()
        time.sleep(0)
        return keys


def test_threads_sharing_a_matcher_agree_with_a_sequential_run(lex, monkeypatch):
    rng = random.Random(11)
    texts = [random_statement(rng) if i % 3 else random_question(rng)
             for i in range(196)]
    texts += ["Mary zorped to the kitchen."] * 4
    rng.shuffle(texts)
    expected = _outcomes(Matcher(lex), texts)
    # a small cache makes the threads evict while the others insert
    monkeypatch.setattr(matcher_module, "PARSE_CACHE_SIZE", 16)
    shared = Matcher(lex)
    shared._parses = _YieldingDict()
    results: list = [None] * 4
    errors: list[BaseException] = []

    def work(slot):
        try:
            results[slot] = _outcomes(shared, texts)
        except BaseException as exc:    # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == [expected] * 4
    # each other thread may insert once between a check and its own insert
    assert len(shared._parses) <= 16 + 3
