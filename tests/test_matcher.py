from __future__ import annotations

import pytest

from semqa.matcher import (
    MatchError,
    Matcher,
    MeaninglessError,
    OperatorChainError,
    UnknownWordError,
    tokenize,
)
from semqa.semantics import render


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
    elements = matcher.match_phrases(tokens)
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


# -- full pipeline -----------------------------------------------------------

def test_embedded_clause_precedes_host(matcher):
    prop = parse(matcher, "Mary who went to the kitchen went to the garden")
    assert len(prop.embedded) == 1
    assert "the kitchen" in render(prop.embedded[0].ls)
    assert "the garden" in render(prop.ls)


def test_conjunction_kept_as_bundle(matcher):
    prop = parse(matcher, "Mary and Jeff went to the kitchen")
    assert render(prop.ls) == ("do'(mary and jeff,[go'(mary and jeff)])"
                               " & INGR be-in'(the kitchen,mary and jeff)")
    assert prop.operators.number == "plural"


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


def test_transfer_passive(matcher):
    assert ls_of(matcher, "Jeff was given the milk by Bill.") == (
        "[do'(bill,0)] CAUSE [BECOME NOT have'(bill,the milk)"
        " ∧ BECOME have'(jeff,the milk)]")


def test_transfer_passive_promotes_object(matcher):
    assert ls_of(matcher, "The milk was given to Mary by Bill.") == (
        "[do'(bill,0)] CAUSE [BECOME NOT have'(bill,the milk)"
        " ∧ BECOME have'(mary,the milk)]")


def test_transfer_double_object(matcher):
    assert ls_of(matcher, "Bill gave Mary the milk.") \
        == ls_of(matcher, "Bill gave the milk to Mary.")


def test_plain_negation_statement(matcher):
    prop = parse(matcher, "Sandra is not in the bedroom.")
    assert render(prop.ls) == "be-in'(the bedroom,sandra)"
    assert prop.operators.polarity == "negative"
    assert prop.embedded == ()   # unlike "no longer", no past-positive twin


def test_take_there_keeps_acquisition_reading(matcher):
    assert ls_of(matcher, "Bill took the football there.") \
        == "[do'(bill,0)] CAUSE [BECOME have'(bill,the football)]"


def test_strict_take_forces_carry(lex):
    strict = Matcher(lex, strict_take=True)
    assert render(strict.parse_single("Bill took the football there.").ls) \
        == "do'(bill,[carry'(bill,the football)])"
    # without the deictic the acquisition reading survives unchanged
    assert render(strict.parse_single("Bill took the football.").ls) \
        == "[do'(bill,0)] CAUSE [BECOME have'(bill,the football)]"


def test_question_word_order_reordered(matcher):
    prop = parse(matcher, "Where is Mary?")
    assert render(prop.ls) == "be-LOC'(Where,mary)"


def test_fronted_query_with_stranded_to(matcher):
    assert ls_of(matcher, "Who did Fred give the cake to?") == (
        "[do'(fred,0)] CAUSE [BECOME NOT have'(fred,the cake)"
        " ∧ BECOME have'(Who,the cake)]")


def test_order_sensitivity(matcher):
    assert ls_of(matcher, "on the beach") == "be-on'(the beach,0)"
    for scrambled in ("the on beach", "the beach on"):
        with pytest.raises(MatchError):
            parse(matcher, scrambled)


def test_wsd_deterministic(matcher):
    a = [render(p.ls) for p in matcher.parse_utterance("the wind ate the mountain")]
    b = [render(p.ls) for p in matcher.parse_utterance("the wind ate the mountain")]
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
    assert matcher.parse_utterance("") == []
