from __future__ import annotations

import pytest

from semqa.context import AnswerContent
from semqa.lexicon import DIMENSIONALITY
from semqa.nlg import (
    RealizationError,
    RealizationRequest,
    realize_answer,
    realize_count,
    realize_position,
    realize_verb_group,
    realize_verb_group_fr,
    split_fronted_aux,
)
from semqa.semantics import OperatorSet, State, UNSPECIFIED, bundle, entity

KITCHEN = entity("r:kitchen", "singular")
DANIEL = entity("r:daniel", "proper", "male", "singular")
SANDRA = entity("r:sandra", "proper", "female", "singular")


def test_position_prepositions_follow_dimensionality(lex):
    assert realize_position(KITCHEN, lex) == "in the kitchen"
    assert realize_position(entity("r:mat"), lex) == "on the mat"
    assert realize_position(entity("r:beach"), lex) == "at the beach"


@pytest.mark.parametrize("dim, pred", DIMENSIONALITY.items())
def test_position_phrase_matches_back_to_its_predicate(lex, matcher, dim, pred):
    place = next(sid for sid, sense in lex.senses.items() if dim in sense.attributes)
    for phrase in (realize_position(entity(place), lex),
                   realize_position(entity(place), lex, pred=pred)):
        assert matcher.parse_single(phrase).ls.pred == pred, phrase


def test_position_keyword_mode_is_bare(lex):
    assert realize_position(KITCHEN, lex, mode="keyword") == "kitchen"


def test_position_requires_dimensionality(lex):
    with pytest.raises(RealizationError):
        realize_position(entity("r:milk"), lex)


def test_verb_group_appendix_golden(lex):
    ops = OperatorSet(tense="future", voice="passive", perfect=True,
                      progressive=True, polarity="negative")
    assert realize_verb_group(ops, "p:speak", lex) == "won't have been being spoken"


def test_verb_group_simple_present(lex):
    assert realize_verb_group(OperatorSet(), "p:eat-chew", lex) == "eats"


def test_verb_group_negative_aspect_chain(lex):
    ops = OperatorSet(polarity="negative", voice="passive", perfect=True,
                      progressive=True)
    assert realize_verb_group(ops, "p:eat-chew", lex) == "hasn't been being eaten"


def test_verb_group_question_fronting(lex):
    ops = OperatorSet(tense="future", force="question", polarity="negative",
                      voice="passive", perfect=True, progressive=True,
                      number="plural")
    chain = realize_verb_group(ops, "p:eat-chew", lex)
    assert split_fronted_aux(chain) == ("Won't", "have been being eaten")


def test_french_future_paradigm():
    cells = [(1, "singular", "parlerai"), (2, "singular", "parleras"),
             (3, "singular", "parlera"), (1, "plural", "parlerons"),
             (2, "plural", "parlerez"), (3, "plural", "parleront")]
    for person, number, expected in cells:
        ops = OperatorSet(tense="future", person=person, number=number)
        assert realize_verb_group_fr(ops, "parler") == expected


def test_french_rejects_other_tenses():
    with pytest.raises(RealizationError):
        realize_verb_group_fr(OperatorSet(tense="past"), "parler")


def test_french_rejects_a_person_without_an_ending():
    # `semqa generate --person` admits 1-3 only; the realizer checks its own input
    with pytest.raises(RealizationError, match="no ending for person=4 number=singular"):
        realize_verb_group_fr(OperatorSet(tense="future", person=4), "parler")


def test_polar_short_uses_pronoun(lex):
    content = AnswerContent("polar", polarity="yes", topic=DANIEL,
                            echo=OperatorSet())
    got = realize_answer(RealizationRequest(content, mode="natural",
                                            style="short"), lex)
    assert got == "Yes, he is."


def test_polar_full_includes_position(lex):
    content = AnswerContent(
        "polar", polarity="yes", topic=SANDRA, echo=OperatorSet(),
        bindings=[State("p:be-in", entity("r:kitchen", "definite"), UNSPECIFIED)])
    got = realize_answer(RealizationRequest(content, mode="natural", style="full"), lex)
    assert got == "Yes, she is in the kitchen."


def test_polar_mixed_tense_echoes_item(lex):
    content = AnswerContent("polar", polarity="yes", topic=DANIEL,
                            echo=OperatorSet(tense="present"), item_tense="past")
    got = realize_answer(RealizationRequest(content, mode="natural", style="short"), lex)
    assert got == "Yes, he was."


def test_polar_contrast(lex):
    content = AnswerContent("polar", polarity="no", topic=DANIEL,
                            contrast=SANDRA, echo=OperatorSet())
    got = realize_answer(RealizationRequest(content, mode="natural", style="short"),
                         lex)
    assert got == "No, but Sandra is."


def test_polar_keyword_is_bare(lex):
    content = AnswerContent("polar", polarity="no", topic=DANIEL, echo=OperatorSet())
    assert realize_answer(RealizationRequest(content, mode="keyword"), lex) == "no"


def test_polar_plural_topic(lex):
    both = bundle(DANIEL, SANDRA)
    content = AnswerContent("polar", polarity="yes", topic=both, echo=OperatorSet())
    got = realize_answer(RealizationRequest(content, mode="natural", style="short"), lex)
    assert got == "Yes, they are."


def test_polar_neuter_topic(lex):
    content = AnswerContent("polar", polarity="yes", topic=entity("r:milk", "definite"),
                            echo=OperatorSet())
    got = realize_answer(RealizationRequest(content, mode="natural", style="short"), lex)
    assert got == "Yes, it is."


def test_polar_future_no_negates_the_modal(lex):
    content = AnswerContent("polar", polarity="no", topic=DANIEL,
                            echo=OperatorSet(tense="future"))
    got = realize_answer(RealizationRequest(content, mode="natural", style="short"), lex)
    assert got == "No, he won't be."


def test_natural_bundle_binding(lex):
    content = AnswerContent("content", bindings=[bundle(DANIEL, SANDRA)])
    got = realize_answer(RealizationRequest(content, mode="natural"), lex)
    assert got == "Daniel and Sandra."


def test_count_words():
    assert realize_count(2, "keyword") == "two"
    assert realize_count(0, "keyword") == "none"
    assert realize_count(10, "keyword") == "ten"
    assert realize_count(23, "keyword") == "23"
    assert realize_count(2, "natural") == "Two."


def test_natural_list_with_articles(lex):
    content = AnswerContent("list", bindings=[
        entity("r:milk", "definite"), entity("r:football", "definite")])
    got = realize_answer(RealizationRequest(content, mode="natural"), lex)
    assert got == "The milk and the football."


def test_keyword_list_comma_separated(lex):
    content = AnswerContent("list", bindings=[
        entity("r:milk", "definite"), entity("r:football", "definite")])
    assert realize_answer(RealizationRequest(content, mode="keyword"), lex) \
        == "milk,football"


def test_keyword_empty_list_token(lex):
    content = AnswerContent("list", bindings=[])
    assert realize_answer(RealizationRequest(content, mode="keyword"), lex) \
        == "nothing"


def test_keyword_outputs_stay_bare(lex):
    position = State("p:be-in", entity("r:kitchen", "definite"), UNSPECIFIED)
    samples = [
        realize_answer(RealizationRequest(
            AnswerContent("content", bindings=[position]),
            mode="keyword"), lex),
        realize_answer(RealizationRequest(
            AnswerContent("content", bindings=[DANIEL]),
            mode="keyword"), lex),
        realize_answer(RealizationRequest(
            AnswerContent("count", bindings=[DANIEL]), mode="keyword"), lex),
    ]
    for text in samples:
        assert text == text.lower()
        assert not any(text.startswith(p) for p in ("the ", "in ", "on ", "at "))


def test_natural_positions_join(lex):
    pos = [State("p:be-in", entity("r:kitchen", "definite"), UNSPECIFIED),
           State("p:be-in", entity("r:garden", "definite"), UNSPECIFIED)]
    content = AnswerContent("content", bindings=pos)
    got = realize_answer(RealizationRequest(content, mode="natural"), lex)
    assert got == "In the kitchen and in the garden."
