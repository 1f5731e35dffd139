"""A text answered from the shape table parses as a cold parse does.

`Matcher.parse_utterance` parses a text it has not seen once per sentence
shape: a text whose shape is cached gets the cached proposition rebuilt
with its own senses in the shape's slots.  The reference is a fresh
`Matcher`, whose tables are empty.  On every sentence below, and on
refillings of each from the lexicon's token classes, parsed after another
filling of the same shape, the two give equal propositions (source,
pronoun flags and antecedent summaries included) or raise the same error
class.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from semqa.babi import parse_babi_file
from semqa.matcher import MatchError, Matcher, tokenize
from semqa.nlg import realize_verb_group
from semqa.semantics import OperatorSet

from conftest import random_question, random_statement, synthetic_stories
from test_golden import fixture_documents
from test_properties import GRID

# a name or noun repeated, or a class filling the engine reads closely
REPEATS = (
    "Mary gave Mary the milk.",
    "Mary gave the milk to Mary.",
    "Mary gave John the milk.",
    "Mary and Mary went to the kitchen.",
    "Mary and Sandra went to the kitchen.",
    "The woman and the girl went to the garden.",
    "Did Mary give the apple to Mary?",
    "Who gave the milk to Mary?",
    "Mary who went to the kitchen went to the garden.",
    "Mary who went to the kitchen went to the kitchen.",
    "Mary is no longer in the kitchen.",
    "How many football is Mary carrying?",
    "How many objects is Mary carrying?",
    "Is Mary in the kitchen?",
    "Mary went to the kitchen. Mary",
    # the linking rule: a conjoined agent, the dative shift, stranded prepositions
    "The milk was given to Mary by Mary and John.",
    "Mary was given the milk by John and Mary.",
    "What was Mary given?",
    "What did Mary give Mary?",
    "Who did Mary take the milk from?",
    "Who was the milk given by?",
    "Where is Mary in?",
)

# the copula, which links its located referent and position through its frame
COPULA = (
    "Where is Mary?",
    "Where are Mary and John?",
    "Where were they?",
    "Who is in the kitchen?",
    "Who is where?",
    "The kitchen is where?",
    "Mary is on the mat.",
    "In the kitchen is Mary.",
    "Mary and he are in the kitchen.",
    "Mary has been in the kitchen.",
    "Mary is being in the kitchen.",
    "Sandra who is no longer in the kitchen went to the garden.",
    "Mary who went to the kitchen is no longer in the garden.",
    "Mary is the kitchen.",
    "Mary is John.",
    "Mary is.",
    "Where is in the kitchen?",
    "Where is who?",
)


class CountingMatcher(Matcher):
    """A matcher that counts its cold parses."""

    def __init__(self, lexicon):
        super().__init__(lexicon)
        self.cold = 0

    def _parse_tokens(self, text, tokens, hint):
        self.cold += 1
        return super()._parse_tokens(text, tokens, hint)


def outcome(matcher, text):
    try:
        prop = matcher.parse_utterance(text)
    except MatchError as exc:
        return type(exc).__name__
    return prop, prop.antecedents, tuple(e.antecedents for e in prop.embedded)


def class_members(lex) -> dict[int, list[str]]:
    """Token class -> its surfaces, in lexicon order."""
    members: dict[int, list[str]] = {}
    for surface, (number, _) in lex.token_classes.items():
        members.setdefault(number, []).append(surface)
    return members


def text_of(tokens, hint) -> str:
    return " ".join(tokens) + ("?" if hint == "question" else ".")


def refillings(lex, text) -> tuple[str, str]:
    """Two other fillings of the text's classed tokens: each sense moved to
    the next surface of its class (the same equality pattern), and each
    occurrence moved by its own count (most often another pattern)."""
    classes, members = lex.token_classes, class_members(lex)
    tokens, hint = tokenize(text)
    renamed, split = [], []
    for i, token in enumerate(tokens):
        if token not in classes:
            renamed.append(token)
            split.append(token)
            continue
        ring = members[classes[token][0]]
        at = ring.index(token)
        renamed.append(ring[(at + 1) % len(ring)])
        split.append(ring[(at + 1 + i) % len(ring)])
    return text_of(renamed, hint), text_of(split, hint)


def family_lines(count: int) -> list[str]:
    lines = []
    for task in (1, 5, 6, 7, 8, 9, 11, 12, 13):
        stories, _ = synthetic_stories(task, count, seed=700 + task)
        lines.extend(rec.text for story in stories for rec in story)
    return list(dict.fromkeys(lines))


def oracle_sentences(lex) -> list[str]:
    texts = [rec.text for _, _, doc in fixture_documents()
             for story in parse_babi_file(doc) for rec in story]
    texts.extend(family_lines(8))
    rng = random.Random(31)
    texts.extend(random_statement(rng) for _ in range(150))
    texts.extend(random_question(rng) for _ in range(100))
    for tense, perfect, progressive, voice, polarity in GRID:
        ops = OperatorSet(tense=tense, perfect=perfect, progressive=progressive,
                          voice=voice, polarity=polarity)
        texts.append("Mary " + realize_verb_group(ops, "p:give", lex) + " the milk to John.")
    texts.extend(REPEATS + COPULA)
    return list(dict.fromkeys(texts))


def test_shape_table_parses_as_a_cold_parse(lex):
    matcher = CountingMatcher(lex)
    sentences = oracle_sentences(lex)
    parsed = set()
    for text in sentences:
        # another filling first, so the text meets its shape already cached
        renamed, split = refillings(lex, text)
        for t in (split, renamed, text):
            assert outcome(matcher, t) == outcome(Matcher(lex), t), t
            parsed.add(t)
    # most texts were answered from the shape table, not parsed cold
    assert len(sentences) > 700 and len(parsed) - matcher.cold > 1500


@pytest.fixture(scope="module")
def lines():
    return family_lines(4)


@st.composite
def refilled(draw, lex, line: str) -> str:
    """`line` with each classed token redrawn from its class."""
    classes, members = lex.token_classes, class_members(lex)
    tokens, hint = tokenize(line)
    return text_of([draw(st.sampled_from(members[classes[t][0]])) if t in classes else t
                    for t in tokens], hint)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_a_refilled_family_line_parses_as_a_cold_parse(lex, lines, data):
    line = data.draw(st.sampled_from(lines))
    first, second = data.draw(refilled(lex, line)), data.draw(refilled(lex, line))
    matcher = CountingMatcher(lex)
    cached = not isinstance(outcome(matcher, first), str)
    assert outcome(matcher, second) == outcome(Matcher(lex), second)
    if cached and matcher._shape(*tokenize(first))[0] == matcher._shape(*tokenize(second))[0]:
        assert matcher.cold == 1    # the second filling came from the shape table
