"""Parse snapshot: what the matcher makes of a fixed corpus of texts.

One line per distinct text: the rendered logical structure with its
operators (the number only when plural), a pronoun flag and the
antecedent summary, then the same for each embedded clause; or the class
of the error the parse raises.  An error's message is left out: it names
the sense that failed last, and the order in which senses fail is not
behaviour.

The corpus is `test_shapes.oracle_sentences` (fixture lines, synthetic
family lines, random lines, the verb-group grid and the shape and copula
lists), then a linking grid, then a few probes, then a question grid.
The linking grid crosses a subject, one verb per distinct selectional
frame in the active and the passive, and a complement: none, one object,
two objects, a to, from or by phrase, a by-bundle, or a stranded to,
from, by or in.  Each cell is a statement and a fronted who, what and
where question.  The question grid holds the fronted polar question of
each cell of `question_grid`.

A change that keeps every parse leaves `golden/parses.txt` byte-identical.
After an intended change, regenerate it with

    PYTHONPATH=src python tests/test_parse_snapshot.py

and read the diff: it is the change's differential.
"""

from __future__ import annotations

import difflib
import itertools
from pathlib import Path

import semqa
from semqa.errors import SemqaError
from semqa.matcher import Matcher
from semqa.nlg import realize_verb_group, split_fronted_aux
from semqa.semantics import OperatorSet, render

from test_shapes import oracle_sentences

GOLDEN = Path(__file__).resolve().parent / "golden" / "parses.txt"

SUBJECTS = ("Mary", "the milk")
COMPLEMENTS = ("", " the milk", " John", " John the milk", " to John", " to the kitchen",
               " from John", " by John", " by John and Fred", " to", " from", " by", " in")
# texts whose linking, or whose place typing, is easy to get wrong
PROBES = (
    "The milk was given to Jeff by Mary.",
    "The milk was given to Jeff by Mary and John.",
    "Mary discarded by Bill.",
    "Mary discarded by Bill and Fred.",
    "Mary gave the milk to Jeff and Fred.",
    "Mary took the milk from Jeff and Fred.",
    "Mary is in the kitchen and the garden.",
    "Who did Mary give the milk to?",
    "Who did Mary take the milk from?",
    "Who did Mary get the milk from?",
    "Who did Mary take to?",
    "Who was the milk given to?",
    "Who was the milk given by?",
    "Where is Mary in?",
    "Where did Mary go to?",
    "Mary gave the milk to who?",
    "Jeff was given the milk.",
    "Jeff was given the milk by Bill.",
    "The milk was given Jeff.",
    "What was Mary given?",
    "What was given to Mary?",
    "Who was given the milk?",
    "What did Mary give John?",
    "Who did Mary give the milk?",
    "Who did Mary give John?",
    "Mary gave the milk John.",
    "Mary was got where.",
    "Mary was got the milk.",
    "He went to it.",
    "He was moved.",
    "Mary went to it.",
    "Where will Mary be?",
    "Is Mary not in the kitchen?",
    "Did Mary not go to the kitchen?",
    "Was the milk not given to John?",
    "Is Mary no longer in the kitchen?",
    "How many objects Mary is carrying?",
    "Did Mary who went to the kitchen go to the garden?",
    "Did Mary who was going to the kitchen go to the garden?",
    "Where did Mary who went to the kitchen go?",
    "Who did Mary who went to the kitchen give the milk to?",
    "Where is Mary who went to the kitchen?",
    "Is Mary who went to the kitchen in the garden?",
    "Is Mary who is no longer in the kitchen in the garden?",
    "Mary who spoke went to the kitchen.",
    "Did Mary who spoke go to the garden?",
    "Did Mary who went to the kitchen not go to the garden?",
)
# a verb per template but be-state and have-state, its active complement,
# and its passive subject and complement (None for a verb with no passive)
ROUND_TRIP_VERBS = (
    ("p:go", " to the kitchen", None),
    ("p:drop", " the milk", ("the milk", " by Mary")),
    ("p:give", " the milk to John", ("the milk", " to John by Mary")),
    ("p:read", " the book", ("the book", " by Mary")),
)
# tense x perfect x progressive x polarity
OPERATOR_SETS = tuple(itertools.product(("past", "present", "future"), (False, True), (False, True),
                                        ("positive", "negative")))


def verbs(lex):
    """(active past, passive past participle, base) of one verb per
    selectional frame that has forms, in lexicon order; frames with the
    same template, role names and required roles link alike, so the first
    stands for the rest.  A particle verb keeps its particle, and the copula has no
    passive."""
    out = {}
    for pred, frame in lex.frames.items():
        particle = "".join(f" {p}" for p in ("up", "down")
                           if f"wants-{p}" in lex.sense(pred).attributes)
        past, participle, base = (lex.inflect(pred, slot) for slot in
                                  ("past", "past-participle", "base"))
        if past is not None:
            key = (lex.templates[pred][0], tuple((r.name, r.required) for r in frame.roles))
            out.setdefault(key, (
                past + particle, None if pred == "p:be" else participle + particle,
                base + particle))
    return list(dict.fromkeys(out.values()))


def linking_grid(lex) -> list[str]:
    texts = []
    for (past, participle, base), comp in itertools.product(verbs(lex), COMPLEMENTS):
        groups = [("active", past, base)]
        if participle:
            groups.append(("passive", participle, participle))
        for voice, finite, bare in groups:
            aux = "was " if voice == "passive" else ""
            for subject in SUBJECTS:
                text = f"{subject} {aux}{finite}{comp}."
                texts.append(text[0].upper() + text[1:])
            if base == "be":
                fronted = f"was Mary{comp}"
            elif voice == "passive":
                fronted = f"was Mary {bare}{comp}"
            else:
                fronted = f"did Mary {bare}{comp}"
            texts.extend(f"{q} {fronted}?" for q in ("Who", "What", "Where"))
    return texts


def question_grid(lex) -> list[tuple[OperatorSet, str, str]]:
    """(operators, statement, fronted question) for each verb of
    `ROUND_TRIP_VERBS`, operator set and voice.  The statement is the
    subject, the realized verb group and the complement; the question
    fronts the group's first word, or "Did" or "Does" before the base form
    when the group is one word."""
    cells = []
    for (pred, active, passive), (tense, perfect, progressive, polarity) in itertools.product(
            ROUND_TRIP_VERBS, OPERATOR_SETS):
        voices = [("active", "Mary", active)] + ([("passive", *passive)] if passive else [])
        for voice, subject, complement in voices:
            ops = OperatorSet(tense=tense, perfect=perfect, progressive=progressive,
                              voice=voice, polarity=polarity)
            group = realize_verb_group(ops, pred, lex)
            fronted, rest = split_fronted_aux(group)
            if not rest:
                fronted, rest = ("Did" if tense == "past" else "Does"), lex.inflect(pred, "base")
            statement = f"{subject} {group}{complement}."
            cells.append((ops, statement[0].upper() + statement[1:],
                          f"{fronted} {subject} {rest}{complement}?"))
    return cells


def corpus(lex) -> list[str]:
    return list(dict.fromkeys(oracle_sentences(lex) + linking_grid(lex) + list(PROBES)
                              + [question for _, _, question in question_grid(lex)]))


def _clause(prop, lex) -> str:
    ops = prop.operators
    summary = "-"
    if prop.antecedents is not None:
        # a referent's classes sit side by side in the summary
        summary = " ".join(f"{ref.render()}:{','.join(cls for cls, _ in group)}"
                           for ref, group in itertools.groupby(prop.antecedents,
                                                               key=lambda p: p[1]))
    return (f"{render(prop.ls, lex)} [{ops.describe()}{';plural' * (ops.number == 'plural')}]"
            f"{' pronoun' if prop.antecedents is None else ''} {{{summary}}}")


def parse_line(matcher, text: str) -> str:
    try:
        prop = matcher.parse_utterance(text)
    except SemqaError as exc:
        return f"{text} => ! {type(exc).__name__}"
    return " / ".join([f"{text} => {_clause(prop, matcher.lexicon)}"]
                      + [_clause(e, matcher.lexicon) for e in prop.embedded])


def build_parse_snapshot(lex) -> str:
    matcher = Matcher(lex)
    return "".join(parse_line(matcher, text) + "\n" for text in corpus(lex))


def test_parses_match_golden_snapshot(lex):
    expected = GOLDEN.read_text("utf-8")
    actual = build_parse_snapshot(lex)
    if actual != expected:
        diff = difflib.unified_diff(expected.splitlines(), actual.splitlines(),
                                    "parse snapshot", "matcher output", lineterm="")
        raise AssertionError("parses differ from the golden snapshot:\n"
                             + "\n".join(itertools.islice(diff, 200)))


def test_fronted_questions_read_as_their_statements(lex):
    matcher = Matcher(lex)
    cells = question_grid(lex)
    wrong = []
    for ops, statement, question in cells:
        said = matcher.parse_utterance(statement)
        assert said.operators == ops, statement
        try:
            asked = matcher.parse_utterance(question)
        except SemqaError:
            asked = None
        if asked is None or asked.operators != ops.with_(force="question") \
                or asked.ls != said.ls:
            wrong.append(parse_line(matcher, question))
    assert len(cells) == 168 and wrong == []


# every `vc=` sense with a past form but the two states, with a subject
# and a complement its frame accepts
STATEMENT_VERBS = (
    ("p:go", "Mary", " to the kitchen"), ("p:give", "Mary", " the milk to John"),
    ("p:take", "Mary", " the milk from John"), ("p:get", "Mary", " the milk"),
    ("p:pick-up", "Mary", " up the milk"), ("p:put-down", "Mary", " down the milk"),
    ("p:drop", "Mary", " the milk"), ("p:discard", "Mary", " the milk"),
    ("p:leave", "Mary", " the milk"), ("p:eat-chew", "Mary", " the apple"),
    ("p:eat-erode", "The wind", " the mountain"), ("p:speak", "Mary", ""),
    ("p:start", "Mary", " the car"), ("p:read", "Mary", " the book"),
    ("p:write", "Mary", " the book"),
)


def test_statements_read_back_their_operators(lex):
    # the realizer's verb group, parsed back, carries the operators it was made from
    matcher = Matcher(lex)
    wrong = []
    for (pred, subject, complement), (tense, perfect, progressive, polarity) in \
            itertools.product(STATEMENT_VERBS, OPERATOR_SETS):
        ops = OperatorSet(tense=tense, perfect=perfect, progressive=progressive,
                          polarity=polarity)
        statement = f"{subject} {realize_verb_group(ops, pred, lex)}{complement}."
        try:
            said = matcher.parse_utterance(statement).operators
        except SemqaError:
            said = None
        if said != ops:
            wrong.append(parse_line(matcher, statement))
    assert len(STATEMENT_VERBS) * len(OPERATOR_SETS) == 360 and wrong == []


if __name__ == "__main__":
    GOLDEN.write_text(build_parse_snapshot(semqa.load_core_lexicon()), "utf-8")
    print(f"wrote {GOLDEN}")
