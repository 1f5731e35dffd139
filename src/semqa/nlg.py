"""Surface realization of answers and verb groups.

Keyword mode emits the bare lowercase heads that benchmark scoring expects;
natural mode produces the human answers (position phrases, short polar
answers with pronouns, contrast clauses, counts as words).

The English verb-group realizer builds the auxiliary chain
modal/tense -> perfect -> progressive -> passive -> participle from an
operator set; a French simple-future realizer demonstrates that the same
operators drive inflection-based languages.

Every English verb and preposition written here is a form the lexicon
lists: auxiliaries and main verbs inflect through `Lexicon.inflect` (a
tense and an agreement cell, or a nonfinite slot), and a position phrase
takes the form of the sense whose `pos=` names its positional predicate.
Only the modal "will", the negative contractions, pronouns, articles and
numerals are written here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import AnswerContent
from .errors import SemqaError
from .lexicon import DIMENSIONALITY, Lexicon
from .semantics import ANY_POSITION_PRED, OperatorSet, Referent, State


class RealizationError(SemqaError):
    pass


NUMERAL_WORDS = ("zero", "one", "two", "three", "four", "five",
                 "six", "seven", "eight", "nine", "ten")

NEG_CONTRACTIONS = {
    "will": "won't", "is": "isn't", "are": "aren't", "was": "wasn't",
    "were": "weren't", "has": "hasn't", "have": "haven't", "had": "hadn't",
    "does": "doesn't", "do": "don't", "did": "didn't",
}
FRENCH_FUTURE_ENDINGS = {
    (1, "singular"): "ai", (2, "singular"): "as", (3, "singular"): "a",
    (1, "plural"): "ons", (2, "plural"): "ez", (3, "plural"): "ont",
}


@dataclass(frozen=True)
class RealizationRequest:
    content: AnswerContent
    mode: str = "keyword"          # keyword | natural
    style: str = "short"           # bare | short | full (polar answers)


def realize_position(location: Referent, lexicon: Lexicon, mode: str = "natural",
                     pred: str = ANY_POSITION_PRED) -> str:
    """Position phrase for a location, e.g. kitchen -> "in the kitchen".

    The preposition is the form of the sense whose `pos=` names `pred`; a
    predicate that no such sense names (the unresolved be-LOC) gives way to
    the one the location's dimensionality class picks.  Keyword mode emits
    the head."""
    if mode == "keyword":
        return location.head()
    word = lexicon.position_words.get(pred)
    if word is None:
        dim = lexicon.dimensionality_of(location.sense)
        if dim is None:
            raise RealizationError(f"{location.sense!r} has no dimensionality class")
        # the loader makes sure some sense's pos= names every class's predicate
        word = lexicon.position_words[DIMENSIONALITY[dim]]
    article = "" if location.has("proper") else "the "
    return f"{word} {article}{location.head()}"


def _agreement(person: int, number: str) -> str:
    """The lexicon's agreement cell for a subject; English second person
    takes the plural forms."""
    if number == "plural" or person == 2:
        return "plural"
    return "1sg" if person == 1 else "3sg"


def _form(lexicon: Lexicon, verb: str, slot: str, cell: str = "3sg") -> str:
    word = lexicon.inflect(verb, slot, cell)
    if word is None:
        raise RealizationError(f"{verb!r} lacks forms for the {slot} slot")
    return word


def realize_verb_group(ops: OperatorSet, pred: str, lexicon: Lexicon) -> str:
    """English auxiliary chain for an operator set.

    {future, passive, perfect, progressive, negative} + speak gives
    "won't have been being spoken"; question fronting is sentence level
    (see split_fronted_aux).  The first verb takes the tense and the
    subject's agreement; each auxiliary puts the verb after it in a
    nonfinite slot.
    """
    words = []
    slot = ops.tense            # the slot the next verb of the chain fills
    if ops.tense == "future":
        words.append("will")
        slot = "base"
    chain = [(aux, after) for wanted, aux, after in (
        (ops.perfect, "p:have", "past-participle"),
        (ops.progressive, "p:be", "present-participle"),
        (ops.voice == "passive", "p:be", "past-participle")) if wanted]
    if not words and not chain and ops.polarity == "negative":
        chain.append(("p:do", "base"))
    cell = _agreement(ops.person, ops.number)
    for verb, after in chain + [(pred, "")]:
        words.append(_form(lexicon, verb, slot, cell))
        slot = after
    group = " ".join(words)
    return _negated(group) if ops.polarity == "negative" else group


def _negated(group: str) -> str:
    """A verb group with its first word negated: "will be" -> "won't be"."""
    first, space, rest = group.partition(" ")
    return NEG_CONTRACTIONS.get(first, first + " not") + space + rest


def split_fronted_aux(verb_group: str) -> tuple[str, str]:
    """Question word order fronts the first auxiliary: the fronted word is
    capitalized and the remainder follows the subject."""
    first, _, rest = verb_group.partition(" ")
    return first.capitalize(), rest


def realize_verb_group_fr(ops: OperatorSet, stem: str) -> str:
    """French simple future: infinitive stem + ai/as/a/ons/ez/ont."""
    if ops.tense != "future":
        raise RealizationError(f"French demo only conjugates the future, not {ops.tense}")
    try:
        ending = FRENCH_FUTURE_ENDINGS[(ops.person, ops.number)]
    except KeyError:
        raise RealizationError(
            f"no ending for person={ops.person} number={ops.number}") from None
    return stem + ending


def _entity_phrase(ref: Referent, mode: str) -> str:
    if mode == "keyword":
        return ref.head().lower()
    if ref.kind == "bundle":
        return " and ".join(_entity_phrase(m, mode) for m in ref.members)
    head = ref.head()
    if ref.has("proper"):
        return head.capitalize()
    return f"the {head}"


def _join_natural(parts: list[str]) -> str:
    if len(parts) == 1:
        return parts[0]
    return ", ".join(parts[:-1]) + " and " + parts[-1]


def _plural(ref: Referent) -> bool:
    return ref.kind == "bundle" or ref.has("plural")


def _pronoun_for(ref: Referent) -> str:
    if _plural(ref):
        return "they"
    if ref.has("female"):
        return "she"
    if ref.has("male"):
        return "he"
    return "it"


def _aux_for(content: AnswerContent, lexicon: Lexicon, echo_item_tense: bool = True) -> str:
    ops = content.echo or OperatorSet()
    tense = ops.tense
    # mixed tense: confirm with the stored item's tense ("Yes, he WAS there")
    if echo_item_tense and content.item_tense and content.item_tense != tense:
        tense = content.item_tense
    if tense == "future":
        return "will " + _form(lexicon, "p:be", "base") if content.aux_hint == "be" else "will"
    cell = "plural" if _plural(content.topic) else "3sg"
    return _form(lexicon, f"p:{content.aux_hint}", tense, cell)


def realize_count(n: int, mode: str) -> str:
    if n == 0:
        # bAbI scoring token for an empty count
        word = "none"
    elif n < len(NUMERAL_WORDS):
        word = NUMERAL_WORDS[n]
    else:
        word = str(n)
    return word if mode == "keyword" else word.capitalize() + "."


def _binding_phrase(value, lexicon: Lexicon, mode: str) -> str:
    if isinstance(value, State):
        return realize_position(value.arg1, lexicon, mode, value.pred)
    return _entity_phrase(value, mode)


def realize_answer(req: RealizationRequest, lexicon: Lexicon) -> str:
    """Turn matched answer content into text."""
    content = req.content
    mode = req.mode

    if content.kind == "polar":
        yes = content.polarity == "yes"
        if mode == "keyword":
            return "yes" if yes else "no"
        head = "Yes" if yes else "No"
        if not yes and content.contrast is not None and req.style != "bare":
            be = _form(lexicon, "p:be", "present")
            return f"No, but {_entity_phrase(content.contrast, 'natural')} {be}."
        if req.style == "bare":
            return head + "."
        pronoun = _pronoun_for(content.topic)
        aux = _aux_for(content, lexicon, echo_item_tense=yes)
        if req.style == "full" and content.bindings:
            place = _binding_phrase(content.bindings[0], lexicon, "natural")
            return f"{head}, {pronoun} {aux} {place}."
        if yes:
            return f"{head}, {pronoun} {aux}."
        return f"{head}, {pronoun} {_negated(aux)}."

    if content.kind == "count":
        return realize_count(len(content.bindings), mode)

    # content / list answers
    parts = [_binding_phrase(v, lexicon, mode) for v in content.bindings]
    if mode == "keyword":
        if not parts:
            return "nothing" if content.kind == "list" else "unknown"
        return ",".join(parts)
    if not parts:
        return "Nothing." if content.kind == "list" else "I don't know."
    sentence = _join_natural(parts)
    return sentence[0].upper() + sentence[1:] + "."
