"""Surface realization of answers and verb groups.

Keyword mode emits the bare lowercase heads that benchmark scoring expects;
natural mode produces the human answers (position phrases, short polar
answers with pronouns, contrast clauses, counts as words).

The English verb-group realizer builds the auxiliary chain
modal/tense -> perfect -> progressive -> passive -> participle from an
operator set; a French simple-future realizer demonstrates that the same
operators drive inflection-based languages.
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import AnswerContent
from .errors import SemqaError
from .lexicon import DIMENSIONALITY, Lexicon
from .semantics import OperatorSet, Referent, State


class RealizationError(SemqaError):
    pass


NUMERAL_WORDS = ("zero", "one", "two", "three", "four", "five",
                 "six", "seven", "eight", "nine", "ten")

BE_FORMS = {
    ("present", "singular"): "is",
    ("present", "plural"): "are",
    ("past", "singular"): "was",
    ("past", "plural"): "were",
}
HAVE_FORMS = {
    ("present", "singular"): "has",
    ("present", "plural"): "have",
    ("past", "singular"): "had",
    ("past", "plural"): "had",
}
DO_FORMS = {
    ("present", "singular"): "does",
    ("present", "plural"): "do",
    ("past", "singular"): "did",
    ("past", "plural"): "did",
}
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


def realize_position(location: Referent, lexicon: Lexicon,
                     mode: str = "natural") -> str:
    """Position phrase for a location: preposition from the dimensionality
    class, e.g. kitchen -> "in the kitchen"; keyword mode emits the head."""
    if mode == "keyword":
        return location.head()
    if location.sense is None:
        raise RealizationError("cannot realize a position without a location sense")
    dim = lexicon.dimensionality_of(location.sense)
    if dim is None:
        raise RealizationError(f"{location.sense!r} has no dimensionality class")
    article = "" if location.has("proper") else "the "
    return f"{DIMENSIONALITY[dim]} {article}{location.head()}"


def _position_from_state(state: State, lexicon: Lexicon, mode: str) -> str:
    location = state.arg1
    if mode == "keyword":
        return location.head()
    pred_prep = {"p:be-in": "in", "p:be-on": "on", "p:be-at": "at"}.get(state.pred)
    if pred_prep is None:
        return realize_position(location, lexicon, mode)
    article = "" if location.has("proper") else "the "
    return f"{pred_prep} {article}{location.head()}"


def verb_forms(lexicon: Lexicon, pred: str) -> dict[str, str]:
    forms = lexicon.verb_forms(pred)
    missing = [slot for slot in ("base", "3sg", "past", "past-participle",
                                 "present-participle") if slot not in forms]
    if missing:
        raise RealizationError(f"{pred!r} lacks forms for {missing}")
    return forms


def realize_verb_group(ops: OperatorSet, pred: str, lexicon: Lexicon) -> str:
    """English auxiliary chain for an operator set.

    {future, passive, perfect, progressive, negative} + speak gives
    "won't have been being spoken"; question fronting is sentence level
    (see split_fronted_aux).
    """
    forms = verb_forms(lexicon, pred)
    agr = (ops.tense if ops.tense != "future" else "present", ops.number)

    chain: list[tuple[str, str]] = []      # (kind, lemma)
    if ops.tense == "future":
        chain.append(("modal", "will"))
    if ops.perfect:
        chain.append(("perfect", "have"))
    if ops.progressive:
        chain.append(("progressive", "be"))
    if ops.voice == "passive":
        chain.append(("passive", "be"))
    if not chain and ops.polarity == "negative":
        chain.append(("do-support", "do"))
    chain.append(("main", pred))

    aux_tables = {"be": BE_FORMS, "have": HAVE_FORMS, "do": DO_FORMS}

    def finite(lemma: str) -> str:
        if lemma == "will":
            return "will"
        if lemma in aux_tables:
            return aux_tables[lemma][agr]
        if ops.tense == "past":
            return forms["past"]
        if ops.number == "singular" and ops.person == 3:
            return forms["3sg"]
        return forms["base"]

    def nonfinite(lemma: str, after: str) -> str:
        slot = {"modal": "base", "do-support": "base",
                "perfect": "past-participle",
                "progressive": "present-participle",
                "passive": "past-participle"}[after]
        if lemma == "be":
            return {"base": "be", "past-participle": "been",
                    "present-participle": "being"}[slot]
        if lemma == "have":
            return {"base": "have", "past-participle": "had",
                    "present-participle": "having"}[slot]
        return forms[slot]

    words = []
    for i, (kind, lemma) in enumerate(chain):
        if i == 0:
            word = finite(lemma)
            if ops.polarity == "negative":
                word = NEG_CONTRACTIONS.get(word, word + " not")
        else:
            word = nonfinite(lemma, chain[i - 1][0])
        words.append(word)
    return " ".join(words)


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
    if not parts:
        return ""
    if len(parts) == 1:
        return parts[0]
    return ", ".join(parts[:-1]) + " and " + parts[-1]


def _pronoun_for(ref: Referent | None) -> str:
    if ref is None:
        return "it"
    if ref.kind == "bundle" or ref.has("plural"):
        return "they"
    if ref.has("female"):
        return "she"
    if ref.has("male"):
        return "he"
    return "it"


def _aux_for(content: AnswerContent, echo_item_tense: bool = True) -> str:
    ops = content.echo or OperatorSet()
    tense = ops.tense
    # mixed tense: confirm with the stored item's tense ("Yes, he WAS there")
    if echo_item_tense and content.item_tense and content.item_tense != tense:
        tense = content.item_tense
    number = "plural" if (content.topic is not None
                          and (content.topic.kind == "bundle"
                               or content.topic.has("plural"))) else "singular"
    if tense == "future":
        return "will be" if content.aux_hint == "be" else "will"
    table = DO_FORMS if content.aux_hint == "do" else BE_FORMS
    return table[(tense, number)]


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
        return _position_from_state(value, lexicon, mode)
    if isinstance(value, Referent):
        return _entity_phrase(value, mode)
    raise RealizationError(f"cannot realize binding {value!r}")


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
            return f"No, but {_entity_phrase(content.contrast, 'natural')} is."
        if req.style == "bare":
            return head + "."
        pronoun = _pronoun_for(content.topic)
        aux = _aux_for(content, echo_item_tense=yes)
        if req.style == "full" and content.bindings:
            place = _binding_phrase(content.bindings[0], lexicon, "natural")
            return f"{head}, {pronoun} {aux} {place}."
        if yes:
            return f"{head}, {pronoun} {aux}."
        return f"{head}, {pronoun} {NEG_CONTRACTIONS.get(aux, aux + ' not')}."

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
