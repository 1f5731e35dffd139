"""The consolidation fixpoint fires as the plain rescan does.

`Matcher.match_phrases` tests parsed selectors, starts each element's
tries from the consolidations its first selector meets, and resumes
scanning just before the last firing point.  The reference below is the
plain loop it replaces: after every firing, rebuild the trigger-key
candidates and rescan from position 0, testing each selector condition by
its string key as written in the lexicon record.  Both must fire the same
records at the same positions and leave the same elements.
"""

from __future__ import annotations

import random

import pytest

import semqa
from semqa.babi import parse_babi_file
from semqa.matcher import Matcher, tokenize
from semqa.nlg import realize_verb_group
from semqa.semantics import OperatorSet

from test_golden import fixture_documents
from test_properties import GRID


def record_conditions(text: str) -> dict[str, list[list[tuple[str, str]]]]:
    """Consolidation id -> its `(key, value)` conditions per window
    element, read from the record lines as they stand."""
    out = {}
    for line in text.splitlines():
        parts = line.partition("#")[0].split()
        if parts[:1] == ["phrase"] and parts[2] == "consolidation":
            out[parts[1]] = [[tuple(cond.split("=", 1)) for cond in part[4:].split("&")]
                             for part in parts[3:] if part.startswith("sel:")]
    return out


def _sense_ids(el) -> list[str]:
    return [s for s, _ in el.senses]


def _categories(lex, el) -> set[str]:
    if el.bundle_members:
        return {"referent"}
    return {lex.sense(s).category for s in _sense_ids(el)}


def _reaches(lex, el, target: str) -> bool:
    if el.bundle_members:
        return all(_reaches(lex, m, target) for m in el.bundle_members)
    return any(lex.sense(s).category == "referent" and lex.holds_category(s, target)
               for s in _sense_ids(el))


def _meets(lex, conditions, el) -> bool:
    for key, value in conditions:
        if key == "word":
            ok = el.surface == value
        elif key == "sense":
            ok = value in _sense_ids(el)
        elif key == "not-sense":
            ok = value not in _sense_ids(el)
        elif key == "cat":
            ok = value in _categories(lex, el)
        elif key == "reach":
            ok = _reaches(lex, el, value)
        elif key == "attr":
            ok = value in el.attributes
        elif key == "not-attr":
            ok = value not in el.attributes
        else:
            assert key == "any", key
            ok = any(a in el.attributes for a in value.split("|"))
        if not ok:
            return False
    return True


def reference_fixpoint(matcher, conditions, tokens):
    """(record id, position) per firing, and the elements left."""
    lex = matcher.lexicon
    triggered = [(("sense" if p.trigger in lex.senses else "attr", p.trigger), p)
                 for p in matcher.consolidations]
    elements = matcher._apply_literals(tokens)
    fired = []
    while True:
        keys = {("sense", s) for el in elements for s in _sense_ids(el)}
        keys |= {("attr", a) for el in elements for a in el.attributes}
        candidates = [p for key, p in triggered if key in keys]
        hit = next(((at, p) for at in range(len(elements)) for p in candidates
                    if at + len(conditions[p.id]) <= len(elements)
                    and all(_meets(lex, c, el)
                            for c, el in zip(conditions[p.id], elements[at:]))), None)
        if hit is None:
            return fired, elements
        at, pat = hit
        end = at + len(conditions[pat.id])
        elements[at:end] = matcher._consolidate(pat, elements[at:end])
        fired.append((pat.id, at))


class RecordingMatcher(Matcher):
    """A matcher that notes the record and position of every firing."""

    def __init__(self, lexicon):
        super().__init__(lexicon)
        self.ids: list[str] = []
        self.positions: list[int] = []

    def _consolidate(self, pat, window):
        self.ids.append(pat.id)
        return super()._consolidate(pat, window)

    def _fire_first(self, elements, start):
        at = super()._fire_first(elements, start)
        if at is not None:
            self.positions.append(at)
        return at

    def firings(self, tokens):
        self.ids, self.positions = [], []
        elements = self.match_phrases(tokens)
        return list(zip(self.ids, self.positions)), elements


def snapshot(el):
    return (el.surface, sorted(el.attributes), sorted(el.labels), sorted(el.ops),
            [snapshot(c) for c in el.constituents], [snapshot(m) for m in el.bundle_members])


# a three-element window (bundle, split particle) that opens two places
# before the firing that completes it
REACHING_BACK = ("The man and the woman went to the kitchen.", "Mary picked the milk up.")


def sample_sentences(lex, synth) -> list[str]:
    texts = [rec.text for _, _, doc in fixture_documents()
             for story in parse_babi_file(doc) for rec in story]
    texts.extend(REACHING_BACK)
    for task in synth.FAMILIES:
        for story in synth.family_stories(random.Random(f"fixpoint:{task}"), task, 3):
            texts.extend(line.text for line in story)
    for pred in ("p:speak", "p:eat-chew", "p:give"):
        for tense, perfect, progressive, voice, polarity in GRID:
            ops = OperatorSet(tense=tense, perfect=perfect, progressive=progressive,
                              voice=voice, polarity=polarity)
            texts.append(realize_verb_group(ops, pred, lex))
    return list(dict.fromkeys(texts))


@pytest.fixture(scope="module")
def sentences(lex, synth):
    return sample_sentences(lex, synth)


def test_fixpoint_fires_as_the_rescan_from_the_start(lex, sentences):
    conditions = record_conditions(semqa.core_lexicon_text())
    matcher = RecordingMatcher(lex)
    resumed = 0
    for text in sentences:
        tokens, _ = tokenize(text)
        expected_fired, expected = reference_fixpoint(matcher, conditions, tokens)
        fired, elements = matcher.firings(tokens)
        assert fired == expected_fired, text
        assert [snapshot(el) for el in elements] == [snapshot(el) for el in expected], text
        # a firing left of the one before it: found only by scanning back
        resumed += any(b[1] < a[1] for a, b in zip(fired, fired[1:]))
    assert len(sentences) > 400 and resumed > 100
