"""A metamorphic relation that holds under every engine flag: renaming the
people, places and things of a story changes nothing but the names.

The stories come from the benchmark's simulator, `perfbench/synth.py`,
and from the bundled fixtures.  The document is run with `run_task`
under each of the 16 combinations of `strict_take`, `strict_receive`,
`include_current_position` and `babi_last`, and so is its renamed twin.
The twin renames words by one bijection: people among the lexicon's
proper names of the same gender, places and things among the lexicon's
senses with the same attributes and the same categories.  Every answer
must map through the bijection, and every status and G1/G2
classification must stay equal (Chen et al., *Metamorphic Testing: A
Review of Challenges and Opportunities*, ACM CSUR 2018).
"""

from __future__ import annotations

import itertools
import random
import re

import pytest

from semqa.babi import TaskConfig, parse_babi_file, run_task

from test_golden import fixture_documents

FLAGS = ("strict_take", "strict_receive", "include_current_position", "babi_last")


def renaming(lex, words, rng) -> dict[str, str]:
    """A bijection on the lexicon's referent words that moves each of
    `words` to another word of its class: the words whose senses have the
    same attributes (gender included) and the same categories."""
    def key(sense_id):
        return lex.sense(sense_id).attributes, lex.is_a_closure(sense_id) - {sense_id}

    def word(sense_id):
        return sense_id.partition(":")[2]

    out: dict[str, str] = {}
    for sense_id in sorted({lex.senses_of(w)[0][0] for w in words}):
        if word(sense_id) in out:
            continue
        peers = [word(s) for s, sense in sorted(lex.senses.items())
                 if sense.category == "referent" and key(s) == key(sense_id)
                 and any(linked == s for linked, _ in lex.senses_of(word(s)))]
        assert len(peers) > 1, f"{sense_id} has no other word to become"
        moved = peers
        while any(a == b for a, b in zip(peers, moved)):
            moved = rng.sample(peers, len(peers))
        out.update(zip(peers, moved))
    return out


def rename(text: str, names: dict[str, str]) -> str:
    def swap(m):
        word = m.group()
        new = names.get(word.lower())
        if new is None:
            return word
        return new.capitalize() if word[0].isupper() else new
    return re.sub(r"[A-Za-z]+", swap, text)


def document(synth) -> str:
    """Synth family stories of every task, then the bundled fixtures, whose
    task 5 holds the documented G1 and G2 dataset errors."""
    rng = random.Random(11)
    stories = [s for task in synth.FAMILIES for s in synth.family_stories(rng, task, 12)]
    return synth.babi_document(stories) + "".join(text for _, _, text in fixture_documents())


@pytest.mark.parametrize("flags", list(itertools.product((False, True), repeat=len(FLAGS))),
                         ids=lambda flags: "-".join(str(int(f)) for f in flags))
def test_renaming_the_story_renames_the_answers(lex, synth, flags):
    config = TaskConfig(**dict(zip(FLAGS, flags)))
    names = renaming(lex, synth.PEOPLE + synth.PLACES + synth.THINGS, random.Random(5))
    assert all(names[w] != w for w in synth.PEOPLE + synth.PLACES + synth.THINGS)
    assert sorted(names) == sorted(names.values())
    text = document(synth)
    results = run_task(parse_babi_file(text), lex, config)
    twins = run_task(parse_babi_file(rename(text, names)), lex, config)
    assert len(results) == len(twins) > 120
    for r, twin in zip(results, twins):
        assert (rename(r.produced, names), r.status, r.classification) \
            == (twin.produced, twin.status, twin.classification), r.question
    # under every combination some answer fails or is audited
    assert any(r.status != "passed" for r in results)
