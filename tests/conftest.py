from __future__ import annotations

import importlib
import random
import sys
from pathlib import Path

import pytest

import semqa
from semqa import ContextTracker, Matcher, QueryConfig
from semqa.babi import parse_babi_file


@pytest.fixture(scope="session")
def lex():
    return semqa.load_core_lexicon()


@pytest.fixture(scope="session")
def matcher(lex):
    return Matcher(lex)


def load_synth():
    """The benchmark's story generator and world simulator, `perfbench/synth.py`;
    no bytecode cache is written into the benchmark's directory."""
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, perfbench)
    try:
        return importlib.import_module("synth")
    finally:
        sys.path.remove(perfbench)
        sys.dont_write_bytecode = saved


@pytest.fixture(scope="session")
def synth():
    return load_synth()


def _stale_give_story(synth, rng):
    """A task-5 story whose give-what question may expect a stale object,
    one the giver handed the recipient earlier (a documented dataset
    error); None when nobody gave anything."""
    w = synth.World()
    lines = [synth.Line(synth.gen_possession(rng, w)) for _ in range(rng.randrange(6, 12))]
    if not w.gives:
        return None
    giver, obj, recipient = w.gives[-1]
    q = rng.choice([lambda: w.ask_give_what(giver, recipient, rng),
                    lambda: w.ask_give_whom(giver, obj),
                    lambda: w.ask_give_who(obj, recipient)])()
    return lines + [synth.Line(synth.question_text(q), q)]


def synthetic_stories(task: int, count: int, seed: int, stale: int = 0):
    """`count` stories of one task family from `perfbench/synth.py`, drawn
    from `random.Random(seed)` and parsed from their bAbI document, with
    each story's question from the simulator.  With `stale`, task-5
    stories are drawn until at least that many expect a stale answer."""
    synth = load_synth()
    rng = random.Random(seed)
    drawn: list = []
    injected = 0
    while len(drawn) < count or injected < stale:
        story = _stale_give_story(synth, rng) if stale else synth.family_story(rng, task)
        if story is not None:
            drawn.append(story)
            injected += story[-1].question.injected
    return parse_babi_file(synth.babi_document(drawn)), [s[-1].question for s in drawn]


def make_tracker(lex, **kw) -> ContextTracker:
    return ContextTracker(lex, QueryConfig(**kw))


def ingest_all(matcher, tracker, sentences):
    for s in sentences:
        tracker.ingest(matcher.parse_single(s))
    return tracker


PEOPLE = ["mary", "john", "daniel", "sandra", "bill", "fred", "jeff"]
PLACES = ["kitchen", "bathroom", "bedroom", "hallway", "office", "garden"]
THINGS = ["football", "milk", "apple"]

MOTIONS = ["went", "moved", "travelled", "journeyed"]
RELEASES = ["dropped", "discarded", "left"]
ACQUIRES = ["got", "took", "grabbed"]
GIVES = ["gave", "handed", "passed"]


def random_statement(rng: random.Random) -> str:
    kind = rng.randrange(6)
    p = rng.choice(PEOPLE)
    if kind == 0:
        return f"{p} {rng.choice(MOTIONS)} to the {rng.choice(PLACES)}."
    if kind == 1:
        o = rng.choice(THINGS)
        return rng.choice([f"{p} picked up the {o}.", f"{p} picked the {o} up."])
    if kind == 2:
        return f"{p} {rng.choice(RELEASES)} the {rng.choice(THINGS)}."
    if kind == 3:
        return f"{p} {rng.choice(ACQUIRES)} the {rng.choice(THINGS)}."
    if kind == 4:
        p2 = rng.choice([x for x in PEOPLE if x != p])
        return f"{p} {rng.choice(GIVES)} the {rng.choice(THINGS)} to {p2}."
    return f"{p} put down the {rng.choice(THINGS)}."


def random_question(rng: random.Random) -> str:
    p = rng.choice(PEOPLE)
    k = rng.randrange(8)
    if k == 0:
        return f"Where is {p}?"
    if k == 1:
        return f"Where was {p}?"
    if k == 2:
        return f"Is {p} in the {rng.choice(PLACES)}?"
    if k == 3:
        p2 = rng.choice([x for x in PEOPLE if x != p])
        return f"What did {p} give to {p2}?"
    if k == 4:
        return f"Who received the {rng.choice(THINGS)}?"
    if k == 5:
        return f"Who gave the {rng.choice(THINGS)} to {p}?"
    if k == 6:
        return f"How many objects is {p} holding?"
    return f"What is {p} holding?"


def random_story(rng: random.Random, length: int = 10) -> list[str]:
    return [random_statement(rng) for _ in range(length)]
