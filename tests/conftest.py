from __future__ import annotations

import importlib
import random
import sys
from pathlib import Path

import pytest

import semqa
from semqa import ContextTracker, Matcher, QueryConfig


@pytest.fixture(scope="session")
def lex():
    return semqa.load_core_lexicon()


@pytest.fixture(scope="session")
def matcher(lex):
    return Matcher(lex)


@pytest.fixture(scope="session")
def synth():
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
