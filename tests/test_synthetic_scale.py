"""Large synthetic stories with an independent world simulator as oracle.

The simulator tracks positions and holdings with plain dicts, generates
stories in the benchmark sentence shapes, and computes every expected
answer itself; the engine must agree on all of them.  A second run injects
stale expected answers (the documented dataset-error patterns) and checks
the auditor classifies every one, leaving zero unexplained failures.
"""

from __future__ import annotations

import random
import time

from semqa.babi import BabiRecord, TaskConfig, run_task, score

PEOPLE = ["mary", "john", "daniel", "sandra", "bill", "fred", "jeff"]
PLACES = ["bathroom", "hallway", "bedroom", "garden", "office", "kitchen"]
THINGS = ["football", "milk", "apple"]
MOTIONS = ["went to the", "moved to the", "journeyed to the",
           "travelled to the", "went back to the"]
COUNTS = ["none", "one", "two", "three", "four", "five"]


class World:
    def __init__(self):
        self.position: dict[str, str] = {}
        self.holding: dict[str, list[str]] = {p: [] for p in PEOPLE}
        self.carrier: dict[str, str | None] = {t: None for t in THINGS}
        self.gives: list[tuple[str, str, str]] = []   # giver, object, recipient
        self.last_actor: str | None = None
        self.last_pair: tuple[str, str] | None = None

    def cap(self, text: str) -> str:
        return text[0].upper() + text[1:]


def gen_motion(rng, w, pronouns=False, pairs=False):
    if pairs and rng.random() < 0.5:
        if w.last_pair and rng.random() < 0.5:
            a, b = w.last_pair
            subject = "they"
        else:
            a, b = rng.sample(PEOPLE, 2)
            subject = f"{a} and {b}"
            w.last_pair = (a, b)
        place = rng.choice(PLACES)
        lead = rng.choice(["", "Then ", "After that "]) if subject == "they" else ""
        w.position[a] = place
        w.position[b] = place
        w.last_actor = None
        return w.cap(f"{lead}{subject} {rng.choice(MOTIONS)} {place}.")
    if pronouns and w.last_actor and rng.random() < 0.4:
        who = w.last_actor
        pronoun = "she" if who in ("mary", "sandra") else "he"
        lead = rng.choice(["Then ", "After that ", "Following that ", "Afterwards "])
        place = rng.choice(PLACES)
        w.position[who] = place
        return w.cap(f"{lead}{pronoun} {rng.choice(MOTIONS)} {place}.")
    who = rng.choice(PEOPLE)
    place = rng.choice(PLACES)
    w.position[who] = place
    w.last_actor = who
    return w.cap(f"{who} {rng.choice(MOTIONS)} {place}.")


def gen_possession(rng, w):
    free = [t for t, c in w.carrier.items() if c is None]
    held = [t for t, c in w.carrier.items() if c is not None]
    if held and rng.random() < 0.55:
        obj = rng.choice(held)
        holder = w.carrier[obj]
        if rng.random() < 0.5:
            other = rng.choice([p for p in PEOPLE if p != holder])
            verb = rng.choice(["gave", "handed", "passed"])
            w.carrier[obj] = other
            w.holding[holder].remove(obj)
            w.holding[other].append(obj)
            w.gives.append((holder, obj, other))
            shape = rng.randrange(4)
            if shape == 0:
                return w.cap(f"{holder} {verb} {other} the {obj}.")
            if shape == 1:
                participle = {"gave": "given", "handed": "handed",
                              "passed": "passed"}[verb]
                return w.cap(f"The {obj} was {participle} to {other} by {holder}.")
            if shape == 2:
                participle = {"gave": "given", "handed": "handed",
                              "passed": "passed"}[verb]
                return w.cap(f"{other} was {participle} the {obj} by {holder}.")
            return w.cap(f"{holder} {verb} the {obj} to {other}.")
        verb = rng.choice(["dropped the", "discarded the", "put down the",
                           "left the"])
        w.carrier[obj] = None
        w.holding[holder].remove(obj)
        return w.cap(f"{holder} {verb} {obj}.")
    if free:
        obj = rng.choice(free)
        who = rng.choice(PEOPLE)
        verb = rng.choice(["picked up the", "got the", "grabbed the",
                           "picked the"])
        tail = " up" if verb == "picked the" else ""
        w.carrier[obj] = who
        w.holding[who].append(obj)
        return w.cap(f"{who} {verb} {obj}{tail}.")
    return gen_motion(rng, w)


def build_story(rng, task: int, inject_errors=False):
    w = World()
    records: list[BabiRecord] = []
    injected: list[int] = []
    line = 0

    def add(text, expected=None):
        nonlocal line
        line += 1
        records.append(BabiRecord(line, text, expected))

    statements = rng.randrange(6, 12)
    for i in range(statements):
        if task in (1, 6, 9, 11, 12, 13):
            if task == 9 and rng.random() < 0.4 and w.position:
                who = rng.choice(list(w.position))
                roll = rng.random()
                if roll < 0.4:
                    add(f"{who.capitalize()} is no longer in the {w.position[who]}.")
                    del w.position[who]
                elif roll < 0.7:
                    place = rng.choice(PLACES)
                    add(f"{who.capitalize()} is not in the {place}.")
                    if w.position.get(who) == place:
                        del w.position[who]
                else:
                    place = rng.choice(PLACES)
                    add(f"{who.capitalize()} is in the {place}.")
                    w.position[who] = place
                continue
            pronouns = task in (11, 13)
            pairs = task in (12, 13)
            add(gen_motion(rng, w, pronouns=pronouns, pairs=pairs))
        else:
            add(gen_possession(rng, w))

    if task in (1, 11, 12, 13):
        known = list(w.position)
        if not known:
            return None, []
        who = rng.choice(known)
        add(f"Where is {who}?", w.position[who])
    elif task == 6:
        if not w.position:
            return None, []
        who = rng.choice(list(w.position))
        place = rng.choice(PLACES)
        add(f"Is {who} in the {place}?",
            "yes" if w.position[who] == place else "no")
    elif task == 9:
        candidates = [p for p in PEOPLE]
        who = rng.choice(candidates)
        place = rng.choice(PLACES)
        add(f"Is {who} in the {place}?",
            "yes" if w.position.get(who) == place else "no")
    elif task == 7:
        who = rng.choice(PEOPLE)
        add(f"How many objects is {who} holding?", COUNTS[len(w.holding[who])])
    elif task == 8:
        who = rng.choice(PEOPLE)
        held = w.holding[who]
        add(f"What is {who} holding?", ",".join(held) if held else "nothing")
    elif task == 5:
        if not w.gives:
            return None, []
        giver, obj, recipient = w.gives[-1]
        kind = rng.randrange(3)
        if kind == 0:
            pairs = [(g, r) for g, _, r in w.gives]
            matches = [o for g, o, r in w.gives if (g, r) == (giver, recipient)]
            expected = matches[-1]
            if inject_errors and len(set(matches)) > 1 and rng.random() < 0.5:
                expected = next(o for o in reversed(matches[:-1]) if o != matches[-1])
                injected.append(line + 1)
            add(f"What did {giver} give to {recipient}?", expected)
        elif kind == 1:
            add(f"Who did {giver} give the {obj} to?", recipient)
        else:
            add(f"Who gave the {obj} to {recipient}?", giver)
    return records, injected


def run_synthetic(task, stories, seed, inject_errors=False, min_injected=0):
    rng = random.Random(seed)
    built = []
    injected_refs = []
    attempts = 0
    while len(built) < stories or len(injected_refs) < min_injected:
        attempts += 1
        if attempts > stories * 50:
            break
        story, injected = build_story(rng, task, inject_errors)
        if story is None:
            continue
        built.append(story)
        for line in injected:
            injected_refs.append((len(built), line))
    return built, injected_refs


def test_synthetic_tasks_agree_with_simulator(lex):
    started = time.time()
    questions = 0
    for task in (1, 5, 6, 7, 8, 9, 11, 12, 13):
        stories, _ = run_synthetic(task, stories=120, seed=task * 17)
        results = run_task(stories, lex, TaskConfig(task=task))
        report = score(results)
        questions += report.total
        assert report.strict_accuracy == 1.0, (
            task, [(r.question, r.produced, r.expected, r.explanation)
                   for r in results if r.status != "passed"][:3])
    elapsed = time.time() - started
    # the full-dataset budget is 10k lines in under a minute
    assert questions / elapsed > 50, f"{questions} questions in {elapsed:.1f}s"


def test_injected_dataset_errors_all_classified(lex):
    stories, injected = run_synthetic(5, stories=200, seed=99,
                                      inject_errors=True, min_injected=5)
    assert injected, "the generator should have injected stale answers"
    results = run_task(stories, lex, TaskConfig(task=5))
    report = score(results)
    assert report.failed == 0, [
        (r.question, r.produced, r.expected, r.explanation)
        for r in results if r.status == "failed"][:3]
    flagged = {(r.story_id, r.line_id) for r in results if r.status == "gigo"}
    assert flagged == set(injected)
    assert all(r.classification == "G1" for r in results if r.status == "gigo")
