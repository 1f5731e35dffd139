"""Story generator with an independent world simulator as oracle.

The simulator tracks positions, holdings and transfers in plain dicts and
computes every answer itself; it never asks the engine.  `World` and the
per-family generators follow the synthetic-scale test; `mixed_story`
extends them so one story mixes motion (pronouns and pairs included) and
possession and interleaves questions.

Every generated line is a `Line(text, question)`; a question carries its
kind, its arguments, the true answer and, in a bAbI document, the expected
answer written into the file (a stale one when an error is injected).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

PEOPLE = ["mary", "john", "daniel", "sandra", "bill", "fred", "jeff"]
FEMALE = {"mary", "sandra"}
PLACES = ["bathroom", "hallway", "bedroom", "garden", "office", "kitchen"]
THINGS = ["football", "milk", "apple"]
MOTIONS = ["went to the", "moved to the", "journeyed to the",
           "travelled to the", "went back to the"]
COUNTS = ["none", "one", "two", "three", "four", "five"]
FAMILIES = (1, 5, 6, 7, 8, 9, 11, 12, 13)


@dataclass(frozen=True)
class Question:
    kind: str          # where | polar | count | holding | give-what | give-whom | give-who
    args: tuple
    truth: object      # str, or a tuple of words for list answers
    expected: str      # answer written into a bAbI document
    injected: bool = False
    present: tuple = ()  # polar: the other people at the asked place


@dataclass(frozen=True)
class Line:
    text: str
    question: Question | None = None


class World:
    def __init__(self):
        self.position: dict[str, str] = {}
        self.holding: dict[str, list[str]] = {p: [] for p in PEOPLE}
        self.carrier: dict[str, str | None] = {t: None for t in THINGS}
        self.gives: list[tuple[str, str, str]] = []   # giver, object, recipient
        # The engine resolves he/she to the most recent agreeing person, so
        # every statement sets this to its only person, or clears it.
        self.last_actor: str | None = None
        self.last_pair: tuple[str, str] | None = None

    def cap(self, text: str) -> str:
        return text[0].upper() + text[1:]

    # -- oracle answers --------------------------------------------------

    def given(self, giver=None, obj=None, recipient=None) -> list[tuple[str, str, str]]:
        return [g for g in self.gives
                if giver in (None, g[0]) and obj in (None, g[1])
                and recipient in (None, g[2])]

    def ask_where(self, who: str) -> Question:
        return Question("where", (who,), self.position[who], self.position[who])

    def ask_polar(self, who: str, place: str) -> Question:
        yes = "yes" if self.position.get(who) == place else "no"
        present = tuple(p for p in PEOPLE
                        if p != who and self.position.get(p) == place)
        return Question("polar", (who, place), yes, yes, present=present)

    def ask_count(self, who: str) -> Question:
        n = COUNTS[len(self.holding[who])]
        return Question("count", (who,), n, n)

    def ask_holding(self, who: str) -> Question:
        held = tuple(self.holding[who])
        return Question("holding", (who,), held, ",".join(held) or "nothing")

    def ask_give_what(self, giver: str, recipient: str, rng=None) -> Question:
        """All objects `giver` gave `recipient`, in story order; a document
        expects the latest, or a stale earlier one when `rng` injects."""
        objs = tuple(o for _, o, _ in self.given(giver=giver, recipient=recipient))
        expected, injected = objs[-1], False
        if rng is not None and len(set(objs)) > 1 and rng.random() < 0.5:
            expected = next(o for o in reversed(objs[:-1]) if o != objs[-1])
            injected = True
        return Question("give-what", (giver, recipient), objs, expected, injected)

    def ask_give_whom(self, giver: str, obj: str) -> Question:
        whom = tuple(r for _, _, r in self.given(giver=giver, obj=obj))
        return Question("give-whom", (giver, obj), whom, whom[-1])

    def ask_give_who(self, obj: str, recipient: str) -> Question:
        who = tuple(g for g, _, _ in self.given(obj=obj, recipient=recipient))
        return Question("give-who", (obj, recipient), who, who[-1])


QUESTION_FORMS = {
    "where": "Where is {0}?",
    "polar": "Is {0} in the {1}?",
    "count": "How many objects is {0} holding?",
    "holding": "What is {0} holding?",
    "give-what": "What did {0} give to {1}?",
    "give-whom": "Who did {0} give the {1} to?",
    "give-who": "Who gave the {0} to {1}?",
}


def question_text(q: Question) -> str:
    return QUESTION_FORMS[q.kind].format(*q.args).capitalize()


def keyword_ok(q: Question, produced: str) -> bool:
    """A keyword answer from the batch harness, which keeps only the
    latest transfer match, against the simulator's truth."""
    words = [w.strip().removeprefix("the ") for w in produced.lower().split(",")]
    if q.kind == "holding":
        return sorted(words) == sorted(q.truth or ("nothing",))
    if q.kind.startswith("give-"):
        return words == [q.truth[-1]]
    return words == [q.truth]


def natural_ok(q: Question, answer: str) -> bool:
    """A natural reply (REPL default, every transfer match) against the
    simulator's truth; a polar "No, but X is." must name someone there."""
    words = re.findall(r"[a-z]+", answer.lower())
    if q.kind == "polar":
        if words[0] != q.truth:
            return False
        contrast = [w for w in words if w in PEOPLE]
        if q.truth == "no" and "but" in words:
            return len(contrast) == 1 and contrast[0] in q.present
        return q.truth == "yes" or not q.present
    if q.kind == "count":
        return words == [q.truth]
    vocab = {"where": PLACES, "holding": THINGS, "give-what": THINGS}.get(q.kind, PEOPLE)
    found = tuple(w for w in words if w in vocab)
    if q.kind == "where":
        return found == (q.truth,)
    if q.kind == "holding":
        return sorted(found) == sorted(q.truth) and bool(found or words == ["nothing"])
    return found == q.truth


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
        pronoun = "she" if who in FEMALE else "he"
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
            w.last_actor = None       # two people: no single antecedent
            shape = rng.randrange(4)
            participle = {"gave": "given", "handed": "handed", "passed": "passed"}[verb]
            if shape == 0:
                return w.cap(f"{holder} {verb} {other} the {obj}.")
            if shape == 1:
                return w.cap(f"The {obj} was {participle} to {other} by {holder}.")
            if shape == 2:
                return w.cap(f"{other} was {participle} the {obj} by {holder}.")
            return w.cap(f"{holder} {verb} the {obj} to {other}.")
        verb = rng.choice(["dropped the", "discarded the", "put down the",
                           "left the"])
        w.carrier[obj] = None
        w.holding[holder].remove(obj)
        w.last_actor = holder
        return w.cap(f"{holder} {verb} {obj}.")
    if free:
        obj = rng.choice(free)
        who = rng.choice(PEOPLE)
        verb = rng.choice(["picked up the", "got the", "grabbed the",
                           "picked the"])
        tail = " up" if verb == "picked the" else ""
        w.carrier[obj] = who
        w.holding[who].append(obj)
        w.last_actor = who
        return w.cap(f"{who} {verb} {obj}{tail}.")
    return gen_motion(rng, w)


def gen_location(rng, w):
    """Task-9 lines: positive, negated and "no longer" positions."""
    who = rng.choice(list(w.position))
    w.last_actor = None
    roll = rng.random()
    if roll < 0.4:
        place = w.position.pop(who)
        return f"{who.capitalize()} is no longer in the {place}."
    place = rng.choice(PLACES)
    if roll < 0.7:
        if w.position.get(who) == place:
            del w.position[who]
        return f"{who.capitalize()} is not in the {place}."
    w.position[who] = place
    return f"{who.capitalize()} is in the {place}."


def family_story(rng, task: int) -> list[Line] | None:
    """One bAbI-shaped story of a single task family: 6-11 statements and
    one question; None when the drawn story cannot ask its question."""
    w = World()
    lines: list[Line] = []
    for _ in range(rng.randrange(6, 12)):
        if task in (1, 6, 9, 11, 12, 13):
            if task == 9 and rng.random() < 0.4 and w.position:
                lines.append(Line(gen_location(rng, w)))
                continue
            lines.append(Line(gen_motion(rng, w, pronouns=task in (11, 13),
                                         pairs=task in (12, 13))))
        else:
            lines.append(Line(gen_possession(rng, w)))

    if task in (1, 11, 12, 13):
        if not w.position:
            return None
        q = w.ask_where(rng.choice(list(w.position)))
    elif task == 6:
        if not w.position:
            return None
        q = w.ask_polar(rng.choice(list(w.position)), rng.choice(PLACES))
    elif task == 9:
        q = w.ask_polar(rng.choice(PEOPLE), rng.choice(PLACES))
    elif task == 7:
        q = w.ask_count(rng.choice(PEOPLE))
    elif task == 8:
        q = w.ask_holding(rng.choice(PEOPLE))
    else:
        if not w.gives:
            return None
        giver, obj, recipient = w.gives[-1]
        q = rng.choice([lambda: w.ask_give_what(giver, recipient),
                        lambda: w.ask_give_whom(giver, obj),
                        lambda: w.ask_give_who(obj, recipient)])()
    lines.append(Line(question_text(q), q))
    return lines


def family_stories(rng, task: int, count: int) -> list[list[Line]]:
    stories: list[list[Line]] = []
    while len(stories) < count:
        story = family_story(rng, task)
        if story is not None:
            stories.append(story)
    return stories


def mixed_statement(rng, w) -> str:
    """Motion (with pronouns and pairs) or possession, about half each."""
    if rng.random() < 0.5:
        return gen_motion(rng, w, pronouns=True, pairs=True)
    return gen_possession(rng, w)


# The probe mix, one entry per question.  Answer cost differs by shape:
# "where" and most transfer questions scan the store once, count and
# holding replay the possession ledger, and a polar "no" searches every
# located person for a contrast ("No, but Mary is.").  The shares are
# chosen so the median falls inside the who-gave band and the p90 inside
# the no-contrast band, not on an edge between bands.
PROBE_MIX = ("where", "give-what", "give-whom", "polar-yes", "give-who",
             "give-who", "count", "holding", "polar-but", "polar-none",
             "polar-none")


def mixed_question(rng, w, kind: str, inject: bool = False) -> Question:
    """A question of the given shape; a shape the world state cannot
    answer yet becomes a random polar question."""
    kinds = ["polar", "count", "holding"]
    if w.position:
        kinds += ["where", "polar-yes"]
    if w.gives:
        kinds += ["give-what", "give-whom", "give-who"]
    empty = [p for p in PLACES if p not in w.position.values()]
    if empty:
        kinds.append("polar-none")
    if len(set(w.position.values())) > 1:
        kinds.append("polar-but")
    if kind not in kinds:
        kind = "polar"
    if kind == "where":
        return w.ask_where(rng.choice(sorted(w.position)))
    if kind == "polar":
        return w.ask_polar(rng.choice(PEOPLE), rng.choice(PLACES))
    if kind == "polar-yes":
        who = rng.choice(sorted(w.position))
        return w.ask_polar(who, w.position[who])
    if kind == "polar-none":
        return w.ask_polar(rng.choice(PEOPLE), rng.choice(empty))
    if kind == "polar-but":
        place = rng.choice(sorted(set(w.position.values())))
        return w.ask_polar(rng.choice([p for p in PEOPLE if w.position.get(p) != place]),
                           place)
    if kind == "count":
        return w.ask_count(rng.choice(PEOPLE))
    if kind == "holding":
        return w.ask_holding(rng.choice(PEOPLE))
    giver, obj, recipient = rng.choice(w.gives)
    if kind == "give-what":
        return w.ask_give_what(giver, recipient, rng if inject else None)
    if kind == "give-whom":
        return w.ask_give_whom(giver, obj)
    return w.ask_give_who(obj, recipient)


def mixed_story(rng, statements: int, every: int = 0,
                probes: dict[int, int] | None = None,
                inject: bool = False) -> list[Line]:
    """A story of `statements` mixed statements.  With `every` a question
    follows every `every` statements; `probes` maps a statement count to a
    batch of that many questions asked at that point.  Questions cycle
    through `PROBE_MIX`, so batches sized in whole cycles share one mix."""
    w = World()
    lines: list[Line] = []
    asked = 0

    def ask(inject: bool):
        nonlocal asked
        q = mixed_question(rng, w, PROBE_MIX[asked % len(PROBE_MIX)], inject)
        asked += 1
        lines.append(Line(question_text(q), q))

    for n in range(1, statements + 1):
        lines.append(Line(mixed_statement(rng, w)))
        if every and n % every == 0:
            ask(inject)
        for _ in range((probes or {}).get(n, 0)):
            ask(False)
    return lines


def babi_document(stories: list[list[Line]]) -> str:
    """bAbI task-file text: ids restart at 1 per story; a question line
    carries its expected answer after a tab."""
    out = []
    for story in stories:
        for i, line in enumerate(story, start=1):
            if line.question is None:
                out.append(f"{i} {line.text}")
            else:
                out.append(f"{i} {line.text}\t{line.question.expected}\t")
    return "\n".join(out) + "\n"


def rng_for(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")
