"""Append-only discourse context with set-intersection question answering.

Statements only ever add items; nothing is updated or deleted, so negation
coexists with the history it negates.  An item is a `Proposition` with no
embedded clauses, no pronoun and its own antecedent summary; its number
is its position in `items` + 1.  A pronoun-free proposition the matcher
made with no embedded clauses is stored as it is, shared with the parse
cache; any other gets one new `Proposition`.  A statement or question
whose proposition carries its antecedent summary holds no pronoun and is
used without a walk; one with none, a pronoun statement or one built by
hand, is walked.

A pronoun takes the latest referent of its agreement class (Lappin &
Leass, *Computational Linguistics* 20(4), 1994, filter by agreement
before salience).  The tracker keeps this as a view maintained from the
append-only items (Gupta & Mumick, IEEE Data Eng. Bull. 1995): a
resolution folds the antecedent summaries (`Proposition.antecedents`, the
first referent per class) of the items stored since the last one into a
class -> latest referent index, then looks its class up.  Each summary is
folded once, so a resolution costs O(1) amortised, however far back its
antecedent lies, and a pronoun-free ingest walks nothing.  A pronoun
statement is walked once: the walk resolves each distinct pronoun once,
a conjunct's included, rebuilds only the branches above them, and
collects the resolved structure's summary on the way.

Questions intersect the stored items against their own logical
structure.  Every position question reads one fold over the items
(`_positions`): for each asked member, or for every located entity when
"Who is in X?" asks none, its latest still-valid position.  A present-
or future-tense question returns that position, a bundle's being its
members' common one; a past-tense question takes, from the same pass,
the list of places all its members were at at once.  Possession
questions replay the have' ledger, one row per object: the item of its
latest gain, or None once lost.  Transfer questions collect every
matching item in context order (`latest_match` keeps only the last, as
the bAbI datasets expect); an unspecified party is never an answer.

A polar question is its content twin plus a membership test: yes when
the twin, answered by the one method for its view, binds the asked
value.  "Was Mary in the kitchen?" asks "Where was Mary?".  "Is Mary in
the kitchen?" (or "Will Mary be ...?") reads one fold of every located
entity's current position: Mary's answers it, and on a "no" the first
other entity there is the contrast ("No, but John is.").  "Does Mary
have the milk?" asks "What is Mary holding?"; any other polar question
keeps the items a transfer question matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .errors import SemqaError
from .lexicon import Lexicon
from .matcher import Proposition
from .semantics import (
    ANY_POSITION_PRED,
    HAVE_PRED,
    POSITION_PREDS,
    Activity,
    Linked,
    OperatorSet,
    Referent,
    State,
    UNSPECIFIED,
    Wrapped,
    bundle,
    map_referents,
    note_antecedent,
    query,
    referent_matches,
    render,
    unify,
    walk_referents,
)

# positional predicates, the unresolved be-LOC of a question included
_POSITION_PREDS = POSITION_PREDS | {ANY_POSITION_PRED}
_WHAT = query("what")


class ContextError(SemqaError):
    pass


class PronounResolutionError(ContextError):
    pass


class UnsupportedQuestionError(ContextError):
    pass


def trace_line(number: int, item: Proposition, lexicon: Lexicon | None = None) -> str:
    """One stored item as `#number [operators] logical structure :: source`."""
    return (f"#{number} [{item.operators.describe()}] "
            f"{render(item.ls, lexicon)} :: {item.source}")


@dataclass(frozen=True)
class QueryConfig:
    strict_receive: bool = False
    include_current_position: bool = True


@dataclass
class AnswerContent:
    """Matched content handed to the language generator."""

    kind: str                       # polar | content | transfer | count | list
    polarity: str | None = None     # yes | no
    bindings: list = field(default_factory=list)
    echo: OperatorSet | None = None
    topic: Referent | None = None
    contrast: Referent | None = None
    support: list[int] = field(default_factory=list)
    item_tense: str | None = None
    aux_hint: str = "be"            # auxiliary family echoed in short answers


class PositionEntry(NamedTuple):
    state: State
    polarity: str
    index: int
    tense: str


@dataclass(frozen=True)
class HaveEvent:
    """One possession change: party gains (+) or loses (-) an object."""

    party: Referent
    obj: Referent
    positive: bool
    causer: Referent | None       # CAUSE activity actor, when present
    counterparty: bool            # a second party appears in the same item


def have_events(ls) -> list[HaveEvent]:
    """Extract possession-change leaves from a logical structure."""
    out: list[HaveEvent] = []
    _collect_have_events(ls, None, False, out)
    return out


# The walks below recurse through module functions, not through nested
# closures: a closure that calls itself is a reference cycle, which every
# call would leave for the cyclic garbage collector.

def _collect_have_events(term, causer, counterparty: bool, out: list[HaveEvent]):
    if isinstance(term, Wrapped):
        if term.op == "BECOME":
            leaf, positive = term.inner, True
            if isinstance(leaf, Wrapped) and leaf.op == "NOT":
                leaf, positive = leaf.inner, False
            if isinstance(leaf, State) and leaf.pred == HAVE_PRED:
                out.append(HaveEvent(leaf.arg1, leaf.arg2, positive, causer, counterparty))
        elif term.op in ("INGR", "NOT"):
            _collect_have_events(term.inner, causer, counterparty, out)
    elif isinstance(term, Linked):
        if term.link == "CAUSE" and isinstance(term.left, Activity):
            causer = term.left.actor
        counterparty = counterparty or term.link == "conj"
        _collect_have_events(term.left, causer, counterparty, out)
        _collect_have_events(term.right, causer, counterparty, out)


def _position_states(term, found: list[State] | None = None) -> list[State]:
    """Positional states asserted by one item (motion results included)."""
    if found is None:
        found = []
    if isinstance(term, State) and term.pred in _POSITION_PREDS:
        found.append(term)
    elif isinstance(term, Wrapped) and term.op != "NOT":
        _position_states(term.inner, found)
    elif isinstance(term, Linked):
        _position_states(term.left, found)
        _position_states(term.right, found)
    return found


class ContextTracker:
    """One story's discourse state.  Single writer; items are immutable."""

    def __init__(self, lexicon: Lexicon, config: QueryConfig | None = None):
        self.lexicon = lexicon
        self.config = config or QueryConfig()
        self.items: list[Proposition] = []
        self.diagnostics: list[str] = []
        # the summaries of the first `_folded` items are folded into
        # `_latest`, agreement class -> the latest referent of that class
        self._folded = 0
        self._latest: dict[str, Referent] = {}

    def trace(self) -> str:
        return "\n".join(trace_line(n, item, self.lexicon)
                         for n, item in enumerate(self.items, 1))

    # -- ingestion -------------------------------------------------------

    def ingest(self, prop: Proposition):
        """Append a statement's propositions, each without embedded
        clauses of its own: each embedded clause goes in first, after its
        own (a "no longer" relative clause's past twin)."""
        if prop.operators.force == "question":
            raise ContextError("questions are answered, not ingested")
        for emb in prop.embedded:
            self.ingest(emb)
        self._store(prop)

    def _store(self, prop: Proposition):
        """Append `prop` as an item.  A proposition with its summary and no
        embedded clauses is the item itself; one without a summary (a
        pronoun statement, or one built by hand) is stored resolved, with
        the summary of its resolved structure, both from one walk."""
        ls, summary = prop.ls, prop.antecedents
        if summary is None:
            found: dict[str, Referent] = {}
            ls = self._resolve_ls(ls, found)
            summary = tuple(found.items())
        elif not prop.embedded:
            self.items.append(prop)
            return
        self.items.append(Proposition(ls, prop.operators, (), prop.source, summary))

    def _resolve_ls(self, ls, found: dict | None = None):
        """`ls` with its pronouns resolved, in one walk: each distinct
        pronoun is resolved once, and a bundle with a pronoun member is
        rebuilt flat, a plural pronoun's members in its place.  Given
        `found`, the walk collects into it the resolved structure's
        antecedent summary, as `semantics.antecedents` would."""
        lexicon, resolved = self.lexicon, {}    # a pronoun's attributes -> its antecedent

        def resolve(pronoun: Referent) -> Referent:
            new = resolved.get(pronoun.attributes)
            if new is None:
                new = resolved[pronoun.attributes] = self.resolve_pronoun(pronoun.attributes)
            return new

        def fix(ref: Referent) -> Referent:
            if "pronoun" in ref.attributes:
                ref = resolve(ref)
            elif ref.kind == "bundle" and any("pronoun" in m.attributes for m in ref.members):
                members = [resolve(m) if "pronoun" in m.attributes else m for m in ref.members]
                # an entity has no members; a bundle's join this one flat
                ref = bundle(*(m for r in members for m in r.members or (r,)))
            if found is not None:
                note_antecedent(ref, lexicon, found)
            return ref
        return map_referents(ls, fix)

    def resolve_pronoun(self, attributes) -> Referent:
        """The latest referent agreeing in number and gender: `they` takes
        the latest bundle, `he` and `she` the latest male or female
        person, any other pronoun the latest person.  Read from the index
        of the latest referent per agreement class, after folding into it
        the summaries of the items stored since the last call."""
        latest = self._latest
        for item in self.items[self._folded:]:
            latest.update(item.antecedents)
        self._folded = len(self.items)
        if "plural" in attributes:
            agreement = "plural"
        elif "neuter" in attributes or "female" not in attributes and "male" not in attributes:
            agreement = "person"
        else:
            agreement = "female" if "female" in attributes else "male"
        ref = latest.get(agreement)
        if ref is None:
            raise PronounResolutionError(
                f"no antecedent agrees with {sorted(attributes)}")
        return ref

    # -- retrieval --------------------------------------------------------

    def _positions(self, asked: Referent | None = None, past: bool = False
                   ) -> tuple[dict[str | None, list], list[PositionEntry]]:
        """One pass over the items: sense -> [first referent, current
        position] (see `_advance`) for each asked member, or for every
        located entity when none is asked, in first-seen order; bundle
        membership counts.  When `past`, also each place the asked members
        were all at at once, once, in context order."""
        senses = None if asked is None else {m.sense for m in asked.members or (asked,)}
        found: dict[str | None, list] = {}
        places: list[PositionEntry] = []
        for n, item in enumerate(self.items, 1):
            for state in _position_states(item.ls):
                e = None                 # the state's entry, once a member is asked
                placed = state.arg2      # an entity, or each bundle member
                for ref in (placed,) if placed.kind == "entity" else placed.members:
                    if senses is None or ref.sense in senses:
                        if e is None:
                            e = _entry(state, item, n)
                        slot = found.setdefault(ref.sense, [ref, None])
                        slot[1] = _advance(slot[1], e)
                if past and e is not None and e.polarity == "positive" \
                        and all(c is e or c is not None and _same_location(c.state, e.state)
                                for c in (found.get(s, (None, None))[1] for s in senses)) \
                        and not any(_same_location(d.state, e.state) for d in places):
                    places.append(e)
        return found, places

    def held_now(self, holder: Referent) -> list[tuple[Referent, int]]:
        """Replay the have' ledger: the objects held now, each with the
        item of its latest gain, most recent gain first.

        Dropping something never picked up is a story inconsistency: it is
        recorded once as a diagnostic, not a crash.
        """
        ledger: list[list] = []   # [obj referent, item of the latest gain or None]
        for n, item in enumerate(self.items, 1):
            for ev in have_events(item.ls):
                if ev.party.kind == "unspecified":
                    continue
                if not referent_matches(holder, ev.party) \
                        and not referent_matches(ev.party, holder):
                    continue
                row = next((r for r in ledger if referent_matches(r[0], ev.obj)
                            and referent_matches(ev.obj, r[0])), None)
                if row is None:
                    row = [ev.obj, None]
                    ledger.append(row)
                if not ev.positive and row[1] is None:
                    note = (f"item #{n}: {holder.head()} loses "
                            f"{ev.obj.head()} without holding it (story inconsistency)")
                    if note not in self.diagnostics:   # asked again: noted once
                        self.diagnostics.append(note)
                row[1] = n if ev.positive else None
        return sorted(((obj, gain) for obj, gain in ledger if gain is not None),
                      key=lambda r: -r[1])

    # -- question answering -------------------------------------------------

    def answer_question(self, prop: Proposition) -> AnswerContent:
        """Find all valid stored context items for a question; the question
        type (polar/content) determines the answer shape."""
        if prop.operators.force != "question":
            raise UnsupportedQuestionError("not a question")
        ls = prop.ls if prop.antecedents is not None else self._resolve_ls(prop.ls)
        ops = prop.operators
        queries = [r for r in walk_referents(ls) if r.is_query]
        focus = queries[0].focus if queries else None

        if focus == "where":
            return self._answer_where(ls, ops)
        if focus == "how-many" or (focus == "what" and isinstance(ls, State)
                                   and ls.pred == HAVE_PRED):
            return self._answer_held(ls, ops, "count" if focus == "how-many" else "list")
        if not queries:
            return self._answer_polar(ls, ops)
        if focus == "who" and isinstance(ls, State) and ls.pred in _POSITION_PREDS:
            return self._answer_who_position(ls, ops)
        wanted = have_events(ls)
        if wanted:
            return self._answer_transfer(ls, ops, focus, wanted)
        raise UnsupportedQuestionError(
            f"no matching frame class for {render(ls, self.lexicon)}")

    def _answer_where(self, ls, ops: OperatorSet) -> AnswerContent:
        if not isinstance(ls, State):
            # "Where did Mary go?" carries the query inside the result state
            states = [s for s in _position_states(ls) if s.arg1.is_query]
            if not states:
                raise UnsupportedQuestionError("no position slot to solve for")
            ls = states[0]
        entity, past = ls.arg2, ops.tense == "past"
        found, places = self._positions(entity, past)
        cur = _current(found, entity)
        if not past:
            if cur is None:
                return AnswerContent("content", bindings=[], echo=ops, topic=entity)
            return AnswerContent(
                "content", bindings=[_position_value(cur.state)],
                echo=ops, topic=entity, support=[cur.index], item_tense=cur.tense)
        if not self.config.include_current_position and cur is not None:
            places = [e for e in places if not _same_location(e.state, cur.state)]
        return AnswerContent(
            "content", bindings=[_position_value(e.state) for e in places],
            echo=ops, topic=entity, support=[e.index for e in places])

    def _answer_polar(self, ls, ops: OperatorSet) -> AnswerContent:
        """Yes when the content twin binds the asked value (see the module
        docstring).  A position answer cites the asked entity's current
        position, even on a "no", or in the past tense the matching place;
        only its "yes" carries a binding."""
        if isinstance(ls, State) and ls.pred == HAVE_PRED:
            held = self._answer_held(State(HAVE_PRED, ls.arg1, _WHAT), ops, "list")
            yes = any(obj.sense == ls.arg2.sense for obj in held.bindings)
            return AnswerContent("polar", polarity="yes" if yes else "no",
                                 echo=ops, topic=ls.arg1, aux_hint="do")
        if not (isinstance(ls, State) and ls.pred in _POSITION_PREDS):
            matched = self._answer_transfer(ls, ops, None, have_events(ls)).support
            return AnswerContent("polar", polarity="yes" if matched else "no",
                                 echo=ops, topic=next(iter(walk_referents(ls)), None),
                                 aux_hint="do", support=matched)
        entity, contrast = ls.arg2, None
        if ops.tense == "past":
            where = self._answer_where(ls, ops)
            hit = next(((b, n) for b, n in zip(where.bindings, where.support)
                        if _same_location(b, ls)), None)
            bindings, support = ([hit[0]], [hit[1]]) if hit else ([], [])
            item_tense = self.items[hit[1] - 1].operators.tense if hit else None
        else:       # one fold of every located entity gives the answer and the contrast
            found = self._positions()[0]
            cur = _current(found, entity)
            support, item_tense = ([cur.index], cur.tense) if cur else ([], None)
            bindings = [_position_value(cur.state)] \
                if cur and _same_location(cur.state, ls) else []
            if not bindings:
                for ref, at in _located_at(found, ls):
                    if not referent_matches(ref, entity):     # the asked one, or its member
                        contrast = ref
                        support.append(at.index)
                        break
        return AnswerContent(
            "polar", polarity="yes" if bindings else "no", bindings=bindings, echo=ops,
            topic=entity, contrast=contrast, support=support, item_tense=item_tense)

    def _answer_who_position(self, ls: State, ops: OperatorSet) -> AnswerContent:
        """Entities whose current position matches the queried location."""
        located = _located_at(self._positions()[0], ls)
        return AnswerContent("content", bindings=[ref for ref, _ in located], echo=ops,
                             support=[cur.index for _, cur in located])

    def _answer_held(self, ls, ops: OperatorSet, kind: str) -> AnswerContent:
        """The objects a named holder holds now: all of them for a "list",
        those of the question slot's counted sense, if it has one, for a
        "count".  A question slot in the holder's place is not answered."""
        if not (isinstance(ls, State) and ls.pred == HAVE_PRED) or ls.arg1.is_query:
            raise UnsupportedQuestionError(
                f"no holder to list the objects of in {render(ls, self.lexicon)}")
        holder, counted = ls.arg1, ls.arg2.sense
        rows = self.held_now(holder)
        if counted:
            rows = [(obj, i) for obj, i in rows
                    if obj.sense and self.lexicon.holds_category(obj.sense, counted)]
        return AnswerContent(kind, bindings=[obj for obj, _ in rows],
                             echo=ops, topic=holder, support=[i for _, i in rows])

    def _answer_transfer(self, ls, ops: OperatorSet, focus: str | None,
                         wanted: list[HaveEvent]) -> AnswerContent:
        """The items that match a transfer question, whose have' leaves are
        `wanted`, in context order.  A bare BECOME have' question (one
        positive have' leaf, no CAUSE) matches each item's receive
        candidates; any other unifies with each item.  An unspecified
        party ("The milk was given to John.") answers nothing."""
        bindings: list[Referent] = []
        support: list[int] = []
        if len(wanted) == 1 and wanted[0].positive \
                and not (isinstance(ls, Linked) and ls.link == "CAUSE"):
            q = wanted[0]
            for n, item in enumerate(self.items, 1):
                for ev in item_receive_candidates(item.ls, self.config.strict_receive):
                    if referent_matches(q.party, ev.party) and referent_matches(q.obj, ev.obj):
                        bindings.append(ev.party if q.party.is_query else ev.obj)
                        support.append(n)
        else:
            for n, item in enumerate(self.items, 1):
                result = unify(ls, item.ls, self.lexicon)
                if result is None:
                    continue
                value = result.get(focus)
                if focus is None:       # polar: cite every match
                    support.append(n)
                elif isinstance(value, Referent) and value.kind != "unspecified":
                    bindings.append(value)
                    support.append(n)
        topic = next((r for r in walk_referents(ls)
                      if r.kind in ("entity", "bundle")), None)
        return AnswerContent("transfer", bindings=bindings, echo=ops, topic=topic,
                             support=support)


def latest_match(content: AnswerContent) -> AnswerContent:
    """A transfer answer cut to its latest match, the bAbI convention;
    any other answer unchanged."""
    if content.kind != "transfer" or not content.bindings:
        return content
    return replace(content, bindings=content.bindings[-1:],
                   support=content.support[-1:])


def item_receive_candidates(ls, strict: bool) -> list[HaveEvent]:
    """Positive gains in an item's logical structure; with strict
    receiving, only gains with a distinct transfer source count
    (self-acquisitions are excluded)."""
    out = []
    for ev in have_events(ls):
        if not ev.positive or ev.party.kind == "unspecified":
            continue
        if strict:
            self_caused = ev.causer is not None and referent_matches(
                ev.causer, ev.party) and referent_matches(ev.party, ev.causer)
            if self_caused or (ev.causer is None and not ev.counterparty):
                continue
        out.append(ev)
    return out


def _advance(cur: PositionEntry | None, entry: PositionEntry) -> PositionEntry | None:
    """The current-position rule, one entry at a time: a negative
    disqualifies the same location without erasing the earlier positives."""
    if entry.polarity != "negative":
        return entry
    if cur is not None and _same_location(cur.state, entry.state):
        return None
    return cur


def _current(found: dict, ref: Referent) -> PositionEntry | None:
    """`ref`'s current position in a `_positions` fold: an entity's own,
    a bundle's its members' common one."""
    curs = [found.get(m.sense, (None, None))[1] for m in ref.members or (ref,)]
    return curs[0] if len(curs) == 1 else _common(curs)


def _located_at(found: dict, place: State) -> list[tuple[Referent, PositionEntry]]:
    """Who is at `place` now in a `_positions` fold, in first-seen order."""
    return [(ref, cur) for ref, cur in found.values()
            if cur is not None and _same_location(cur.state, place)]


def _common(curs: list[PositionEntry | None]) -> PositionEntry | None:
    """The members' common current position, the latest of their entries,
    or None when one has none or they are apart."""
    if None in curs or not all(_same_location(c.state, curs[0].state) for c in curs):
        return None
    return max(curs, key=lambda c: c.index)


def _entry(state: State, item: Proposition, index: int) -> PositionEntry:
    return PositionEntry(state, item.operators.polarity, index,
                         item.operators.tense)


def _position_value(state: State) -> State:
    return State(state.pred, state.arg1, UNSPECIFIED)


def _same_location(a: State, b: State) -> bool:
    loc_a, loc_b = a.arg1, b.arg1
    preds_ok = a.pred == b.pred or ANY_POSITION_PRED in (a.pred, b.pred)
    return preds_ok and loc_a.kind == "entity" and loc_b.kind == "entity" \
        and loc_a.sense == loc_b.sense
