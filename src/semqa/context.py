"""Append-only discourse context with set-intersection question answering.

Statements only ever add items; nothing is updated or deleted, so negation
coexists with the history it negates.  An item keeps the parsed logical
structure itself, shared with the matcher's parse cache; only the branches
above a resolved pronoun are rebuilt.  Questions intersect the stored items
against their own logical structure: present-tense position questions
return the latest still-valid element, past tense returns the list.
Possession questions replay the have' ledger; transfer questions collect
every matching item in context order (`latest_match` keeps only the last,
as the bAbI datasets expect).

A question reads the items in one pass, or two for a polar "no" and a
past-tense "where", never once per entity: the contrast of a polar "no"
("No, but Mary is.") and "Who is in X?" take every located entity's
current position from one fold over the items.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import SemqaError
from .lexicon import Lexicon
from .matcher import Proposition
from .semantics import (
    ANY_POSITION_PRED,
    POSITION_PREDS,
    Activity,
    Linked,
    OperatorSet,
    Referent,
    State,
    UNSPECIFIED,
    Wrapped,
    map_referents,
    referent_matches,
    render,
    unify,
    walk_referents,
)

# positional predicates, the unresolved be-LOC of a question included
_POSITION_PREDS = POSITION_PREDS | {ANY_POSITION_PRED}


class ContextError(SemqaError):
    pass


class PronounResolutionError(ContextError):
    pass


class UnsupportedQuestionError(ContextError):
    pass


@dataclass(frozen=True, slots=True)
class ContextItem:
    index: int
    ls: object
    operators: OperatorSet
    source: str

    def trace_line(self, lexicon: Lexicon | None = None) -> str:
        return (f"#{self.index} [{self.operators.describe()}] "
                f"{render(self.ls, lexicon)} :: {self.source}")


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


@dataclass(frozen=True)
class PositionEntry:
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
    index: int = 0


def have_events(ls, index: int = 0) -> list[HaveEvent]:
    """Extract possession-change leaves from a logical structure."""
    out: list[HaveEvent] = []
    _collect_have_events(ls, index, None, False, out)
    return out


# The walks below recurse through module functions, not through nested
# closures: a closure that calls itself is a reference cycle, which every
# call would leave for the cyclic garbage collector.

def _collect_have_events(term, index: int, causer, counterparty: bool,
                         out: list[HaveEvent]):
    if isinstance(term, Wrapped):
        if term.op == "BECOME":
            leaf, positive = term.inner, True
            if isinstance(leaf, Wrapped) and leaf.op == "NOT":
                leaf, positive = leaf.inner, False
            if isinstance(leaf, State) and leaf.pred == "p:have" \
                    and isinstance(leaf.arg1, Referent) and isinstance(leaf.arg2, Referent):
                out.append(HaveEvent(leaf.arg1, leaf.arg2, positive, causer,
                                     counterparty, index))
        elif term.op in ("INGR", "NOT"):
            _collect_have_events(term.inner, index, causer, counterparty, out)
    elif isinstance(term, Linked):
        if term.link == "CAUSE" and isinstance(term.left, Activity):
            causer = term.left.actor
        counterparty = counterparty or term.link == "conj"
        _collect_have_events(term.left, index, causer, counterparty, out)
        _collect_have_events(term.right, index, causer, counterparty, out)


def _position_states(term, found: list[State] | None = None) -> list[State]:
    """Positional states asserted by one item (motion results included)."""
    if found is None:
        found = []
    if isinstance(term, State) and term.pred in _POSITION_PREDS:
        if isinstance(term.arg1, Referent) and isinstance(term.arg2, Referent):
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
        self.items: list[ContextItem] = []
        self.diagnostics: list[str] = []

    def trace(self) -> str:
        return "\n".join(item.trace_line(self.lexicon) for item in self.items)

    # -- ingestion -------------------------------------------------------

    def ingest(self, prop: Proposition):
        """Append a statement's propositions; embedded clauses go in first."""
        if prop.operators.force == "question":
            raise ContextError("questions are answered, not ingested")
        for emb in prop.embedded:
            self.ingest(replace(emb, embedded=()))
        ls = self._resolve_ls(prop.ls)
        self.items.append(ContextItem(len(self.items) + 1, ls,
                                      prop.operators, prop.source))

    def _resolve_ls(self, ls):
        def fix(ref: Referent) -> Referent:
            if ref.kind == "entity" and ref.has("pronoun"):
                return self.resolve_pronoun(ref.attributes)
            return ref
        return map_referents(ls, fix)

    def resolve_pronoun(self, attributes) -> Referent:
        """Most recent referent agreeing in number and gender; `they`
        resolves to the most recent bundle."""
        plural = "plural" in attributes
        gender = None
        for g in ("male", "female", "neuter"):
            if g in attributes:
                gender = g
        for item in reversed(self.items):
            for ref in walk_referents(item.ls):
                if plural:
                    if ref.kind == "bundle":
                        return ref
                    continue
                if ref.kind != "entity" or ref.sense is None:
                    continue
                if not self.lexicon.holds_category(ref.sense, "r:person"):
                    continue
                if gender in ("male", "female") and not ref.has(gender):
                    continue
                return ref
        raise PronounResolutionError(
            f"no antecedent agrees with {sorted(attributes)}")

    # -- retrieval --------------------------------------------------------

    def positions_of(self, entity: Referent) -> list[PositionEntry]:
        """Every position asserted for the entity, in context order;
        bundle membership counts."""
        out = []
        for item in self.items:
            for state in _position_states(item.ls):
                if referent_matches(entity, state.arg2):
                    out.append(_entry(state, item))
        return out

    def current_position(self, entity: Referent) -> PositionEntry | None:
        """Latest still-valid position (see `_advance`)."""
        cur = None
        for entry in self.positions_of(entity):
            cur = _advance(cur, entry)
        return cur

    def _located_positions(self) -> list[tuple[Referent, PositionEntry | None]]:
        """Every entity with an asserted position, in first-seen order, with
        its current position: one pass over the items, not one per entity."""
        found: dict[str | None, list] = {}   # sense -> [first referent, current]
        for item in self.items:
            for state in _position_states(item.ls):
                entry = _entry(state, item)
                placed = state.arg2      # an entity, or each bundle member
                for ref in (placed,) if placed.kind == "entity" else placed.members:
                    slot = found.setdefault(ref.sense, [ref, None])
                    slot[1] = _advance(slot[1], entry)
        return [(ref, cur) for ref, cur in found.values()]

    def past_positions(self, entity: Referent) -> list[PositionEntry]:
        """Each location the entity was at, once, in context order; one
        read of the items gives both these and the current position."""
        cur = None
        deduped: list[PositionEntry] = []
        for e in self.positions_of(entity):
            cur = _advance(cur, e)
            if e.polarity == "positive" \
                    and not any(_same_location(d.state, e.state) for d in deduped):
                deduped.append(e)
        if not self.config.include_current_position and cur is not None:
            deduped = [e for e in deduped if not _same_location(e.state, cur.state)]
        return deduped

    def holdings_of(self, holder: Referent):
        """Replay the have' ledger; returns [(object, held-now, events)].

        Dropping something never picked up is a story inconsistency: it is
        recorded once as a diagnostic, not a crash.
        """
        ledger: list[list] = []   # [obj referent, held flag, events]
        for item in self.items:
            for ev in have_events(item.ls, item.index):
                if ev.party.kind == "unspecified":
                    continue
                if not referent_matches(holder, ev.party) \
                        and not referent_matches(ev.party, holder):
                    continue
                row = None
                for r in ledger:
                    if referent_matches(r[0], ev.obj) and referent_matches(ev.obj, r[0]):
                        row = r
                        break
                if row is None:
                    row = [ev.obj, False, []]
                    ledger.append(row)
                if ev.positive:
                    row[1] = True
                else:
                    if not row[1]:
                        note = (f"item #{item.index}: {holder.head()} loses "
                                f"{ev.obj.head()} without holding it (story inconsistency)")
                        if note not in self.diagnostics:   # asked again: noted once
                            self.diagnostics.append(note)
                    row[1] = False
                row[2].append((item.index, "+" if ev.positive else "-"))
        return [(obj, held, events) for obj, held, events in ledger]

    def held_now(self, holder: Referent) -> list[tuple[Referent, int]]:
        """Currently held objects, most recent acquisition first."""
        rows = []
        for obj, held, events in self.holdings_of(holder):
            if held:
                last_gain = max(i for i, sign in events if sign == "+")
                rows.append((obj, last_gain))
        rows.sort(key=lambda r: -r[1])
        return rows

    # -- question answering -------------------------------------------------

    def answer_question(self, prop: Proposition) -> AnswerContent:
        """Find all valid stored context items for a question; the question
        type (polar/content) determines the answer shape."""
        if prop.operators.force != "question":
            raise UnsupportedQuestionError("not a question")
        ls = self._resolve_ls(prop.ls)
        ops = prop.operators
        queries = [r for r in walk_referents(ls) if r.is_query]
        focus = queries[0].focus if queries else None

        if focus == "where":
            return self._answer_where(ls, ops)
        if focus == "how-many":
            return self._answer_count(ls, ops)
        if not queries:
            return self._answer_polar(ls, ops)
        if focus == "who" and isinstance(ls, State) and ls.pred in _POSITION_PREDS:
            return self._answer_who_position(ls, ops)
        if focus == "what" and isinstance(ls, State) and ls.pred == "p:have":
            return self._answer_holding_list(ls, ops)
        if have_events(ls):
            return self._answer_transfer(ls, ops, focus)
        raise UnsupportedQuestionError(
            f"no matching frame class for {render(ls, self.lexicon)}")

    def _answer_where(self, ls, ops: OperatorSet) -> AnswerContent:
        if not isinstance(ls, State):
            # "Where did Mary go?" carries the query inside the result state
            states = [s for s in _position_states(ls)
                      if isinstance(s.arg1, Referent) and s.arg1.is_query]
            if not states:
                raise UnsupportedQuestionError("no position slot to solve for")
            ls = states[0]
        entity = ls.arg2
        if ops.tense == "present":
            cur = self.current_position(entity)
            if cur is None:
                return AnswerContent("content", bindings=[], echo=ops, topic=entity)
            return AnswerContent(
                "content", bindings=[_position_value(cur.state)],
                echo=ops, topic=entity, support=[cur.index], item_tense=cur.tense)
        entries = self.past_positions(entity)
        return AnswerContent(
            "content", bindings=[_position_value(e.state) for e in entries],
            echo=ops, topic=entity, support=[e.index for e in entries])

    def _answer_polar(self, ls, ops: OperatorSet) -> AnswerContent:
        if isinstance(ls, State) and ls.pred in _POSITION_PREDS:
            entity = ls.arg2
            cur = self.current_position(entity)
            yes = cur is not None and _same_location(cur.state, ls)
            contrast = None
            support = [cur.index] if cur else []
            if not yes:
                for other, other_cur in self._located_positions():
                    if referent_matches(other, entity) and referent_matches(entity, other):
                        continue
                    if other_cur is not None and _same_location(other_cur.state, ls):
                        contrast = other
                        support.append(other_cur.index)
                        break
            return AnswerContent(
                "polar", polarity="yes" if yes else "no",
                bindings=[_position_value(cur.state)] if yes else [],
                echo=ops, topic=entity, contrast=contrast, support=support,
                item_tense=cur.tense if cur else None)
        if isinstance(ls, State) and ls.pred == "p:have":
            held = {obj.sense for obj, _ in self.held_now(ls.arg1)}
            want = ls.arg2
            yes = isinstance(want, Referent) and want.sense in held
            return AnswerContent("polar", polarity="yes" if yes else "no",
                                 echo=ops, topic=ls.arg1, aux_hint="do")
        events = self._receive_events(ls)
        if events is not None:
            yes = bool(events)
            topic = next(iter(walk_referents(ls)), None)
            return AnswerContent("polar", polarity="yes" if yes else "no",
                                 echo=ops, topic=topic, aux_hint="do",
                                 support=[e.index for e in events])
        matched = [item for item in self.items
                   if unify(ls, item.ls, self.lexicon) is not None]
        topic = next(iter(walk_referents(ls)), None)
        return AnswerContent("polar", polarity="yes" if matched else "no",
                             echo=ops, topic=topic, aux_hint="do",
                             support=[i.index for i in matched])

    def _answer_who_position(self, ls: State, ops: OperatorSet) -> AnswerContent:
        """Entities whose current position matches the queried location."""
        bindings = []
        support = []
        for ref, cur in self._located_positions():
            if cur is not None and _same_location(cur.state, ls):
                bindings.append(ref)
                support.append(cur.index)
        return AnswerContent("content", bindings=bindings, echo=ops, support=support)

    def _answer_count(self, ls: State, ops: OperatorSet) -> AnswerContent:
        holder = ls.arg1
        counted = None
        for q in walk_referents(ls):
            if q.is_query:
                for a in q.attributes:
                    if a.startswith("counted="):
                        counted = a.split("=", 1)[1]
        rows = self.held_now(holder)
        if counted:
            rows = [(obj, i) for obj, i in rows
                    if obj.sense and self.lexicon.holds_category(obj.sense, counted)]
        return AnswerContent("count", bindings=[obj for obj, _ in rows],
                             echo=ops, topic=holder, support=[i for _, i in rows])

    def _answer_holding_list(self, ls: State, ops: OperatorSet) -> AnswerContent:
        holder = ls.arg1
        rows = self.held_now(holder)
        return AnswerContent("list", bindings=[obj for obj, _ in rows],
                             echo=ops, topic=holder, support=[i for _, i in rows])

    def _receive_events(self, ls):
        """Items whose positive have' leaf matches a bare BECOME have' query."""
        wanted = have_events(ls)
        if len(wanted) != 1 or not wanted[0].positive:
            return None
        if isinstance(ls, Linked) and ls.link == "CAUSE":
            return None
        q = wanted[0]
        found = []
        for item in self.items:
            for ev in item_receive_candidates(item, self.config.strict_receive):
                if referent_matches(q.party, ev.party) \
                        and referent_matches(q.obj, ev.obj):
                    found.append(ev)
        return found

    def _answer_transfer(self, ls, ops: OperatorSet, focus: str) -> AnswerContent:
        receive = self._receive_events(ls)
        bindings: list[Referent] = []
        support: list[int] = []
        if receive is not None:
            q = have_events(ls)[0]
            for ev in receive:
                bindings.append(ev.party if q.party.is_query else ev.obj)
                support.append(ev.index)
        else:
            for item in self.items:
                result = unify(ls, item.ls, self.lexicon)
                if result is None:
                    continue
                value = result.get(focus)
                if isinstance(value, Referent):
                    bindings.append(value)
                    support.append(item.index)
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


def item_receive_candidates(item: ContextItem, strict: bool) -> list[HaveEvent]:
    """Positive gains in an item; with strict receiving, only gains with a
    distinct transfer source count (self-acquisitions are excluded)."""
    out = []
    for ev in have_events(item.ls, item.index):
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


def _entry(state: State, item: ContextItem) -> PositionEntry:
    return PositionEntry(state, item.operators.polarity, item.index,
                         item.operators.tense)


def _position_value(state: State) -> State:
    return State(state.pred, state.arg1, UNSPECIFIED)


def _same_location(a: State, b: State) -> bool:
    loc_a, loc_b = a.arg1, b.arg1
    if not (isinstance(loc_a, Referent) and isinstance(loc_b, Referent)):
        return False
    preds_ok = a.pred == b.pred or ANY_POSITION_PRED in (a.pred, b.pred)
    return preds_ok and loc_a.kind == "entity" and loc_b.kind == "entity" \
        and loc_a.sense == loc_b.sense
