"""Append-only discourse context with set-intersection question answering.

Statements only ever add items; nothing is updated or deleted, so negation
coexists with the history it negates.  Questions intersect the stored items
against their own logical structure: present-tense position questions
return the latest still-valid element, past tense returns the list.
Possession questions replay the have' ledger; transfer questions collect
every matching item in context order (`latest_match` keeps only the last,
as the bAbI datasets expect).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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


class ContextError(Exception):
    pass


class PronounResolutionError(ContextError):
    pass


class UnsupportedQuestionError(ContextError):
    pass


@dataclass(frozen=True)
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
    focus: str | None = None
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

    def leaf(term, positive, causer, counterparty):
        if isinstance(term, State) and term.pred == "p:have":
            if isinstance(term.arg1, Referent) and isinstance(term.arg2, Referent):
                out.append(HaveEvent(term.arg1, term.arg2, positive, causer,
                                     counterparty, index))

    def walk(term, causer=None, counterparty=False):
        if isinstance(term, Wrapped):
            if term.op == "BECOME":
                inner = term.inner
                if isinstance(inner, Wrapped) and inner.op == "NOT":
                    leaf(inner.inner, False, causer, counterparty)
                else:
                    leaf(inner, True, causer, counterparty)
            elif term.op in ("INGR", "NOT"):
                walk(term.inner, causer, counterparty)
        elif isinstance(term, Linked):
            if term.link == "CAUSE" and isinstance(term.left, Activity):
                causer = term.left.actor
            pair = term.link == "conj"
            walk(term.left, causer, counterparty or pair)
            walk(term.right, causer, counterparty or pair)

    walk(ls)
    return out


class ContextTracker:
    """One story's discourse state.  Single writer; items are immutable."""

    def __init__(self, lexicon: Lexicon, config: QueryConfig | None = None):
        self.lexicon = lexicon
        self.config = config or QueryConfig()
        self.items: list[ContextItem] = []
        self.diagnostics: list[str] = []

    def __len__(self):
        return len(self.items)

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

    def _position_states(self, ls):
        """Positional states asserted by one item (motion results included)."""
        found = []

        def walk(term):
            if isinstance(term, State) and term.pred in _POSITION_PREDS:
                if isinstance(term.arg1, Referent) and isinstance(term.arg2, Referent):
                    found.append(term)
            elif isinstance(term, Wrapped) and term.op != "NOT":
                walk(term.inner)
            elif isinstance(term, Linked):
                walk(term.left)
                walk(term.right)

        walk(ls)
        return found

    def positions_of(self, entity: Referent) -> list[PositionEntry]:
        """Every position asserted for the entity, in context order;
        bundle membership counts."""
        out = []
        for item in self.items:
            for state in self._position_states(item.ls):
                if referent_matches(entity, state.arg2):
                    out.append(PositionEntry(state, item.operators.polarity,
                                             item.index, item.operators.tense))
        return out

    def current_position(self, entity: Referent):
        """Latest still-valid position: negatives disqualify a location
        without erasing the earlier positives."""
        cur: PositionEntry | None = None
        for entry in self.positions_of(entity):
            if entry.polarity == "negative":
                if cur is not None and _same_location(cur.state, entry.state):
                    cur = None
            else:
                cur = entry
        return cur

    def past_positions(self, entity: Referent,
                       include_current: bool | None = None) -> list[PositionEntry]:
        if include_current is None:
            include_current = self.config.include_current_position
        entries = [e for e in self.positions_of(entity) if e.polarity == "positive"]
        deduped: list[PositionEntry] = []
        for e in entries:
            if not any(_same_location(d.state, e.state) for d in deduped):
                deduped.append(e)
        cur = self.current_position(entity)
        if not include_current and cur is not None:
            deduped = [e for e in deduped if not _same_location(e.state, cur.state)]
        return deduped

    def holdings_of(self, holder: Referent):
        """Replay the have' ledger; returns [(object, held-now, events)].

        Dropping something never picked up is a story inconsistency: it is
        recorded as a diagnostic, not a crash.
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
                        self.diagnostics.append(
                            f"item #{item.index}: {holder.head()} loses "
                            f"{ev.obj.head()} without holding it (story inconsistency)")
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

    def _located_entities(self) -> list[Referent]:
        seen: list[Referent] = []
        for item in self.items:
            for state in self._position_states(item.ls):
                refs = [state.arg2] if state.arg2.kind == "entity" \
                    else list(getattr(state.arg2, "members", ()))
                for ref in refs:
                    if ref.kind == "entity" and not any(
                            r.sense == ref.sense for r in seen):
                        seen.append(ref)
        return seen

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
        if self._is_transfer_query(ls):
            return self._answer_transfer(ls, ops, focus)
        raise UnsupportedQuestionError(
            f"no matching frame class for {render(ls, self.lexicon)}")

    def _answer_where(self, ls, ops: OperatorSet) -> AnswerContent:
        if not isinstance(ls, State):
            # "Where did Mary go?" carries the query inside the result state
            states = [s for s in self._position_states(ls)
                      if isinstance(s.arg1, Referent) and s.arg1.is_query]
            if not states:
                raise UnsupportedQuestionError("no position slot to solve for")
            ls = states[0]
        entity = ls.arg2
        if ops.tense == "present":
            cur = self.current_position(entity)
            if cur is None:
                return AnswerContent("content", bindings=[], focus="where",
                                     echo=ops, topic=entity)
            return AnswerContent(
                "content", bindings=[_position_value(cur.state)], focus="where",
                echo=ops, topic=entity, support=[cur.index], item_tense=cur.tense)
        entries = self.past_positions(entity)
        return AnswerContent(
            "content", bindings=[_position_value(e.state) for e in entries],
            focus="where", echo=ops, topic=entity,
            support=[e.index for e in entries])

    def _answer_polar(self, ls, ops: OperatorSet) -> AnswerContent:
        if isinstance(ls, State) and ls.pred in _POSITION_PREDS:
            entity = ls.arg2
            cur = self.current_position(entity)
            yes = cur is not None and _same_location(cur.state, ls)
            contrast = None
            support = [cur.index] if cur else []
            if not yes:
                for other in self._located_entities():
                    if referent_matches(other, entity) and referent_matches(entity, other):
                        continue
                    other_cur = self.current_position(other)
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
        for ref in self._located_entities():
            cur = self.current_position(ref)
            if cur is not None and _same_location(cur.state, ls):
                bindings.append(ref)
                support.append(cur.index)
        return AnswerContent("content", bindings=bindings, focus="who",
                             echo=ops, support=support)

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
                             focus="how-many", echo=ops, topic=holder,
                             support=[i for _, i in rows])

    def _answer_holding_list(self, ls: State, ops: OperatorSet) -> AnswerContent:
        holder = ls.arg1
        rows = self.held_now(holder)
        return AnswerContent("list", bindings=[obj for obj, _ in rows],
                             focus="what", echo=ops, topic=holder,
                             support=[i for _, i in rows])

    @staticmethod
    def _is_transfer_query(ls) -> bool:
        return bool(have_events(ls))

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
        return AnswerContent("transfer", bindings=bindings, focus=focus,
                             echo=ops, topic=topic, support=support)


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


def _position_value(state: State) -> State:
    return State(state.pred, state.arg1, UNSPECIFIED)


def _same_location(a: State, b: State) -> bool:
    loc_a, loc_b = a.arg1, b.arg1
    if not (isinstance(loc_a, Referent) and isinstance(loc_b, Referent)):
        return False
    preds_ok = a.pred == b.pred or ANY_POSITION_PRED in (a.pred, b.pred)
    return preds_ok and loc_a.kind == "entity" and loc_b.kind == "entity" \
        and loc_a.sense == loc_b.sense
