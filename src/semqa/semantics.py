"""Logical-structure term algebra.

Propositions are represented as recursive terms in the RRG style: states,
activities, change-of-state wrappers (BECOME/INGR), negation (NOT), and
linked pairs (juncture `&`, CAUSE, conjunction).  Referents fill argument
slots; a referent can be a single entity, a retained conjunction bundle,
a question slot, or the unspecified thing (rendered `0`).

All values here are immutable and freely shareable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

POSITION_PREDS = frozenset({"p:be-in", "p:be-on", "p:be-at"})
ANY_POSITION_PRED = "p:be-LOC"
HAVE_PRED = "p:have"


class SemanticsError(Exception):
    pass


@dataclass(frozen=True)
class OperatorSet:
    """Grammatical operator bundle carried alongside a logical structure."""

    tense: str = "present"
    perfect: bool = False
    progressive: bool = False
    voice: str = "active"              # active | passive
    polarity: str = "positive"         # positive | negative
    force: str = "statement"           # statement | question | imperative
    person: int = 3
    number: str = "singular"           # singular | plural

    def with_(self, **kw) -> "OperatorSet":
        return replace(self, **kw)

    def describe(self) -> str:
        bits = [self.tense]
        if self.perfect:
            bits.append("perfect")
        if self.progressive:
            bits.append("progressive")
        if self.voice == "passive":
            bits.append("passive")
        if self.polarity == "negative":
            bits.append("negative")
        if self.force != "statement":
            bits.append(self.force)
        return ",".join(bits)


@dataclass(frozen=True)
class Referent:
    """Argument filler: entity, bundle, question slot, or unspecified."""

    kind: str = "entity"               # entity | bundle | query | unspecified
    sense: Optional[str] = None
    members: tuple["Referent", ...] = ()
    focus: Optional[str] = None        # who | what | where | how-many
    attributes: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.kind == "bundle":
            if len(self.members) < 2 or any(m.kind != "entity" for m in self.members):
                raise SemanticsError("bundle needs at least two entity members")
        if self.kind == "unspecified" and self.attributes:
            raise SemanticsError("unspecified referent carries no attributes")

    @property
    def is_query(self) -> bool:
        return self.kind == "query"

    def has(self, attr: str) -> bool:
        return attr in self.attributes

    def head(self) -> str:
        if self.kind == "unspecified":
            return "0"
        if self.kind == "bundle":
            return " and ".join(m.head() for m in self.members)
        if self.kind == "query":
            return (self.focus or "?").capitalize()
        _, _, tail = (self.sense or "?").partition(":")
        return tail or self.sense or "?"

    def render(self) -> str:
        if self.kind == "entity" and "definite" in self.attributes:
            return f"the {self.head()}"
        return self.head()


UNSPECIFIED = Referent(kind="unspecified")


def entity(sense: str, *attrs: str) -> Referent:
    return Referent(kind="entity", sense=sense, attributes=frozenset(attrs))


def bundle(*members: Referent) -> Referent:
    return Referent(kind="bundle", members=tuple(members),
                    attributes=frozenset({"plural"}))


def query(focus: str, *attrs: str) -> Referent:
    return Referent(kind="query", focus=focus, attributes=frozenset(attrs))


# -- term variants ------------------------------------------------------

Term = Union["State", "Activity", "Wrapped", "Linked"]
Arg = Union[Referent, "State", "Activity", "Wrapped", "Linked"]


@dataclass(frozen=True)
class State:
    """Two-place state, e.g. be-in'(the kitchen, mary) or have'(bill, milk).

    Positional states put the location object in the first slot.
    """

    pred: str
    arg1: Arg
    arg2: Arg = UNSPECIFIED


@dataclass(frozen=True)
class Activity:
    """do'(actor, [pred'(actor, undergoer?)]); pred None renders do'(x, 0)."""

    actor: Referent
    pred: Optional[str] = None
    undergoer: Optional[Referent] = None


@dataclass(frozen=True)
class Wrapped:
    op: str                            # BECOME | INGR | NOT
    inner: Term

    def __post_init__(self):
        if self.op == "NOT" and isinstance(self.inner, Linked) and self.inner.link == "CAUSE":
            raise SemanticsError("NOT never wraps CAUSE; attach polarity to the have' leaf")


@dataclass(frozen=True)
class Linked:
    left: Term
    link: str                          # "&" (juncture) | "CAUSE" | "conj" (rendered with the logical-and sign)
    right: Term

    def __post_init__(self):
        if self.link == "CAUSE" and not isinstance(self.left, Activity):
            raise SemanticsError("a CAUSE left side must be an activity")


LogicalStructure = Term

def pred_name(pred: str, lexicon=None) -> str:
    """The lexicon's print name for a predicate sense (e.g. p:eat-chew ->
    eat); without a lexicon, or for an unknown sense, the id's tail."""
    sense = lexicon.senses.get(pred) if lexicon is not None else None
    if sense is not None:
        return sense.print_name
    _, _, tail = pred.partition(":")
    return tail or pred


def render(term: Arg, lexicon=None) -> str:
    """Canonical text form, e.g.
    do'(mary,[go'(mary)]) & INGR be-in'(the kitchen,mary).
    Predicate names come from `lexicon` when one is given."""
    if isinstance(term, Referent):
        return term.render()
    if isinstance(term, State):
        return (f"{pred_name(term.pred, lexicon)}'({render(term.arg1, lexicon)},"
                f"{render(term.arg2, lexicon)})")
    if isinstance(term, Activity):
        actor = render(term.actor)
        if term.pred is None:
            return f"do'({actor},0)"
        name = pred_name(term.pred, lexicon)
        if term.undergoer is not None:
            return f"do'({actor},[{name}'({actor},{render(term.undergoer)})])"
        return f"do'({actor},[{name}'({actor})])"
    if isinstance(term, Wrapped):
        return f"{term.op} {render(term.inner, lexicon)}"
    if isinstance(term, Linked):
        left, right = render(term.left, lexicon), render(term.right, lexicon)
        if term.link == "CAUSE":
            return f"[{left}] CAUSE [{right}]"
        if term.link == "conj":
            return f"{left} ∧ {right}"
        return f"{left} & {right}"
    raise SemanticsError(f"cannot render {term!r}")


# -- construction templates ---------------------------------------------

def build_state(lexicon, pred: str, arg1: Arg, arg2: Arg = UNSPECIFIED) -> State:
    """State template; positional states take the location first."""
    sense = lexicon.sense(pred)
    if sense.category != "predicate":
        raise SemanticsError(f"{pred!r} is not a predicate sense")
    return State(pred, arg1, arg2)


def position_pred_for(lexicon, location: Referent) -> str:
    """Choose be-in/be-on/be-at from the location's dimensionality class."""
    if location.kind in ("query", "unspecified"):
        return ANY_POSITION_PRED
    if location.kind != "entity" or location.sense is None:
        raise SemanticsError("destination must be an entity referent")
    dim = lexicon.dimensionality_of(location.sense)
    if dim is None:
        raise SemanticsError(
            f"{location.sense!r} lacks a dimensionality class (lexicon gap)")
    return {"enclosure": "p:be-in", "surface": "p:be-on", "locale": "p:be-at"}[dim]


def build_active_achievement(lexicon, actor: Referent, motion_pred: str,
                             destination: Referent) -> Linked:
    """Motion + result state: do'(x,[go'(x)]) & INGR be-in'(dest, x)."""
    base = lexicon.entails_base(motion_pred)
    state_pred = position_pred_for(lexicon, destination)
    return Linked(
        Activity(actor, base),
        "&",
        Wrapped("INGR", State(state_pred, destination, actor)),
    )


def have_leaf(holder: Referent, obj: Referent, positive: bool) -> Wrapped:
    core: Term = State(HAVE_PRED, holder, obj)
    if not positive:
        core = Wrapped("NOT", core)
    return Wrapped("BECOME", core)


def build_transfer(subject: Referent, obj: Referent,
                   counterparty: Optional[Referent],
                   causative: bool, direction: str) -> Term:
    """Possession-change templates.

    direction "to":   subject loses, counterparty gains (give-type)
    direction "from": subject gains, counterparty loses (take/get-type)
    2-role rows pass counterparty=None with direction giving the polarity
    of the single leaf ("to" = release, "from" = acquire).
    """
    if direction not in ("to", "from"):
        raise SemanticsError(f"bad transfer direction {direction!r}")
    if obj is None:
        raise SemanticsError("transfer requires an object")
    subject_leaf = have_leaf(subject, obj, positive=(direction == "from"))
    if counterparty is not None and counterparty.kind != "unspecified":
        other_leaf = have_leaf(counterparty, obj, positive=(direction == "to"))
        effect: Term = Linked(subject_leaf, "conj", other_leaf)
    elif causative and direction == "to":
        # giver with unexpressed recipient: keep the open gain slot
        effect = Linked(subject_leaf, "conj", have_leaf(UNSPECIFIED, obj, True))
    else:
        effect = subject_leaf
    if causative:
        return Linked(Activity(subject, None), "CAUSE", effect)
    return effect


# -- matching -----------------------------------------------------------

def referent_matches(q: Referent, item: Referent) -> bool:
    """Query referent matches an item referent.

    Equal entities match; an entity matches a bundle containing it; query
    and unspecified referents match anything.
    """
    if q.kind in ("query", "unspecified"):
        return True
    if q.kind == "entity":
        if item.kind == "entity":
            return q.sense == item.sense
        if item.kind == "bundle":
            return any(q.sense == m.sense for m in item.members)
        return False
    if q.kind == "bundle":
        if item.kind != "bundle":
            return False
        return {m.sense for m in q.members} == {m.sense for m in item.members}
    return False


def _preds_compatible(lexicon, qpred: str, ipred: str) -> bool:
    if qpred == ipred:
        return True
    if qpred == ANY_POSITION_PRED and ipred in POSITION_PREDS:
        return True
    if ipred == ANY_POSITION_PRED and qpred in POSITION_PREDS:
        return True
    if lexicon is not None:
        try:
            return lexicon.entails_related(qpred, ipred)
        except Exception:
            return False
    return False


def _bind(bindings: dict, focus: str, value) -> bool:
    if focus in bindings:
        prev = bindings[focus]
        if isinstance(prev, Referent) and isinstance(value, Referent):
            return referent_matches(prev, value) and referent_matches(value, prev)
        return prev == value
    bindings[focus] = value
    return True


def _match_arg(lexicon, q: Arg, item: Arg, bindings: dict,
               item_state: Optional[State] = None, slot: int = 0) -> bool:
    if isinstance(q, Referent) and isinstance(item, Referent):
        if q.is_query:
            if q.focus == "where" and item_state is not None and slot == 1:
                # a where-slot binds the whole position, not just the object
                value: Arg = State(item_state.pred, item_state.arg1, UNSPECIFIED)
            else:
                value = item
            return _bind(bindings, q.focus or "?", value)
        return referent_matches(q, item)
    if isinstance(q, Referent) and not isinstance(item, Referent):
        return q.kind in ("query", "unspecified")
    if not isinstance(q, Referent) and isinstance(item, Referent):
        return False
    return _unify(lexicon, q, item, bindings)


def _unify(lexicon, q: Term, item: Term, bindings: dict) -> bool:
    if isinstance(q, State) and isinstance(item, State):
        if not _preds_compatible(lexicon, q.pred, item.pred):
            return False
        trial = dict(bindings)
        if (_match_arg(lexicon, q.arg1, item.arg1, trial, item, 1)
                and _match_arg(lexicon, q.arg2, item.arg2, trial, item, 2)):
            bindings.clear()
            bindings.update(trial)
            return True
        return False
    if isinstance(q, Activity) and isinstance(item, Activity):
        if q.pred is not None and item.pred is not None:
            if not _preds_compatible(lexicon, q.pred, item.pred):
                return False
        if q.pred is not None and item.pred is None:
            return False
        trial = dict(bindings)
        if not _match_arg(lexicon, q.actor, item.actor, trial):
            return False
        if q.undergoer is not None:
            if item.undergoer is None:
                if not q.undergoer.is_query and q.undergoer.kind != "unspecified":
                    return False
            elif not _match_arg(lexicon, q.undergoer, item.undergoer, trial):
                return False
        bindings.clear()
        bindings.update(trial)
        return True
    if isinstance(q, Wrapped) and isinstance(item, Wrapped):
        change = {"BECOME", "INGR"}
        if q.op != item.op and not (q.op in change and item.op in change):
            return False
        return _unify(lexicon, q.inner, item.inner, bindings)
    if isinstance(q, Linked) and isinstance(item, Linked):
        if q.link != item.link:
            return False
        trial = dict(bindings)
        if (_unify(lexicon, q.left, item.left, trial)
                and _unify(lexicon, q.right, item.right, trial)):
            bindings.clear()
            bindings.update(trial)
            return True
        if q.link == "conj":
            # conjunction order is not significant for matching
            trial = dict(bindings)
            if (_unify(lexicon, q.left, item.right, trial)
                    and _unify(lexicon, q.right, item.left, trial)):
                bindings.clear()
                bindings.update(trial)
                return True
        return False
    return False


def unify(q: Term, item: Term, lexicon=None) -> Optional[dict]:
    """Structural subsumption of a query term against a stored term.

    Returns a bindings dict (focus -> bound referent or position state) on
    match, else None.  The query may match the whole item or a component
    reached through juncture/CAUSE/conjunction sides and change-of-state
    wrappers; negation is never crossed.
    """
    bindings: dict = {}
    if _unify(lexicon, q, item, bindings):
        return bindings
    # descend into components of the item
    if isinstance(item, Linked):
        for side in (item.left, item.right):
            result = unify(q, side, lexicon)
            if result is not None:
                return result
    elif isinstance(item, Wrapped) and item.op in ("BECOME", "INGR"):
        return unify(q, item.inner, lexicon)
    return None


def walk_referents(term: Arg):
    """Yield every referent in the term, left to right."""
    if isinstance(term, Referent):
        yield term
    elif isinstance(term, State):
        yield from walk_referents(term.arg1)
        yield from walk_referents(term.arg2)
    elif isinstance(term, Activity):
        yield term.actor
        if term.undergoer is not None:
            yield term.undergoer
    elif isinstance(term, Wrapped):
        yield from walk_referents(term.inner)
    elif isinstance(term, Linked):
        yield from walk_referents(term.left)
        yield from walk_referents(term.right)


def map_referents(term: Arg, fn) -> Arg:
    """Rebuild the term with fn applied to every referent."""
    if isinstance(term, Referent):
        return fn(term)
    if isinstance(term, State):
        return State(term.pred, map_referents(term.arg1, fn), map_referents(term.arg2, fn))
    if isinstance(term, Activity):
        undergoer = fn(term.undergoer) if term.undergoer is not None else None
        return Activity(fn(term.actor), term.pred, undergoer)
    if isinstance(term, Wrapped):
        return Wrapped(term.op, map_referents(term.inner, fn))
    if isinstance(term, Linked):
        return Linked(map_referents(term.left, fn), term.link,
                      map_referents(term.right, fn))
    return term
