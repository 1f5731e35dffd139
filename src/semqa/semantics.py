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

from .errors import SemqaError
from .lexicon import DIMENSIONALITY

POSITION_PREDS = frozenset(DIMENSIONALITY.values())
ANY_POSITION_PRED = "p:be-LOC"
HAVE_PRED = "p:have"


class SemanticsError(SemqaError):
    pass


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Referent:
    """Argument filler: entity, bundle, question slot, or unspecified."""

    kind: str = "entity"               # entity | bundle | query | unspecified
    sense: Optional[str] = None        # an entity's; a count question slot's counted sense
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


def query(focus: str, sense: str | None = None) -> Referent:
    """A question slot; a count question's slot carries its counted sense."""
    return Referent(kind="query", sense=sense, focus=focus)


# -- term variants ------------------------------------------------------

Term = Union["State", "Activity", "Wrapped", "Linked"]
Arg = Union[Referent, "State", "Activity", "Wrapped", "Linked"]


@dataclass(frozen=True, slots=True)
class State:
    """Two-place state, e.g. be-in'(the kitchen, mary) or have'(bill, milk).

    Positional states put the location object in the first slot.
    """

    pred: str
    arg1: Referent
    arg2: Referent = UNSPECIFIED


@dataclass(frozen=True, slots=True)
class Activity:
    """do'(actor, [pred'(actor, undergoer?)]); pred None renders do'(x, 0)."""

    actor: Referent
    pred: Optional[str] = None
    undergoer: Optional[Referent] = None


@dataclass(frozen=True, slots=True)
class Wrapped:
    op: str                            # BECOME | INGR | NOT
    inner: Term

    def __post_init__(self):
        if self.op == "NOT" and isinstance(self.inner, Linked) and self.inner.link == "CAUSE":
            raise SemanticsError("NOT never wraps CAUSE; attach polarity to the have' leaf")


@dataclass(frozen=True, slots=True)
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

def build_state(lexicon, pred: str, arg1: Referent, arg2: Referent = UNSPECIFIED) -> State:
    """State template; positional states take the location first."""
    sense = lexicon.sense(pred)
    if sense.category != "predicate":
        raise SemanticsError(f"{pred!r} is not a predicate sense")
    return State(pred, arg1, arg2)


def position_pred_for(lexicon, location: Referent) -> str:
    """Choose be-in/be-on/be-at from the location's dimensionality class;
    the matcher casts only a question slot or an entity that has one."""
    if location.kind in ("query", "unspecified"):
        return ANY_POSITION_PRED
    return DIMENSIONALITY[lexicon.dimensionality_of(location.sense)]


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
    A sense whose frame names no counterparty (pick up, drop) passes
    counterparty=None; unless causative, its one leaf is BECOME have'
    ("from") or BECOME NOT have' ("to").  The lexicon admits no other
    `dir=` value.
    """
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
    if item.kind != "bundle":    # q is a bundle
        return False
    return {m.sense for m in q.members} == {m.sense for m in item.members}


def _preds_compatible(lexicon, qpred: str, ipred: str) -> bool:
    if qpred == ipred:
        return True
    # a question's unresolved position matches any stored one
    if qpred == ANY_POSITION_PRED and ipred in POSITION_PREDS:
        return True
    return lexicon is not None and lexicon.entails_related(qpred, ipred)


def _bind(bindings: dict, focus: str, value) -> Optional[dict]:
    if focus not in bindings:
        return {**bindings, focus: value}
    prev = bindings[focus]
    return bindings if referent_matches(prev, value) and referent_matches(value, prev) else None


def _match_arg(q: Referent, item: Referent, bindings: dict,
               item_state: Optional[State] = None, slot: int = 0) -> Optional[dict]:
    if q.is_query:
        if q.focus == "where" and item_state is not None and slot == 1:
            # a where-slot binds the whole position, not just the object
            return _bind(bindings, q.focus, State(item_state.pred, item_state.arg1))
        return _bind(bindings, q.focus or "?", item)
    return bindings if referent_matches(q, item) else None


def _unify_sides(lexicon, q: Linked, left: Term, right: Term, bindings: dict) -> Optional[dict]:
    """`_unify` of `q`'s left side with `left`, then of its right with `right`."""
    bindings = _unify(lexicon, q.left, left, bindings)
    return None if bindings is None else _unify(lexicon, q.right, right, bindings)


def _unify(lexicon, q: Term, item: Term, bindings: dict) -> Optional[dict]:
    """`bindings` extended by matching `q` against `item`, or None when
    they do not match; `bindings` itself is never changed."""
    if isinstance(q, State) and isinstance(item, State):
        if not _preds_compatible(lexicon, q.pred, item.pred):
            return None
        bindings = _match_arg(q.arg1, item.arg1, bindings, item, 1)
        return None if bindings is None else _match_arg(q.arg2, item.arg2, bindings, item, 2)
    if isinstance(q, Activity) and isinstance(item, Activity):
        if q.pred is not None and (item.pred is None
                                   or not _preds_compatible(lexicon, q.pred, item.pred)):
            return None
        bindings = _match_arg(q.actor, item.actor, bindings)
        if bindings is None or q.undergoer is None:
            return bindings
        if item.undergoer is None:
            return bindings if q.undergoer.is_query or q.undergoer.kind == "unspecified" \
                else None
        return _match_arg(q.undergoer, item.undergoer, bindings)
    if isinstance(q, Wrapped) and isinstance(item, Wrapped):
        change = {"BECOME", "INGR"}
        if q.op != item.op and not (q.op in change and item.op in change):
            return None
        return _unify(lexicon, q.inner, item.inner, bindings)
    if isinstance(q, Linked) and isinstance(item, Linked) and q.link == item.link:
        found = _unify_sides(lexicon, q, item.left, item.right, bindings)
        if found is None and q.link == "conj":
            # conjunction order is not significant for matching
            found = _unify_sides(lexicon, q, item.right, item.left, bindings)
        return found
    return None


def unify(q: Term, item: Term, lexicon=None) -> Optional[dict]:
    """Structural subsumption of a query term against a stored term.

    Returns a bindings dict (focus -> bound referent or position state) on
    match, else None.  The query may match the whole item or a component
    reached through juncture/CAUSE/conjunction sides and change-of-state
    wrappers; negation is never crossed.
    """
    bindings = _unify(lexicon, q, item, {})
    if bindings is not None:
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


def walk_referents(term: Arg) -> list[Referent]:
    """Every referent in the term, left to right, as a list."""
    found: list[Referent] = []
    _collect_referents(term, found)
    return found


def _collect_referents(term: Arg, found: list[Referent]):
    if isinstance(term, Referent):
        found.append(term)
    elif isinstance(term, State):
        _collect_referents(term.arg1, found)
        _collect_referents(term.arg2, found)
    elif isinstance(term, Activity):
        found.append(term.actor)
        if term.undergoer is not None:
            found.append(term.undergoer)
    elif isinstance(term, Wrapped):
        _collect_referents(term.inner, found)
    elif isinstance(term, Linked):
        _collect_referents(term.left, found)
        _collect_referents(term.right, found)


def antecedents(term: Arg, lexicon) -> tuple[tuple[str, Referent], ...]:
    """The term's antecedent summary: for each agreement class a pronoun
    asks for, the first referent of that class in walk order, as (class,
    referent) pairs in the order the classes are first met.  The classes
    are `plural` (a bundle), `person` (an entity that is an r:person) and
    `male` and `female` (a person with that attribute)."""
    found: dict[str, Referent] = {}
    for ref in walk_referents(term):
        note_antecedent(ref, lexicon, found)
    return tuple(found.items())


def note_antecedent(ref: Referent, lexicon, found: dict):
    """Add one referent, met next in walk order, to the antecedent summary
    being collected in `found` (class -> referent): it fills the classes
    it belongs to that no earlier referent filled."""
    if ref.kind == "bundle":
        found.setdefault("plural", ref)
    elif ref.kind == "entity" and ref.sense is not None \
            and "r:person" in lexicon.is_a_closure(ref.sense):
        found.setdefault("person", ref)
        for gender in ("male", "female"):
            if gender in ref.attributes:
                found.setdefault(gender, ref)


def map_referents(term: Arg, fn) -> Arg:
    """The term with fn applied to every referent.  Only the subterms above
    a changed referent are rebuilt; every other subterm, and the whole term
    when fn changes nothing, is returned as it is."""
    if isinstance(term, Referent):
        return fn(term)
    if isinstance(term, State):
        arg1, arg2 = map_referents(term.arg1, fn), map_referents(term.arg2, fn)
        if arg1 is term.arg1 and arg2 is term.arg2:
            return term
        return State(term.pred, arg1, arg2)
    if isinstance(term, Activity):
        actor = fn(term.actor)
        undergoer = fn(term.undergoer) if term.undergoer is not None else None
        if actor is term.actor and undergoer is term.undergoer:
            return term
        return Activity(actor, term.pred, undergoer)
    if isinstance(term, Wrapped):
        inner = map_referents(term.inner, fn)
        return term if inner is term.inner else Wrapped(term.op, inner)
    left, right = map_referents(term.left, fn), map_referents(term.right, fn)   # Linked
    if left is term.left and right is term.right:
        return term
    return Linked(left, term.link, right)
