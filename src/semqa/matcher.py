"""Sentence matcher: tokens -> phrase consolidation -> logical structures.

There is no parse tree and no part-of-speech tagging.  Tokens link to
candidate word senses; literal and consolidation phrase records are
applied to a fixpoint, merging adjacent elements into labelled sets.
Predication then converts the consolidated clause into a disambiguated
logical structure: each candidate sense of the main predicate is cast
through the template its `vc=` attribute names, enforcing the
completeness constraint and selecting word senses by selectional fit
(with a qualia retry for associations like car has-a engine).

The matcher applies the lexicon's `PhraseRecord`s as they stand: the
loader has already parsed every selector into a `Selector` record and
checked its values, the retain indices and termination, every `vc=`
template name, and a selectional frame for every frame-driven template,
so no record format is read here and none of these is checked again.

Matching is compiled per form, in the manner of Rete's alpha memories
(Forgy, *Artificial Intelligence* 19, 1982).  The first time a token is
seen the matcher builds its `Form`: the candidate senses, their ids and
universals, the merged attributes, the senses its referent senses reach
via is-a, and the consolidations whose first selector an element of that
form meets (its openers).  A consolidated element gets its openers when
it is made.  A selector is then a handful of set tests on an element's
fields, and a window is tried only where its first element opens it.

Each fixpoint round fires the first consolidation, in lexicon order, at
the lowest position where its window matches, and the next round resumes
`longest window - 1` positions before that firing point instead of at 0.
This fires exactly what the plain loop does (rebuild the candidates whose
trigger is present, rescan from 0; `tests/test_fixpoint.py` keeps it):

* the trigger filter changes nothing: the loader requires each
  consolidation's trigger to be named by a `sense=` or `attr=` condition
  of one of its selectors, so a record whose trigger is absent from the
  element set matches nowhere;
* a window that ends before the firing point holds only elements the
  firing left alone, and every consolidation already failed on it in an
  earlier round.

A parse depends only on the text and the matcher: the lexicon is
read-only, pronouns stay unresolved until the context ingests the
sentence, and every result is frozen.  So each matcher caches its
successful parses by text (at most `PARSE_CACHE_SIZE`, oldest evicted
first).  It also keeps one copy of each equal entity referent, logical
structure and operator set it builds, so cached parses of different
texts share them; that table starts over when it reaches the same size.
Failures are not cached; they are raised again on every call.
Concurrent callers may share a matcher: the tables only ever map a key
to an equal value, and eviction tolerates a racing caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import SemqaError
from .lexicon import Lexicon, PhraseRecord, SelectionalFrame, Selector, attr_value
from .semantics import (
    Activity,
    OperatorSet,
    Referent,
    State,
    UNSPECIFIED,
    Wrapped,
    build_active_achievement,
    build_state,
    build_transfer,
    bundle,
    entity,
    query,
)


# successful parses kept per matcher; bAbI stories repeat their sentences
PARSE_CACHE_SIZE = 4096


class MatchError(SemqaError):
    """Base failure while converting a sentence to logical structures."""


class UnknownWordError(MatchError):
    def __init__(self, token: str, position: int):
        super().__init__(f"unknown word {token!r} at position {position}")
        self.token = token
        self.position = position


class MeaninglessError(MatchError):
    """No word sense survives selection; the sentence is left as meaningless."""


class CompletenessError(MatchError):
    """A referent was not consumed, or a required role went unfilled."""


class OperatorChainError(MatchError):
    """Auxiliary sequence cannot be resolved to a consistent operator set."""


class AmbiguousMatchError(MatchError):
    def __init__(self, readings):
        super().__init__(f"{len(readings)} distinct readings survived")
        self.readings = readings


ROLE_LABELS = frozenset({"destination", "recipient", "source", "agent", "position"})
_REFERENT = frozenset({"referent"})
# what an entity referent keeps of its element's ops and attributes
_KEPT_OPS = frozenset({"definite", "indefinite"})
_KEPT_ATTRIBUTES = frozenset({"singular", "plural", "male", "female", "neuter", "proper",
                              "pronoun"})
_COMPLETE_REFERENT = frozenset({"proper", "consolidated", "pronoun", "query"})

_CONTRACTIONS = {
    "won't": ("will", "not"),
    "can't": ("can", "not"),
    "shan't": ("shall", "not"),
}


@dataclass(frozen=True, slots=True)
class Form:
    """What every element of one token (or of one literal's emitted
    sense) starts from, built once per matcher: the candidate senses in
    lexicon order, their ids and universals, the merged attributes, every
    sense a referent sense among them reaches via is-a, and the
    consolidations whose first selector such an element meets."""

    senses: tuple[tuple[str, frozenset[str]], ...]
    ids: frozenset[str]
    cats: frozenset[str]
    attributes: frozenset[str]
    reach: frozenset[str]
    openers: tuple[PhraseRecord, ...]


@dataclass(slots=True)
class Element:
    """One matched constituent: labels, merged attributes, candidate senses.

    `senses`, `ids`, `cats` and `reach` are shared with the element's
    `Form` (or, for a bundle, derived from its members) and never change;
    labels, attributes and ops grow as phrases consolidate."""

    surface: str
    senses: tuple[tuple[str, frozenset[str]], ...] = ()
    ids: frozenset[str] = frozenset()
    cats: frozenset[str] = frozenset()
    reach: frozenset[str] = frozenset()
    labels: set[str] = field(default_factory=set)
    attributes: set[str] = field(default_factory=set)
    ops: set[str] = field(default_factory=set)
    constituents: list["Element"] = field(default_factory=list)
    bundle_members: list["Element"] = field(default_factory=list)
    # consolidations whose first selector this element meets
    openers: tuple[PhraseRecord, ...] = ()
    # filled by predication, once the element set has stopped changing
    referent: Referent | None = None

    @classmethod
    def of(cls, surface: str, form: Form) -> "Element":
        return cls(surface, form.senses, form.ids, form.cats, form.reach,
                   attributes=set(form.attributes), openers=form.openers)

    def copy(self) -> "Element":
        return Element(self.surface, self.senses, self.ids, self.cats, self.reach,
                       set(self.labels), set(self.attributes), set(self.ops),
                       list(self.constituents), list(self.bundle_members), self.openers)

    def attr(self, key: str):
        return attr_value(self.attributes, key)

    def is_referent(self) -> bool:
        return "referent" in self.cats

    def is_complete_referent(self) -> bool:
        return ("referent" in self.cats
                and not _COMPLETE_REFERENT.isdisjoint(self.attributes))

    def is_query(self) -> bool:
        return "query" in self.attributes

    def is_vacuous(self, lexicon: Lexicon) -> bool:
        if "consumed" in self.attributes:
            return True
        if not self.senses:
            return False
        return all(lexicon.sense(s).category == "modifier"
                   and "vacuous" in lexicon.sense(s).attributes
                   for s, _ in self.senses)


@dataclass(frozen=True, slots=True)
class Proposition:
    """One ingestible unit: logical structure + operators + hoisted clauses."""

    ls: object
    operators: OperatorSet
    embedded: tuple["Proposition", ...] = ()
    source: str = ""


def _selector_matches(sel: Selector, el: Element) -> bool:
    attrs = el.attributes
    return ((sel.word is None or sel.word == el.surface)
            and sel.senses <= el.ids and sel.not_senses.isdisjoint(el.ids)
            and sel.cats <= el.cats and sel.reach <= el.reach
            and sel.attrs <= attrs and sel.not_attrs.isdisjoint(attrs)
            and (not sel.any_of or all(not group.isdisjoint(attrs) for group in sel.any_of)))


def tokenize(text: str) -> tuple[list[str], str]:
    """Lowercased word tokens plus an illocutionary-force hint from the
    terminal punctuation (? -> question, otherwise statement)."""
    text = text.strip()
    hint = "statement"
    if text.endswith("?"):
        hint = "question"
    tokens = []
    for raw in text.lower().split():
        word = raw.strip(".,?!;:")
        if not word:
            continue
        if word in _CONTRACTIONS:
            tokens.extend(_CONTRACTIONS[word])
        elif word.endswith("n't"):
            tokens.extend([word[:-3], "not"])
        else:
            tokens.append(word)
    return tokens, hint


class Matcher:
    """The lexicon's phrase records compiled for matching: literals indexed
    by trigger word, consolidations listed on each form or element whose
    first selector they open."""

    def __init__(self, lexicon: Lexicon, strict_take: bool = False):
        self.lexicon = lexicon
        self.strict_take = strict_take
        records = lexicon.phrase_records
        self.consolidations = [p for p in records if p.kind == "consolidation"]
        # (a sense or attribute the first selector requires, or None; record):
        # a membership test that rules most records out before the full one
        self._anchored = [(min(p.selectors[0].senses | p.selectors[0].attrs, default=None), p)
                          for p in self.consolidations]
        # positions before a firing point at which a window reaching it starts
        self._reach_back = max((len(p.selectors) for p in self.consolidations), default=1) - 1
        # trigger word -> (word sequence, emitted sense) per literal, in lexicon order
        self._literals: dict[str, list[tuple[list[str], str]]] = {}
        for p in records:
            if p.kind == "literal":
                self._literals.setdefault(p.trigger, []).append(
                    ([sel.word for sel in p.selectors], p.emit))
        # token, or a literal's words joined by spaces -> its form, built on
        # first sight (a token holds no space, so the two never collide)
        self._forms: dict[str, Form] = {}
        # predicate sense -> (template, frame), or None without vc=; filled on first use
        self._templates: dict[str, tuple[str, SelectionalFrame | None] | None] = {}
        # text -> propositions, in insertion order for FIFO eviction
        self._parses: dict[str, tuple[Proposition, ...]] = {}
        # term -> the equal term cached parses share
        self._terms: dict = {}

    # -- element construction -------------------------------------------

    def _new_form(self, surface: str, senses, position: int) -> Form:
        """Build and keep the form of `surface`, whose candidate senses
        are `senses`; a token with none is an unknown word."""
        if not senses:
            raise UnknownWordError(surface, position)
        lex = self.lexicon
        attributes: set[str] = set()
        reach: set[str] = set()
        for sense_id, link_attrs in senses:
            sense = lex.sense(sense_id)
            attributes |= link_attrs
            attributes |= sense.attributes
            if sense.category == "referent":
                reach |= lex.is_a_closure(sense_id)
        probe = Element(surface, tuple(senses), frozenset(s for s, _ in senses),
                        frozenset(lex.sense(s).category for s, _ in senses),
                        frozenset(reach), attributes=attributes)
        form = Form(probe.senses, probe.ids, probe.cats, frozenset(attributes), probe.reach,
                    self._openers(probe))
        return self._forms.setdefault(surface, form)

    def _openers(self, el: Element) -> tuple[PhraseRecord, ...]:
        """Consolidations, in lexicon order, whose first selector `el` meets."""
        ids, attrs = el.ids, el.attributes
        return tuple(p for anchor, p in self._anchored
                     if (anchor is None or anchor in ids or anchor in attrs)
                     and _selector_matches(p.selectors[0], el))

    def _apply_literals(self, tokens: list[str]) -> list[Element]:
        """Claim literal word sequences first; they cannot be built up later."""
        out: list[Element] = []
        i = 0
        forms = self._forms
        while i < len(tokens):
            token = tokens[i]
            for words, emit in self._literals.get(token, ()):
                if tokens[i:i + len(words)] == words:
                    surface = " ".join(words)
                    form = forms.get(surface) or self._new_form(
                        surface, [(emit, frozenset())], i)
                    i += len(words)
                    break
            else:
                surface = token
                form = forms.get(token) or self._new_form(
                    token, self.lexicon.senses_of(token), i)
                i += 1
            out.append(Element.of(surface, form))
        return out

    # -- consolidation fixpoint ------------------------------------------

    def _fire_first(self, elements: list[Element], start: int) -> int | None:
        """Fire, at the lowest position from `start` on, the first
        consolidation in lexicon order whose window matches there; returns
        that position, or None when nothing matches."""
        n = len(elements)
        for at in range(start, n):
            for pat in elements[at].openers:
                sels = pat.selectors
                end = at + len(sels)
                if end <= n and all(map(_selector_matches, sels[1:], elements[at + 1:end])):
                    elements[at:end] = self._consolidate(pat, elements[at:end])
                    return at
        return None

    def _consolidate(self, pat: PhraseRecord, window: list[Element]) -> list[Element]:
        if pat.retain == "bundle":
            members = []
            for w in window:
                if w.is_referent():
                    members.extend(w.bundle_members or [w])
            # a bundle is a referent that reaches what every member reaches
            result = Element(" and ".join(w.surface for w in window),
                             cats=_REFERENT if members else frozenset(),
                             reach=frozenset.intersection(*[m.reach for m in members])
                             if members else frozenset(),
                             attributes={"plural", "bundle"}, bundle_members=members)
        else:
            result = window[pat.retain - 1].copy()
        floats = []
        for idx, w in enumerate(window, start=1):
            if idx in pat.float_indices:
                floats.append(w)
                continue
            if pat.retain != "bundle" and idx == pat.retain:
                continue
            result.constituents.append(w)
            result.ops |= w.ops
            for a in w.attributes:
                if a.startswith("op="):
                    result.ops.add(a[3:])
        for idx, label in pat.labels:
            if idx == pat.retain:
                result.labels.add(label)
            else:
                window[idx - 1].labels.add(label)
        result.ops |= set(pat.ops)
        new_attrs = set(pat.attrs)
        if "chain" in new_attrs:
            new_attrs.discard("chain")
            left = window[0]
            locked = left.attr("tense")
            if locked is None:
                if "past" in left.attributes:
                    locked = "past"
                elif {"present", "3sg", "1sg", "plural", "base"} & left.attributes:
                    locked = "present"
            if locked and result.attr("tense") is None:
                new_attrs.add(f"tense={locked}")
        result.attributes |= new_attrs
        result.openers = self._openers(result)
        return [result] + floats

    def match_phrases(self, tokens: list[str]) -> list[Element]:
        """Apply literal then consolidation patterns until no pattern fires."""
        elements = self._apply_literals(tokens)
        start = 0
        # bound: every firing strictly reduces the element count
        for _ in range(len(tokens) * (len(self.consolidations) + 1) + 1):
            at = self._fire_first(elements, start)
            if at is None:
                return elements
            start = max(0, at - self._reach_back)
        raise MatchError("consolidation did not reach a fixpoint")

    # -- operator extraction ----------------------------------------------

    def _main_candidates(self, elements: list[Element]) -> list[Element]:
        out = []
        for el in elements:
            if "consumed" in el.attributes:
                continue
            if any(a.startswith("vc=") for a in el.attributes):
                out.append(el)
        return out

    def _reunite_fronted_aux(self, elements: list[Element]):
        """Subject-auxiliary inversion and do-support questions split the
        auxiliary from its verb; re-apply the chain rule non-adjacently."""
        for i, aux in enumerate(elements):
            if "consumed" in aux.attributes or "aux" not in aux.attributes:
                continue
            pairs = []
            ids = aux.ids
            if "p:do" in ids:
                pairs.append(("base", None))
            if "p:be" in ids:
                pairs.append(("present-participle", "progressive"))
                pairs.append(("past-participle", "passive"))
            if "p:have" in ids:
                pairs.append(("past-participle", "perfect"))
            if "m:will" in ids:
                pairs.append(("base", None))
            if not pairs:
                continue
            seen_ref = False
            for verb in elements[i + 1:]:
                if verb.is_referent() and not verb.is_query():
                    seen_ref = True
                    continue
                if not seen_ref:
                    continue
                if "predicate" not in verb.cats:
                    continue
                for attr_needed, op in pairs:
                    if attr_needed in verb.attributes and "p:do" not in verb.ids:
                        if verb is aux:
                            continue
                        if op:
                            verb.ops.add(op)
                        verb.ops |= aux.ops
                        if "past" in aux.attributes:
                            verb.attributes.add("tense=past")
                        elif {"present", "3sg", "1sg", "plural"} & aux.attributes:
                            verb.attributes.add("tense=present")
                        aux.attributes.add("consumed")
                        return
                break

    def extract_operators(self, elements: list[Element],
                          if_hint: str = "statement") -> OperatorSet:
        """Resolve tense/aspect/voice/polarity/force from the verb group."""
        if if_hint == "question":
            self._reunite_fronted_aux(elements)
        mains = self._main_candidates(elements)
        if not mains:
            return OperatorSet(force=if_hint)
        verb = mains[0]
        leftover_aux = [
            el for el in elements
            if el is not verb
            and "consumed" not in el.attributes
            and "aux" in el.attributes
            and not any(a.startswith("vc=") for a in el.attributes)]
        if leftover_aux:
            raise OperatorChainError(
                f"auxiliary {leftover_aux[0].surface!r} could not join a verb group")
        ops = verb.ops
        tense = "future" if "future" in ops else verb.attr("tense")
        if tense is None:
            if "past" in verb.attributes:
                tense = "past"
            elif {"present", "3sg", "1sg", "plural", "base"} & verb.attributes:
                tense = "present"
            else:
                raise OperatorChainError(
                    f"{verb.surface!r} has no finite tense and no auxiliary")
        number = "plural" if "plural" in verb.attributes else "singular"
        return OperatorSet(
            tense=tense,
            perfect="perfect" in ops,
            progressive="progressive" in ops,
            voice="passive" if "passive" in ops else "active",
            polarity="negative" if "negative" in ops else "positive",
            force=if_hint,
            number=number,
        )

    # -- predication -------------------------------------------------------

    def _referent_of(self, el: Element) -> Referent:
        """The element's referent, built on first use; predication runs
        after the last change to the element set."""
        if el.referent is None:
            el.referent = self._build_referent(el)
        return el.referent

    def _build_referent(self, el: Element) -> Referent:
        if el.bundle_members:
            return bundle(*[self._referent_of(m) for m in el.bundle_members])
        if el.is_query():
            focus = None
            for s, _ in el.senses:
                focus = self.lexicon.sense(s).attr("focus") or focus
            counted = None
            if "counted" in el.attributes:
                for c in el.constituents:
                    for s, _ in c.senses:
                        if self.lexicon.sense(s).category == "referent":
                            counted = s
            attrs = {"query"}
            if counted:
                attrs.add(f"counted={counted}")
            return query(focus or "what", *attrs)
        ref_senses = [s for s, _ in el.senses
                      if self.lexicon.sense(s).category == "referent"]
        attrs = _KEPT_OPS.intersection(el.ops) | _KEPT_ATTRIBUTES.intersection(el.attributes)
        return self._shared(entity(ref_senses[0], *attrs))

    def _template_of(self, sense_id: str) -> tuple[str, SelectionalFrame | None] | None:
        """(template, selectional frame) of a predicate sense, or None when
        it has no `vc=` attribute."""
        try:
            return self._templates[sense_id]
        except KeyError:
            vc = self.lexicon.sense(sense_id).attr("vc")
            entry = None if vc is None else (vc, self.lexicon.frame_for(sense_id))
            return self._templates.setdefault(sense_id, entry)

    def _shared(self, term):
        """The matcher's one copy of each equal term, so cached parses of
        different texts share their referents, structures and operators."""
        if len(self._terms) >= PARSE_CACHE_SIZE:
            self._terms.clear()     # stays bounded; sharing starts over
        return self._terms.setdefault(term, term)

    def _fits(self, ref: Referent, category: str) -> tuple[bool, bool]:
        """(fits, used_qualia) for a referent against a role category."""
        if ref.kind in ("query", "unspecified"):
            if ref.focus == "who":
                return (self.lexicon.holds_category("r:person", category)
                        or self.lexicon.holds_category(category, "r:person"), False)
            return True, False
        if ref.kind == "bundle":
            results = [self._fits(m, category) for m in ref.members]
            return all(f for f, _ in results), any(q for _, q in results)
        if ref.has("pronoun"):
            return True, False
        if self.lexicon.holds_category(ref.sense, category):
            return True, False
        for assoc, _kind in self.lexicon.qualia_expand(ref.sense):
            if self.lexicon.sense(assoc).category == "referent" \
                    and self.lexicon.holds_category(assoc, category):
                return True, True
        return False, False

    def _clause_parts(self, elements: list[Element], verb: Element):
        """The verb's role-labelled elements, and the plain complete
        referents before and after it; the same for every sense tried."""
        idx = elements.index(verb)
        labeled: dict[str, Element] = {}
        for el in elements:
            if el is verb:
                continue
            for label in el.labels:
                if label in ROLE_LABELS:
                    labeled[label] = el
        def plain_refs(seq):
            return [el for el in seq
                    if el.is_complete_referent() and el.labels.isdisjoint(ROLE_LABELS)]
        return labeled, plain_refs(elements[:idx]), plain_refs(elements[idx + 1:])

    def _leftover_ok(self, el: Element, consumed: set[int], ops: OperatorSet,
                     roles: dict) -> bool:
        if id(el) in consumed or "consumed" in el.attributes:
            return True
        if el.is_vacuous(self.lexicon):
            return True
        # a stranded `to` is fine when a fronted question word filled its role
        if "p:to" in el.ids and ops.force == "question":
            for role in ("recipient", "destination"):
                filler = roles.get(role)
                if isinstance(filler, Referent) and filler.is_query:
                    return True
        return False

    def _cast_sense(self, sense_id: str, verb: Element, elements: list[Element],
                    ops: OperatorSet, parts):
        lex = self.lexicon
        sense = lex.sense(sense_id)
        template, frame = self._template_of(sense_id)
        labeled, pre_refs, post_refs = parts
        consumed: set[int] = set()
        roles: dict[str, Referent] = {}
        used_elements: dict[str, Element] = {}

        def consume(role: str, el: Element):
            roles[role] = self._referent_of(el)
            used_elements[role] = el
            consumed.add(id(el))

        subject = pre_refs[-1] if pre_refs else None

        if template == "be-state":
            located = None
            for el in pre_refs + post_refs:
                if not el.is_query():
                    located = el
                    break
            if located is None:
                # "Who is in the kitchen?" locates the question slot itself
                for el in pre_refs + post_refs:
                    if el.is_query() and self._referent_of(el).focus != "where":
                        located = el
                        break
            if located is None:
                raise CompletenessError("no referent to locate")
            consume("located", located)
            pos_el = labeled.get("position")
            where_el = next((el for el in pre_refs + post_refs
                             if el.is_query() and "where" == self._referent_of(el).focus),
                            None)
            if pos_el is not None:
                consume("position", pos_el)
                state_pred = pos_el.attr("pos") or "p:be-LOC"
                ls = build_state(lex, state_pred, self._referent_of(pos_el),
                                 roles["located"])
            elif where_el is not None:
                consume("position", where_el)
                ls = build_state(lex, "p:be-LOC", roles["position"], roles["located"])
            else:
                raise MeaninglessError("copula clause has no position to predicate")
            return ls, roles, consumed, False

        if template == "have-state":
            holder = None
            for el in pre_refs + post_refs:
                if not el.is_query():
                    holder = el
                    break
            if holder is None:
                raise CompletenessError("no holder referent")
            consume("actor", holder)
            pool = [el for el in pre_refs + post_refs if id(el) not in consumed]
            if not pool:
                raise CompletenessError("have state needs an object")
            consume("undergoer", pool[0])
            ok, _ = self._fits(roles["undergoer"], "r:thing")
            if not ok:
                raise MeaninglessError("object does not fit possession")
            ls = build_state(lex, "p:have", roles["actor"], roles["undergoer"])
            return ls, roles, consumed, False

        # frame-driven linking for motion / transfer / acquire / release / activity;
        # the loader guarantees these senses a frame
        open_roles = [r.name for r in frame.roles]
        qualia_used = False

        if ops.voice == "passive":
            if "agent" in labeled and "actor" in open_roles:
                consume("actor", labeled["agent"])
                open_roles.remove("actor")
            elif "actor" in open_roles:
                roles["actor"] = UNSPECIFIED
                open_roles.remove("actor")
        else:
            if subject is not None and "actor" in open_roles:
                consume("actor", subject)
                open_roles.remove("actor")

        for label in ("destination", "recipient", "source"):
            if label in labeled and label in open_roles:
                consume(label, labeled[label])
                open_roles.remove(label)

        pool = [el for el in pre_refs + post_refs if id(el) not in consumed]
        if ops.voice == "passive" and subject is not None and id(subject) not in consumed:
            # promoted subject: an inner object wins the undergoer slot if present
            post_pool = [el for el in post_refs if id(el) not in consumed]
            if post_pool and "undergoer" in open_roles:
                consume("undergoer", post_pool[0])
                open_roles.remove("undergoer")
            for name in list(open_roles):
                frame_role = frame.role(name)
                ok, _ = self._fits(self._referent_of(subject), frame_role.category)
                if ok:
                    consume(name, subject)
                    open_roles.remove(name)
                    break
            pool = [el for el in pre_refs + post_refs if id(el) not in consumed]

        if (ops.voice == "active" and "recipient" in open_roles
                and "undergoer" in open_roles and len(pool) >= 2):
            # double-object order: "gave Mary the milk"
            first, second = pool[0], pool[1]
            first_fits, _ = self._fits(self._referent_of(first), "r:person")
            second_fits, _ = self._fits(self._referent_of(second), "r:thing")
            if first_fits and second_fits:
                consume("recipient", first)
                consume("undergoer", second)
                open_roles.remove("recipient")
                open_roles.remove("undergoer")
                pool = [el for el in pool if id(el) not in consumed]

        for name in list(open_roles):
            frame_role = frame.role(name)
            chosen = None
            for el in pool:
                if not el.is_query():
                    ok, _ = self._fits(self._referent_of(el), frame_role.category)
                    if ok:
                        chosen = el
                        break
            if chosen is None:
                for el in pool:
                    if el.is_query():
                        ok, _ = self._fits(self._referent_of(el), frame_role.category)
                        if ok:
                            chosen = el
                            break
            if chosen is not None:
                consume(name, chosen)
                open_roles.remove(name)
                pool = [el for el in pool if id(el) not in consumed]

        for name in open_roles:
            if frame.role(name).required:
                raise CompletenessError(
                    f"required role {name!r} of {sense_id!r} unfilled")

        if pool:
            raise CompletenessError(
                f"referent {pool[0].surface!r} not consumed by {sense_id!r}")

        # selectional fit per filled role (word-sense validation)
        for name, ref in roles.items():
            frame_role = frame.role(name)
            if frame_role is None:
                continue
            ok, via_qualia = self._fits(ref, frame_role.category)
            if not ok:
                raise MeaninglessError(
                    f"{ref.head()} does not fit role {name!r} of {sense_id!r}")
            qualia_used = qualia_used or via_qualia

        if ({"wants-up", "wants-down"} & sense.attributes
                and "particle-done" not in verb.attributes):
            raise MeaninglessError(f"{sense_id!r} needs its particle")

        if template == "motion":
            ls = build_active_achievement(lex, roles["actor"], sense_id,
                                          roles["destination"])
        elif template == "transfer":
            direction = sense.attr("dir") or "to"
            causative = "causative" in sense.attributes
            if self.strict_take and "there-carry" in sense.attributes and any(
                    "m:there" in el.ids for el in elements):
                # deictic `there` forces the carried sense of take-type verbs
                ls = Activity(roles["actor"], "p:carry", roles.get("undergoer"))
            else:
                counterparty = roles.get("recipient") or roles.get("source")
                ls = build_transfer(roles["actor"], roles.get("undergoer"),
                                    counterparty, causative, direction)
        elif template == "acquire":
            ls = Wrapped("BECOME", State("p:have", roles["actor"], roles["undergoer"]))
        elif template == "release":
            ls = Wrapped("BECOME", Wrapped("NOT", State("p:have", roles["actor"],
                                                        roles["undergoer"])))
        else:   # "activity", the last of the names the loader admits
            ls = Activity(roles["actor"], sense_id, roles.get("undergoer"))
        return ls, roles, consumed, qualia_used

    def _cast_readings(self, elements: list[Element], ops: OperatorSet,
                       source: str) -> list[Proposition]:
        mains = self._main_candidates(elements)
        if not mains:
            return [self._bare_position(elements, ops, source)]
        if len(mains) > 1:
            raise MatchError(
                "more than one unresolved predicate: "
                + ", ".join(m.surface for m in mains))
        verb = mains[0]
        readings: list[tuple[object, dict]] = []
        failures: list[str] = []
        parts = self._clause_parts(elements, verb)
        for sense_id, _ in verb.senses:
            if self._template_of(sense_id) is None:
                continue
            try:
                ls, roles, consumed, _ = self._cast_sense(sense_id, verb, elements, ops, parts)
            except MatchError as exc:
                failures.append(f"{sense_id}: {exc}")
                continue
            leftovers = [
                el for el in elements
                if el is not verb and not self._leftover_ok(el, consumed, ops, roles)]
            if leftovers:
                failures.append(
                    f"{sense_id}: element {leftovers[0].surface!r} not consumed")
                continue
            readings.append((ls, roles))
        if not readings:
            raise MeaninglessError(
                "no word sense survives selection: " + "; ".join(failures))
        props = []
        seen = set()
        for ls, roles in readings:
            if len(readings) > 1:   # one reading needs no duplicate check
                if ls in seen:
                    continue
                seen.add(ls)
            actorish = roles.get("actor") or roles.get("located")
            number = ops.number
            if actorish is not None and actorish.kind == "bundle":
                number = "plural"
            host_ops = ops if number == ops.number else ops.with_(number=number)
            ls = self._shared(ls)
            embedded = ()
            if "no-longer" in verb.attributes:
                # cessation reads as: it was so, and now it is not
                twin = Proposition(ls, self._shared(host_ops.with_(tense="past",
                                                                   polarity="positive")),
                                   source=source)
                host_ops = host_ops.with_(tense="present", polarity="negative")
                embedded = (twin,)
            props.append(Proposition(ls, self._shared(host_ops), embedded, source))
        return props

    def _bare_position(self, elements: list[Element], ops: OperatorSet,
                       source: str) -> Proposition:
        pos = [el for el in elements if "position" in el.labels]
        rest = [el for el in elements
                if el not in pos and not el.is_vacuous(self.lexicon)]
        if len(pos) == 1 and not rest:
            el = pos[0]
            ls = build_state(self.lexicon, el.attr("pos") or "p:be-LOC",
                             self._referent_of(el), UNSPECIFIED)
            return Proposition(ls, ops, (), source)
        raise MeaninglessError("no predicate matched")

    def predicate_cast(self, elements: list[Element],
                       operators: OperatorSet, source: str = "") -> Proposition:
        """Convert a consolidated element set into one disambiguated
        proposition; raises when zero or several readings survive."""
        readings = self._cast_readings(elements, operators, source)
        if len(readings) > 1:
            raise AmbiguousMatchError(readings)
        return readings[0]

    # -- embedded clauses ---------------------------------------------------

    def _extract_relatives(self, elements: list[Element], source: str):
        embedded: list[Proposition] = []
        i = 0
        while i + 1 < len(elements):
            head = elements[i]
            marker = elements[i + 1]
            if ("q:who" in marker.ids
                    and head.is_complete_referent()
                    and not head.is_query()):
                verb_positions = [
                    j for j in range(i + 2, len(elements))
                    if any(a.startswith("vc=") for a in elements[j].attributes)]
                if len(verb_positions) >= 2:
                    end = verb_positions[1]
                elif verb_positions:
                    end = len(elements)
                else:
                    i += 1
                    continue
                clause = [head.copy()] + elements[i + 2:end]
                sub_ops = self.extract_operators(clause, "statement")
                prop = self.predicate_cast(clause, sub_ops, source)
                embedded.append(prop)
                head.attributes.add("qualified")
                del elements[i + 1:end]
            i += 1
        return embedded

    # -- whole pipeline -------------------------------------------------------

    def parse_utterance(self, text: str) -> list[Proposition]:
        """Full pipeline; returns every surviving proposition (bAbI-style
        sentences must yield exactly one).  Repeated texts are answered
        from the parse cache; the returned list is the caller's own."""
        props = self._parses.get(text)
        if props is None:
            props = tuple(self._parse(text))
            cache = self._parses
            while len(cache) >= PARSE_CACHE_SIZE:
                try:
                    cache.pop(next(iter(cache), None), None)
                except RuntimeError:
                    pass    # a racing caller resized the cache mid-lookup
            cache[text] = props
        return list(props)

    def _parse(self, text: str) -> list[Proposition]:
        tokens, hint = tokenize(text)
        if not tokens:
            return []
        elements = self.match_phrases(tokens)
        relatives = self._extract_relatives(elements, text)
        ops = self.extract_operators(elements, hint)
        props = self._cast_readings(elements, ops, text)
        if relatives:
            props = [replace(p, embedded=tuple(relatives) + p.embedded)
                     for p in props]
        return props

    def parse_single(self, text: str) -> Proposition:
        props = self.parse_utterance(text)
        if not props:
            raise MeaninglessError(f"nothing to match in {text!r}")
        if len(props) > 1:
            raise AmbiguousMatchError(props)
        return props[0]
