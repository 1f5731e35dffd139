"""Sentence matcher: tokens -> phrase consolidation -> logical structures.

There is no parse tree and no part-of-speech tagging.  Tokens link to
candidate word senses; literal and consolidation phrase records are
applied to a fixpoint, merging adjacent elements into labelled sets.
Predication then converts the consolidated clause into one disambiguated
logical structure: each candidate sense of the main predicate is cast
through the template its `vc=` attribute names, enforcing the
completeness constraint and selecting word senses by selectional fit
(with a qualia retry for associations like car has-a engine).  One
linking rule (after RRG's linking algorithm: Van Valin, *Exploring the
Syntax-Semantics Interface*, 2005, ch. 4) fills every frame's roles.  The
voice links the actor: the active's subject, the passive's `by` phrase,
else the unspecified referent.  A role phrase, conjoined or not, links
its referent; a preposition stranded after the verb ("Who did Mary take
the milk from?") gives its phrases' labels to the question slot.  The
other core referents fill the remaining roles in frame order, each role
the first that fits, a plain referent before a question slot; with two
or more left an open recipient goes first (the dative shift: "gave Mary
the milk").  A destination or position must be one place.  A clause
yields exactly one proposition; when no reading survives, or more than
one distinct reading does, the sentence fails.

The matcher applies the lexicon's `PhraseRecord`s as they stand: the
loader has already parsed every selector into a `Selector` record and
checked its values, the retain indices and termination, and compiled each
`vc=` sense's template and selectional frame into `lexicon.templates`,
which predication reads; no record format is read here and none of these
is checked again.

Matching is compiled per surface, in the manner of Rete's alpha memories
(Forgy, *Artificial Intelligence* 19, 1982).  The first time a token is
seen the matcher builds its prototype element: the candidate senses,
their ids and universals, the merged attributes, the senses its referent
senses reach via is-a, the consolidations whose first selector it meets
(its openers), and whether it is a verb (an attribute names a `vc=`
template); every element of that token is a copy of it.  A selector is
then a handful of set tests on an element's fields, and a window is
tried only where its first element opens it.  A consolidated element
keeps its retained element's verb flag (a bundle is no verb; the loader
rejects a consolidation whose `attrs=` names a template), so the main
verb, a leftover auxiliary and the verbs after a relative marker are
read off the flag.  Main and relative clauses go through one clause
step, in which operator extraction and predication read the main verb
off the flag and change nothing.  A consolidated element gets its
openers when it is made, from a table keyed by the fields a first
selector reads (surface, sense ids, universals, reach, attributes); an
entity referent comes from a table keyed by its sense and the ops and
attributes a referent keeps.

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

The lexicon's `attrs=chain`, `aux-not` and `be-no-longer` records are the
only verb-group rule, for statements and questions alike.  In RRG force is
a clause operator like tense, and subject-auxiliary inversion is only how
English speaks it.  So before the fixpoint a question's fronted auxiliary
("Won't Mary be going…?", "Did Mary go…?"), with a negator right after
it, moves back behind its subject, past a relative clause on the subject,
and the fixpoint reads the verb group as it reads the statement's.  A
relative clause's verb group runs from its first verb past auxiliaries
and negators, and the clause ends at the next verb or negator after it,
before consolidation and after it alike.

A parse depends only on the text's tokens and force hint and on the
matcher: the lexicon is read-only, pronouns stay unresolved until the
context ingests the sentence, and every result is frozen.  Two tables
cache it, and failures, an empty text's among them, enter neither: they
are raised again on every call.

* The text table, in front, maps a text to its proposition and returns
  it as is: a repeated text costs one dict lookup.
* On a text miss the matcher tokenizes once and looks up the sentence's
  shape: the force hint, the literal tokens, and each token of a lexicon
  token class as (class, slot), slots numbered by the first occurrence of
  their sense, so "Mary gave Mary …" never shares a shape with "Mary gave
  John …".  A shape seen before is not parsed again: its cached
  proposition is rebuilt through `map_referents` with this text's slot
  senses swapped in (entity referents, bundle members and the counted
  sense a count question's slot carries), and `source` set to this text
  on it and on its embedded clauses.  Only a new shape is parsed cold.

A class shares only surfaces the engine cannot tell apart (see the
lexicon module), so the rebuilt proposition equals a cold parse of the
text.  Entity referents come from one table keyed by sense and kept
attributes, for cold parses and rebuilt ones alike.  Every table keeps at
most `PARSE_CACHE_SIZE` entries, evicting the oldest first.  Concurrent
callers may share a matcher: the tables only ever map a key to an equal
value, and eviction tolerates a racing caller.

A proposition whose structure holds no pronoun, not even as a conjunct
of a bundle, carries its antecedent summary (`semantics.antecedents`) and
is stored by the context as it is, summary and all; one that holds a
pronoun carries none, and the context walks only those.  The context
resolves later pronouns from these summaries without walking back through
the story.  A cold parse walks its structure once for the summary; a
shape hit maps the cached summary through the same swap as the
structure, since a class member keeps the attributes and is-a parents
that decide its agreement classes; a text hit shares it.  A pronoun
statement's summary is collected by the context, in the one walk that
resolves it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import SemqaError
from .lexicon import Lexicon, PhraseRecord, Selector, attr_value
from .semantics import (
    HAVE_PRED,
    Activity,
    OperatorSet,
    Referent,
    UNSPECIFIED,
    antecedents,
    build_active_achievement,
    build_state,
    build_transfer,
    bundle,
    map_referents,
    query,
    walk_referents,
)


# successful parses kept per matcher and table; bAbI stories repeat their
# sentences and their sentence shapes
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
    """More than one distinct reading survives selection."""


ROLE_LABELS = frozenset({"destination", "recipient", "source", "agent", "position"})
_REFERENT = frozenset({"referent"})
# what an entity referent keeps of its element's ops and attributes
_KEPT_OPS = frozenset({"definite", "indefinite"})
_KEPT_ATTRIBUTES = frozenset({"singular", "plural", "male", "female", "neuter", "proper",
                              "pronoun"})
_COMPLETE_REFERENT = frozenset({"proper", "consolidated", "pronoun", "query"})
# inflections that show present tense
_PRESENT_FORMS = frozenset({"present", "3sg", "1sg", "plural", "base"})

_CONTRACTIONS = {
    "won't": ("will", "not"),
    "can't": ("can", "not"),
    "shan't": ("shall", "not"),
}


@dataclass(slots=True)
class Element:
    """One matched constituent: labels, merged attributes, candidate senses.

    `senses`, `ids`, `cats`, `reach` and `verb` are shared with the
    matcher's prototype element of its token (or, for a bundle, derived
    from its members) and never change; labels, attributes and ops grow
    as phrases consolidate; a form's ops are its `op=` attributes.
    No attribute added later names a `vc=` template or an operator (the
    loader rejects such `attrs=`), so `verb` and `ops` stay exact."""

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
    # some attribute names a vc= template: a main-verb candidate
    verb: bool = False
    # filled by predication, once the element set has stopped changing
    referent: Referent | None = None

    def copy(self) -> "Element":
        return Element(self.surface, self.senses, self.ids, self.cats, self.reach,
                       set(self.labels), set(self.attributes), set(self.ops),
                       list(self.constituents), list(self.bundle_members), self.openers,
                       self.verb)

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
        if not self.senses:
            return False
        return all(lexicon.sense(s).category == "modifier"
                   and "vacuous" in lexicon.sense(s).attributes
                   for s, _ in self.senses)


@dataclass(frozen=True, slots=True)
class Proposition:
    """One ingestible unit: logical structure + operators + hoisted clauses,
    and the context's stored item.

    `antecedents` is the antecedent summary of `ls` (see
    `semantics.antecedents`), from which the context resolves later
    pronouns.  The matcher leaves it None exactly when `ls` holds a pronoun
    referent, alone or as a bundle member, since its referents are known
    only once the context resolves them.  A proposition built by hand keeps
    the default, which only costs the context a walk.  A stored item has no
    embedded clauses, no pronoun and its own summary."""

    ls: object
    operators: OperatorSet
    embedded: tuple["Proposition", ...] = ()
    source: str = ""
    antecedents: tuple[tuple[str, Referent], ...] | None = field(default=None, compare=False)


def _selector_matches(sel: Selector, el: Element) -> bool:
    attrs = el.attributes
    return ((sel.word is None or sel.word == el.surface)
            and sel.senses <= el.ids and sel.not_senses.isdisjoint(el.ids)
            and sel.cats <= el.cats and sel.reach <= el.reach
            and sel.attrs <= attrs and sel.not_attrs.isdisjoint(attrs)
            and (not sel.any_of or all(not group.isdisjoint(attrs) for group in sel.any_of)))


def _keep(table: dict, key, value):
    """`table[key]`, set to `value` when absent, once the oldest entries
    of a table at `PARSE_CACHE_SIZE` are evicted."""
    while len(table) >= PARSE_CACHE_SIZE:
        try:
            table.pop(next(iter(table), None), None)
        except RuntimeError:
            pass    # a racing caller resized the table mid-lookup
    return table.setdefault(key, value)


def _recast(prop: Proposition, swap, source: str) -> Proposition:
    """`prop` and its embedded clauses with `swap` applied to every
    referent, the antecedent summary's included, and `source` set to
    `source`.  A swap keeps a referent's attributes and is-a parents, so
    each summary referent stays in its agreement class."""
    summary = prop.antecedents
    if summary:
        # a person's classes sit side by side: each referent is swapped once
        pairs, last, new = [], None, None
        for cls, ref in summary:
            if ref is not last:
                last, new = ref, swap(ref)
            pairs.append((cls, new))
        summary = tuple(pairs)
    return Proposition(map_referents(prop.ls, swap), prop.operators,
                       tuple(_recast(e, swap, source) for e in prop.embedded),
                       source, summary)


def _is_pronoun(ref: Referent) -> bool:
    """Whether `ref` is a pronoun or a bundle with a pronoun member."""
    if ref.kind == "bundle":
        return any(map(_is_pronoun, ref.members))
    return ref.kind == "entity" and "pronoun" in ref.attributes


def _summary(ls, refs, lexicon: Lexicon):
    """The antecedent summary of `ls`, built from the referents `refs` and
    `UNSPECIFIED`, or None when it holds a pronoun for the context to
    resolve; most hold none of `refs` and need no walk for that."""
    if any(map(_is_pronoun, refs)) and any(map(_is_pronoun, walk_referents(ls))):
        return None
    return antecedents(ls, lexicon)


def _tense_of(el: Element) -> str | None:
    """The element's `tense=` attribute, else the tense its inflection
    shows; None for a form that shows none."""
    tense = el.attr("tense")
    if tense is None:
        if "past" in el.attributes:
            return "past"
        if _PRESENT_FORMS & el.attributes:
            return "present"
    return tense


def _relative_end(elements: list[Element], at: int) -> int | None:
    """Where the relative clause marked at `at` ends: at the next verb or
    negator after its own verb group, else at the end; None when no verb
    follows `at`.  The group runs from the clause's first verb on past
    auxiliaries and negators, and ends at the first other element, so
    "who spoke went" ends before "went" and "who was not going" takes
    the whole group.  Consolidation merges a chain into its last verb and
    a negator into its auxiliary, so the boundary is the same before and
    after it."""
    n = len(elements)
    j = next((j for j in range(at + 1, n) if elements[j].verb), None)
    if j is None:
        return None
    while j < n and not {"aux", "negation"}.isdisjoint(elements[j].attributes):
        j += 1
    return next((k for k in range(j + 1, n) if elements[k].verb
                 or "negation" in elements[k].attributes), n)


def _unfront_aux(elements: list[Element]):
    """Move a question's fronted auxiliary, with a negator right after it,
    back behind its subject, in front of the first predicate or negator
    after the subject: "Won't Mary be going…?" reads as "Mary won't be
    going…".  The subject is the first plain referent after the auxiliary,
    and a relative clause on it is skipped.  Nothing moves when a
    predicate comes before any subject ("Who is in the kitchen?") or none
    comes after it ("Where is Mary?")."""
    at = next((i for i, el in enumerate(elements) if "aux" in el.attributes), None)
    if at is None:
        return
    end = at + 1
    if end < len(elements) and "negation" in elements[end].attributes:
        end += 1
    k, subject = end, False
    while k < len(elements) and "predicate" not in elements[k].cats \
            and "negation" not in elements[k].attributes:
        el = elements[k]
        if subject and "q:who" in el.ids:
            k = _relative_end(elements, k) or len(elements)
        else:
            subject = subject or (el.is_referent() and not el.is_query())
            k += 1
    if subject and k < len(elements):
        elements[k:k] = elements[at:end]
        del elements[at:end]


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
        # token, or a literal's words joined by spaces -> its prototype
        # element, built on first sight (a token holds no space, so the two
        # never collide)
        self._forms: dict[str, Element] = {}
        # text -> its proposition, in insertion order for FIFO eviction
        self._parses: dict[str, Proposition] = {}
        # shape -> (its first text's proposition, the sense in each slot of that text)
        self._shapes: dict[str, tuple[Proposition, tuple[str, ...]]] = {}
        # (surface, ids, cats, reach, attributes) of a consolidated element -> its openers
        self._opened: dict[tuple, tuple[PhraseRecord, ...]] = {}
        # (sense, kept ops and attributes) of an entity referent -> the shared referent
        self._referents: dict[tuple, Referent] = {}

    # -- element construction -------------------------------------------

    def _new_form(self, surface: str, senses, position: int) -> Element:
        """Build and keep the prototype element of `surface`, whose
        candidate senses are `senses`; a token with none is an unknown word."""
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
        form = Element(surface, tuple(senses), frozenset(s for s, _ in senses),
                       frozenset(lex.sense(s).category for s, _ in senses),
                       frozenset(reach), attributes=attributes,
                       ops={a[3:] for a in attributes if a.startswith("op=")},
                       verb=any(a.startswith("vc=") for a in attributes))
        form.openers = self._openers(form)
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
                form = forms.get(token) or self._new_form(
                    token, self.lexicon.senses_of(token), i)
                i += 1
            out.append(form.copy())
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
            # a bundle is a referent that reaches what every member reaches,
            # in the role its first member's phrase names ("by Mary and John")
            result = Element(" ".join(w.surface for w in window),
                             cats=_REFERENT if members else frozenset(),
                             reach=frozenset.intersection(*[m.reach for m in members])
                             if members else frozenset(),
                             labels=window[0].labels & ROLE_LABELS,
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
        for idx, label in pat.labels:
            if idx == pat.retain:
                result.labels.add(label)
            else:
                window[idx - 1].labels.add(label)
        result.ops |= set(pat.ops)
        new_attrs = set(pat.attrs)
        if "chain" in new_attrs:
            new_attrs.discard("chain")
            locked = _tense_of(window[0])
            if locked and result.attr("tense") is None:
                new_attrs.add(f"tense={locked}")
        result.attributes |= new_attrs
        result.openers = self._openers_of(result)
        return [result] + floats

    def _openers_of(self, el: Element) -> tuple[PhraseRecord, ...]:
        """`_openers` of a consolidated element, remembered by the fields
        a first selector reads."""
        key = (el.surface, el.ids, el.cats, el.reach, frozenset(el.attributes))
        openers = self._opened.get(key)
        if openers is None:
            openers = _keep(self._opened, key, self._openers(el))
        return openers

    def match_phrases(self, tokens: list[str], if_hint: str = "statement") -> list[Element]:
        """Apply literal then consolidation patterns until no pattern fires;
        the loader makes every firing shrink the element list, so at most
        `len(tokens) - 1` fire.  A question's fronted auxiliary is moved
        back behind its subject first (`_unfront_aux`)."""
        elements = self._apply_literals(tokens)
        if if_hint == "question":
            _unfront_aux(elements)
        at = self._fire_first(elements, 0)
        while at is not None:
            at = self._fire_first(elements, max(0, at - self._reach_back))
        return elements

    # -- operator extraction ----------------------------------------------

    def _main_candidates(self, elements: list[Element]) -> list[Element]:
        """The clause's verbs."""
        return [el for el in elements if el.verb]

    def extract_operators(self, elements: list[Element],
                          if_hint: str = "statement") -> OperatorSet:
        """Resolve tense/aspect/voice/polarity/force from the verb group."""
        mains = self._main_candidates(elements)
        if not mains:
            return OperatorSet(force=if_hint)
        verb = mains[0]
        leftover_aux = [
            el for el in elements
            if el is not verb
            and "aux" in el.attributes
            and not el.verb]
        if leftover_aux:
            raise OperatorChainError(
                f"auxiliary {leftover_aux[0].surface!r} could not join a verb group")
        ops = verb.ops
        tense = "future" if "future" in ops else _tense_of(verb)
        if tense is None:
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
            return query(focus or "what", counted)
        kept = _KEPT_OPS.intersection(el.ops) | _KEPT_ATTRIBUTES.intersection(el.attributes)
        sense = next(s for s, _ in el.senses if self.lexicon.sense(s).category == "referent")
        return self._entity(sense, kept)

    def _entity(self, sense: str, kept: frozenset[str]) -> Referent:
        """The matcher's one entity referent of `sense` with `kept`."""
        key = (sense, kept)
        ref = self._referents.get(key)
        if ref is None:
            ref = _keep(self._referents, key, Referent("entity", sense, attributes=kept))
        return ref

    def _fits(self, ref: Referent, category: str) -> bool:
        """Whether a referent fits a role category of the frame that
        `lexicon.templates` pairs with the predicate; a referent that does
        not may fit through a qualia association (car has-a engine)."""
        if ref.kind in ("query", "unspecified"):
            if ref.focus == "who":
                return (self.lexicon.holds_category("r:person", category)
                        or self.lexicon.holds_category(category, "r:person"))
            return True
        if ref.kind == "bundle":
            return all(self._fits(m, category) for m in ref.members)
        if ref.has("pronoun"):
            return True
        if self.lexicon.holds_category(ref.sense, category):
            return True
        return any(self.lexicon.sense(assoc).category == "referent"
                   and self.lexicon.holds_category(assoc, category)
                   for assoc, _kind in self.lexicon.qualia_expand(ref.sense))

    def _clause_parts(self, elements: list[Element], verb: Element):
        """What links the verb's roles, the same for every sense tried:
        each role label -> (its element, a preposition consumed with it),
        and the plain complete referents before and after the verb.  A
        role phrase labels its referent.  A stranded preposition, one
        after the verb that opens role phrases, gives their labels to the
        clause's question slot ("Who did Mary take the milk from?"), and
        is consumed only when the slot fills one of them."""
        idx = elements.index(verb)
        def plain_refs(seq):
            return [el for el in seq
                    if el.is_complete_referent() and el.labels.isdisjoint(ROLE_LABELS)]
        pre_refs, post_refs = plain_refs(elements[:idx]), plain_refs(elements[idx + 1:])
        links: dict[str, tuple[Element, Element | None]] = {}
        for el in elements:
            for label in el.labels & ROLE_LABELS:
                links[label] = (el, None)
        slot = next((el for el in pre_refs + post_refs if el.is_query()), None)
        for prep in elements[idx + 1:] if slot else ():
            for pat in prep.openers:
                if "role-phrase" in pat.attrs:
                    for _, label in pat.labels:
                        links.setdefault(label, (slot, prep))
        return links, pre_refs, post_refs

    def _cast_sense(self, sense_id: str, verb: Element, elements: list[Element],
                    ops: OperatorSet, parts):
        lex = self.lexicon
        sense = lex.sense(sense_id)
        template, frame = lex.templates[sense_id]
        links, pre_refs, post_refs = parts
        open_roles = [r.name for r in frame.roles]
        consumed: set[int] = set()
        roles: dict[str, Referent] = {}

        def consume(role: str, el: Element):
            roles[role] = self._referent_of(el)
            consumed.add(id(el))
            open_roles.remove(role)

        # the voice links the actor: the subject in the active, the agent
        # phrase in the passive, as one more label; each label links its role
        if ops.voice == "passive":
            links = {"actor" if label == "agent" else label: link
                     for label, link in links.items()}
        elif pre_refs:
            links = {"actor": (pre_refs[-1], None), **links}
        for role, (el, prep) in links.items():
            if role in open_roles and id(el) not in consumed:
                consume(role, el)
                if prep is not None:
                    consumed.add(id(prep))
        if ops.voice == "passive" and "actor" in open_roles:
            roles["actor"] = UNSPECIFIED
            open_roles.remove("actor")

        # the other core referents fill the rest in frame order, each role
        # the first that fits, a plain referent before a question slot;
        # with two or more left an open recipient goes first, the dative
        # shift of "gave Mary the milk" and "Jeff was given the milk"
        pool = sorted((el for el in pre_refs + post_refs if id(el) not in consumed),
                      key=Element.is_query)
        if len(pool) > 1 and "recipient" in open_roles:
            open_roles.sort(key=lambda name: name != "recipient")
        for name in list(open_roles):
            category = frame.role(name).category
            chosen = next((el for el in pool
                           if self._fits(self._referent_of(el), category)), None)
            if chosen is not None:
                consume(name, chosen)
                pool.remove(chosen)

        for name in open_roles:
            if frame.role(name).required:
                raise CompletenessError(
                    f"required role {name!r} of {sense_id!r} unfilled")

        if pool:
            raise CompletenessError(
                f"referent {pool[0].surface!r} not consumed by {sense_id!r}")

        # selectional fit per filled role (word-sense validation)
        for name, ref in roles.items():
            if not self._fits(ref, frame.role(name).category):
                raise MeaninglessError(
                    f"{ref.head()} does not fit role {name!r} of {sense_id!r}")
        # a destination or position is one place: a question slot, or an
        # entity whose sense has a dimensionality class
        for name in ("destination", "position"):
            place = roles.get(name)
            if place is not None and not place.is_query and (
                    place.kind != "entity" or lex.dimensionality_of(place.sense) is None):
                raise MeaninglessError(f"{name} {place.head()} is not one place")

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
        elif template == "have-state":
            ls = build_state(lex, HAVE_PRED, roles["actor"], roles["undergoer"])
        elif template == "be-state":
            # the position is a position phrase's place or a where slot; a
            # where slot asks for a position, never for what is located
            position, located = roles["position"], roles["located"]
            if located.focus == "where":
                raise CompletenessError("no referent to locate")
            if "position" in links:
                pred = links["position"][0].attr("pos") or "p:be-LOC"
            elif position.focus == "where":
                pred = "p:be-LOC"
            else:
                raise MeaninglessError("copula clause has no position to predicate")
            ls = build_state(lex, pred, position, located)
        else:   # "activity", the last of the names the loader admits
            ls = Activity(roles["actor"], sense_id, roles.get("undergoer"))
        return ls, roles, consumed

    def predicate_cast(self, elements: list[Element], ops: OperatorSet,
                       source: str = "") -> Proposition:
        """Convert a consolidated element set into one disambiguated
        proposition.  Raises when no reading, or more than one distinct
        reading, survives; equal readings keep the first."""
        mains = self._main_candidates(elements)
        if not mains:
            return self._bare_position(elements, ops, source)
        if len(mains) > 1:
            raise MatchError(
                "more than one unresolved predicate: "
                + ", ".join(m.surface for m in mains))
        verb = mains[0]
        readings: list[tuple[object, dict]] = []
        failures: list[str] = []
        parts = self._clause_parts(elements, verb)
        for sense_id, _ in verb.senses:
            if sense_id not in self.lexicon.templates:
                continue
            try:
                ls, roles, consumed = self._cast_sense(sense_id, verb, elements, ops, parts)
            except MatchError as exc:
                failures.append(f"{sense_id}: {exc}")
                continue
            leftovers = [el for el in elements
                         if el is not verb and id(el) not in consumed
                         and not el.is_vacuous(self.lexicon)]
            if leftovers:
                failures.append(
                    f"{sense_id}: element {leftovers[0].surface!r} not consumed")
            elif not any(ls == seen for seen, _ in readings):
                readings.append((ls, roles))
        if not readings:
            raise MeaninglessError(
                "no word sense survives selection: " + "; ".join(failures))
        if len(readings) > 1:
            raise AmbiguousMatchError(f"{len(readings)} distinct readings survived")
        [(ls, roles)] = readings
        actorish = roles.get("actor") or roles.get("located")
        if actorish is not None and actorish.kind == "bundle" and ops.number != "plural":
            ops = ops.with_(number="plural")
        summary = _summary(ls, roles.values(), self.lexicon)
        embedded = ()
        if "no-longer" in verb.attributes:
            # cessation reads as: it was so, and now it is not
            twin = Proposition(ls, ops.with_(tense="past", polarity="positive"),
                               source=source, antecedents=summary)
            ops = ops.with_(tense="present", polarity="negative")
            embedded = (twin,)
        return Proposition(ls, ops, embedded, source, summary)

    def _bare_position(self, elements: list[Element], ops: OperatorSet,
                       source: str) -> Proposition:
        pos = [el for el in elements if "position" in el.labels]
        rest = [el for el in elements
                if el not in pos and not el.is_vacuous(self.lexicon)]
        if len(pos) == 1 and not rest:
            ref = self._referent_of(pos[0])
            ls = build_state(self.lexicon, pos[0].attr("pos") or "p:be-LOC", ref, UNSPECIFIED)
            return Proposition(ls, ops, (), source, _summary(ls, (ref,), self.lexicon))
        raise MeaninglessError("no predicate matched")

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
                end = _relative_end(elements, i + 1)
                if end is None:
                    i += 1
                    continue
                embedded.append(self._clause([head.copy()] + elements[i + 2:end],
                                             "statement", source))
                head.attributes.add("qualified")
                del elements[i + 1:end]
            i += 1
        return embedded

    # -- whole pipeline -------------------------------------------------------

    def _clause(self, elements: list[Element], hint: str, source: str) -> Proposition:
        """One clause, main or relative: its operators and its one
        proposition."""
        return self.predicate_cast(elements, self.extract_operators(elements, hint), source)

    def parse_utterance(self, text: str) -> Proposition:
        """Full pipeline: the text's one proposition.  A repeated text is
        answered from the text table with the same frozen proposition."""
        prop = self._parses.get(text)
        if prop is None:
            prop = _keep(self._parses, text, self._parse(text))
        return prop

    def _parse(self, text: str) -> Proposition:
        """A text not in the text table: its shape's cached proposition
        with this text's senses swapped in, or else a cold parse."""
        tokens, hint = tokenize(text)
        shape, fills = self._shape(tokens, hint)
        hit = self._shapes.get(shape)
        if hit is not None:
            prop, was = hit
            senses = {old: new for old, new in zip(was, fills) if old != new}
            return _recast(prop, lambda ref: self._swapped(ref, senses), text)
        prop = self._parse_tokens(text, tokens, hint)
        _keep(self._shapes, shape, (prop, fills))
        return prop

    def _shape(self, tokens: list[str], hint: str) -> tuple[str, tuple[str, ...]]:
        """The shape key of a token sequence, and the sense that fills each
        slot, slots numbered by first occurrence.  The key is the hint and
        the tokens joined by spaces, a token of a token class written as
        its class and slot after a newline; a token holds no whitespace,
        so two token sequences share a key only when they share a shape.
        One string per key keeps the table small."""
        classes = self.lexicon.token_classes
        fills: list[str] = []
        parts = [hint]
        for token in tokens:
            cls = classes.get(token)
            if cls is None:
                parts.append(token)
            else:
                number, sense = cls
                if sense not in fills:
                    fills.append(sense)
                parts.append(f"\n{number}.{fills.index(sense)}")
        return " ".join(parts), tuple(fills)

    def _swapped(self, ref: Referent, senses: dict[str, str]) -> Referent:
        """`ref` with each sense that `senses` maps replaced: an entity's,
        a bundle member's, or the counted sense of a count question's slot.
        A shape hit rebuilds its cached proposition through this."""
        if ref.kind == "bundle":
            members = tuple(self._swapped(m, senses) for m in ref.members)
            return ref if members == ref.members else bundle(*members)
        sense = senses.get(ref.sense)
        if sense is None:
            return ref
        return self._entity(sense, ref.attributes) if ref.kind == "entity" \
            else replace(ref, sense=sense)

    def _parse_tokens(self, text: str, tokens: list[str], hint: str) -> Proposition:
        """A cold parse of `text`, already tokenized."""
        if not tokens:
            raise MeaninglessError(f"nothing to match in {text!r}")
        elements = self.match_phrases(tokens, hint)
        relatives = self._extract_relatives(elements, text)
        prop = self._clause(elements, hint, text)
        if relatives:
            prop = replace(prop, embedded=tuple(relatives) + prop.embedded)
        return prop

    def parse_single(self, text: str) -> Proposition:
        """`parse_utterance` by its older name."""
        return self.parse_utterance(text)
