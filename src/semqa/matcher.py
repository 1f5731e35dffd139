"""Sentence matcher: tokens -> phrase consolidation -> logical structures.

There is no parse tree and no part-of-speech tagging.  Tokens link to
candidate word senses; literal, consolidation and predication phrase
patterns (data records in the lexicon file) are applied to a fixpoint,
merging adjacent elements into labelled sets.  A predication converts the
consolidated clause into a disambiguated logical structure, enforcing the
completeness constraint and selecting word senses by selectional fit
(with a qualia retry for associations like car has-a engine).

Only patterns indexed by a sense, attribute or word actually present in
the element set are tried, so the candidate pattern count stays small.

A matcher instance holds no per-call state and may serve concurrent
callers over its immutable lexicon.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .lexicon import Lexicon, PhraseRecord, attr_value
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


class MatchError(Exception):
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


ROLE_LABELS = ("destination", "recipient", "source", "agent", "position")

_CONTRACTIONS = {
    "won't": ("will", "not"),
    "can't": ("can", "not"),
    "shan't": ("shall", "not"),
}


@dataclass
class Element:
    """One matched constituent: labels, merged attributes, candidate senses."""

    surface: str
    senses: list[tuple[str, frozenset[str]]] = field(default_factory=list)
    labels: set[str] = field(default_factory=set)
    attributes: set[str] = field(default_factory=set)
    ops: set[str] = field(default_factory=set)
    constituents: list["Element"] = field(default_factory=list)
    bundle_members: list["Element"] = field(default_factory=list)
    ls: object | None = None     # frozen once a predication fills it

    def attr(self, key: str):
        return attr_value(self.attributes, key)

    def sense_ids(self) -> list[str]:
        return [s for s, _ in self.senses]

    def categories(self, lexicon: Lexicon) -> set[str]:
        if self.bundle_members:
            return {"referent"}
        return {lexicon.sense(s).category for s, _ in self.senses if s in lexicon}

    def reaches(self, lexicon: Lexicon, target: str) -> bool:
        if self.bundle_members:
            return all(m.reaches(lexicon, target) for m in self.bundle_members)
        return any(
            s in lexicon and lexicon.sense(s).category == "referent"
            and lexicon.holds_category(s, target)
            for s in self.sense_ids())

    def is_referent(self, lexicon: Lexicon) -> bool:
        return "referent" in self.categories(lexicon)

    def is_complete_referent(self, lexicon: Lexicon) -> bool:
        if not self.is_referent(lexicon):
            return False
        return bool({"proper", "consolidated", "pronoun", "query"} & self.attributes)

    def is_query(self) -> bool:
        return "query" in self.attributes

    def is_vacuous(self, lexicon: Lexicon) -> bool:
        if "consumed" in self.attributes:
            return True
        if not self.senses:
            return False
        return all(
            s in lexicon and lexicon.sense(s).category == "modifier"
            and "vacuous" in lexicon.sense(s).attributes
            for s in self.sense_ids())


@dataclass(frozen=True)
class Proposition:
    """One ingestible unit: logical structure + operators + hoisted clauses."""

    ls: object
    operators: OperatorSet
    embedded: tuple["Proposition", ...] = ()
    source: str = ""


@dataclass
class Selector:
    conditions: list[tuple[str, str]]

    def matches(self, el: Element, lexicon: Lexicon) -> bool:
        for key, value in self.conditions:
            if key == "word":
                if el.surface != value:
                    return False
            elif key == "sense":
                if value not in el.sense_ids():
                    return False
            elif key == "not-sense":
                if value in el.sense_ids():
                    return False
            elif key == "cat":
                if value not in el.categories(lexicon):
                    return False
            elif key == "reach":
                if not el.reaches(lexicon, value):
                    return False
            elif key == "attr":
                if value not in el.attributes:
                    return False
            elif key == "not-attr":
                if value in el.attributes:
                    return False
            elif key == "any":
                if not any(a in el.attributes for a in value.split("|")):
                    return False
            else:
                raise MatchError(f"unknown selector condition {key!r}")
        return True


def _compile_selector(spec: str) -> Selector:
    conditions = []
    for part in spec.split("&"):
        key, sep, value = part.partition("=")
        if not sep:
            raise MatchError(f"bad selector condition {part!r}")
        conditions.append((key, value))
    return Selector(conditions)


@dataclass
class PhrasePattern:
    id: str
    kind: str
    trigger: str
    selectors: list[Selector]
    retain: int | str | None
    float_indices: tuple[int, ...]
    labels: dict[int, str]
    ops: tuple[str, ...]
    attrs: tuple[str, ...]
    emit: str | None
    frame: str | None
    template: str | None

    @classmethod
    def compile(cls, rec: PhraseRecord) -> "PhrasePattern":
        retain: int | str | None = rec.retain
        if isinstance(retain, str) and retain.isdigit():
            retain = int(retain)
        return cls(rec.id, rec.kind, rec.trigger,
                   [_compile_selector(s) for s in rec.selectors],
                   retain, rec.float_indices, dict(rec.labels),
                   rec.ops, rec.attrs, rec.emit, rec.frame, rec.template)


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
    """Compiled pattern set over a lexicon."""

    def __init__(self, lexicon: Lexicon, strict_take: bool = False):
        self.lexicon = lexicon
        self.strict_take = strict_take
        self.literals: list[PhrasePattern] = []
        self.consolidations: list[PhrasePattern] = []
        self.templates: dict[str, PhrasePattern] = {}
        for rec in lexicon.phrase_records:
            pat = PhrasePattern.compile(rec)
            if pat.kind == "literal":
                self.literals.append(pat)
            elif pat.kind == "consolidation":
                # termination: every firing must strictly shrink the element set
                if len(pat.selectors) < 2 or len(pat.float_indices) >= len(pat.selectors) - 1:
                    raise MatchError(
                        f"pattern {pat.id!r} would not reduce the element count")
                self.consolidations.append(pat)
            else:
                self.templates[pat.trigger] = pat
        # patterns indexed by trigger key so only plausible ones are tried
        self._index: dict[tuple[str, str], list[PhrasePattern]] = {}
        for pat in self.consolidations:
            key = ("sense", pat.trigger) if pat.trigger in lexicon.senses \
                else ("attr", pat.trigger)
            self._index.setdefault(key, []).append(pat)
        self._order = {id(p): i for i, p in enumerate(self.consolidations)}

    # -- element construction -------------------------------------------

    def _element_for_token(self, token: str, position: int) -> Element:
        senses = self.lexicon.senses_of(token)
        if not senses:
            raise UnknownWordError(token, position)
        el = Element(surface=token, senses=list(senses))
        for sense_id, link_attrs in senses:
            el.attributes |= set(link_attrs)
            el.attributes |= set(self.lexicon.sense(sense_id).attributes)
        return el

    def _element_for_sense(self, sense_id: str, surface: str) -> Element:
        el = Element(surface=surface, senses=[(sense_id, frozenset())])
        el.attributes |= set(self.lexicon.sense(sense_id).attributes)
        return el

    def _apply_literals(self, tokens: list[str]) -> list[Element]:
        """Claim literal word sequences first; they cannot be built up later."""
        out: list[Element] = []
        i = 0
        while i < len(tokens):
            fired = None
            for pat in self.literals:
                if pat.trigger != tokens[i]:
                    continue
                span = [c.conditions[0][1] for c in pat.selectors]
                if tokens[i:i + len(span)] == span:
                    fired = (pat, len(span))
                    break
            if fired:
                pat, width = fired
                out.append(self._element_for_sense(pat.emit, " ".join(tokens[i:i + width])))
                i += width
            else:
                out.append(self._element_for_token(tokens[i], i))
                i += 1
        return out

    # -- consolidation fixpoint ------------------------------------------

    def _candidate_patterns(self, elements: list[Element]) -> list[PhrasePattern]:
        keys: set[tuple[str, str]] = set()
        for el in elements:
            for s in el.sense_ids():
                keys.add(("sense", s))
            for a in el.attributes:
                keys.add(("attr", a))
        found: list[PhrasePattern] = []
        for key in keys:
            found.extend(self._index.get(key, ()))
        found.sort(key=lambda p: self._order[id(p)])
        return found

    def _try_fire(self, pat: PhrasePattern, elements: list[Element], at: int):
        n = len(pat.selectors)
        if at + n > len(elements):
            return None
        window = elements[at:at + n]
        for sel, el in zip(pat.selectors, window):
            if not sel.matches(el, self.lexicon):
                return None
        return self._consolidate(pat, window)

    def _consolidate(self, pat: PhrasePattern, window: list[Element]) -> list[Element]:
        if pat.retain == "bundle":
            result = Element(surface=" and ".join(w.surface for w in window))
            members = []
            for w in window:
                if w.is_referent(self.lexicon):
                    members.extend(w.bundle_members or [w])
            result.bundle_members = members
            result.attributes |= {"plural", "bundle"}
        else:
            kept = window[pat.retain - 1]
            result = Element(surface=kept.surface, senses=list(kept.senses),
                             labels=set(kept.labels), attributes=set(kept.attributes),
                             ops=set(kept.ops), bundle_members=list(kept.bundle_members))
            result.constituents = list(kept.constituents)
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
        for idx, label in pat.labels.items():
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
        return [result] + floats

    def match_phrases(self, tokens: list[str]) -> list[Element]:
        """Apply literal then consolidation patterns until no pattern fires."""
        elements = self._apply_literals(tokens)
        # bound: every firing strictly reduces the element count
        for _ in range(len(tokens) * (len(self.consolidations) + 1) + 1):
            candidates = self._candidate_patterns(elements)
            fired = False
            for at in range(len(elements)):
                for pat in candidates:
                    replacement = self._try_fire(pat, elements, at)
                    if replacement is not None:
                        elements[at:at + len(pat.selectors)] = replacement
                        fired = True
                        break
                if fired:
                    break
            if not fired:
                return elements
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
            ids = aux.sense_ids()
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
                if verb.is_referent(self.lexicon) and not verb.is_query():
                    seen_ref = True
                    continue
                if not seen_ref:
                    continue
                vcats = verb.categories(self.lexicon)
                if "predicate" not in vcats:
                    continue
                for attr_needed, op in pairs:
                    if attr_needed in verb.attributes and "p:do" not in verb.sense_ids():
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
        if el.bundle_members:
            return bundle(*[self._referent_of(m) for m in el.bundle_members])
        if el.is_query():
            focus = None
            for s, _ in el.senses:
                focus = self.lexicon.sense(s).attr("focus") or focus
            counted = None
            if "counted" in el.attributes:
                for c in el.constituents:
                    for s in c.sense_ids():
                        if self.lexicon.sense(s).category == "referent":
                            counted = s
            attrs = {"query"}
            if counted:
                attrs.add(f"counted={counted}")
            return query(focus or "what", *attrs)
        ref_senses = [s for s in el.sense_ids()
                      if self.lexicon.sense(s).category == "referent"]
        attrs = set()
        for keep in ("definite", "indefinite"):
            if keep in el.ops:
                attrs.add(keep)
        for keep in ("singular", "plural", "male", "female", "neuter",
                     "proper", "pronoun"):
            if keep in el.attributes:
                attrs.add(keep)
        return entity(ref_senses[0], *attrs)

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
        idx = elements.index(verb)
        pre, post = elements[:idx], elements[idx + 1:]
        labeled: dict[str, Element] = {}
        for el in elements:
            if el is verb:
                continue
            for label in el.labels:
                if label in ROLE_LABELS:
                    labeled[label] = el
        def plain_refs(seq):
            return [el for el in seq
                    if el.is_complete_referent(self.lexicon)
                    and not (set(el.labels) & set(ROLE_LABELS))]
        return pre, post, labeled, plain_refs(pre), plain_refs(post)

    def _leftover_ok(self, el: Element, consumed: set[int], ops: OperatorSet,
                     roles: dict) -> bool:
        if id(el) in consumed or "consumed" in el.attributes:
            return True
        if el.is_vacuous(self.lexicon):
            return True
        # a stranded `to` is fine when a fronted question word filled its role
        if "p:to" in el.sense_ids() and ops.force == "question":
            for role in ("recipient", "destination"):
                filler = roles.get(role)
                if isinstance(filler, Referent) and filler.is_query:
                    return True
        return False

    def _cast_sense(self, sense_id: str, verb: Element, elements: list[Element],
                    ops: OperatorSet):
        lex = self.lexicon
        sense = lex.sense(sense_id)
        vc = sense.attr("vc")
        pattern = self.templates.get(f"vc={vc}")
        if pattern is None:
            raise MeaninglessError(f"no predication phrase for {sense_id!r}")
        template = pattern.template
        frame = lex.frame_for(sense_id)
        pre, post, labeled, pre_refs, post_refs = self._clause_parts(elements, verb)
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

        if frame is None:
            raise MeaninglessError(f"{sense_id!r} has no selectional frame")

        # frame-driven linking for motion / transfer / acquire / release / activity
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
                    "m:there" in el.sense_ids() for el in elements):
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
        elif template == "activity":
            ls = Activity(roles["actor"], sense_id, roles.get("undergoer"))
        else:
            raise MeaninglessError(f"unknown template {template!r}")
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
        for sense_id, _ in verb.senses:
            if self.lexicon.sense(sense_id).attr("vc") is None:
                continue
            try:
                ls, roles, consumed, _ = self._cast_sense(sense_id, verb, elements, ops)
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
            if ls in seen:
                continue
            seen.add(ls)
            actorish = roles.get("actor") or roles.get("located")
            number = ops.number
            if actorish is not None and actorish.kind == "bundle":
                number = "plural"
            host_ops = ops.with_(number=number)
            embedded = ()
            if "no-longer" in verb.attributes:
                # cessation reads as: it was so, and now it is not
                twin = Proposition(ls, host_ops.with_(tense="past",
                                                      polarity="positive"),
                                   source=source)
                host_ops = host_ops.with_(tense="present", polarity="negative")
                embedded = (twin,)
            props.append(Proposition(ls, host_ops, embedded, source))
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
            if ("q:who" in marker.sense_ids()
                    and head.is_complete_referent(self.lexicon)
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
                clause = [self._copy_element(head)] + elements[i + 2:end]
                sub_ops = self.extract_operators(clause, "statement")
                prop = self.predicate_cast(clause, sub_ops, source)
                embedded.append(prop)
                head.attributes.add("qualified")
                del elements[i + 1:end]
            i += 1
        return embedded

    @staticmethod
    def _copy_element(el: Element) -> Element:
        return Element(surface=el.surface, senses=list(el.senses),
                       labels=set(el.labels), attributes=set(el.attributes),
                       ops=set(el.ops), constituents=list(el.constituents),
                       bundle_members=list(el.bundle_members))

    # -- whole pipeline -------------------------------------------------------

    def parse_utterance(self, text: str) -> list[Proposition]:
        """Full pipeline; returns every surviving proposition (bAbI-style
        sentences must yield exactly one)."""
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
