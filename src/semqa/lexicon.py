"""Semantic-network lexicon.

Word forms link surface tokens to word senses with inflectional attributes.
Senses carry one of three semantic universals (referent / predicate /
modifier) -- never parts of speech -- plus attribute sets, semantic
relations (is-a, has-a, entails, does-x-*) and selectional frames used for
word-sense disambiguation.  A predicate sense's `vc=` attribute names the
template its logical structure is built from.  Literal and consolidation
phrase records live in the same file format; this module is the only one
that knows it.

`load_lexicon` parses and validates every record, selectors, retain
indices, literal `emit=` senses, `pos=` predicates and `vc=` template
names included, checks that every `vc=` sense reaches a selectional frame
along its entails chain, checks each transfer sense's `dir=`, and
computes the derived tables (relation index, each `vc=` sense's template
and frame, is-a closure, entails bases, inflections, position words,
token classes) once.  The realizer's English comes from two of them:
`inflect` picks a sense's form by tense and agreement cell or by
nonfinite slot, first in file order, and `position_words` gives a
positional predicate's preposition, the first form of the sense whose
`pos=` names it.
In `token_classes` two surfaces share a class when nothing the engine
reads can tell them apart: each links exactly one sense, a referent, and
the two senses have the same sense attributes, link attributes and is-a
parents, so they also have the same is-a closure.  A surface stays
literal when a `word=` selector names it, when its sense is named by a
`sense=`, `not-sense=` or `reach=` selector, an `emit=`, a frame
(predicate or role category), any relation other than is-a, or the
engine's own code (`ENGINE_SENSES`), and when some literal surface links
its sense too.  A class of one surface is dropped: that surface stays
literal.  Classes are numbered in file order.  The matcher keys its
parse-by-shape table on these classes ("Mary went to the kitchen." and
"Sandra went to the garden." share one shape); this is the
equivalence-class compression of lexer tables (Aho, Lam, Sethi & Ullman,
*Compilers*, 2nd ed., §3.9).
Each `sel:` part becomes a `Selector` record with one field per
condition key.  Its `sense=`, `not-sense=` and
`reach=` values must name senses and its `cat=` values universals.  A
consolidation's trigger must be named by a `sense=` or `attr=` condition
of one of its selectors (a name inside `any=` does not count), so that
the record matches only where its trigger is present; the matcher relies
on this.  A malformed record, or one that names an unknown sense, fails
at load with the line that holds it, never later when a sentence reaches
it.  Nothing changes after load, so a lexicon is safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import SemqaError

CATEGORIES = ("referent", "predicate", "modifier")
RELATION_KINDS = ("is-a", "has-a", "entails", "does-x-actor", "does-x-undergoer")
ROLE_NAMES = ("actor", "undergoer", "destination", "source", "recipient", "located",
              "position")
# spatial dimensionality class -> the positional predicate it picks; the
# one copy of this mapping, and each class a sense carries needs a position word
DIMENSIONALITY = {"enclosure": "p:be-in", "surface": "p:be-on", "locale": "p:be-at"}
# the `pos=` attributes a sense, form link or consolidation may carry
_POS_ATTRS = frozenset(f"pos={pred}" for pred in DIMENSIONALITY.values())
# agreement cells a finite form may name
AGREEMENT = frozenset({"1sg", "3sg", "plural"})
# referent senses the engine's code names (matcher, context); a surface of
# one never joins a token class
ENGINE_SENSES = frozenset({"r:person", "q:who"})
# banned part-of-speech vocabulary; the model uses semantic universals only
POS_TAGS = frozenset({"noun", "verb", "adjective", "adverb"})
# keys of a phrase selector condition `key=value`, in `Selector` field order
SELECTOR_KEYS = ("word", "sense", "not-sense", "cat", "reach", "attr", "not-attr", "any")
# `vc=` template names; the matcher builds one logical structure per name
TEMPLATES = frozenset({"be-state", "have-state", "motion", "transfer", "activity"})


class LexiconError(SemqaError):
    """Raised on malformed records or referential-integrity failures."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def attr_value(attrs, key: str) -> str | None:
    """Return the value of a `key=value` attribute token, if present."""
    prefix = key + "="
    for a in attrs:
        if a.startswith(prefix):
            return a[len(prefix):]
    return None


@dataclass(frozen=True)
class WordSense:
    id: str
    category: str          # referent | predicate | modifier
    attributes: frozenset[str]
    gloss: str = ""

    def attr(self, key: str) -> str | None:
        return attr_value(self.attributes, key)

    @property
    def print_name(self) -> str:
        """Name used when the sense appears in a rendered logical structure."""
        explicit = self.attr("print")
        if explicit:
            return explicit
        _, _, tail = self.id.partition(":")
        return tail or self.id


@dataclass(frozen=True)
class FrameRole:
    name: str
    category: str
    required: bool = False


@dataclass(frozen=True)
class SelectionalFrame:
    predicate: str
    roles: tuple[FrameRole, ...]

    def role(self, name: str) -> FrameRole:
        return next(r for r in self.roles if r.name == name)


class Selector(NamedTuple):
    """The conditions one window element must meet, parsed from a `sel:`
    part.  Each field holds the values of one condition key, in
    `SELECTOR_KEYS` order; an empty field asks nothing.  A named tuple
    rather than a frozen dataclass, because it is cheaper to build and
    every load builds dozens."""

    word: str | None = None                  # word=: the surface form
    senses: frozenset[str] = frozenset()     # sense=: each is a candidate sense
    not_senses: frozenset[str] = frozenset()  # not-sense=: none is
    cats: frozenset[str] = frozenset()       # cat=: each universal is held
    reach: frozenset[str] = frozenset()      # reach=: a referent sense is-a each
    attrs: frozenset[str] = frozenset()      # attr=: each attribute is present
    not_attrs: frozenset[str] = frozenset()  # not-attr=: none is
    any_of: tuple[frozenset[str], ...] = ()  # any=a|b: one of each group is


_SELECTOR_FIELDS = dict(zip(SELECTOR_KEYS, Selector._fields))


@dataclass(frozen=True)
class PhraseRecord:
    """A parsed `phrase` record; the matcher applies it as it stands."""

    id: str
    kind: str              # literal | consolidation
    trigger: str
    selectors: tuple[Selector, ...] = ()     # one per window element
    retain: int | str | None = None     # 1-based window index or "bundle"
    float_indices: tuple[int, ...] = ()
    labels: tuple[tuple[int, str], ...] = ()
    ops: tuple[str, ...] = ()
    attrs: tuple[str, ...] = ()
    emit: str | None = None


class Lexicon:
    """Loaded semantic network with lookup helpers."""

    def __init__(self):
        self.senses: dict[str, WordSense] = {}
        # surface -> list of (sense id, link attributes)
        self.forms: dict[str, list[tuple[str, frozenset[str]]]] = {}
        self.frames: dict[str, SelectionalFrame] = {}
        self.phrase_records: list[PhraseRecord] = []
        # predicate sense with vc= -> (template, frame along its entails chain)
        self.templates: dict[str, tuple[str, SelectionalFrame]] = {}
        # (source, relation kind) -> targets, in record order
        self._rel_index: dict[tuple[str, str], list[str]] = {}
        # sense -> every sense it reaches via zero or more is-a edges
        self._isa: dict[str, frozenset[str]] = {}
        # sense -> last sense of its entails chain
        self._entails_base: dict[str, str] = {}
        # sense -> {(slot, agreement cell or None): its first form in file order}
        self._inflections: dict[str, dict[tuple[str, str | None], str]] = {}
        # positional predicate -> first form of the sense whose pos= names it
        self.position_words: dict[str, str] = {}
        # surface -> (its token class, its one sense); a surface absent is literal
        self.token_classes: dict[str, tuple[int, str]] = {}

    # -- lookups -------------------------------------------------------

    def senses_of(self, form: str) -> list[tuple[str, frozenset[str]]]:
        """All senses linked to a surface form; empty list when unknown."""
        return list(self.forms.get(form.lower(), []))

    def sense(self, sense_id: str) -> WordSense:
        try:
            return self.senses[sense_id]
        except KeyError:
            raise LexiconError(f"unknown sense {sense_id!r}") from None

    def holds_category(self, sense_id: str, category: str) -> bool:
        """True when `sense_id` reaches `category` via zero or more is-a edges.

        `category` may also be one of the three universals, in which case the
        sense's own category decides.
        """
        if category in CATEGORIES:
            return self.sense(sense_id).category == category
        if sense_id not in self.senses or category not in self.senses:
            raise LexiconError(f"unknown identifier in {sense_id!r} -> {category!r}")
        return category in self._isa[sense_id]

    def is_a_closure(self, sense_id: str) -> frozenset[str]:
        """Every sense `sense_id` reaches via zero or more is-a edges."""
        try:
            return self._isa[sense_id]
        except KeyError:
            raise LexiconError(f"unknown sense {sense_id!r}") from None

    def qualia_expand(self, referent: str) -> list[tuple[str, str]]:
        """Part (has-a) and telic/agentive (does-x) associations of a referent.

        Used to retry a failed selectional fit: the car has an engine, and the
        engine is what starts.
        """
        self.sense(referent)
        out = []
        for kind in ("has-a", "does-x-actor", "does-x-undergoer"):
            for target in self._rel_index.get((referent, kind), ()):
                out.append((target, kind))
        return out

    def _entails_chain(self, sense_id: str) -> list[str]:
        """`sense_id`, then each first entails target in turn, up to a repeat."""
        chain = [sense_id]
        while True:
            nxt = self._rel_index.get((chain[-1], "entails"))
            if not nxt or nxt[0] in chain:
                return chain
            chain.append(nxt[0])

    def entails_base(self, sense_id: str) -> str:
        """The most general predicate along entails edges (e.g. journey -> go)."""
        return self._entails_base.get(sense_id, sense_id)

    def entails_related(self, a: str, b: str) -> bool:
        return self.entails_base(a) == self.entails_base(b)

    def frame_for(self, sense_id: str) -> SelectionalFrame | None:
        """Frame of the sense, falling back along entails edges."""
        return next((self.frames[s] for s in self._entails_chain(sense_id)
                     if s in self.frames), None)

    def dimensionality_of(self, sense_id: str) -> str | None:
        sense = self.sense(sense_id)
        for dim in DIMENSIONALITY:
            if dim in sense.attributes:
                return dim
        return None

    def inflect(self, sense_id: str, slot: str, cell: str | None = None) -> str | None:
        """The sense's first form, in file order, that fills `slot` (a tense,
        or base, past-participle or present-participle) in agreement `cell`;
        failing that the slot's first form that names no cell, then its 3sg
        form.  None when no form of the sense fills `slot`."""
        table = self._inflections.get(sense_id, {})
        return table.get((slot, cell)) or table.get((slot, None)) or table.get((slot, "3sg"))

    # -- construction --------------------------------------------------

    def _add_sense(self, sense: WordSense, line: int):
        if sense.id in self.senses:
            raise LexiconError(f"duplicate sense {sense.id!r}", line)
        if sense.category not in CATEGORIES:
            raise LexiconError(
                f"category must be one of {CATEGORIES}, got {sense.category!r}", line)
        banned = POS_TAGS.intersection(sense.attributes)
        if banned:
            raise LexiconError(
                f"part-of-speech tag {sorted(banned)} not allowed on {sense.id!r}", line)
        self.senses[sense.id] = sense

    def _add_form(self, surface: str, sense_id: str, attrs: frozenset[str], line: int):
        surface = surface.lower()
        if not surface:
            raise LexiconError("empty surface form", line)
        if POS_TAGS.intersection(attrs):
            raise LexiconError(f"part-of-speech tag not allowed on form {surface!r}", line)
        self.forms.setdefault(surface, []).append((sense_id, attrs))
        table = self._inflections.setdefault(sense_id, {})
        cells = AGREEMENT.intersection(attrs) or (None,)
        for slot in attrs - AGREEMENT:
            for cell in cells:
                table.setdefault((slot, cell), surface)

    def _add_relation(self, source: str, kind: str, target: str, line: int):
        if kind not in RELATION_KINDS:
            raise LexiconError(f"unknown relation kind {kind!r}", line)
        self._rel_index.setdefault((source, kind), []).append(target)

    def _validate(self, phrase_lines: list[int], sense_lines: dict[str, int],
                  references: list[tuple[int, list[str]]]):
        """Referential integrity, once every record is in.  `references`
        holds the line and fields of every form, rel and frame record."""
        for rec, line in zip(self.phrase_records, phrase_lines):
            if rec.kind == "literal" and rec.emit not in self.senses:
                raise LexiconError(f"literal {rec.id!r} emits unknown sense {rec.emit!r}", line)
            for sel in rec.selectors:
                named = sel.senses | sel.not_senses | sel.reach
                if not self.senses.keys() >= named:
                    raise LexiconError(f"phrase {rec.id!r} selects unknown sense "
                                       f"{min(named.difference(self.senses))!r}", line)
                if not sel.cats.issubset(CATEGORIES):
                    raise LexiconError(f"phrase {rec.id!r} selects unknown category "
                                       f"{min(sel.cats.difference(CATEGORIES))!r}", line)
            # the matcher tries a consolidation only where its trigger is present
            if rec.kind == "consolidation" and not any(
                    rec.trigger in sel.senses or rec.trigger in sel.attrs
                    for sel in rec.selectors):
                raise LexiconError(f"consolidation {rec.id!r} has trigger {rec.trigger!r}, "
                                   "which no sense= or attr= condition names", line)
        for line, parts in references:
            if parts[0] == "form":
                if parts[3] not in self.senses:
                    raise LexiconError(f"form {parts[1].lower()!r} links unknown sense "
                                       f"{parts[3]!r}", line)
                pos = self.senses[parts[3]].attr("pos")
                if pos:
                    self.position_words.setdefault(pos, parts[1].lower())
            if parts[0] == "rel":
                source, kind, target = parts[1:]
                if source not in self.senses:
                    raise LexiconError(f"relation from unknown sense {source!r}", line)
                if target not in self.senses and target not in CATEGORIES:
                    raise LexiconError(f"relation to unknown sense {target!r}", line)
                if kind == "entails" and target in self.senses \
                        and self.senses[target].category != "predicate":
                    raise LexiconError(f"entails target {target!r} is not a predicate", line)
            if parts[0] == "frame":
                frame = self.frames[parts[1]]
                if frame.predicate not in self.senses:
                    raise LexiconError(f"frame for unknown predicate {frame.predicate!r}", line)
                names = [r.name for r in frame.roles]
                if len(names) != len(set(names)):
                    raise LexiconError(f"duplicate role in frame {frame.predicate!r}", line)
                for r in frame.roles:
                    if r.name not in ROLE_NAMES:
                        raise LexiconError(f"unknown role name {r.name!r}", line)
                    if r.category not in self.senses and r.category not in CATEGORIES:
                        raise LexiconError(
                            f"frame {frame.predicate!r} role {r.name!r} references "
                            f"unknown category {r.category!r}", line)
        for sense in self.senses.values():
            line = sense_lines[sense.id]
            dims = [d for d in DIMENSIONALITY if d in sense.attributes]
            if len(dims) > 1:
                raise LexiconError(f"{sense.id!r} carries multiple dimensionality classes", line)
            if dims and DIMENSIONALITY[dims[0]] not in self.position_words:
                raise LexiconError(f"{sense.id!r} has dimensionality class {dims[0]}, but no "
                                   f"sense with a form has pos={DIMENSIONALITY[dims[0]]}", line)
            vc = sense.attr("vc")
            if vc is None:
                continue
            if vc not in TEMPLATES:
                raise LexiconError(f"unknown template {vc!r} in vc= of {sense.id!r}; "
                                   f"expected one of {sorted(TEMPLATES)}", line)
            direction = sense.attr("dir")
            if vc == "transfer" and direction not in (None, "to", "from"):
                raise LexiconError(f"bad transfer direction {direction!r} in dir= of "
                                   f"{sense.id!r}; expected to or from", line)
            frame = self.frame_for(sense.id)
            if frame is None:
                raise LexiconError(f"{sense.id!r} has vc={vc} but no selectional frame "
                                   "along its entails chain", line)
            self.templates[sense.id] = (vc, frame)

    def _token_classes(self) -> dict[str, tuple[int, str]]:
        """Surface -> (class number, its one sense), for the surfaces that
        share a class with another; see the module docstring."""
        named = set(ENGINE_SENSES)
        words = set()
        for rec in self.phrase_records:
            named.add(rec.emit)
            for sel in rec.selectors:
                named.update(sel.senses, sel.not_senses, sel.reach)
                words.add(sel.word)
        for frame in self.frames.values():
            named.add(frame.predicate)
            named.update(r.category for r in frame.roles)
        for (source, kind), targets in self._rel_index.items():
            if kind != "is-a":
                named.add(source)
                named.update(targets)
        single: dict[str, tuple[str, frozenset[str]]] = {}
        for surface, links in self.forms.items():
            if len(links) == 1 and surface not in words:
                single[surface] = links[0]
            else:   # a literal surface keeps each of its senses literal
                named.update(s for s, _ in links)
        members: dict[tuple, list[tuple[str, str]]] = {}    # in file order
        for surface, (sense_id, link_attrs) in single.items():
            sense = self.senses[sense_id]
            if sense.category == "referent" and sense_id not in named:
                parents = frozenset(self._rel_index.get((sense_id, "is-a"), ()))
                members.setdefault((sense.attributes, link_attrs, parents), []).append(
                    (surface, sense_id))
        classes = [m for m in members.values() if len(m) > 1]
        return {surface: (number, sense_id) for number, m in enumerate(classes)
                for surface, sense_id in m}

    def _isa_closure(self) -> dict[str, frozenset[str]]:
        """Reflexive is-a closure of every sense; rejects cycles."""
        closure: dict[str, frozenset[str]] = {}
        open_nodes: set[str] = set()

        def reach(node: str) -> frozenset[str]:
            if node in closure:
                return closure[node]
            if node in open_nodes:
                raise LexiconError(f"is-a cycle through {node!r}")
            open_nodes.add(node)
            out = {node}
            for parent in self._rel_index.get((node, "is-a"), ()):
                out |= reach(parent)
            open_nodes.discard(node)
            closure[node] = frozenset(out)
            return closure[node]

        for sense_id in self.senses:
            reach(sense_id)
        return closure


def _parse_attrs(token: str, line: int, parsed: dict[str, frozenset[str]]) -> frozenset[str]:
    """One `{attr,...}` token; `parsed` maps each token met so far in this
    load to its set, since most records repeat a few tokens."""
    attrs = parsed.get(token)
    if attrs is None:
        body = token.strip()
        if not (body.startswith("{") and body.endswith("}")):
            raise LexiconError(f"expected {{attr,...}}, got {body!r}", line)
        attrs = frozenset(filter(None, map(str.strip, body[1:-1].split(","))))
        if "pos=" in body:
            _check_pos(attrs, line)
        parsed[token] = attrs
    return attrs


def _parse_selector(spec: str, line: int) -> Selector:
    values: dict[str, list[str]] = {}   # condition key -> its values, in record order
    for part in spec.split("&"):
        key, sep, value = part.partition("=")
        if not sep:
            raise LexiconError(f"bad selector condition {part!r}", line)
        if key not in SELECTOR_KEYS:
            raise LexiconError(f"unknown selector key {key!r}", line)
        values.setdefault(key, []).append(value)
    words = values.pop("word", ())
    if len(words) > 1:
        raise LexiconError(f"selector {spec!r} names more than one word", line)
    groups = tuple(frozenset(v.split("|")) for v in values.pop("any", ()))
    return Selector(words[0] if words else None, any_of=groups,
                    **{_SELECTOR_FIELDS[key]: frozenset(v) for key, v in values.items()})


def _parse_phrase(parts: list[str], line: int, parsed: dict[str, Selector]) -> PhraseRecord:
    """One `phrase` record; `parsed` maps each selector spec met so far in
    this load to its `Selector`, since records repeat their selectors."""
    if len(parts) < 3:
        raise LexiconError("phrase record needs id and kind", line)
    pid, kind = parts[1], parts[2]
    if kind not in ("literal", "consolidation"):
        raise LexiconError(f"unknown phrase kind {kind!r}", line)
    selectors = []
    fields: dict[str, object] = {}
    try:
        for tok in parts[3:]:
            name, _, value = tok.partition("=")
            if tok.startswith("sel:"):
                spec = tok[4:]
                sel = parsed.get(spec)
                if sel is None:
                    sel = parsed[spec] = _parse_selector(spec, line)
                selectors.append(sel)
            elif name in ("trigger", "emit"):
                fields[name] = value
            elif name in ("ops", "attrs"):
                fields[name] = tuple(v for v in value.split(",") if v)
            elif name == "retain":
                fields[name] = value if value == "bundle" else int(value)
            elif name == "float":
                fields["float_indices"] = tuple(int(i) for i in value.split(",") if i)
            elif name == "labels":
                pairs = (item.partition(":") for item in value.split(",") if item)
                fields[name] = tuple((int(i), label) for i, _, label in pairs)
            else:
                raise LexiconError(f"unknown phrase field {tok!r}", line)
    except ValueError as exc:
        raise LexiconError(f"bad phrase field: {exc}", line) from None
    if not fields.get("trigger"):
        raise LexiconError("phrase record needs trigger=", line)
    rec = PhraseRecord(pid, kind, selectors=tuple(selectors), **fields)
    if kind == "literal" and any(sel.word is None or sel != Selector(sel.word)
                                 for sel in rec.selectors):
        raise LexiconError(f"literal {pid!r} has a selector that is not one word=", line)
    if kind == "consolidation":
        # termination: every firing must strictly shrink the element set
        n = len(rec.selectors)
        if n < 2 or len(rec.float_indices) >= n - 1:
            raise LexiconError(f"pattern {pid!r} would not reduce the element count", line)
        if rec.retain != "bundle" and rec.retain not in range(1, n + 1):
            raise LexiconError(f"pattern {pid!r} retains no element of its window", line)
        # the matcher reads a verb off its form; a consolidation cannot make one
        if any(a.startswith("vc=") for a in rec.attrs):
            raise LexiconError(f"consolidation {pid!r} adds a vc= template in attrs=", line)
        _check_pos(rec.attrs, line)
    return rec


def _check_pos(attrs, line: int):
    """Reject a `pos=` that names no positional predicate: the matcher
    builds a position state from it."""
    bad = [a for a in attrs if a.startswith("pos=") and a not in _POS_ATTRS]
    if bad:
        raise LexiconError(f"{min(bad)} names no positional predicate", line)


def _split_record(text: str, line: int) -> list[str]:
    """Tokens of one record line: whitespace-separated words, `"..."`
    tokens that may hold spaces and apostrophes, and a `#` comment to the
    end of the line.  The format has no other quoting and no escapes."""
    if '"' not in text:
        return text.partition("#")[0].split()
    tokens: list[str] = []
    rest = text
    while True:
        head, quote, rest = rest.partition('"')
        head, comment, _ = head.partition("#")
        tokens.extend(head.split())
        if comment or not quote:
            return tokens
        body, closed, rest = rest.partition('"')
        if not closed:
            raise LexiconError("unterminated quote", line)
        if head[-1:].strip() or rest[:1].strip() not in ("", "#"):
            raise LexiconError("a quote must enclose a whole token", line)
        tokens.append(body)


def load_lexicon(source: str) -> Lexicon:
    """Parse the one-record-per-line lexicon format; validates integrity.

    Record kinds:
        sense <id> <category> {attr,...} "gloss"
        form <surface> -> <sense-id> {attr,...}
        rel <id> <kind> <id-or-label>
        frame <pred-id> <role>:<category>[!required] ...
        phrase <id> literal|consolidation trigger=<key> [sel:...]+ ...
    """
    lex = Lexicon()
    phrase_lines: list[int] = []
    sense_lines: dict[str, int] = {}
    references: list[tuple[int, list[str]]] = []    # checked once all senses are in
    selectors: dict[str, Selector] = {}
    attr_sets: dict[str, frozenset[str]] = {}
    for lineno, raw in enumerate(source.splitlines(), start=1):
        parts = _split_record(raw, lineno)
        if not parts:
            continue
        kind = parts[0]
        if kind == "sense":
            if len(parts) < 3:
                raise LexiconError("sense record needs id and category", lineno)
            attrs = _parse_attrs(parts[3], lineno, attr_sets) if len(parts) > 3 else frozenset()
            gloss = parts[4] if len(parts) > 4 else ""
            lex._add_sense(WordSense(parts[1], parts[2], attrs, gloss), lineno)
            sense_lines[parts[1]] = lineno
        elif kind == "form":
            if len(parts) < 4 or parts[2] != "->":
                raise LexiconError("form record is `form <surface> -> <sense> {attrs}`", lineno)
            attrs = _parse_attrs(parts[4], lineno, attr_sets) if len(parts) > 4 else frozenset()
            lex._add_form(parts[1], parts[3], attrs, lineno)
            references.append((lineno, parts))
        elif kind == "rel":
            if len(parts) != 4:
                raise LexiconError("rel record is `rel <from> <kind> <to>`", lineno)
            lex._add_relation(parts[1], parts[2], parts[3], lineno)
            references.append((lineno, parts))
        elif kind == "frame":
            if len(parts) < 3:
                raise LexiconError("frame record needs predicate and roles", lineno)
            roles = []
            for tok in parts[2:]:
                name, sep, category = tok.removesuffix("!required").partition(":")
                if not sep:
                    raise LexiconError(f"bad role spec {tok!r}", lineno)
                roles.append(FrameRole(name, category, tok.endswith("!required")))
            if parts[1] in lex.frames:
                raise LexiconError(f"duplicate frame for {parts[1]!r}", lineno)
            lex.frames[parts[1]] = SelectionalFrame(parts[1], tuple(roles))
            references.append((lineno, parts))
        elif kind == "phrase":
            lex.phrase_records.append(_parse_phrase(parts, lineno, selectors))
            phrase_lines.append(lineno)
        else:
            raise LexiconError(f"unknown record kind {kind!r}", lineno)
    lex._validate(phrase_lines, sense_lines, references)
    lex._isa = lex._isa_closure()
    lex._entails_base = {s: lex._entails_chain(s)[-1] for s in lex.senses}
    lex.token_classes = lex._token_classes()
    return lex
