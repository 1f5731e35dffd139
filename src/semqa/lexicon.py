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
indices, literal `emit=` senses and `vc=` template names included, checks
that a sense with a frame-driven template reaches a selectional frame
along its entails chain, and computes the derived tables (relation index,
is-a closure, entails bases) once.  Each `sel:` part becomes a `Selector`
record with one field per condition key.  Its `sense=`, `not-sense=` and
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
ROLE_NAMES = ("actor", "undergoer", "destination", "source", "recipient")
# spatial dimensionality class -> English position preposition
DIMENSIONALITY = {"enclosure": "in", "surface": "on", "locale": "at"}
# banned part-of-speech vocabulary; the model uses semantic universals only
POS_TAGS = frozenset({"noun", "verb", "adjective", "adverb"})
# keys of a phrase selector condition `key=value`, in `Selector` field order
SELECTOR_KEYS = ("word", "sense", "not-sense", "cat", "reach", "attr", "not-attr", "any")
# `vc=` template names; the matcher builds one logical structure per name
TEMPLATES = frozenset({"be-state", "have-state", "motion", "transfer", "acquire",
                       "release", "activity"})
# templates whose roles are linked through the predicate's selectional frame
FRAME_TEMPLATES = TEMPLATES - {"be-state", "have-state"}


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

    def role(self, name: str) -> FrameRole | None:
        for r in self.roles:
            if r.name == name:
                return r
        return None


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
        # (source, relation kind) -> targets, in record order
        self._rel_index: dict[tuple[str, str], list[str]] = {}
        # sense -> every sense it reaches via zero or more is-a edges
        self._isa: dict[str, frozenset[str]] = {}
        # sense -> last sense of its entails chain
        self._entails_base: dict[str, str] = {}

    def __len__(self):
        return len(self.senses)

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
        return self._isa[sense_id]

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
        if a == b:
            return True
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

    def verb_forms(self, sense_id: str) -> dict[str, str]:
        """Inflection table {base,3sg,past,past-participle,present-participle}."""
        table: dict[str, str] = {}
        for surface, links in self.forms.items():
            for sid, attrs in links:
                if sid != sense_id:
                    continue
                for slot in ("base", "3sg", "past", "past-participle", "present-participle"):
                    if slot in attrs and slot not in table:
                        table[slot] = surface
        return table

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
            if parts[0] == "form" and parts[3] not in self.senses:
                raise LexiconError(f"form {parts[1].lower()!r} links unknown sense "
                                   f"{parts[3]!r}", line)
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
            dims = [d for d in DIMENSIONALITY if d in sense.attributes]
            if len(dims) > 1:
                raise LexiconError(f"{sense.id!r} carries multiple dimensionality classes",
                                   sense_lines[sense.id])
            vc = sense.attr("vc")
            if vc is not None and vc not in TEMPLATES:
                raise LexiconError(f"unknown template {vc!r} in vc= of {sense.id!r}; "
                                   f"expected one of {sorted(TEMPLATES)}", sense_lines[sense.id])
            if vc in FRAME_TEMPLATES and self.frame_for(sense.id) is None:
                raise LexiconError(f"{sense.id!r} has vc={vc} but no selectional frame "
                                   "along its entails chain", sense_lines[sense.id])

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


def _parse_attrs(token: str, line: int) -> frozenset[str]:
    token = token.strip()
    if not (token.startswith("{") and token.endswith("}")):
        raise LexiconError(f"expected {{attr,...}}, got {token!r}", line)
    body = token[1:-1].strip()
    if not body:
        return frozenset()
    return frozenset(filter(None, map(str.strip, body.split(","))))


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
    return rec


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
    for lineno, raw in enumerate(source.splitlines(), start=1):
        parts = _split_record(raw, lineno)
        if not parts:
            continue
        kind = parts[0]
        if kind == "sense":
            if len(parts) < 3:
                raise LexiconError("sense record needs id and category", lineno)
            attrs = _parse_attrs(parts[3], lineno) if len(parts) > 3 else frozenset()
            gloss = parts[4] if len(parts) > 4 else ""
            lex._add_sense(WordSense(parts[1], parts[2], attrs, gloss), lineno)
            sense_lines[parts[1]] = lineno
        elif kind == "form":
            if len(parts) < 4 or parts[2] != "->":
                raise LexiconError("form record is `form <surface> -> <sense> {attrs}`", lineno)
            attrs = _parse_attrs(parts[4], lineno) if len(parts) > 4 else frozenset()
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
                required = False
                if tok.endswith("!required"):
                    tok, required = tok[:-9], True
                elif tok.endswith("!"):
                    tok, required = tok[:-1], True
                name, sep, category = tok.partition(":")
                if not sep:
                    raise LexiconError(f"bad role spec {tok!r}", lineno)
                roles.append(FrameRole(name, category, required))
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
    return lex
