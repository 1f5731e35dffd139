"""Semantic-network lexicon.

Word forms link surface tokens to word senses with inflectional attributes.
Senses carry one of three semantic universals (referent / predicate /
modifier) -- never parts of speech -- plus attribute sets, semantic
relations (is-a, has-a, entails, does-x-*) and selectional frames used for
word-sense disambiguation.  Phrase pattern records live in the same file
format but are compiled by the matcher.

The lexicon is immutable once loaded and safe to share across threads;
building is single-writer.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass, field

CATEGORIES = ("referent", "predicate", "modifier")
RELATION_KINDS = ("is-a", "has-a", "entails", "does-x-actor", "does-x-undergoer")
ROLE_NAMES = ("actor", "undergoer", "destination", "source", "recipient")
# spatial dimensionality class -> English position preposition
DIMENSIONALITY = {"enclosure": "in", "surface": "on", "locale": "at"}
# banned part-of-speech vocabulary; the model uses semantic universals only
POS_TAGS = frozenset({"noun", "verb", "adjective", "adverb"})


class LexiconError(Exception):
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
class SemanticRelation:
    source: str
    kind: str
    target: str


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


@dataclass
class PhraseRecord:
    """Raw `phrase` record; compiled into a pattern by the matcher."""

    id: str
    kind: str              # literal | consolidation | predication
    trigger: str
    selectors: list[str] = field(default_factory=list)
    retain: str | None = None
    float_indices: tuple[int, ...] = ()
    labels: dict[int, str] = field(default_factory=dict)
    ops: tuple[str, ...] = ()
    attrs: tuple[str, ...] = ()
    emit: str | None = None
    frame: str | None = None
    template: str | None = None
    line: int = 0


class Lexicon:
    """Loaded semantic network with lookup helpers."""

    def __init__(self):
        self.senses: dict[str, WordSense] = {}
        # surface -> list of (sense id, link attributes)
        self.forms: dict[str, list[tuple[str, frozenset[str]]]] = {}
        self.relations: list[SemanticRelation] = []
        self.frames: dict[str, SelectionalFrame] = {}
        self.phrase_records: list[PhraseRecord] = []
        self._rel_index: dict[tuple[str, str], list[str]] = {}
        self._reach_cache: dict[tuple[str, str], bool] = {}

    def __len__(self):
        return len(self.senses)

    def __contains__(self, sense_id: str) -> bool:
        return sense_id in self.senses

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
        key = (sense_id, category)
        cached = self._reach_cache.get(key)
        if cached is not None:
            return cached
        seen = set()
        stack = [sense_id]
        found = False
        while stack:
            cur = stack.pop()
            if cur == category:
                found = True
                break
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self._rel_index.get((cur, "is-a"), ()))
        self._reach_cache[key] = found
        return found

    def selectional_fit(self, frame: SelectionalFrame, role: str, filler: str) -> bool:
        """Does `filler` satisfy the category restriction of `role`?"""
        r = frame.role(role)
        if r is None:
            raise LexiconError(f"frame {frame.predicate} has no role {role!r}")
        return self.holds_category(filler, r.category)

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

    def entails_base(self, sense_id: str) -> str:
        """Follow entails edges to the most general predicate (e.g. journey -> go)."""
        cur = sense_id
        seen = {cur}
        while True:
            nxt = self._rel_index.get((cur, "entails"))
            if not nxt or nxt[0] in seen:
                return cur
            cur = nxt[0]
            seen.add(cur)

    def entails_related(self, a: str, b: str) -> bool:
        if a == b:
            return True
        return self.entails_base(a) == self.entails_base(b)

    def frame_for(self, sense_id: str) -> SelectionalFrame | None:
        """Frame of the sense, falling back along entails edges."""
        cur = sense_id
        seen = set()
        while cur not in seen:
            seen.add(cur)
            if cur in self.frames:
                return self.frames[cur]
            nxt = self._rel_index.get((cur, "entails"))
            if not nxt:
                return None
            cur = nxt[0]
        return None

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

    def _add_relation(self, rel: SemanticRelation, line: int):
        if rel.kind not in RELATION_KINDS:
            raise LexiconError(f"unknown relation kind {rel.kind!r}", line)
        self.relations.append(rel)
        self._rel_index.setdefault((rel.source, rel.kind), []).append(rel.target)

    def _validate(self):
        for surface, links in self.forms.items():
            for sense_id, _ in links:
                if sense_id not in self.senses:
                    raise LexiconError(f"form {surface!r} links unknown sense {sense_id!r}")
        for rel in self.relations:
            if rel.source not in self.senses:
                raise LexiconError(f"relation from unknown sense {rel.source!r}")
            if rel.target not in self.senses and rel.target not in CATEGORIES:
                raise LexiconError(f"relation to unknown sense {rel.target!r}")
            if rel.kind == "entails":
                if rel.target in self.senses and self.senses[rel.target].category != "predicate":
                    raise LexiconError(f"entails target {rel.target!r} is not a predicate")
        for frame in self.frames.values():
            if frame.predicate not in self.senses:
                raise LexiconError(f"frame for unknown predicate {frame.predicate!r}")
            if not frame.roles:
                raise LexiconError(f"frame {frame.predicate!r} has no roles")
            names = [r.name for r in frame.roles]
            if len(names) != len(set(names)):
                raise LexiconError(f"duplicate role in frame {frame.predicate!r}")
            for r in frame.roles:
                if r.name not in ROLE_NAMES:
                    raise LexiconError(f"unknown role name {r.name!r}")
                if r.category not in self.senses and r.category not in CATEGORIES:
                    raise LexiconError(
                        f"frame {frame.predicate!r} role {r.name!r} references "
                        f"unknown category {r.category!r}")
        self._check_isa_acyclic()
        for sense in self.senses.values():
            dims = [d for d in DIMENSIONALITY if d in sense.attributes]
            if len(dims) > 1:
                raise LexiconError(f"{sense.id!r} carries multiple dimensionality classes")

    def _check_isa_acyclic(self):
        WHITE, GREY, BLACK = 0, 1, 2
        color = {s: WHITE for s in self.senses}

        def visit(node):
            color[node] = GREY
            for nxt in self._rel_index.get((node, "is-a"), ()):
                if nxt not in color:
                    continue
                if color[nxt] == GREY:
                    raise LexiconError(f"is-a cycle through {nxt!r}")
                if color[nxt] == WHITE:
                    visit(nxt)
            color[node] = BLACK

        for s in list(color):
            if color[s] == WHITE:
                visit(s)

    # -- serialization --------------------------------------------------

    def dumps(self) -> str:
        """Serialize back to the record format; loading the result yields an
        identical network."""
        out = []
        for sense in self.senses.values():
            attrs = "{" + ",".join(sorted(sense.attributes)) + "}"
            out.append(f'sense {sense.id} {sense.category} {attrs} "{sense.gloss}"')
        for surface, links in self.forms.items():
            for sense_id, attrs in links:
                a = "{" + ",".join(sorted(attrs)) + "}"
                out.append(f"form {surface} -> {sense_id} {a}")
        for rel in self.relations:
            out.append(f"rel {rel.source} {rel.kind} {rel.target}")
        for frame in self.frames.values():
            roles = " ".join(
                f"{r.name}:{r.category}" + ("!required" if r.required else "")
                for r in frame.roles)
            out.append(f"frame {frame.predicate} {roles}")
        for rec in self.phrase_records:
            out.append(_render_phrase_record(rec))
        return "\n".join(out) + "\n"

    def same_network(self, other: "Lexicon") -> bool:
        def phrase_lines(lex):
            return [_render_phrase_record(r) for r in lex.phrase_records]
        return (self.senses == other.senses
                and self.forms == other.forms
                and sorted(self.relations, key=str) == sorted(other.relations, key=str)
                and self.frames == other.frames
                and phrase_lines(self) == phrase_lines(other))


def _render_phrase_record(rec: PhraseRecord) -> str:
    parts = [f"phrase {rec.id} {rec.kind} trigger={rec.trigger}"]
    parts.extend(f"sel:{s}" for s in rec.selectors)
    if rec.retain is not None:
        parts.append(f"retain={rec.retain}")
    if rec.float_indices:
        parts.append("float=" + ",".join(str(i) for i in rec.float_indices))
    if rec.labels:
        parts.append("labels=" + ",".join(f"{i}:{v}" for i, v in sorted(rec.labels.items())))
    if rec.ops:
        parts.append("ops=" + ",".join(rec.ops))
    if rec.attrs:
        parts.append("attrs=" + ",".join(rec.attrs))
    if rec.emit:
        parts.append(f"emit={rec.emit}")
    if rec.frame:
        parts.append(f"frame={rec.frame}")
    if rec.template:
        parts.append(f"template={rec.template}")
    return " ".join(parts)


def _parse_attrs(token: str, line: int) -> frozenset[str]:
    token = token.strip()
    if not (token.startswith("{") and token.endswith("}")):
        raise LexiconError(f"expected {{attr,...}}, got {token!r}", line)
    body = token[1:-1].strip()
    if not body:
        return frozenset()
    return frozenset(a.strip() for a in body.split(",") if a.strip())


def _parse_phrase(parts: list[str], line: int) -> PhraseRecord:
    if len(parts) < 3:
        raise LexiconError("phrase record needs id and kind", line)
    rec = PhraseRecord(id=parts[1], kind=parts[2], trigger="", line=line)
    if rec.kind not in ("literal", "consolidation", "predication"):
        raise LexiconError(f"unknown phrase kind {rec.kind!r}", line)
    for tok in parts[3:]:
        if tok.startswith("sel:"):
            rec.selectors.append(tok[4:])
        elif tok.startswith("trigger="):
            rec.trigger = tok[8:]
        elif tok.startswith("retain="):
            rec.retain = tok[7:]
        elif tok.startswith("float="):
            rec.float_indices = tuple(int(i) for i in tok[6:].split(",") if i)
        elif tok.startswith("labels="):
            body = tok[7:]
            if body:
                for item in body.split(","):
                    idx, _, label = item.partition(":")
                    rec.labels[int(idx)] = label
        elif tok.startswith("ops="):
            rec.ops = tuple(o for o in tok[4:].split(",") if o)
        elif tok.startswith("attrs="):
            rec.attrs = tuple(a for a in tok[6:].split(",") if a)
        elif tok.startswith("emit="):
            rec.emit = tok[5:]
        elif tok.startswith("frame="):
            rec.frame = tok[6:]
        elif tok.startswith("template="):
            rec.template = tok[9:]
        else:
            raise LexiconError(f"unknown phrase field {tok!r}", line)
    if not rec.trigger:
        raise LexiconError("phrase record needs trigger=", line)
    return rec


def load_lexicon(source: str) -> Lexicon:
    """Parse the one-record-per-line lexicon format; validates integrity.

    Record kinds:
        sense <id> <category> {attr,...} "gloss"
        form <surface> -> <sense-id> {attr,...}
        rel <id> <kind> <id-or-label>
        frame <pred-id> <role>:<category>[!required] ...
        phrase <id> <kind> trigger=<key> [sel:...]+ ...
    """
    lex = Lexicon()
    for lineno, raw in enumerate(source.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            parts = shlex.split(stripped, comments=True)
        except ValueError as exc:
            raise LexiconError(str(exc), lineno) from None
        if not parts:
            continue
        kind = parts[0]
        if kind == "sense":
            if len(parts) < 3:
                raise LexiconError("sense record needs id and category", lineno)
            attrs = _parse_attrs(parts[3], lineno) if len(parts) > 3 else frozenset()
            gloss = parts[4] if len(parts) > 4 else ""
            lex._add_sense(WordSense(parts[1], parts[2], attrs, gloss), lineno)
        elif kind == "form":
            if len(parts) < 4 or parts[2] != "->":
                raise LexiconError("form record is `form <surface> -> <sense> {attrs}`", lineno)
            attrs = _parse_attrs(parts[4], lineno) if len(parts) > 4 else frozenset()
            lex._add_form(parts[1], parts[3], attrs, lineno)
        elif kind == "rel":
            if len(parts) != 4:
                raise LexiconError("rel record is `rel <from> <kind> <to>`", lineno)
            lex._add_relation(SemanticRelation(parts[1], parts[2], parts[3]), lineno)
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
        elif kind == "phrase":
            lex.phrase_records.append(_parse_phrase(parts, lineno))
        else:
            raise LexiconError(f"unknown record kind {kind!r}", lineno)
    lex._validate()
    return lex
