from __future__ import annotations

import random
import re
import shlex
from pathlib import Path

import pytest

import semqa
from semqa.lexicon import (
    ENGINE_SENSES,
    TEMPLATES,
    LexiconError,
    _split_record,
    load_lexicon,
)

MINI = """
sense r:thing referent {} "object"
sense r:food referent {} "edible"
sense r:sandwich referent {singular} "bread"
sense p:eat1 predicate {} "chew"
rel r:food is-a r:thing
rel r:sandwich is-a r:food
form ate -> p:eat1 {past}
form sandwich -> r:sandwich {singular}
"""


def test_direct_record_load():
    lex = load_lexicon(MINI)
    assert lex.senses_of("ate") == [("p:eat1", frozenset({"past"}))]


def test_empty_document_is_empty_lexicon():
    lex = load_lexicon("")
    assert not lex.senses
    assert lex.senses_of("anything") == []


def test_task5_vocabulary_covered(lex):
    # the 39 words used by the three-argument-relations task
    words = """bill travelled to the office picked up football there went
        bedroom gave fred what did give handed jeff back who received got
        milk garden hallway journeyed moved bathroom mary kitchen took
        apple left passed put down grabbed dropped discarded""".split()
    assert len(words) == 39
    for w in words:
        assert lex.senses_of(w), f"no senses for {w!r}"


def test_senses_of_ate_is_ambiguous(lex):
    senses = dict(lex.senses_of("ate"))
    assert set(senses) == {"p:eat-chew", "p:eat-erode"}
    assert all("past" in attrs for attrs in senses.values())


def test_senses_of_kitchen_knows_dimensionality(lex):
    [(sense_id, attrs)] = lex.senses_of("kitchen")
    assert sense_id == "r:kitchen"
    assert "singular" in attrs
    assert lex.dimensionality_of("r:kitchen") == "enclosure"


def test_senses_of_unknown_token_is_empty(lex):
    assert lex.senses_of("zzz") == []


def test_holds_category(lex):
    assert lex.holds_category("r:girl", "r:animal")
    assert lex.holds_category("r:sandwich", "r:food")
    assert lex.holds_category("r:kitchen", "r:kitchen")  # zero-edge reflexivity
    assert not lex.holds_category("r:kitchen", "r:food")


def test_holds_category_universal_labels(lex):
    assert lex.holds_category("r:girl", "referent")
    assert lex.holds_category("p:give", "predicate")
    assert not lex.holds_category("r:girl", "predicate")


def test_holds_category_unknown_identifier(lex):
    with pytest.raises(LexiconError):
        lex.holds_category("r:nonesuch", "r:thing")
    with pytest.raises(LexiconError, match="unknown sense 'r:nonesuch'"):
        lex.holds_category("r:nonesuch", "referent")


def test_qualia_expand(lex):
    assert ("r:engine", "has-a") in lex.qualia_expand("r:car")
    assert ("r:wheel", "has-a") in lex.qualia_expand("r:car")
    book = lex.qualia_expand("r:book")
    assert ("p:read", "does-x-undergoer") in book
    assert ("p:write", "does-x-undergoer") in book
    assert lex.qualia_expand("r:beach") == []


def test_entails_base(lex):
    assert lex.entails_base("p:journey") == "p:go"
    assert lex.entails_base("p:go") == "p:go"
    assert lex.frame_for("p:hand").predicate == "p:give"


def test_is_a_cycle_rejected():
    doc = MINI + "\nrel r:thing is-a r:sandwich\n"
    with pytest.raises(LexiconError, match="cycle"):
        load_lexicon(doc)


def test_dangling_sense_rejected():
    with pytest.raises(LexiconError, match="unknown sense"):
        load_lexicon('form ghost -> p:missing {}\n')


# senses the records below may name; they come after the record, since
# references are checked once every record is in
KNOWN = 'sense r:one referent {} "one"\nsense p:one predicate {} "one"\n'


@pytest.mark.parametrize("record, message", [
    ("form ghost -> p:missing {}", "form 'ghost' links unknown sense 'p:missing'"),
    ("rel r:a is-a r:b", "relation from unknown sense 'r:a'"),
    ("frame p:x actor:r:y", "frame for unknown predicate 'p:x'"),
    # a record of two lines fails on its second
    ('sense r:two referent {}\nsense r:two referent {} "again"', "duplicate sense 'r:two'"),
    ("sense r:two", "sense record needs id and category"),
    ("sense r:two referent singular", "expected {attr,...}, got 'singular'"),
    ("sense r:two referent {enclosure}",
     "'r:two' has dimensionality class enclosure, but no sense with a form has pos=p:be-in"),
    ("form x -> r:one {noun}", "part-of-speech tag not allowed on form 'x'"),
    ('form "" -> r:one {}', "empty surface form"),
    ("form x r:one", "form record is `form <surface> -> <sense> {attrs}`"),
    ("rel r:one likes r:one", "unknown relation kind 'likes'"),
    ("rel r:one is-a", "rel record is `rel <from> <kind> <to>`"),
    ("rel r:one is-a r:missing", "relation to unknown sense 'r:missing'"),
    ("rel p:one entails r:one", "entails target 'r:one' is not a predicate"),
    ("frame p:one", "frame record needs predicate and roles"),
    ("frame p:one actor", "bad role spec 'actor'"),
    ("frame p:one actor:r:one actor:r:one", "duplicate role in frame 'p:one'"),
    ("frame p:one agent:r:one", "unknown role name 'agent'"),
    ("frame p:one actor:r:missing",
     "frame 'p:one' role 'actor' references unknown category 'r:missing'"),
    # `!required` is the one spelling of a required role
    ("frame p:one actor:r:one!", "frame 'p:one' role 'actor' references unknown category 'r:one!'"),
    ("frame p:one actor:r:one\nframe p:one actor:r:one", "duplicate frame for 'p:one'"),
    ("phrase p", "phrase record needs id and kind"),
    ("phrase p consolidation colour=red", "unknown phrase field 'colour=red'"),
    ("phrase p consolidation sel:attr=x sel:attr=y retain=1", "phrase record needs trigger="),
    # a pos= names one of the positional predicates, wherever it is written
    ('sense p:inn predicate {prep,pos=p:be-inn} "inside"',
     "pos=p:be-inn names no positional predicate"),
    ("form x -> p:one {pos=p:be-LOC}", "pos=p:be-LOC names no positional predicate"),
    ("phrase p consolidation trigger=x sel:attr=x sel:attr=y retain=2 "
     "attrs=role-phrase,pos=p:be-inn", "pos=p:be-inn names no positional predicate"),
])
def test_dangling_reference_names_its_line(record, message):
    line = record.count("\n") + 2
    with pytest.raises(LexiconError, match=f"^line {line}: {re.escape(message)}$") as err:
        load_lexicon(f"# a comment line\n{record}\n{KNOWN}")
    assert err.value.line == line


def test_pos_tags_rejected():
    with pytest.raises(LexiconError, match="part-of-speech"):
        load_lexicon('sense x:bad referent {noun} "tagged"\n')


def test_category_must_be_universal():
    with pytest.raises(LexiconError, match="category"):
        load_lexicon('sense x:bad verb {} "part of speech as category"\n')


def test_parse_error_carries_line_number():
    with pytest.raises(LexiconError, match="line 2"):
        load_lexicon("# fine\nfrobnicate x y\n")


def test_double_dimensionality_rejected():
    doc = 'sense r:odd referent {enclosure,surface} "both"\n'
    with pytest.raises(LexiconError, match="dimensionality"):
        load_lexicon(doc)


def test_reachability_agrees_with_brute_force():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randrange(4, 16)
        lines = [f'sense r:n{i} referent {{}} "node"' for i in range(n)]
        edges = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.25:
                    edges.add((i, j))
                    lines.append(f"rel r:n{i} is-a r:n{j}")
        lex = load_lexicon("\n".join(lines))
        # brute force: boolean transitive closure
        reach = [[i == j for j in range(n)] for i in range(n)]
        for i, j in edges:
            reach[i][j] = True
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if reach[i][k] and reach[k][j]:
                        reach[i][j] = True
        for i in range(n):
            for j in range(n):
                assert lex.holds_category(f"r:n{i}", f"r:n{j}") == reach[i][j]


def test_unknown_selector_key_fails_at_load():
    good = "sel:attr=aux sel:sense=m:not"
    text = semqa.core_lexicon_text()
    lineno = text[:text.index(good)].count("\n") + 1
    with pytest.raises(LexiconError, match=f"line {lineno}: unknown selector key 'atr'"):
        load_lexicon(text.replace(good, "sel:atr=aux sel:sense=m:not"))


def test_selector_part_without_equals_fails_at_load():
    doc = "# phrases\nphrase p consolidation trigger=aux sel:attr=aux&aux sel:sense=m:not retain=1\n"
    with pytest.raises(LexiconError, match="line 2: bad selector condition 'aux'"):
        load_lexicon(doc)


def test_non_reducing_consolidation_fails_at_load():
    doc = ("# phrases\nphrase p consolidation trigger=aux sel:attr=aux sel:sense=m:not "
           "retain=1 float=2\n")
    with pytest.raises(LexiconError, match="line 2: pattern 'p' would not reduce"):
        load_lexicon(doc)


@pytest.mark.parametrize("retain", ["retain=3", "retain=x", ""])
def test_consolidation_must_retain_a_window_element(retain):
    doc = f"phrase p consolidation trigger=aux sel:attr=aux sel:sense=m:not {retain}\n"
    with pytest.raises(LexiconError, match="line 1"):
        load_lexicon(doc)


def _line_of(text: str, needle: str) -> int:
    return text[:text.index(needle)].count("\n") + 1


@pytest.mark.parametrize("good, bad, message", [
    ("emit=m:no-longer", "emit=m:no-longre",
     "literal 'lit-no-longer' emits unknown sense 'm:no-longre'"),
    # the first {vc=motion} is p:go's sense record
    ("{vc=motion}", "{vc=motoin}", "unknown template 'motoin' in vc= of 'p:go'"),
    # the first dir=to is p:give's
    ("dir=to", "dir=sideways",
     "bad transfer direction 'sideways' in dir= of 'p:give'; expected to or from"),
    # acquire and release are transfer rows, no templates of their own
    ("{vc=transfer,dir=from,wants-up}", "{vc=acquire,wants-up}",
     "unknown template 'acquire' in vc= of 'p:pick-up'"),
    ("{vc=transfer,dir=to}", "{vc=release}", "unknown template 'release' in vc= of 'p:drop'"),
])
def test_phrase_output_names_fail_at_load(good, bad, message):
    text = semqa.core_lexicon_text()
    lineno = _line_of(text, good)
    with pytest.raises(LexiconError, match=f"line {lineno}: {message}"):
        load_lexicon(text.replace(good, bad, 1))


@pytest.mark.parametrize("good, bad, message", [
    ("sel:sense=p:to sel:reach=r:location", "sel:sense=p:tto sel:reach=r:location",
     "phrase 'dest-to' selects unknown sense 'p:tto'"),
    ("not-sense=p:do", "not-sense=p:od", "phrase 'do-base' selects unknown sense 'p:od'"),
    ("reach=r:location", "reach=r:locaton", "phrase 'dest-to' selects unknown sense 'r:locaton'"),
    ("cat=referent", "cat=referant", "phrase 'particle-up-split' selects unknown category "
                                     "'referant'"),
])
def test_selector_values_fail_at_load(good, bad, message):
    text = semqa.core_lexicon_text()
    lineno = _line_of(text, good)
    with pytest.raises(LexiconError, match=f"line {lineno}: {message}"):
        load_lexicon(text.replace(good, bad, 1))


@pytest.mark.parametrize("good, bad", [
    ("trigger=p:by", "trigger=p:bye"),
    # a name inside any= does not count: the element may hold another one
    ("trigger=m:and", "trigger=proper"),
])
def test_consolidation_trigger_must_be_selected_at_load(good, bad):
    text = semqa.core_lexicon_text()
    lineno = _line_of(text, good)
    trigger = bad.partition("=")[2]
    with pytest.raises(LexiconError, match=f"line {lineno}: consolidation '[a-z-]+' has trigger "
                                           f"'{trigger}', which no sense= or attr= condition"):
        load_lexicon(text.replace(good, bad, 1))


@pytest.mark.parametrize("attrs", ["attrs=counted,vc=motion", "attrs=vc=activity"])
def test_consolidation_cannot_add_a_template(attrs):
    # the matcher reads whether an element is a verb off its form
    text = semqa.core_lexicon_text()
    lineno = _line_of(text, "phrase count-ref ")
    bad = text.replace("retain=1 attrs=counted", f"retain=1 {attrs}", 1)
    assert bad != text
    with pytest.raises(LexiconError, match=f"line {lineno}: consolidation 'count-ref' "
                                           "adds a vc= template in attrs="):
        load_lexicon(bad)


def test_consolidation_cannot_add_an_operator():
    # an element's ops come from its form's op= attributes and from ops=
    text = semqa.core_lexicon_text()
    lineno = _line_of(text, "phrase count-ref ")
    bad = text.replace("retain=1 attrs=counted", "retain=1 attrs=counted,op=negative", 1)
    assert bad != text
    with pytest.raises(LexiconError, match=f"line {lineno}: consolidation 'count-ref' "
                                           "adds an op= in attrs=; use ops="):
        load_lexicon(bad)


@pytest.mark.parametrize("record, message", [
    ("phrase p literal trigger=a sel:word=a sel:word=b&attr=x emit=r:x",
     "literal 'p' has a selector that is not one word="),
    ("phrase p consolidation trigger=x sel:attr=x&word=a&word=b sel:attr=y retain=1",
     "selector 'attr=x&word=a&word=b' names more than one word"),
])
def test_selector_word_is_single(record, message):
    with pytest.raises(LexiconError, match=f"line 2: {message}"):
        load_lexicon(f"sense r:x referent {{}} \"x\"\n{record}\n")


def test_predication_record_kind_is_gone():
    doc = ("# phrases\n"
           "phrase pred-motion predication trigger=vc=motion sel:attr=vc=motion\n")
    with pytest.raises(LexiconError, match="line 2: unknown phrase kind 'predication'"):
        load_lexicon(doc)


@pytest.mark.parametrize("frame, sense, vc", [
    # p:move, p:travel and p:journey lose it too; p:go's line comes first
    ("frame p:go actor:r:animal!required destination:r:location!required\n", "p:go", "motion"),
    ("frame p:be located:referent!required position:r:location!required\n", "p:be", "be-state"),
], ids=["p:go", "p:be"])
def test_frame_driven_sense_needs_a_frame_at_load(frame, sense, vc):
    text = semqa.core_lexicon_text()
    assert frame in text
    lineno = _line_of(text, f"sense {sense} ")
    with pytest.raises(LexiconError, match=f"line {lineno}: '{sense}' has vc={vc} "
                                           "but no selectional frame"):
        load_lexicon(text.replace(frame, ""))


def test_templates_are_compiled_at_load(lex):
    with_vc = {sid for sid, sense in lex.senses.items() if sense.attr("vc")}
    assert with_vc and lex.templates.keys() == with_vc
    for sid in with_vc:
        assert lex.templates[sid] == (lex.sense(sid).attr("vc"), lex.frame_for(sid))
    tiny = load_lexicon('sense p:be predicate {vc=be-state} "exist"\n'
                        'frame p:be located:referent\n')
    assert tiny.templates == {"p:be": ("be-state", tiny.frames["p:be"])}


def test_every_template_is_used_by_the_core_lexicon(lex):
    assert {lex.sense(sid).attr("vc") for sid in lex.templates} == TEMPLATES


def test_record_lines_split_as_shell_words():
    lines = [line for line in semqa.core_lexicon_text().splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    assert any('"' in line for line in lines)
    for line in lines:
        assert _split_record(line, 1) == shlex.split(line, comments=True), line


@pytest.mark.parametrize("record, message", [
    ('sense r:x referent {} "open gloss', "unterminated quote"),
    ('sense r:x referent {} a"b c"', "a quote must enclose a whole token"),
    ('sense r:x referent {} "b c"d', "a quote must enclose a whole token"),
])
def test_stray_quote_fails_with_its_line(record, message):
    with pytest.raises(LexiconError, match=f"line 2: {message}"):
        load_lexicon(f"# quotes\n{record}\n")


def test_comment_after_a_record_is_ignored():
    lex = load_lexicon('sense r:x referent {} "it\'s # not a comment" # a comment\n')
    assert lex.sense("r:x").gloss == "it's # not a comment"


# -- token classes ----------------------------------------------------------------

# two female names; each row adds `zoe` (and at times `max` or `zed`)
CLASS_BASE = """
sense r:person referent {} "human"
sense r:place referent {} "place"
sense r:hat referent {} "hat"
sense r:ann referent {proper,female,singular} "name"
sense r:eve referent {proper,female,singular} "name"
rel r:ann is-a r:person
rel r:eve is-a r:person
form ann -> r:ann {singular}
form eve -> r:eve {singular}
"""
ZOE = """
sense r:zoe referent {proper,female,singular} "name"
form zoe -> r:zoe {singular}
rel r:zoe is-a r:person
"""
FEMALES = ["ann", "eve", "zoe"]


def _with_max(attrs: str, link: str, parent: str) -> str:
    return (f'sense r:max referent {{{attrs}}} "name"\nform max -> r:max {{{link}}}\n'
            f"rel r:max is-a {parent}\n")


@pytest.mark.parametrize("records, shared", [
    (ZOE, FEMALES),
    # a selector, an emit=, a frame or a relation other than is-a names it
    (ZOE + "phrase dear literal trigger=dear sel:word=dear sel:word=zoe emit=r:person", []),
    (ZOE + "phrase c consolidation trigger=r:zoe sel:sense=r:zoe sel:cat=referent retain=1", []),
    (ZOE + "phrase c consolidation trigger=proper sel:attr=proper&not-sense=r:zoe "
           "sel:cat=referent retain=1", []),
    (ZOE + "phrase c consolidation trigger=proper sel:attr=proper sel:reach=r:zoe retain=1",
     []),
    (ZOE + "phrase dear literal trigger=dear sel:word=dear sel:word=one emit=r:zoe", []),
    (ZOE + 'sense p:see predicate {vc=activity} "see"\n'
           "frame p:see actor:r:person!required undergoer:r:zoe", []),
    (ZOE + "rel r:zoe has-a r:hat", []),
    (ZOE + "rel r:hat has-a r:zoe", []),
    # the engine's code names its sense
    ('sense q:who referent {proper,female,singular} "name"\n'
     "form zoe -> q:who {singular}\nrel q:who is-a r:person", []),
    # a second sense, or a literal surface of the same sense
    (ZOE + "form zoe -> r:hat {singular}", []),
    (ZOE + "form zed -> r:zoe {singular}\n"
           "phrase dear literal trigger=zed sel:word=zed sel:word=one emit=r:person", []),
    (ZOE + "form zed -> r:zoe {singular}", ["ann", "eve", "zed", "zoe"]),
    # single-sense surfaces that differ only in gender, link attributes or is-a parent
    (ZOE.replace("female", "male") + _with_max("proper,male,singular", "singular", "r:person"),
     ["max", "zoe"]),
    (ZOE.replace("{singular}", "{plural}")
     + _with_max("proper,female,singular", "plural", "r:person"), ["max", "zoe"]),
    (ZOE.replace("is-a r:person", "is-a r:place")
     + _with_max("proper,female,singular", "singular", "r:place"), ["max", "zoe"]),
    # a class of one surface, and surfaces that are no referents
    (ZOE.replace("is-a r:person", "is-a r:place"), []),
    ('sense m:zoe modifier {quality} "x"\nform zoe -> m:zoe {}\n'
     'sense m:max modifier {quality} "x"\nform max -> m:max {}', []),
])
def test_token_class_rule(records, shared):
    lex = load_lexicon(CLASS_BASE + records)
    cls = lex.token_classes.get("zoe")
    assert sorted(surface for surface, (number, _) in lex.token_classes.items()
                  if cls and number == cls[0]) == shared


def test_core_token_classes(lex):
    classes = lex.token_classes
    assert classes["mary"][0] == classes["sandra"][0] != classes["john"][0] == classes["daniel"][0]
    assert classes["kitchen"][0] == classes["garden"][0]
    assert classes["kitchen"] == (classes["kitchen"][0], "r:kitchen")
    for literal in ("objects", "car", "engine", "book", "who", "she", "mat"):
        assert literal not in classes
    # numbered in file order
    assert [classes[s][0] for s in ("mary", "john", "kitchen")] == [0, 1, 4]


def test_engine_senses_are_the_referents_the_code_names(lex):
    code = "".join(path.read_text("utf-8")
                   for path in Path(semqa.__file__).parent.glob("*.py"))
    named = set(re.findall(r'"(\w+:[\w-]+)"', code))
    assert {s for s in named if s in lex.senses and lex.sense(s).category == "referent"} \
        == ENGINE_SENSES
