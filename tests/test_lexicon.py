from __future__ import annotations

import random
import shlex

import pytest

import semqa
from semqa.lexicon import LexiconError, _split_record, load_lexicon

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
    assert len(lex) == 0
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


@pytest.mark.parametrize("record, message", [
    ("form ghost -> p:missing {}", "form 'ghost' links unknown sense 'p:missing'"),
    ("rel r:a is-a r:b", "relation from unknown sense 'r:a'"),
    ("frame p:x actor:r:y", "frame for unknown predicate 'p:x'"),
])
def test_dangling_reference_names_its_line(record, message):
    with pytest.raises(LexiconError, match=f"^line 2: {message}$") as err:
        load_lexicon(f"# a comment line\n{record}\n")
    assert err.value.line == 2


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


def test_frame_driven_sense_needs_a_frame_at_load():
    # p:move, p:travel and p:journey lose it too; p:go's line comes first
    text = semqa.core_lexicon_text()
    frame = "frame p:go actor:r:animal!required destination:r:location!required\n"
    lineno = _line_of(text, "sense p:go ")
    with pytest.raises(LexiconError, match=f"line {lineno}: 'p:go' has vc=motion "
                                           "but no selectional frame"):
        load_lexicon(text.replace(frame, ""))


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
