from __future__ import annotations

import copy
import random
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

import semqa
from semqa.babi import (
    BabiFormatError,
    BabiRecord,
    RunResult,
    TaskConfig,
    VocabularyGapError,
    answers_match,
    check_vocabulary,
    export_csv,
    normalize_answer,
    parse_babi_file,
    run_task,
    score,
    story_vocabulary,
)
from semqa.matcher import Matcher, tokenize

from conftest import synthetic_stories
from test_golden import fixture_documents

SAMPLE = """1 Bill grabbed the apple there.
2 Bill handed the apple to Jeff.
3 What did Bill give to Jeff?\tapple\t2
1 Mary went to the bathroom.
2 Where is Mary?\tbathroom\t1
"""


def fixture_stories(task):
    doc = semqa.fixture_path(f"task{task}.txt").read_text("utf-8")
    return parse_babi_file(doc)


# -- parsing -------------------------------------------------------------------

def test_question_record_fields():
    stories = parse_babi_file("5\tignored\n".replace("\t", " ", 1))
    # simple statement split sanity first
    assert stories[0][0].line_id == 5

    stories = parse_babi_file("5 What did Bill give to Jeff?\tapple\t4\n")
    rec = stories[0][0]
    assert rec.is_question
    assert rec.text == "What did Bill give to Jeff?"
    assert rec.expected == "apple"
    assert rec.support == (4,)


def test_line_id_reset_starts_new_story():
    stories = parse_babi_file(SAMPLE)
    assert len(stories) == 2
    assert [len(s) for s in stories] == [3, 2]


def test_empty_document():
    assert parse_babi_file("") == []


def test_bad_supporting_ids_report_location():
    with pytest.raises(BabiFormatError, match=r"line 2: bad supporting ids '1 x'"):
        parse_babi_file("1 Mary went to the kitchen.\n2 Where is Mary?\tkitchen\t1 x\n")


def test_blank_lines_are_skipped():
    [story] = parse_babi_file("1 Mary went to the kitchen.\n\n2 Where is Mary?\tkitchen\t1\n")
    assert [rec.line_id for rec in story] == [1, 2]


def test_malformed_line_reports_location():
    with pytest.raises(BabiFormatError, match="line 1"):
        parse_babi_file("not a record\n")


# -- running --------------------------------------------------------------------

def test_sample_runs_clean(lex):
    results = run_task(parse_babi_file(SAMPLE), lex, TaskConfig())
    assert [r.status for r in results] == ["passed", "passed"]


def test_task1_sample(lex):
    results = run_task(fixture_stories(1), lex, TaskConfig(task=1))
    assert [r.produced for r in results] == ["office"]
    assert score(results).strict_accuracy == 1.0


@pytest.mark.parametrize("task", [1, 6, 7, 8, 9, 11, 12, 13])
def test_paper_fixture_tasks_score_100(lex, task):
    results = run_task(fixture_stories(task), lex, TaskConfig(task=task))
    report = score(results)
    assert report.strict_accuracy == 1.0, [
        (r.question, r.produced, r.expected) for r in results if r.status != "passed"]


def test_task5_fixture_reproduces_documented_mismatches(lex):
    results = run_task(fixture_stories(5), lex, TaskConfig(task=5))
    report = score(results)
    assert report.failed == 0
    assert report.gigo == 4
    assert report.audited_accuracy == 1.0
    mism = {(r.story_id, r.line_id): r for r in results if r.status == "gigo"}
    assert set(mism) == {(2, 14), (2, 17), (4, 31), (5, 11)}
    assert mism[(2, 14)].produced == "football" and mism[(2, 14)].expected == "apple"
    assert mism[(2, 17)].classification == "G1"
    assert mism[(4, 31)].classification == "G1"
    assert mism[(5, 11)].produced == "bill" and mism[(5, 11)].expected == "Mary"
    assert mism[(5, 11)].classification == "G2"


def test_story_isolation_under_shuffle(lex):
    stories = fixture_stories(5)
    base = {(r.story_id, r.line_id): (r.produced, r.status)
            for r in run_task(stories, lex, TaskConfig())}
    order = list(range(len(stories)))
    random.Random(3).shuffle(order)
    shuffled = [stories[i] for i in order]
    got = run_task(shuffled, lex, TaskConfig())
    for new_sid, old_idx in enumerate(order, start=1):
        for r in (x for x in got if x.story_id == new_sid):
            assert base[(old_idx + 1, r.line_id)] == (r.produced, r.status)


def test_run_task_keeps_no_parse_state_between_calls(lex, monkeypatch):
    # each run parses afresh, as `semqa run` does: a benchmark pass cannot
    # be warmed by the one before it
    calls = []
    real = Matcher._parse
    monkeypatch.setattr(Matcher, "_parse", lambda self, text: calls.append(text) or real(self, text))
    stories = fixture_stories(1) + fixture_stories(5)
    first = run_task(stories, lex, TaskConfig())
    parsed = len(calls)
    assert run_task(stories, lex, TaskConfig()) == first
    assert parsed > 0 and len(calls) == 2 * parsed


def test_story_vocabulary_tokenizes_each_word_once(lex, monkeypatch):
    texts = []
    monkeypatch.setattr("semqa.babi.tokenize", lambda text: texts.append(text) or tokenize(text))
    stories = fixture_stories(1) * 3
    words = story_vocabulary(stories)
    [joined] = texts
    assert sorted(joined.split()) == sorted(
        {word for story in stories for rec in story for word in rec.text.split()})
    assert {"mary", "where", "is"} <= words


def per_text_vocabulary(stories) -> set[str]:
    """The reference: every text tokenized on its own."""
    return {token for story in stories for rec in story for token in tokenize(rec.text)[0]}


def test_story_vocabulary_is_the_per_text_union(synth):
    documents = [parse_babi_file(doc) for _, _, doc in fixture_documents()]
    documents += [synthetic_stories(task, 20, seed=17 + task)[0] for task in synth.FAMILIES]
    for stories in documents:
        assert story_vocabulary(stories) == per_text_vocabulary(stories)


# words and separators that tokenization treats specially
PIECES = st.sampled_from(["Mary", "won't", "can't", "didn't", "n't", "?", ".", ",", "!",
                          "Is", "İ", "ß", " ", "  ", "\t", "\u00a0", "\u2003", "'"])


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.lists(st.lists(st.one_of(PIECES, st.text(max_size=6)), max_size=8).map("".join),
                max_size=6))
def test_story_vocabulary_of_any_text_is_the_per_text_union(texts):
    stories = [[BabiRecord(i, text) for i, text in enumerate(texts, start=1)]]
    assert story_vocabulary(stories) == per_text_vocabulary(stories)


def test_vocabulary_gap_aborts_with_word_list(lex):
    stories = parse_babi_file("1 Mary teleported to the moonbase.\n2 Where is Mary?\tmoonbase\t1\n")
    with pytest.raises(VocabularyGapError) as err:
        run_task(stories, lex, TaskConfig())
    assert err.value.words == ["moonbase", "teleported"]


def test_check_vocabulary_covers_fixture_tasks(lex):
    for task in (1, 5, 6, 7, 8, 9, 11, 12, 13):
        assert check_vocabulary(lex, fixture_stories(task)) == []


def test_genuine_mismatch_stays_unclassified(lex):
    # the expected token never occurs in context: not a known dataset error
    doc = ("1 Bill handed the apple to Jeff.\n"
           "2 What did Bill give to Jeff?\tfootball\t1\n")
    [result] = run_task(parse_babi_file(doc), lex, TaskConfig())
    assert result.status == "failed"
    assert result.classification is None
    assert result.produced == "apple"


def test_unparseable_statement_fails_only_that_story(lex):
    doc = ("1 Mary went went to the kitchen.\n"
           "2 Where is Mary?\tkitchen\t1\n"
           "1 Mary went to the office.\n"
           "2 Where is Mary?\toffice\t1\n")
    results = run_task(parse_babi_file(doc), lex, TaskConfig())
    assert [r.status for r in results] == ["failed", "passed"]
    assert "error" in results[0].produced


def test_statements_after_a_failed_one_are_skipped(lex):
    doc = ("1 Mary went went to the kitchen.\n"
           "2 Mary went to the office.\n"
           "3 Where is Mary?\toffice\t2\n")
    [result] = run_task(parse_babi_file(doc), lex, TaskConfig())
    assert result.status == "failed"
    assert result.produced == f"<error: {result.explanation}>"
    assert result.explanation.startswith("line 1: MatchError: ")


def test_unmatched_question_is_an_unclassified_gap(lex):
    doc = ("1 Mary went to the kitchen.\n"
           "2 Where is John?\tkitchen\t1\n")
    [result] = run_task(parse_babi_file(doc), lex, TaskConfig())
    assert (result.status, result.produced) == ("failed", "unknown")
    assert result.explanation == "no matching context items; engine or data gap"


def test_unparseable_question_fails_only_that_question(lex):
    doc = ("1 Mary went to the kitchen.\n"
           "2 Where is is Mary?\tkitchen\t1\n"
           "3 Where is Mary?\tkitchen\t1\n")
    results = run_task(parse_babi_file(doc), lex, TaskConfig())
    assert [r.status for r in results] == ["failed", "passed"]
    assert results[0].produced.startswith("<error: ")
    assert results[0].explanation and results[0].explanation in results[0].produced


def test_programming_error_propagates_out_of_run_task(lex, monkeypatch):
    # only typed engine failures become failed answers; a bug must crash
    def broken(*args):
        raise AttributeError("bug")
    monkeypatch.setattr("semqa.context.unify", broken)
    doc = ("1 Bill handed the apple to Jeff.\n"
           "2 What did Bill give to Jeff?\tapple\t1\n")
    with pytest.raises(AttributeError, match="bug"):
        run_task(parse_babi_file(doc), lex, TaskConfig())


def test_every_engine_error_is_a_semqa_error():
    from semqa import SemqaError
    from semqa.context import ContextError
    from semqa.lexicon import LexiconError
    from semqa.matcher import MatchError
    from semqa.nlg import RealizationError
    from semqa.semantics import SemanticsError
    for cls in (MatchError, ContextError, LexiconError, SemanticsError,
                RealizationError, BabiFormatError, VocabularyGapError):
        assert issubclass(cls, SemqaError), cls


# -- scoring --------------------------------------------------------------------

def test_normalization():
    assert normalize_answer("The Football") == "football"
    assert normalize_answer("in the kitchen") == "kitchen"
    assert answers_match("milk,football", "football, milk")
    assert answers_match("Mary", "mary")
    assert not answers_match("football", "apple")


def test_empty_results_report():
    report = score([])
    assert report.strict_accuracy is None
    assert report.summary() == "no questions scored"


def test_all_dataset_errors_leave_no_audited_accuracy():
    report = score([RunResult(1, 2, "q", "a", "b", "gigo", classification="G1")])
    assert report.audited_accuracy is None
    assert report.summary().endswith("audited n/a (1 dataset errors, 0 engine failures)")


# -- export ---------------------------------------------------------------------

def test_csv_golden_row(lex, tmp_path):
    results = run_task(fixture_stories(1), lex, TaskConfig(task=1))
    path = tmp_path / "out.csv"
    export_csv(results, path)
    lines = path.read_text("utf-8").splitlines()
    assert lines[0] == "story_id,input,expected,answer,status"
    assert lines[1] == '1,"Where is Mary?",office,office,passed'


def test_csv_gigo_row_and_determinism(lex, tmp_path):
    results = run_task(fixture_stories(5), lex, TaskConfig(task=5))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv(results, a)
    export_csv(run_task(fixture_stories(5), lex, TaskConfig(task=5)), b)
    assert a.read_bytes() == b.read_bytes()
    assert any(line.endswith(",gigo") for line in a.read_text().splitlines())


def test_csv_quotes_a_field_with_a_comma(lex, tmp_path):
    doc = ("1 Mary picked up the milk.\n"
           "2 Mary got the football.\n"
           "3 What is Mary carrying?\tmilk,football\t1 2\n")
    results = run_task(parse_babi_file(doc), lex, TaskConfig())
    path = tmp_path / "list.csv"
    export_csv(results, path)
    assert path.read_text("utf-8").splitlines()[1] == (
        '1,"What is Mary carrying?","milk,football","football,milk",passed')


def test_csv_empty_results(tmp_path):
    path = tmp_path / "empty.csv"
    export_csv([], path)
    assert path.read_text("utf-8") == "story_id,input,expected,answer,status\n"


def test_running_every_fixture_leaves_the_lexicon_as_loaded():
    lex = semqa.load_core_lexicon()
    loaded = copy.deepcopy(vars(lex))
    for path in resources.files("semqa").joinpath("data/fixtures").iterdir():
        run_task(parse_babi_file(path.read_text("utf-8")), lex)
    assert vars(lex) == loaded
