from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import semqa
from semqa.cli import _load_lexicon, main
from semqa.semantics import render


def test_run_fixtures_task1(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--task", "1", "--fixtures"]) == 0
    out = capsys.readouterr().out
    assert "task 1" in out
    assert "strict 100.0%" in out
    assert (tmp_path / "results_task1.csv").exists()


def test_run_fixtures_task5_gigo_only_is_ok(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--task", "5", "--fixtures"]) == 0
    out = capsys.readouterr().out
    assert "4 dataset errors" in out
    assert "0 engine failures" in out


def test_run_min_accuracy_gate(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--task", "5", "--fixtures", "--min-accuracy", "99.5"]) == 1


def test_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "res.csv"
    assert main(["run", "--task", "1", "--fixtures", "--out", str(out)]) == 0
    assert out.read_text("utf-8").startswith("story_id,")


def test_generate_appendix_chain(capsys):
    rc = main(["generate", "--pred", "speak",
               "--ops", "future,negative,passive,perfect,progressive"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "won't have been being spoken"


@pytest.mark.parametrize("argv, expected", [
    (["--person", "1", "--ops", "progressive"], "am speaking"),
    (["--person", "1", "--ops", "perfect"], "have spoken"),
    (["--person", "1", "--ops", "negative"], "don't speak"),
    (["--person", "1", "--ops", "past,progressive"], "was speaking"),
    (["--person", "2", "--ops", "progressive"], "are speaking"),
    (["--person", "2", "--ops", "past,passive"], "were spoken"),
    (["--ops", "question,plural"], "speak"),
    (["--ops", "plural,perfect,negative"], "haven't spoken"),
])
def test_generate_agrees_with_the_subject(capsys, argv, expected):
    assert main(["generate", "--pred", "speak", *argv]) == 0
    assert capsys.readouterr().out.strip() == expected


def test_generate_rejects_an_unknown_operator():
    with pytest.raises(SystemExit, match="unknown operator 'sideways'"):
        main(["generate", "--pred", "speak", "--ops", "future,sideways"])


def test_module_runs_as_a_script():
    src = Path(semqa.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "semqa.cli", "generate", "--pred", "frobnicate"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 2
    assert done.stderr.startswith("error: 'p:frobnicate' lacks forms")


def test_generate_french(capsys):
    rc = main(["generate", "--french", "--pred", "parler", "--ops", "future",
               "--person", "1"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "parlerai"


def test_run_fixtures_needs_a_bundled_task():
    with pytest.raises(SystemExit, match="no bundled fixture for task 2"):
        main(["run", "--task", "2", "--fixtures"])


def test_run_needs_data_or_fixtures():
    with pytest.raises(SystemExit, match="need --data DIR or --fixtures"):
        main(["run", "--task", "2"])


def test_run_split_picks_files_and_fails_on_a_wrong_answer(tmp_path, capsys):
    story = "1 Mary went to the kitchen.\n2 Where is Mary?\t{}\t1\n"
    (tmp_path / "qa2_train.txt").write_text(story.format("kitchen"))
    (tmp_path / "qa2_test.txt").write_text(story.format("garden"))
    argv = ["run", "--task", "2", "--data", str(tmp_path), "--out", str(tmp_path / "r.csv")]
    assert main([*argv, "--split", "test", "--verbose"]) == 1
    out = capsys.readouterr().out
    assert "qa2_train" not in out
    assert "  [FAIL] story 1 line 2: Where is Mary? -> kitchen (expected garden)\n" \
           "        produced answer not among matched items" in out
    assert main([*argv, "--split", "train"]) == 0
    assert "qa2_test" not in capsys.readouterr().out
    with pytest.raises(SystemExit, match="no files match .*qa3_"):
        main(["run", "--task", "3", "--data", str(tmp_path)])


def test_run_verbose_names_each_answer_and_its_audit(tmp_path, capsys):
    assert main(["run", "--task", "5", "--fixtures", "--verbose",
                 "--out", str(tmp_path / "r.csv")]) == 0
    out = capsys.readouterr().out
    assert "  [ok] story 1 line 4: Who gave the cake to Fred? -> mary (expected Mary)\n" in out
    assert ("  [gigo] story 2 line 14: What did Bill give to Jeff? -> football "
            "(expected apple) [G1]\n        dataset answer comes from item #8") in out


def test_lexicon_check_fixtures(capsys):
    assert main(["lexicon-check", "--task", "5", "--fixtures"]) == 0
    assert "covered" in capsys.readouterr().out


def test_lexicon_check_reports_missing(tmp_path, capsys):
    data = tmp_path / "qa2_test.txt"
    data.write_text("1 Mary frobnicated the gizmo.\n2 Where is Mary?\tnowhere\t1\n")
    rc = main(["lexicon-check", "--task", "2", "--data", str(tmp_path)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "frobnicated" in out and "gizmo" in out


def test_score_command(tmp_path, capsys):
    out = tmp_path / "res.csv"
    main(["run", "--task", "5", "--fixtures", "--out", str(out)])
    capsys.readouterr()
    assert main(["score", str(out)]) == 0
    assert "audited 100.0%" in capsys.readouterr().out


def test_score_rejects_a_file_that_is_not_results(tmp_path):
    path = tmp_path / "notes.csv"
    path.write_text("name,value\n")
    with pytest.raises(SystemExit, match="is not a results file"):
        main(["score", str(path)])


def _feed(monkeypatch, lines):
    """Answer `input` with `lines`, then with end of input."""
    it = iter(lines)

    def read(_=""):
        try:
            return next(it)
        except StopIteration:
            raise EOFError from None
    monkeypatch.setattr("builtins.input", read)


def test_repl_commands(monkeypatch, capsys):
    _feed(monkeypatch, ["Mary went to the kitchen.", "", ":reset", ":trace",
                        "Where is Mary?", ":q", "Where is Mary?"])
    assert main(["repl"]) == 0
    out = capsys.readouterr().out
    assert out.count("(new story)") == 1 and "(empty)" in out
    assert out.splitlines()[-1] == "I don't know."
    _feed(monkeypatch, ["Mary went to the kitchen."])    # end of input ends the session
    assert main(["repl"]) == 0


def test_repl_bare_polar_style(monkeypatch, capsys):
    _feed(monkeypatch, ["Mary went to the kitchen.", "Is Mary in the kitchen?"])
    assert main(["repl", "--polar-style", "bare"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "Yes."


def test_repl_full_polar_style(monkeypatch, capsys):
    _feed(monkeypatch, ["Mary went to the kitchen.", "Is Mary in the kitchen?"])
    assert main(["repl", "--polar-style", "full"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "Yes, she was in the kitchen."


def test_repl_session(monkeypatch, capsys):
    lines = iter(["Mary went to the kitchen.", "Where is Mary?", ":trace", ":quit"])
    monkeypatch.setattr("builtins.input", lambda _="": next(lines))
    assert main(["repl"]) == 0
    out = capsys.readouterr().out
    assert "In the kitchen." in out
    assert "be-in'(the kitchen,mary)" in out


def test_repl_answers_a_fronted_modal_in_the_future(monkeypatch, capsys):
    lines = iter(["Mary went to the garden.", "Will Mary go to the garden?", ":quit"])
    monkeypatch.setattr("builtins.input", lambda _="": next(lines))
    assert main(["repl"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "Yes, she will."


def test_repl_babi_last_keeps_latest_transfer(monkeypatch, capsys):
    lines = iter(["Bill handed the apple to Jeff.", "Bill passed the football to Jeff.",
                  "What did Bill give to Jeff?", ":quit"])
    monkeypatch.setattr("builtins.input", lambda _="": next(lines))
    assert main(["repl", "--babi-last"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "The football."


def test_loading_a_second_lexicon_leaves_rendering_alone(tmp_path, lex, matcher):
    path = tmp_path / "munch.lex"
    path.write_text(semqa.core_lexicon_text().replace("print=eat}", "print=munch}"),
                    "utf-8")
    other = _load_lexicon(str(path))
    ls = matcher.parse_single("The girl ate the sandwich.").ls
    assert render(ls, lex) == "do'(the girl,[eat'(the girl,the sandwich)])"
    assert render(ls, other) == "do'(the girl,[munch'(the girl,the sandwich)])"


def test_malformed_task_line_is_an_error_not_a_traceback(tmp_path, capsys):
    (tmp_path / "qa2_test.txt").write_text("1 Mary went to the kitchen.\nWhere is Mary?\n")
    assert main(["run", "--task", "2", "--data", str(tmp_path)]) == 2
    assert "error: qa2_test.txt: line 2: malformed line" in capsys.readouterr().err


def test_vocabulary_gap_is_an_error_not_a_traceback(tmp_path, capsys):
    (tmp_path / "qa2_test.txt").write_text(
        "1 Mary frobnicated the gizmo.\n2 Where is Mary?\tnowhere\t1\n")
    assert main(["run", "--task", "2", "--data", str(tmp_path)]) == 2
    assert "error: vocabulary gaps: frobnicated, gizmo" in capsys.readouterr().err


def test_bad_lexicon_file_is_an_error_not_a_traceback(tmp_path, capsys):
    path = tmp_path / "bad.lex"
    path.write_text("sense p:x frobnicate {}\n")
    assert main(["run", "--task", "1", "--fixtures", "--lexicon", str(path)]) == 2
    assert "error: line 1: category must be one of" in capsys.readouterr().err


def test_missing_lexicon_file_is_an_error_not_a_traceback(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "nonexistent.lex"
    assert main(["run", "--task", "1", "--fixtures", "--lexicon", str(missing)]) == 2
    assert f"error: cannot read lexicon {missing}" in capsys.readouterr().err
    monkeypatch.setenv("SEMQA_LEXICON", str(missing))
    assert main(["lexicon-check", "--task", "1", "--fixtures"]) == 2
    assert f"error: cannot read lexicon {missing}" in capsys.readouterr().err


def test_malformed_task_file_is_named(tmp_path, capsys):
    (tmp_path / "qa2_test.txt").write_text("1 Mary went to the kitchen.\n")
    (tmp_path / "qa2_train.txt").write_text("1 Mary went to the kitchen.\nWhere?\n")
    assert main(["run", "--task", "2", "--data", str(tmp_path), "--out",
                 str(tmp_path / "res.csv")]) == 2
    assert "error: qa2_train.txt: line 2: malformed line" in capsys.readouterr().err


def _exit_code(argv) -> int:
    """`main`'s return code, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, message", [
    (["--pred", "frobnicate"], "error: 'p:frobnicate' lacks forms"),
    (["--pred", "parl", "--french", "--ops", "past"],
     "error: French demo only conjugates the future, not past"),
    (["--pred", "parl", "--french", "--ops", "future", "--person", "4"],
     "argument --person: invalid choice: 4"),
    (["--pred", "speak", "--ops", "progressive", "--person", "4"],
     "argument --person: invalid choice: 4"),
    (["--pred", "speak", "--ops", "progressive", "--person", "0"],
     "argument --person: invalid choice: 0"),
    (["--pred", "speak", "--ops", "progressive", "--person", "-1"],
     "argument --person: invalid choice: -1"),
])
def test_unrealizable_verb_group_is_an_error_not_a_traceback(capsys, argv, message):
    assert _exit_code(["generate", *argv]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_repl_reports_engine_errors_and_goes_on(monkeypatch, capsys):
    lines = iter(["Mary frobnicated.", "Where is Mary?", ":quit"])
    monkeypatch.setattr("builtins.input", lambda _="": next(lines))
    assert main(["repl"]) == 0
    out = capsys.readouterr().out
    assert "! UnknownWordError: unknown word 'frobnicated'" in out
    assert "I don't know." in out


def test_repl_lets_a_programming_error_through(monkeypatch):
    def broken(*args):
        raise AttributeError("bug")
    monkeypatch.setattr("semqa.context.unify", broken)
    lines = iter(["Mary went to the kitchen.", "Did Mary go to the kitchen?", ":quit"])
    monkeypatch.setattr("builtins.input", lambda _="": next(lines))
    with pytest.raises(AttributeError, match="bug"):
        main(["repl"])
