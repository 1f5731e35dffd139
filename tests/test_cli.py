from __future__ import annotations

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


def test_generate_french(capsys):
    rc = main(["generate", "--french", "--pred", "parler", "--ops", "future",
               "--person", "1"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "parlerai"


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


def test_repl_session(monkeypatch, capsys):
    lines = iter(["Mary went to the kitchen.", "Where is Mary?", ":trace", ":quit"])
    monkeypatch.setattr("builtins.input", lambda _="": next(lines))
    assert main(["repl"]) == 0
    out = capsys.readouterr().out
    assert "In the kitchen." in out
    assert "be-in'(the kitchen,mary)" in out


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
    assert "error: line 2: malformed line" in capsys.readouterr().err


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
