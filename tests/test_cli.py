"""Command line behavior, exercised through real subprocesses (the argument
fuzz calls main in-process, to run hundreds of calls)."""

import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loft as loft_package
from loft import metrics, templates
from loft.cli import main
from loft.tables import load_corpus

# the directory the loft under test is imported from, handed on to each
# subprocess, so the CLI runs the same code whether or not it is installed
LOFT_ROOT = str(Path(loft_package.__file__).resolve().parents[1])

MT_RECORD = {
    "table_id": "mt",
    "title": "mt",
    "header": ["team", "points"],
    "rows": [["a", "3"], ["b", "5"], ["c", "2"]],
}


def loft(*argv, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("LOFT_LOG", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [LOFT_ROOT, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "loft.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=300,
    )


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(MT_RECORD) + "\n", encoding="utf-8")
    return str(path)


def payload_of(result):
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


class TestExecute:
    def test_number_result(self, corpus):
        got = payload_of(loft("execute", "--corpus", corpus, "count { all_rows }"))
        assert got == {"kind": "number", "value": 3}

    def test_object_result(self, corpus):
        got = payload_of(
            loft("execute", "--corpus", corpus, "hop { argmax { all_rows ; points } ; team }")
        )
        assert got == {"kind": "object", "value": "b"}

    def test_form_errors_still_exit_zero(self, corpus):
        got = payload_of(loft("execute", "--corpus", corpus, "frobnicate { all_rows }"))
        assert got["kind"] == "parse"
        assert "error" in got

    def test_unknown_column_kind(self, corpus):
        got = payload_of(
            loft("execute", "--corpus", corpus, "count { filter_eq { all_rows ; venue ; a } }")
        )
        assert got["kind"] == "unknown_column"

    def test_runtime_error_kind(self, corpus):
        got = payload_of(
            loft("execute", "--corpus", corpus, "nth_max { all_rows ; points ; 9 }")
        )
        assert got["kind"] == "rank_range"

    @pytest.mark.parametrize("form, value", [
        ("sum { all_rows ; big }", "inf"),
        ("sum { all_rows ; low }", "-inf"),
        ("diff { sum { all_rows ; big } ; sum { all_rows ; big } }", "nan"),
    ])
    def test_a_number_json_cannot_hold_is_printed_as_its_text(self, tmp_path, form, value):
        # 400 digits read as an infinite number; JSON has no inf or nan
        record = {"table_id": "huge", "title": "huge", "header": ["big", "low"],
                  "rows": [["9" * 400, "-" + "9" * 400]]}
        path = tmp_path / "huge.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        result = loft("execute", "--corpus", str(path), form)
        assert result.returncode == 0, result.stderr

        def refuse(name):
            raise ValueError(f"not JSON: {name}")

        assert json.loads(result.stdout, parse_constant=refuse) == {
            "kind": "number", "value": value}

    def test_missing_corpus_is_exit_2(self, tmp_path):
        result = loft("execute", "--corpus", str(tmp_path / "nope.jsonl"), "count { all_rows }")
        assert result.returncode == 2
        assert "error" in result.stderr

    def test_unknown_table_id_is_exit_2(self, corpus):
        result = loft("execute", "--corpus", corpus, "--table-id", "zz", "count { all_rows }")
        assert result.returncode == 2


@pytest.mark.parametrize("command", ["execute", "verify"])
def test_a_corpus_with_no_tables_is_exit_2(tmp_path, command):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    result = loft(command, "--corpus", str(path), "count { all_rows }")
    assert result.returncode == 2
    assert result.stderr == f"error: {path} holds no tables\n"


def test_a_repeated_column_set_is_synthesized_once(tmp_path):
    # a set listed twice is synthesized, and its forms written, once
    def synthesize(sets):
        record = {"table_id": "t", "title": "t", "header": ["team", "city"],
                  "rows": [["lions", "rome"]], "selected_columns": sets}
        path, output = tmp_path / "corpus.jsonl", tmp_path / "out.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        summary = payload_of(loft("synthesize", "--corpus", str(path), "--output", str(output)))
        return summary["candidates"], output.read_text(encoding="utf-8").splitlines()

    count, lines = synthesize([[0], [0]])
    assert (count, lines) == synthesize([[0]])
    assert count == len(set(lines)) > 0


@pytest.mark.parametrize("command", ["pipeline", "synthesize"])
def test_a_corpus_with_no_tables_is_an_empty_batch(tmp_path, command):
    # a batch command writes an empty result; only execute and verify need a table
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    output = tmp_path / "out.jsonl"
    result = loft(command, "--corpus", str(path), "--output", str(output))
    assert payload_of(result)["tables"] == 0
    assert output.read_bytes() == b""


def test_a_nan_template_weight_is_exit_2(corpus, tmp_path):
    # a loaded NaN weight would make every draw take the first template
    templates = tmp_path / "templates.json"
    templates.write_text('{"entries": [{"skeleton": "only { all_rows }", "weight": NaN}]}',
                         encoding="utf-8")
    result = loft("pipeline", "--corpus", corpus, "--templates", str(templates),
                  "--output", str(tmp_path / "out.jsonl"))
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: {templates}: ")
    assert not (tmp_path / "out.jsonl").exists()


def test_a_function_in_a_column_position_is_exit_2(corpus, tmp_path):
    templates = tmp_path / "templates.json"
    skeleton = "COMPARE_EQ { AGGREGATION { all_rows ; count { all_rows } } ; OBJ_1 }"
    templates.write_text(json.dumps({"entries": [{"skeleton": skeleton, "weight": 1.0}]}),
                         encoding="utf-8")
    result = loft("pipeline", "--corpus", corpus, "--templates", str(templates),
                  "--output", str(tmp_path / "out.jsonl"))
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: {templates}: entry 0: count ")
    assert "Traceback" not in result.stderr


class TestVerifyAndRealize:
    def test_verify_true(self, corpus):
        got = payload_of(loft("verify", "--corpus", corpus, "eq { count { all_rows } ; 3 }"))
        assert got == {"entailed": True}

    def test_verify_false(self, corpus):
        got = payload_of(loft("verify", "--corpus", corpus, "eq { count { all_rows } ; 4 }"))
        assert got == {"entailed": False}

    def test_realize(self):
        got = payload_of(
            loft("realize", "eq { count { filter_eq { all_rows ; team ; a } } ; 1 }")
        )
        assert got == {"text": "the number of rows whose team is a is equal to 1"}

    def test_realize_parse_error(self):
        got = payload_of(loft("realize", "eq { broken"))
        assert got["kind"] == "parse"


class TestUsageErrors:
    def test_unknown_subcommand(self):
        result = loft("frobnicate")
        assert result.returncode == 1

    def test_missing_required_flag(self):
        result = loft("execute", "count { all_rows }")
        assert result.returncode == 1

    @pytest.mark.parametrize("argv", [
        ["synthesize", "--candidates", "0"],
        ["pipeline", "--candidates", "0"],
        ["pipeline", "--k", "-1"],
        ["demo", "--k", "-1"],
    ], ids=["synthesize-candidates", "pipeline-candidates", "pipeline-k", "demo-k"])
    def test_out_of_range_counts_are_bad_usage(self, corpus, tmp_path, capsys, argv):
        paths = {"synthesize": ["--corpus", corpus, "--output", str(tmp_path / "o.jsonl")],
                 "pipeline": ["--corpus", corpus, "--output", str(tmp_path / "o.jsonl")],
                 "demo": ["--out-dir", str(tmp_path / "demo")]}
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, *paths[argv[0]]])
        assert exit_info.value.code == 1
        err = capsys.readouterr().err
        assert "usage:" in err and f"argument {argv[1]}: must be at least" in err

    @pytest.mark.parametrize("value", ["0", "-5", "nan", "inf"])
    def test_timeout_not_above_zero_is_bad_usage(self, corpus, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["pipeline", "--corpus", corpus, "--output", str(tmp_path / "o.jsonl"),
                  "--timeout", value])
        assert exit_info.value.code == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "argument --timeout: timeout must be above 0" in err

    @pytest.mark.parametrize("level", ["verbose", "10"])
    def test_unknown_log_level_is_bad_usage(self, level):
        result = loft("realize", "count { all_rows }", env_extra={"LOFT_LOG": level})
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1
        assert "DEBUG, INFO, WARNING, ERROR or CRITICAL" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ["execute", "verify"])
    def test_a_corpus_of_several_tables_needs_a_table_id(self, command, capsys):
        with resources.as_file(resources.files("loft.data") / "sample_corpus.jsonl") as path:
            assert len(load_corpus(path)) > 1
            assert main([command, "--corpus", str(path), "count { all_rows }"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --table-id is required when the corpus has several tables\n"


# reads one request, then exits with the rest in flight; the small corpus's
# batch fits one pipe write, so the loss shows as an exit, not a closed stdin
QUIT_AFTER_ONE_LINE = """\
import sys
sys.stdin.readline()
"""


class TestHookFailures:
    """A hook that cannot be used at all ends the run with exit 3."""

    @pytest.mark.parametrize("role, command, message", [
        ("generator", "{missing}", "cannot launch generator hook"),
        ("verifier", "   ", "cannot launch verifier hook '   ': the command is blank"),
        ("generator", "{python} {quitter}", "generator hook exited mid-run"),
    ], ids=["no-such-file", "blank", "exits-mid-run"])
    def test_exit_3_with_one_error_line_and_no_output(self, tmp_path, corpus, role, command,
                                                       message):
        quitter = tmp_path / "quitter.py"
        quitter.write_text(QUIT_AFTER_ONE_LINE, encoding="utf-8")
        command = command.format(missing=shlex.quote(str(tmp_path / "no-such-hook")),
                                 python=shlex.quote(sys.executable),
                                 quitter=shlex.quote(str(quitter)))
        output = tmp_path / "out.jsonl"
        result = loft("pipeline", "--corpus", corpus, "--output", str(output),
                      f"--{role}", command, "--timeout", "30")
        assert result.returncode == 3
        assert result.stderr.startswith(f"error: {message}")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr
        assert not output.exists()


class TestIngest:
    def test_normalizes_and_reports(self, tmp_path):
        src = tmp_path / "raw.csv"
        src.write_text("Team,Points\na,3\nb,5\n", encoding="utf-8")
        out = tmp_path / "new" / "corpus.jsonl"  # the directory is made
        got = payload_of(
            loft("ingest", "--input", str(src), "--format", "csv", "--output", str(out))
        )
        assert got["tables"] == 1
        line = out.read_text(encoding="utf-8")
        record = json.loads(line)
        assert record["header"] == ["team", "points"]
        assert line == json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n"

    def test_zero_column_table_is_skipped_by_pipeline(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            '{"table_id":"a","title":"t","header":[],"rows":[]}\n'
            + json.dumps(MT_RECORD) + "\n",
            encoding="utf-8",
        )
        result = loft(
            "pipeline", "--corpus", str(corpus), "--output", str(tmp_path / "out.jsonl"),
            "--k", "2", "--candidates", "3",
        )
        assert payload_of(result)["tables"] == 1
        assert "no columns" in result.stderr
        assert "Traceback" not in result.stderr


    def test_fields_that_are_not_lists_are_skipped_by_pipeline(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        bad = [{**MT_RECORD, "table_id": "b1", "rows": 5},
               {**MT_RECORD, "table_id": "b2", "selected_columns": [0]},
               {**MT_RECORD, "table_id": "b3", "header": "xy", "rows": ["12", "34"]}]
        corpus.write_text("".join(json.dumps(r) + "\n" for r in [*bad, MT_RECORD]),
                          encoding="utf-8")
        result = loft(
            "pipeline", "--corpus", str(corpus), "--output", str(tmp_path / "out.jsonl"),
            "--k", "2", "--candidates", "3",
        )
        assert payload_of(result)["tables"] == 1
        for lineno in (1, 2, 3):
            assert f"skipping entry at {corpus}:{lineno}: " in result.stderr
        assert "Traceback" not in result.stderr

    def test_lone_surrogate_cell_is_skipped_by_pipeline(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        bad = {**MT_RECORD, "table_id": "bad", "rows": [["\ud800a", "3"], ["b", "5"]]}
        corpus.write_text(json.dumps(bad) + "\n" + json.dumps(MT_RECORD) + "\n",
                          encoding="utf-8")
        result = loft(
            "pipeline", "--corpus", str(corpus), "--output", str(tmp_path / "out.jsonl"),
            "--k", "40",
        )
        assert payload_of(result)["tables"] == 1
        assert f"{corpus}:1: text holds a lone surrogate" in result.stderr
        assert "Traceback" not in result.stderr


class TestToolChain:
    """mine-templates -> synthesize -> pipeline -> score in one temp dir."""

    def test_full_chain(self, tmp_path, corpus):
        forms = tmp_path / "forms.txt"
        forms.write_text(
            "# comment lines are skipped\n"
            "eq { count { filter_eq { all_rows ; team ; a } } ; 1 }\n"
            "only { filter_eq { all_rows ; team ; b } }\n"
            "round_eq { avg { all_rows ; points } ; 3.3 }\n"
            "eq { broken\n"
            "stray words are not a form\n",
            encoding="utf-8",
        )
        templates = tmp_path / "templates.json"
        got = payload_of(
            loft("mine-templates", "--forms", str(forms), "--output", str(templates))
        )
        assert got["templates"] == 3

        candidates = tmp_path / "candidates.jsonl"
        got = payload_of(
            loft(
                "synthesize", "--corpus", corpus, "--templates", str(templates),
                "--output", str(candidates), "--candidates", "4", "--seed", "13",
            )
        )
        assert got["candidates"] >= 1
        for line in candidates.read_text().splitlines():
            record = json.loads(line)
            assert set(record) == {"table_id", "column_set", "logic_form", "category"}

        output = tmp_path / "statements.jsonl"
        report_path = tmp_path / "report.json"
        got = payload_of(
            loft(
                "pipeline", "--corpus", corpus, "--templates", str(templates),
                "--output", str(output), "--report", str(report_path),
                "--k", "3", "--candidates", "4", "--seed", "13",
            )
        )
        assert got["execution_faithfulness"] == 1.0
        assert json.loads(report_path.read_text()) == got

        got = payload_of(loft("score", "--corpus", corpus, "--output", str(output)))
        assert got["statements"] >= 1
        assert got["execution_faithfulness"] == 1.0

    def test_mine_templates_with_nothing_usable_is_exit_2(self, tmp_path):
        forms = tmp_path / "forms.txt"
        forms.write_text("# nothing here\n", encoding="utf-8")
        result = loft("mine-templates", "--forms", str(forms), "--output", str(tmp_path / "t.json"))
        assert result.returncode == 2

    def test_mine_templates_skips_a_form_whose_template_cannot_ground(self, tmp_path, capsys,
                                                                      caplog):
        forms = tmp_path / "forms.txt"
        forms.write_text("eq { 3 ; 4 }\n"
                         "eq { hop { all_rows ; team } ; x }\n"
                         "only { filter_eq { all_rows ; team ; a } }\n", encoding="utf-8")
        templates = tmp_path / "t.json"
        with caplog.at_level("WARNING", logger="loft.cli"):
            code = main(["mine-templates", "--forms", str(forms), "--output", str(templates)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["templates"] == 1
        skeletons = [e["skeleton"] for e in json.loads(templates.read_text())["entries"]]
        assert skeletons == ["only { FILTER_EQ { all_rows ; COL_1 ; OBJ_1 } }"]
        assert "skipping line 1: " in caplog.text
        assert "skipping line 2: " in caplog.text
        assert "line 3" not in caplog.text

    def test_mine_templates_checks_each_distinct_template_once(self, tmp_path, capsys, caplog,
                                                               monkeypatch):
        checked = []
        real = templates._check_skeleton
        monkeypatch.setattr(templates, "_check_skeleton",
                            lambda skeleton, text: checked.append(text) or real(skeleton, text))
        # the 28 bundled forms hold 15 distinct templates
        forms = tmp_path / "forms.txt"
        forms.write_bytes(resources.files("loft.data").joinpath("sample_forms.txt").read_bytes())
        assert main(["mine-templates", "--forms", str(forms),
                     "--output", str(tmp_path / "t.json")]) == 0
        assert len(checked) == len(set(checked)) == 15
        # a refused template is checked once, and every line of it is skipped
        checked.clear()
        forms.write_text("eq { 3 ; 4 }\neq { 5 ; 6 }\nonly { all_rows }\nonly { all_rows }\n",
                         encoding="utf-8")
        with caplog.at_level("WARNING", logger="loft.cli"):
            assert main(["mine-templates", "--forms", str(forms),
                         "--output", str(tmp_path / "t.json")]) == 0
        assert checked == ["COMPARE_EQ { OBJ_1 ; OBJ_2 }", "only { all_rows }"]
        assert "skipping line 1: " in caplog.text and "skipping line 2: " in caplog.text
        assert "line 3" not in caplog.text and "line 4" not in caplog.text

    def test_mine_templates_reads_the_first_line_after_a_byte_order_mark(self, tmp_path, capsys,
                                                                       caplog):
        forms = tmp_path / "forms.txt"
        forms.write_text("\ufeffonly { all_rows }\n", encoding="utf-8")
        with caplog.at_level("WARNING", logger="loft.cli"):
            assert main(["mine-templates", "--forms", str(forms),
                         "--output", str(tmp_path / "t.json")]) == 0
        assert json.loads(capsys.readouterr().out)["templates"] == 1
        assert "skipping" not in caplog.text

    def test_mine_templates_names_an_undecodable_line(self, tmp_path, capsys):
        forms = tmp_path / "forms.txt"
        forms.write_bytes(b"only { all_rows }\n\xff\n")
        code = main(["mine-templates", "--forms", str(forms),
                     "--output", str(tmp_path / "t.json")])
        assert code == 2
        assert f"{forms}:2: not valid UTF-8" in capsys.readouterr().err


class TestSeeding:
    def test_seed_flag_is_the_only_seed_input(self, corpus, tmp_path):
        def run(tag, *extra, env_extra=None):
            out = tmp_path / f"{tag}.jsonl"
            result = loft(
                "synthesize", "--corpus", corpus, "--output", str(out),
                "--candidates", "5", *extra, env_extra=env_extra,
            )
            assert result.returncode == 0, result.stderr
            return out.read_text()

        default = run("default")
        assert run("flag", "--seed", "99") != default  # 99 differs from the default 13
        assert run("thirteen", "--seed", "13") == default
        # the environment variable that once set the default is ignored
        assert run("env", env_extra={"LOFT_SEED": "99"}) == default


class TestDemo:
    def test_demo_runs_everything(self, tmp_path):
        result = loft("demo", "--out-dir", str(tmp_path / "demo"), "--k", "3")
        summary = payload_of(result)
        for strategy in ("random", "stratified"):
            assert summary[strategy]["report"]["execution_faithfulness"] == 1.0
            assert summary[strategy]["metrics"]["statements"] > 0
        assert (tmp_path / "demo" / "templates.json").exists()
        assert (tmp_path / "demo" / "output_random.jsonl").exists()
        assert (tmp_path / "demo" / "output_stratified.jsonl").exists()

    # `loft demo` output with the default --k and --seed.  These pin
    # the synthesizer's random draw order; a deliberate output change must
    # re-record them and explain the change in CHANGES.md.
    DEMO_SHA256 = {
        "output_random.jsonl": "baad8dd4c8cb0caabc828f9cd7d53a4771a8371d62a27e397dbbae66a40c9955",
        "output_stratified.jsonl": "34a1cda620b3b84a8669644c01ae906f9887b928d9eadf66013db506dfd338d2",
        "templates.json": "fac7d4c745a9a01c3a594db9b7ddf4747e7b62d9ee4adfe0cc12317d5507f4e9",
    }

    # `loft score` of those two outputs against the demo corpus, as printed
    # (sorted keys); pins every float of the scorer bit for bit.
    DEMO_SCORES = {
        "output_random.jsonl": '{"bleu_1": 13.481716419957584, "bleu_2": 2.4134313564732133, "bleu_3": 0.6571123600253861, "category_coverage": 0.5, "column_coverage": 0.6833333333333333, "distinct_2": 0.38922155688622756, "execution_faithfulness": 1.0, "self_bleu_4": 46.965675601696006, "statements": 50, "tables": 10}',
        "output_stratified.jsonl": '{"bleu_1": 11.985680028783479, "bleu_2": 2.375851680060616, "bleu_3": 0.91447501921459, "category_coverage": 0.5, "column_coverage": 0.8083333333333333, "distinct_2": 0.3649932157394844, "execution_faithfulness": 1.0, "self_bleu_4": 47.52232759791147, "statements": 50, "tables": 10}',
    }

    @pytest.fixture(scope="class")
    def default_demo(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("demo")
        payload_of(loft("demo", "--out-dir", str(out)))
        return out

    def test_demo_output_is_byte_stable(self, default_demo):
        got = {name: hashlib.sha256((default_demo / name).read_bytes()).hexdigest()
               for name in self.DEMO_SHA256}
        assert got == self.DEMO_SHA256

    def test_demo_scores_are_stable(self, default_demo):
        corpus = str(default_demo / "corpus.jsonl")
        got = {}
        for name in self.DEMO_SCORES:
            result = loft("score", "--corpus", corpus, "--output", str(default_demo / name))
            assert result.returncode == 0, result.stderr
            got[name] = result.stdout.strip()
        assert got == self.DEMO_SCORES

    def test_scoring_tokenizes_each_text_once(self, default_demo, monkeypatch):
        calls = []
        tokenize = metrics.tokenize
        monkeypatch.setattr(metrics, "tokenize",
                            lambda text: calls.append(text) or tokenize(text))
        entries = {e.table.table_id: e for e in load_corpus(default_demo / "corpus.jsonl")}
        output = default_demo / "output_random.jsonl"
        metrics.score_output(output, list(entries.values()))
        rows = [json.loads(line) for line in output.read_text("utf-8").splitlines()]
        # each statement, and each reference of a table with statements, once
        texts = [st["text"] for row in rows for st in row["statements"]]
        texts += [ref for row in rows if row["statements"]
                  for ref in entries[row["table_id"]].references]
        assert sorted(calls) == sorted(texts)
        assert len(calls) == 58

class TestScoreInput:
    """`loft score` on hand-written output files, through cli.main."""

    GOOD = {"table_id": "mt", "statements": [
        {"text": "b has the most points", "logic_form": "only { filter_eq { all_rows ; team ; b } }",
         "category": "unique"},
    ]}

    def score(self, corpus, tmp_path, capsys, *records):
        out = tmp_path / "out.jsonl"
        out.write_text("".join(
            r if isinstance(r, str) else json.dumps(r) for r in records
        ), encoding="utf-8")
        code = main(["score", "--corpus", corpus, "--output", str(out)])
        return code, capsys.readouterr(), str(out)

    @pytest.mark.parametrize("bad", [
        "{not json\n",
        "[1, 2]\n",
        '{"table_id": "mt"}\n',
        '{"table_id": "mt", "statements": [{"logic_form": "only { all_rows }"}]}\n',
        '{"table_id": "mt", "statements": [{"text": "t"}]}\n',
        '{"statements": []}\n',
    ], ids=["not-json", "not-object", "no-statements", "no-text", "no-logic-form",
            "no-table-id"])
    def test_malformed_line_is_exit_2_naming_the_line(self, corpus, tmp_path, capsys, bad):
        code, captured, out = self.score(corpus, tmp_path, capsys,
                                         json.dumps(self.GOOD) + "\n", bad)
        assert code == 2
        assert f"{out}:2:" in captured.err
        assert captured.out == ""

    def test_undecodable_file_is_exit_2(self, corpus, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        out.write_bytes(b'{"table_id": "mt", "statements": []}\n\xff\n')
        assert main(["score", "--corpus", corpus, "--output", str(out)]) == 2
        assert "utf-8" in capsys.readouterr().err

    @pytest.mark.parametrize("command, bad", [
        ("pipeline", "--corpus"), ("score", "--corpus"), ("score", "--output"),
    ])
    def test_undecodable_input_names_the_file_and_line(self, corpus, tmp_path, capsys,
                                                       command, bad):
        undecodable = tmp_path / "undecodable.jsonl"
        undecodable.write_bytes(
            (json.dumps(self.GOOD) + "\n").encode("utf-8") + b"\xff\n")
        output = tmp_path / "out.jsonl"
        output.write_text(json.dumps(self.GOOD) + "\n", encoding="utf-8")
        paths = {"--corpus": corpus, "--output": str(output), bad: str(undecodable)}
        code = main([command, *(arg for pair in paths.items() for arg in pair)])
        assert code == 2
        assert f"{undecodable}:2: not valid UTF-8" in capsys.readouterr().err

    def test_unparseable_form_is_unfaithful_and_covers_nothing(self, corpus, tmp_path, capsys):
        broken = {"table_id": "mt", "statements": [
            *self.GOOD["statements"],
            {"text": "points", "logic_form": "eq { hop { all_rows ; points }", "category": "x"},
            {"text": "what", "logic_form": "frobnicate { all_rows }"},
        ]}
        code, captured, _ = self.score(corpus, tmp_path, capsys, json.dumps(broken) + "\n")
        assert code == 0, captured.err
        got = json.loads(captured.out)
        assert got["statements"] == 3
        assert got["execution_faithfulness"] == pytest.approx(1 / 3)
        # only the parseable form's `team` counts; `points` sits in a broken form
        assert got["column_coverage"] == 0.5


def nested_form(levels: int) -> str:
    """A boolean form `levels` functions deep over the mt table."""
    text = "all_rows"
    for _ in range(levels - 1):
        text = f"filter_all {{ {text} ; team }}"
    return f"only {{ {text} }}"


class TestDeepForms:
    """A form nested past forms.MAX_NESTING is a parse error on every surface."""

    DEEP = nested_form(3000)

    def test_realize_prints_a_parse_error(self, capsys):
        assert main(["realize", self.DEEP]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["kind"] == "parse"
        assert "nested more than" in got["error"]

    def test_verify_is_not_entailed(self, corpus, capsys):
        assert main(["verify", "--corpus", corpus, self.DEEP]) == 0
        assert json.loads(capsys.readouterr().out) == {"entailed": False}

    def test_score_counts_the_statement_as_unfaithful(self, corpus, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        out.write_text(json.dumps({"table_id": "mt", "statements": [
            {"text": "b is the only one", "logic_form": "only { filter_eq { all_rows ; team ; b } }"},
            {"text": "deep", "logic_form": self.DEEP},
        ]}) + "\n", encoding="utf-8")
        assert main(["score", "--corpus", corpus, "--output", str(out)]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["statements"] == 2
        assert got["execution_faithfulness"] == 0.5

    def test_mine_templates_skips_the_line(self, tmp_path, capsys, caplog):
        forms = tmp_path / "forms.txt"
        forms.write_text(self.DEEP + "\nonly { all_rows }\n", encoding="utf-8")
        with caplog.at_level("WARNING", logger="loft.cli"):
            code = main(["mine-templates", "--forms", str(forms),
                         "--output", str(tmp_path / "t.json")])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["templates"] == 1
        assert "skipping unparseable form on line 1" in caplog.text


# deeper than the JSON decoder can recurse
DEEP_JSON = "[" * 200_000

DEEP_ANSWER_GENERATOR = f"""\
import json, sys
for n, line in enumerate(sys.stdin):
    req = json.loads(line)
    answer = {{"id": req["id"], "statement": req["readable"]}}
    print("{DEEP_JSON}" if n == 1 else json.dumps(answer), flush=True)
"""


class TestDeepJson:
    """JSON nested past the decoder's limit is bad input on each of its four
    ways in, never a traceback."""

    def test_corpus_line_is_exit_2_naming_the_line(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps(MT_RECORD) + "\n" + DEEP_JSON + "\n", encoding="utf-8")
        code = main(["pipeline", "--corpus", str(corpus),
                     "--output", str(tmp_path / "out.jsonl")])
        assert code == 2
        assert f"{corpus}:2: malformed JSON" in capsys.readouterr().err

    def test_output_line_is_exit_2_naming_the_line(self, corpus, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        out.write_text('{"table_id": "mt", "statements": []}\n' + DEEP_JSON + "\n",
                       encoding="utf-8")
        assert main(["score", "--corpus", corpus, "--output", str(out)]) == 2
        assert f"{out}:2: malformed JSON" in capsys.readouterr().err

    def test_template_file_is_exit_2(self, corpus, tmp_path, capsys):
        templates = tmp_path / "templates.json"
        templates.write_text('{"entries": ' + DEEP_JSON, encoding="utf-8")
        code = main(["pipeline", "--corpus", corpus, "--templates", str(templates),
                     "--output", str(tmp_path / "out.jsonl")])
        assert code == 2
        assert f"{templates}: malformed JSON" in capsys.readouterr().err

    def test_hook_answer_costs_only_its_item(self, corpus, tmp_path, capsys, caplog):
        script = tmp_path / "deep.py"
        script.write_text(DEEP_ANSWER_GENERATOR, encoding="utf-8")
        with caplog.at_level("WARNING", logger="loft.pipeline"):
            code = main(["pipeline", "--corpus", corpus, "--output", str(tmp_path / "out.jsonl"),
                         "--generator", f"{sys.executable} {script}", "--timeout", "30"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["candidates"] >= 3
        assert report["generated"] == report["candidates"] - 1
        assert "unparseable line" in caplog.text
        assert "timed out" not in caplog.text


class TestUnwritableOutput:
    """An output path under a regular file cannot be made: exit 2."""

    @pytest.mark.parametrize("argv", [
        ["demo", "--out-dir", "afile"],
        ["mine-templates", "--forms", "forms.txt", "--output", "afile/t.json"],
    ], ids=["demo", "mine-templates"])
    def test_output_under_a_file_is_exit_2(self, tmp_path, argv):
        (tmp_path / "afile").write_text("", encoding="utf-8")
        (tmp_path / "forms.txt").write_text("only { all_rows }\n", encoding="utf-8")
        result = loft(*argv, cwd=tmp_path)
        assert result.returncode == 2
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("bad", [
        ["--report", "afile/r.json"],
        ["--report", "adir"],
        ["--output", "adir"],
    ], ids=["report-under-a-file", "report-is-a-directory", "output-is-a-directory"])
    def test_pipeline_fails_before_writing_its_output(self, tmp_path, corpus, bad):
        # both paths are checked before the run, so no output is left behind
        (tmp_path / "afile").write_text("", encoding="utf-8")
        (tmp_path / "adir").mkdir()
        args = {"--corpus": corpus, "--output": "out/o.jsonl", bad[0]: bad[1]}
        result = loft("pipeline", *(x for kv in args.items() for x in kv), cwd=tmp_path)
        assert result.returncode == 2
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "out" / "o.jsonl").exists()

    def test_a_report_naming_the_output_file_is_exit_1(self, tmp_path, corpus):
        # two spellings of one file: the report would overwrite the output
        (tmp_path / "sub").mkdir()
        result = loft("pipeline", "--corpus", corpus, "--output", "o.jsonl",
                      "--report", "sub/../o.jsonl", cwd=tmp_path)
        assert result.returncode == 1
        assert result.stderr == "error: --report and --output name the same file\n"
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("argv, message", [
        (["pipeline", "--corpus", "c.jsonl", "--output", "sub/../c.jsonl"],
         "--output and --corpus"),
        (["pipeline", "--corpus", "c.jsonl", "--output", "o.jsonl", "--report", "c.jsonl"],
         "--report and --corpus"),
        (["pipeline", "--corpus", "c.jsonl", "--templates", "t.json", "--output", "t.json"],
         "--output and --templates"),
        (["synthesize", "--corpus", "c.jsonl", "--output", "c.jsonl"], "--output and --corpus"),
        (["synthesize", "--corpus", "c.jsonl", "--templates", "t.json", "--output", "t.json"],
         "--output and --templates"),
        (["mine-templates", "--forms", "f.txt", "--output", "f.txt"], "--output and --forms"),
    ], ids=["pipeline-output-corpus", "pipeline-report-corpus", "pipeline-output-templates",
            "synthesize-output-corpus", "synthesize-output-templates", "mine-templates"])
    def test_an_output_naming_an_input_is_exit_1(self, tmp_path, corpus, argv, message):
        # the command would replace a file it reads with what it writes
        (tmp_path / "sub").mkdir()
        (tmp_path / "c.jsonl").write_bytes(Path(corpus).read_bytes())
        (tmp_path / "t.json").write_bytes(
            resources.files("loft.data").joinpath("default_templates.json").read_bytes())
        (tmp_path / "f.txt").write_text("only { all_rows }\n", encoding="utf-8")
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
        result = loft(*argv, cwd=tmp_path)
        assert result.returncode == 1
        assert result.stderr == f"error: {message} name the same file\n"
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()
                if path.is_file()} == before

    @pytest.mark.parametrize("argv", [
        ["synthesize", "--corpus", "missing.jsonl", "--output", "adir"],
        ["mine-templates", "--forms", "missing.txt", "--output", "adir"],
    ], ids=["synthesize", "mine-templates"])
    def test_an_output_directory_fails_before_any_input_is_read(self, tmp_path, argv):
        (tmp_path / "adir").mkdir()
        result = loft(*argv, cwd=tmp_path)
        assert result.returncode == 2
        assert result.stderr == "error: adir is a directory\n"

    def test_mine_templates_makes_the_output_directory(self, tmp_path):
        (tmp_path / "forms.txt").write_text("only { all_rows }\n", encoding="utf-8")
        result = loft("mine-templates", "--forms", "forms.txt", "--output", "new/dir/t.json",
                      cwd=tmp_path)
        assert payload_of(result) == {"templates": 1, "output": "new/dir/t.json"}
        assert json.loads((tmp_path / "new" / "dir" / "t.json").read_text())["entries"]


class TestCsvFieldLimit:
    def test_oversized_field_is_exit_2_naming_the_line(self, tmp_path):
        src = tmp_path / "big.csv"
        src.write_text("team,note\na," + "x" * 200_000 + "\n", encoding="utf-8")
        result = loft("ingest", "--input", str(src), "--format", "csv",
                      "--output", str(tmp_path / "corpus.jsonl"))
        assert result.returncode == 2
        assert f"{src}:2: field larger than field limit" in result.stderr
        assert "Traceback" not in result.stderr


# Odd numbers for every numeric option: not numbers, floats where an
# integer belongs, a negative zero, and integers too long for int() to read.
ODD_NUMBERS = ["nan", "1e3", "-0", "0", "1", "-1", "inf", "", " 3", "3.0", "0x1f", "9" * 5000]
# huge but readable integers, for the options where a huge value is cheap
HUGE_INTEGERS = ["9" * 40, "-" + "9" * 40]
FORMS = [
    "count { all_rows }",
    "eq { hop { argmax { all_rows ; points } ; team } ; b }",
    f"eq {{ nth_max {{ all_rows ; points ; {'9' * 5000} }} ; 3 }}",
    "eq { nth_max { all_rows ; points ; 1e3 } ; 3 }",
    "greater { sum { all_rows ; points } ; nan }",
    "eq { count { all_rows } ; -0 }",
    "frob {",
    "",
]
# the kinds of path an option can name: see _paths
PATH_KINDS = ["corpus", "empty", "forms", "templates", "output", "missing", "directory",
              "under-a-file", "scored"]
# each subcommand's options: (flag, a usual value, odd values); a flag of
# None is a positional argument, and a form has no usual value: it is any
# of FORMS
NUMBER = ODD_NUMBERS + HUGE_INTEGERS
SUBCOMMANDS = {
    "ingest": [("--input", "corpus", PATH_KINDS), ("--format", "json", ["csv", "xml"]),
               ("--output", "output", PATH_KINDS)],
    "mine-templates": [("--forms", "forms", PATH_KINDS), ("--output", "output", PATH_KINDS)],
    "synthesize": [("--corpus", "corpus", PATH_KINDS), ("--templates", "templates", PATH_KINDS),
                   ("--output", "output", PATH_KINDS), ("--candidates", "3", ODD_NUMBERS),
                   ("--seed", "7", NUMBER)],
    "realize": [(None, None, FORMS)],
    "execute": [("--corpus", "corpus", PATH_KINDS), ("--table-id", "mt", ["zz", ""]),
                (None, None, FORMS)],
    "verify": [("--corpus", "corpus", PATH_KINDS), ("--table-id", "mt", ["zz", ""]),
               (None, None, FORMS)],
    "pipeline": [("--corpus", "corpus", PATH_KINDS), ("--templates", "templates", PATH_KINDS),
                 ("--output", "output", PATH_KINDS), ("--report", "report", PATH_KINDS),
                 ("--k", "2", NUMBER), ("--strategy", "stratified", ["nan"]),
                 ("--candidates", "3", ODD_NUMBERS),
                 ("--generator", "builtin", ["", "   ", "'"]), ("--verifier", "builtin", [""]),
                 ("--timeout", "2", NUMBER), ("--seed", "7", NUMBER)],
    "score": [("--corpus", "corpus", PATH_KINDS), ("--output", "scored", PATH_KINDS)],
    "demo": [("--out-dir", "output", PATH_KINDS), ("--k", "2", NUMBER), ("--seed", "7", NUMBER)],
}
LOG_LEVELS = [None, "", "debug", "WARNING", "bogus", "5", "nan", "Level 5", " info "]


@st.composite
def cli_calls(draw):
    """A subcommand with each option given its usual value or an odd one,
    none or two, sometimes an argument too many or --help, and a LOFT_LOG
    value, most often none."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv, options = [command], SUBCOMMANDS[command]
    for flag, usual, odd in options:
        for _ in range(draw(st.sampled_from([1] * 8 + [0, 2]))):
            # about one odd value a call, so most calls get past parsing
            odd_now = usual is None or draw(st.integers(0, len(options))) == 0
            value = draw(st.sampled_from(odd)) if odd_now else usual
            argv += [flag, value] if flag else [value]
    argv += draw(st.sampled_from([[]] * 8 + [["--bogus"], ["extra"], ["--help"]]))
    return argv, draw(st.sampled_from([None] * 12 + LOG_LEVELS))


def _paths(root):
    """A file or directory of each path kind under root."""
    paths = {kind: root / name for kind, name in [
        ("corpus", "corpus.jsonl"), ("empty", "empty.jsonl"), ("forms", "forms.txt"),
        ("templates", "templates.json"), ("output", "out/output.jsonl"),
        ("missing", "missing.jsonl"), ("directory", "dir"), ("under-a-file", "corpus.jsonl/x"),
        ("report", "out/report.json"), ("scored", "scored.jsonl"),
    ]}
    paths["corpus"].write_text(json.dumps(MT_RECORD) + "\n", encoding="utf-8")
    paths["empty"].write_text("", encoding="utf-8")
    paths["forms"].write_text("eq { count { all_rows } ; 3 }\n", encoding="utf-8")
    paths["templates"].write_text(json.dumps({"entries": [
        {"skeleton": "COMPARE_EQ { count { all_rows } ; OBJ_1 }", "weight": 1.0}]}),
        encoding="utf-8")
    paths["scored"].write_text(json.dumps({"table_id": "mt", "statements": [
        {"category": "comparative", "logic_form": FORMS[1], "text": "b has the most points"}]})
        + "\n", encoding="utf-8")
    paths["directory"].mkdir()
    return paths


class TestArgumentFuzz:
    @settings(max_examples=250, deadline=None)
    @given(cli_calls())
    # an ordinal int() cannot read was a ValueError traceback from the type check
    @example((["execute", "--corpus", "corpus", FORMS[2]], None))
    @example((["verify", "--corpus", "corpus", FORMS[2]], None))
    def test_every_call_ends_in_a_documented_exit_code(self, call):
        argv, level = call
        env = {k: v for k, v in os.environ.items() if k != "LOFT_LOG"}
        if level is not None:
            env["LOFT_LOG"] = level
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, env, clear=True):
            paths = _paths(Path(tmp))
            argv = [str(paths.get(arg, arg)) for arg in argv]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's way out: --help or bad usage
                    code = exc.code
        assert code in (0, 1, 2, 3), (argv[:6], code, err.getvalue()[-500:])
        assert "Traceback" not in err.getvalue()
