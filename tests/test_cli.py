"""Command line behavior, exercised through real subprocesses."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from loft.cli import main

MT_RECORD = {
    "table_id": "mt",
    "title": "mt",
    "header": ["team", "points"],
    "rows": [["a", "3"], ["b", "5"], ["c", "2"]],
}


def loft(*argv, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("LOFT_SEED", None)
    env.pop("LOFT_LOG", None)
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

    def test_missing_corpus_is_exit_2(self, tmp_path):
        result = loft("execute", "--corpus", str(tmp_path / "nope.jsonl"), "count { all_rows }")
        assert result.returncode == 2
        assert "error" in result.stderr

    def test_unknown_table_id_is_exit_2(self, corpus):
        result = loft("execute", "--corpus", corpus, "--table-id", "zz", "count { all_rows }")
        assert result.returncode == 2


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

    def test_bad_loft_seed(self, corpus, tmp_path):
        result = loft(
            "synthesize", "--corpus", corpus, "--output", str(tmp_path / "o.jsonl"),
            env_extra={"LOFT_SEED": "pony"},
        )
        assert result.returncode == 1
        assert "LOFT_SEED" in result.stderr


class TestIngest:
    def test_normalizes_and_reports(self, tmp_path):
        src = tmp_path / "raw.csv"
        src.write_text("Team,Points\na,3\nb,5\n", encoding="utf-8")
        out = tmp_path / "corpus.jsonl"
        got = payload_of(
            loft("ingest", "--input", str(src), "--format", "csv", "--output", str(out))
        )
        assert got["tables"] == 1
        record = json.loads(out.read_text().strip())
        assert record["header"] == ["team", "points"]

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


class TestSeeding:
    def test_env_seed_equals_flag_seed(self, corpus, tmp_path):
        def run(tag, *extra, env_extra=None):
            out = tmp_path / f"{tag}.jsonl"
            result = loft(
                "synthesize", "--corpus", corpus, "--output", str(out),
                "--candidates", "5", *extra, env_extra=env_extra,
            )
            assert result.returncode == 0, result.stderr
            return out.read_text()

        via_flag = run("flag", "--seed", "99")
        via_env = run("env", env_extra={"LOFT_SEED": "99"})
        default = run("default")
        assert via_flag == via_env
        assert via_flag != default  # 99 differs from the built-in default 13

    def test_flag_overrides_env(self, corpus, tmp_path):
        out_a = tmp_path / "a.jsonl"
        loft(
            "synthesize", "--corpus", corpus, "--output", str(out_a),
            "--candidates", "5", "--seed", "13", env_extra={"LOFT_SEED": "99"},
        )
        out_b = tmp_path / "b.jsonl"
        loft(
            "synthesize", "--corpus", corpus, "--output", str(out_b),
            "--candidates", "5",
        )
        assert out_a.read_text() == out_b.read_text()


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

    # `loft demo` output with the default --k and LOFT_SEED unset.  These pin
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
