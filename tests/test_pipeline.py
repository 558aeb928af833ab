"""Pipeline runs: hook protocol behavior, sampling, and determinism.

Hook scripts are written into tmp_path and run through sys.executable so
the tests do not depend on a shell or on PATH.
"""

import json
import shlex
import sys
from collections import Counter
from dataclasses import replace

import pytest

from loft import HookError, default_distribution, load_corpus, parse_template, verify
from loft.forms import parse_logic_form, print_logic_form, referenced_columns
from loft.pipeline import (
    HOOK_WINDOW,
    HookConfig,
    Statement,
    generate_statements,
    run_pipeline,
    sample_outputs,
    verify_statements,
)
from loft.synthesizer import SynthesisConfig, SynthesizedCandidate, synthesize_candidates
from loft.tables import CorpusEntry, Table
from loft.templates import TemplateDistribution, WeightedTemplate

ECHO_GENERATOR = """\
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"id": req["id"], "statement": req["readable"]}), flush=True)
"""

UPPER_GENERATOR = """\
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"id": req["id"], "statement": req["readable"].upper()}), flush=True)
"""

REJECT_ALL_VERIFIER = """\
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"id": req["id"], "entailed": False}), flush=True)
"""

GARBAGE_HOOK = """\
import sys
for line in sys.stdin:
    print("this is not json", flush=True)
"""

SWALLOW_FIRST_GENERATOR = """\
import json, sys
first = True
for line in sys.stdin:
    req = json.loads(line)
    if first:
        first = False
        continue
    print(json.dumps({"id": req["id"], "statement": "kept " + req["id"]}), flush=True)
"""

STALE_ECHO_GENERATOR = """\
import json, sys
previous = None
for line in sys.stdin:
    req = json.loads(line)
    if previous is not None:
        print(json.dumps({"id": previous, "statement": "stale answer"}), flush=True)
    print(json.dumps({"id": req["id"], "statement": "fresh " + req["id"]}), flush=True)
    previous = req["id"]
"""

QUITTER_HOOK = """\
import sys
line = sys.stdin.readline()
sys.exit(0)
"""

ACCEPT_ALL_VERIFIER = """\
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"id": req["id"], "entailed": True}), flush=True)
"""

# A hook that reads its input in batches: everything that arrives before
# stdin has been quiet for `quiet` seconds.
BATCH_READER = """\
import json, os, select, sys

def batches(quiet):
    pending = b""
    while True:
        chunk = os.read(0, 1 << 16)
        if not chunk:
            return
        pending += chunk
        while select.select([0], [], [], quiet)[0]:
            chunk = os.read(0, 1 << 16)
            if not chunk:
                break
            pending += chunk
        *lines, pending = pending.split(b"\\n")
        yield [json.loads(line) for line in lines if line.strip()]

def answer(replies):
    sys.stdout.write("".join(json.dumps(r) + "\\n" for r in replies))
    sys.stdout.flush()
"""

REVERSE_BATCH_GENERATOR = BATCH_READER + """
for batch in batches(0.02):
    answer({"id": r["id"], "statement": r["readable"]} for r in reversed(batch))
"""

HOLD_UNTIL_QUIET_GENERATOR = BATCH_READER + """
for batch in batches(0.2):
    answer({"id": r["id"], "statement": f"batch of {len(batch)}"} for r in batch)
"""

SLOW_GENERATOR = """\
import json, sys, time
for line in sys.stdin:
    time.sleep(0.1)
    req = json.loads(line)
    print(json.dumps({"id": req["id"], "statement": req["readable"]}), flush=True)
"""

DIE_AFTER_FIVE_GENERATOR = """\
import json, sys
for n, line in enumerate(sys.stdin):
    if n == 5:
        sys.exit(0)
    req = json.loads(line)
    print(json.dumps({"id": req["id"], "statement": req["readable"]}), flush=True)
"""

# ~200 KB on stderr before the first answer: more than a pipe holds
CHATTY_GENERATOR = """\
import json, sys
for n in range(2000):
    print(f"hook warming up, step {n} " + "." * 80, file=sys.stderr, flush=True)
for line in sys.stdin:
    req = json.loads(line)
    print("hook says hello to " + req["id"], file=sys.stderr, flush=True)
    print(json.dumps({"id": req["id"], "statement": req["readable"]}), flush=True)
"""

# a line that is not UTF-8 before the second answer
BAD_BYTES_GENERATOR = """\
import json, sys
out = sys.stdout.buffer
for n, line in enumerate(sys.stdin):
    req = json.loads(line)
    if n == 1:
        out.write(b"\\xff\\n")
    out.write(json.dumps({"id": req["id"], "statement": req["readable"]}).encode() + b"\\n")
    out.flush()
"""


def hook_command(tmp_path, name, body):
    script = tmp_path / name
    script.write_text(body, encoding="utf-8")
    return f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"


@pytest.fixture(scope="module")
def candidates(bundled_corpus):
    entry = bundled_corpus[0]
    config = SynthesisConfig(candidates_per_column_set=4, seed=13)
    result = synthesize_candidates(entry.table, None, config, default_distribution())
    assert result.candidates
    return result.candidates


@pytest.fixture(scope="module")
def many_candidates(bundled_corpus):
    """More candidates than HOOK_WINDOW, from three tables."""
    config = SynthesisConfig(candidates_per_column_set=4, seed=13)
    out = []
    for entry in bundled_corpus[:3]:
        out.extend(synthesize_candidates(entry.table, None, config,
                                         default_distribution()).candidates)
    assert len(out) > HOOK_WINDOW
    return out


@pytest.fixture(scope="module")
def tables(bundled_corpus):
    return {e.table.table_id: e.table for e in bundled_corpus}


class TestGeneratorHooks:
    def test_echo_hook_matches_builtin(self, tmp_path, candidates):
        command = hook_command(tmp_path, "echo.py", ECHO_GENERATOR)
        via_hook = generate_statements(candidates, HookConfig(command, timeout=30.0))
        builtin = generate_statements(candidates, HookConfig())
        assert [st.text for st in via_hook] == [st.text for st in builtin]
        assert [st.logic_form for st in via_hook] == [st.logic_form for st in builtin]

    def test_hook_text_is_used_verbatim(self, tmp_path, candidates):
        command = hook_command(tmp_path, "upper.py", UPPER_GENERATOR)
        out = generate_statements(candidates, HookConfig(command, timeout=30.0))
        assert out
        for st in out:
            assert st.text == st.text.upper()

    def test_garbage_output_drops_items_without_crashing(self, tmp_path, candidates, caplog):
        command = hook_command(tmp_path, "garbage.py", GARBAGE_HOOK)
        with caplog.at_level("WARNING", logger="loft.pipeline"):
            out = generate_statements(candidates, HookConfig(command, timeout=30.0))
        assert out == []
        assert "unparseable" in caplog.text

    def test_timeout_drops_only_the_unanswered_item(self, tmp_path, candidates, caplog):
        command = hook_command(tmp_path, "swallow.py", SWALLOW_FIRST_GENERATOR)
        with caplog.at_level("WARNING", logger="loft.pipeline"):
            out = generate_statements(candidates[:3], HookConfig(command, timeout=0.5))
        texts = [st.text for st in out]
        assert len(texts) == 2
        assert all(text.startswith("kept ") for text in texts)
        assert "timed out" in caplog.text

    def test_stale_answers_are_discarded_and_resynced(self, tmp_path, candidates, caplog):
        command = hook_command(tmp_path, "stale.py", STALE_ECHO_GENERATOR)
        with caplog.at_level("WARNING", logger="loft.pipeline"):
            out = generate_statements(candidates[:3], HookConfig(command, timeout=30.0))
        assert [st.text.startswith("fresh ") for st in out] == [True, True, True]
        assert "stale" in caplog.text

    def test_unlaunchable_hook_is_fatal(self, candidates):
        with pytest.raises(HookError, match="cannot launch"):
            generate_statements(candidates, HookConfig("/nonexistent/hook-binary"))

    def test_hook_exit_mid_run_is_fatal(self, tmp_path, candidates):
        command = hook_command(tmp_path, "quitter.py", QUITTER_HOOK)
        with pytest.raises(HookError, match="mid-run"):
            generate_statements(candidates[:3], HookConfig(command, timeout=30.0))


class TestPipelinedHooks:
    def test_answers_in_reverse_order_match_builtin(self, tmp_path, many_candidates):
        command = hook_command(tmp_path, "reverse.py", REVERSE_BATCH_GENERATOR)
        via_hook = generate_statements(many_candidates, HookConfig(command, timeout=30.0))
        builtin = generate_statements(many_candidates, HookConfig())
        assert via_hook == builtin

    def test_window_fills_and_never_overflows(self, tmp_path, many_candidates):
        command = hook_command(tmp_path, "hold.py", HOLD_UNTIL_QUIET_GENERATOR)
        out = generate_statements(many_candidates, HookConfig(command, timeout=30.0))
        assert len(out) == len(many_candidates)
        sizes = [int(st.text.split()[-1]) for st in out]
        assert max(sizes) == HOOK_WINDOW

    def test_slow_hook_that_keeps_answering_loses_nothing(self, tmp_path, candidates, caplog):
        # the last of 8 answers comes ~0.8 s after all were sent: an item
        # times out only when the hook has been silent for the timeout
        command = hook_command(tmp_path, "slow.py", SLOW_GENERATOR)
        with caplog.at_level("WARNING", logger="loft.pipeline"):
            out = generate_statements(candidates[:8], HookConfig(command, timeout=0.5))
        assert len(out) == 8
        assert "timed out" not in caplog.text

    def test_hook_dying_with_items_in_flight_is_fatal(self, tmp_path, many_candidates):
        command = hook_command(tmp_path, "die.py", DIE_AFTER_FIVE_GENERATOR)
        with pytest.raises(HookError):
            generate_statements(many_candidates, HookConfig(command, timeout=30.0))

    def test_stderr_is_logged_at_debug_and_never_blocks(self, tmp_path, candidates, caplog):
        command = hook_command(tmp_path, "chatty.py", CHATTY_GENERATOR)
        with caplog.at_level("DEBUG", logger="loft.pipeline"):
            out = generate_statements(candidates[:3], HookConfig(command, timeout=5.0))
        assert len(out) == 3
        said = [r for r in caplog.records if "hook says hello to" in r.getMessage()]
        assert len(said) == 3
        assert {r.levelname for r in said} == {"DEBUG"}

    def test_undecodable_line_costs_only_the_awaited_item(self, tmp_path, candidates, caplog):
        items = candidates[:6]
        assert len(items) == 6
        command = hook_command(tmp_path, "bad_bytes.py", BAD_BYTES_GENERATOR)
        with caplog.at_level("WARNING", logger="loft.pipeline"):
            out = generate_statements(items, HookConfig(command, timeout=5.0))
        builtin = generate_statements(items, HookConfig())
        assert out == builtin[:1] + builtin[2:]
        assert "unparseable line" in caplog.text
        assert "timed out" not in caplog.text

    def test_hooked_run_over_the_bundled_corpus_matches_builtin(self, tmp_path,
                                                                bundled_corpus):
        config = SynthesisConfig(candidates_per_column_set=5, seed=13)
        builtin_out, hooked_out = tmp_path / "builtin.jsonl", tmp_path / "hooked.jsonl"
        builtin = run_pipeline(bundled_corpus, builtin_out, default_distribution(),
                               seed=13, synthesis=config)
        hooked = run_pipeline(
            bundled_corpus, hooked_out, default_distribution(), seed=13, synthesis=config,
            generator=HookConfig(hook_command(tmp_path, "echo.py", ECHO_GENERATOR), 30.0),
            verifier=HookConfig(hook_command(tmp_path, "yes.py", ACCEPT_ALL_VERIFIER), 30.0),
        )
        assert hooked.candidates > HOOK_WINDOW
        assert hooked.to_json() == builtin.to_json()
        assert hooked_out.read_bytes() == builtin_out.read_bytes()


class TestVerifierHooks:
    def test_builtin_keeps_true_statements(self, candidates, tables):
        statements = generate_statements(candidates, HookConfig())
        kept = verify_statements(statements, HookConfig(), tables)
        assert kept == statements  # synthesis only emits verify-true forms

    def test_written_forms_are_rechecked_when_the_synthesis_gate_breaks(
        self, tmp_path, bundled_corpus, monkeypatch
    ):
        # "only { all_rows }" grounds to itself and is false on any table of
        # more than one row, so only synthesis' verify keeps it out; the
        # builtin verifier keeps everything, and the sampled re-check of the
        # written forms must then report the false statements
        dist = TemplateDistribution(entries=(
            WeightedTemplate(parse_template("only { all_rows }"), 0.5),
            WeightedTemplate(parse_template("COMPARE_EQ { count { all_rows } ; OBJ_1 }"), 0.5),
        ))
        config = SynthesisConfig(candidates_per_column_set=2, seed=13)
        sound = run_pipeline(bundled_corpus, tmp_path / "sound.jsonl", dist, k=5, seed=13,
                             synthesis=config)
        assert sound.sampled > 0 and sound.execution_faithfulness == 1.0
        monkeypatch.setattr("loft.synthesizer.verify", lambda form, table: True)
        broken = run_pipeline(bundled_corpus, tmp_path / "broken.jsonl", dist, k=5, seed=13,
                              synthesis=config)
        assert broken.verified == broken.candidates > sound.candidates
        assert broken.execution_faithfulness < 1.0

    def test_reject_all_hook_filters_everything(self, tmp_path, candidates, tables):
        statements = generate_statements(candidates, HookConfig())
        command = hook_command(tmp_path, "nope.py", REJECT_ALL_VERIFIER)
        kept = verify_statements(statements, HookConfig(command, timeout=30.0), tables)
        assert kept == []


def make_statements(categories):
    return [
        Statement(table_id="t", text=f"s{i}", logic_form=f"f{i}", category=cat)
        for i, cat in enumerate(categories)
    ]


class TestSampling:
    def test_small_pools_pass_through(self):
        statements = make_statements(["count", "unique"])
        out = sample_outputs(statements, 5, "random", seed=1)
        assert sorted(st.text for st in out["t"]) == ["s0", "s1"]

    def test_random_respects_k(self):
        statements = make_statements(["count"] * 10)
        out = sample_outputs(statements, 3, "random", seed=1)
        assert len(out["t"]) == 3

    def test_stratified_covers_every_category_when_k_allows(self):
        statements = make_statements(
            ["count"] * 6 + ["unique"] * 6 + ["majority"] * 6 + ["other"] * 6
        )
        for seed in range(10):
            out = sample_outputs(statements, 4, "stratified", seed=seed)
            cats = {st.category for st in out["t"]}
            assert cats == {"count", "unique", "majority", "other"}

    def test_stratified_never_beats_k(self):
        statements = make_statements(["count"] * 3 + ["unique"] * 3)
        out = sample_outputs(statements, 5, "stratified", seed=0)
        assert len(out["t"]) == 5

    def test_stratified_uses_leftovers_when_categories_run_out(self):
        statements = make_statements(["count"] * 9 + ["unique"])
        out = sample_outputs(statements, 4, "stratified", seed=2)
        assert len(out["t"]) == 4
        assert {st.category for st in out["t"]} == {"count", "unique"}

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            sample_outputs([], 3, "sorted", seed=0)

    def test_selection_ignores_other_tables(self):
        # per-table draws depend only on (seed, table_id), so adding another
        # table's statements to the batch cannot change what t gets
        statements = make_statements(["count"] * 8)
        other = [
            Statement(table_id="u", text=f"u{i}", logic_form=f"g{i}", category="count")
            for i in range(5)
        ]
        alone = sample_outputs(statements, 3, "random", seed=5)
        mixed = sample_outputs(other + statements, 3, "random", seed=5)
        assert [st.text for st in alone["t"]] == [st.text for st in mixed["t"]]


def count_calls(run, *functions):
    """Run run() and count the Python calls to the given functions, keyed
    by (function name, module of the direct caller), plus the calls that
    returned True, keyed the same way."""
    watched = {fn.__code__: fn.__name__ for fn in functions}
    calls: Counter = Counter()
    true: Counter = Counter()

    def profile(frame, event, arg):
        name = watched.get(frame.f_code)
        if name is None:
            return
        key = (name, frame.f_back.f_globals.get("__name__"))
        if event == "call":
            calls[key] += 1
        elif event == "return" and arg is True:
            true[key] += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, calls, true


class TestRunPipeline:
    def test_each_candidate_is_printed_and_verified_once(self, tmp_path, bundled_corpus):
        report, calls, true = count_calls(
            lambda: run_pipeline(bundled_corpus, tmp_path / "out.jsonl",
                                 default_distribution(), seed=13),
            verify, parse_logic_form, print_logic_form,
        )
        assert report.sampled > 0
        # synthesis prints each form that passes its verify, once
        synthesized = true["verify", "loft.synthesizer"]
        assert synthesized >= report.candidates > report.sampled
        printed = {caller: n for (name, caller), n in calls.items()
                   if name == "print_logic_form" and caller != "loft.forms"}
        assert printed == {"loft.synthesizer": synthesized}
        # the pipeline only re-checks the sampled statements, from their text
        assert calls["verify", "loft.pipeline"] == report.sampled
        parsed = sum(n for (name, _), n in calls.items() if name == "parse_logic_form")
        assert parsed == report.sampled

    def test_end_to_end_builtin(self, tmp_path, bundled_corpus):
        out = tmp_path / "statements.jsonl"
        report = run_pipeline(
            bundled_corpus[:5],
            out,
            default_distribution(),
            k=3,
            strategy="random",
            seed=13,
            synthesis=SynthesisConfig(candidates_per_column_set=5, seed=13),
        )
        assert report.tables == 5
        assert report.candidates >= report.generated >= report.verified >= report.sampled
        assert report.execution_faithfulness == 1.0
        assert report.synthesis_failures == []

        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert [rec["table_id"] for rec in lines] == sorted(rec["table_id"] for rec in lines)
        for rec in lines:
            assert 1 <= len(rec["statements"]) <= 3
            for st in rec["statements"]:
                assert st["text"] and st["logic_form"] and st["category"]

    def test_no_duplicate_forms_even_with_overlapping_column_sets(self, tmp_path):
        # both sets contain column 0, so forms touching only that column
        # can be synthesized once per set; the run must keep a single copy
        table = Table.from_strings(
            "overlap",
            "overlap",
            ["points", "team", "year"],
            [["3", "a", "2001"], ["5", "b", "2002"], ["2", "c", "2003"],
             ["9", "d", "2004"], ["4", "e", "2005"]],
        )
        sets = ((0, 1), (0, 2))
        config = SynthesisConfig(candidates_per_column_set=20, seed=13)
        raw = synthesize_candidates(table, list(sets), config, default_distribution())
        prints = [print_logic_form(c.form) for c in raw.candidates]
        assert len(set(prints)) < len(prints)  # the overlap really repeats forms

        entry = CorpusEntry(table=table, selected_column_sets=sets)
        out = tmp_path / "overlap.jsonl"
        report = run_pipeline([entry], out, default_distribution(), k=40, seed=13,
                              synthesis=config)
        assert report.candidates == len(set(prints))
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records
        for rec in records:
            forms = [st["logic_form"] for st in rec["statements"]]
            assert len(forms) == len(set(forms))

    def test_run_pipeline_skips_a_repeated_table_id(self, bundled_corpus, tmp_path, caplog):
        # entries built in code bypass load_corpus, so run_pipeline applies
        # the same first-one-wins rule itself
        first, second = bundled_corpus[0], bundled_corpus[1]
        same_id = replace(second, table=replace(second.table, table_id=first.table.table_id))
        config = SynthesisConfig(candidates_per_column_set=5, seed=13)
        alone, both = tmp_path / "alone.jsonl", tmp_path / "both.jsonl"
        want = run_pipeline([first], alone, default_distribution(), seed=13, synthesis=config)
        with caplog.at_level("WARNING", logger="loft.pipeline"):
            got = run_pipeline([first, same_id], both, default_distribution(), seed=13,
                               synthesis=config)
        assert got.to_json() == want.to_json()
        assert both.read_text() == alone.read_text()
        assert repr(first.table.table_id) in caplog.text

    def test_duplicate_table_id_keeps_the_first_table(self, tmp_path):
        first = {"table_id": "x", "title": "first", "header": ["team", "points"],
                 "rows": [["a", "3"], ["b", "5"], ["c", "2"]]}
        second = {"table_id": "x", "title": "second", "header": ["city", "year"],
                  "rows": [["rome", "1990"], ["oslo", "2001"]]}
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n",
                          encoding="utf-8")
        entries = load_corpus(corpus)
        assert [e.table.title for e in entries] == ["first"]

        out = tmp_path / "out.jsonl"
        report = run_pipeline(entries, out, default_distribution(), k=40, seed=13,
                              synthesis=SynthesisConfig(candidates_per_column_set=20, seed=13))
        assert report.tables == 1
        assert report.verified == report.candidates > 0
        statements = [st for line in out.read_text().splitlines()
                      for st in json.loads(line)["statements"]]
        assert statements
        for st in statements:
            assert verify(st["logic_form"], entries[0].table)
            assert set(referenced_columns(
                parse_logic_form(st["logic_form"]))) <= {"team", "points"}

    def test_reruns_are_byte_identical(self, tmp_path, bundled_corpus):
        config = SynthesisConfig(candidates_per_column_set=4, seed=13)
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            run_pipeline(
                bundled_corpus[:4], path, default_distribution(),
                k=3, seed=13, synthesis=config,
            )
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_changes_selection(self, tmp_path, bundled_corpus):
        config = SynthesisConfig(candidates_per_column_set=6, seed=13)
        texts = []
        for seed, name in ((13, "a.jsonl"), (14, "b.jsonl")):
            path = tmp_path / name
            run_pipeline(
                bundled_corpus[:4], path, default_distribution(),
                k=2, seed=seed, synthesis=config,
            )
            texts.append(path.read_text())
        assert texts[0] != texts[1]

    def test_stratified_coverage_is_at_least_random(self, tmp_path, bundled_corpus):
        config = SynthesisConfig(candidates_per_column_set=8, seed=13)
        coverage = {}
        for strategy in ("random", "stratified"):
            path = tmp_path / f"{strategy}.jsonl"
            report = run_pipeline(
                bundled_corpus, path, default_distribution(),
                k=4, strategy=strategy, seed=13, synthesis=config,
            )
            coverage[strategy] = len(report.category_histogram)
        assert coverage["stratified"] >= coverage["random"]

    def test_report_json_is_stable(self, tmp_path, bundled_corpus):
        report = run_pipeline(
            bundled_corpus[:2], tmp_path / "out.jsonl", default_distribution(),
            k=2, seed=13, synthesis=SynthesisConfig(candidates_per_column_set=3, seed=13),
        )
        payload = report.to_json()
        assert payload["tables"] == 2
        assert list(payload) == [
            "tables", "candidates", "generated", "verified", "sampled",
            "seed", "k", "strategy", "category_histogram",
            "synthesis_failures", "shortfalls", "execution_faithfulness",
        ]
        assert json.dumps(payload) == json.dumps(report.to_json())
