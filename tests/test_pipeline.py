"""Pipeline runs: hook protocol behavior, sampling, and determinism.

Hook scripts are written into tmp_path and run through sys.executable so
the tests do not depend on a shell or on PATH.
"""

import gc
import json
import os
import pickle
import random
import shlex
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import loft
from loft import HookError, LoftError, default_distribution, load_corpus, verify
from loft.catalog import BOOL
from loft.executor import execute
from loft.forms import parse_logic_form, print_logic_form, referenced_columns, type_check
from loft.metrics import score_output
from loft.pipeline import (
    HookConfig,
    generate_statements,
    run_pipeline,
    sample_outputs,
    verify_statements,
)
from loft.realizer import realize_logic_form, serialize_table
from loft.synthesizer import SynthesizedCandidate, synthesize_candidates
from loft.tables import EMPTY, CorpusEntry, Table, save_corpus
from loft.templates import TemplateDistribution, WeightedTemplate, parse_template

from .generators import random_table

ECHO_GENERATOR = """\
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"id": req["id"], "statement": req["readable"]}), flush=True)
"""

# an echo generator that prints a blank and a whitespace-only line before each answer
BLANK_LINE_ECHO_GENERATOR = """\
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print("", flush=True)
    print(" \\t", flush=True)
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

# "yes" instead of true for the second statement
NON_BOOLEAN_VERIFIER = """\
import json, sys
for n, line in enumerate(sys.stdin):
    req = json.loads(line)
    print(json.dumps({"id": req["id"], "entailed": "yes" if n == 1 else True}), flush=True)
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

# answers what it has read 8 requests at a time, one 0.05 s step per 8
CAPPED_BATCH_GENERATOR = BATCH_READER + """
import time
for batch in batches(0):
    for start in range(0, len(batch), 8):
        time.sleep(0.05)
        answer({"id": r["id"], "statement": r["readable"]} for r in batch[start:start + 8])
"""

# prints only blank lines, ten a second, for longer than any test waits
BLANK_ONLY_GENERATOR = """\
import time
for _ in range(300):
    print("", flush=True)
    time.sleep(0.1)
"""

# reads one request, then stops reading for longer than any test waits
STALLED_GENERATOR = """\
import os, sys, time
with open(__file__ + ".pid", "w") as pid:
    pid.write(str(os.getpid()))
sys.stdin.readline()
time.sleep(30)
"""

# runs the command in its arguments as a child, which holds the hook's pipes
WRAPPER = """\
import subprocess, sys
subprocess.run(sys.argv[1:])
"""

# a process that runs a generator stage: candidates pickled, then a hook command
STAGE_RUNNER = """\
import pickle, sys
from loft.pipeline import HookConfig, generate_statements
with open(sys.argv[1], "rb") as fh:
    candidates = pickle.load(fh)
generate_statements(candidates, HookConfig(sys.argv[2], timeout=30.0))
"""

# closes its stdin at once and stays alive
STDIN_CLOSER_GENERATOR = """\
import os, time
os.close(0)
time.sleep(30)
"""

# echoes every request, then marks that its stdin ended while it was alive
MARK_EOF_GENERATOR = ECHO_GENERATOR + """
open(__file__ + ".eof", "w").close()
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

# a JSON-escaped lone surrogate as the second statement
LONE_SURROGATE_GENERATOR = """\
import json, sys
for n, line in enumerate(sys.stdin):
    req = json.loads(line)
    text = "bad \\ud800 text" if n == 1 else req["readable"]
    print(json.dumps({"id": req["id"], "statement": text}), flush=True)
"""


def hook_command(tmp_path, name, body):
    script = tmp_path / name
    script.write_text(body, encoding="utf-8")
    return f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"


def gone(pid, wait=2.0):
    """True once no process `pid` runs: a zombie waiting for its reaper
    counts as gone.  A process that is still there after `wait` seconds
    is killed, so a failing test leaves nothing behind."""
    deadline = time.monotonic() + wait
    while True:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except FileNotFoundError:
            return True
        if stat.rsplit(")", 1)[1].split()[0] == "Z":
            return True
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            return False
        time.sleep(0.05)


@pytest.fixture(scope="module")
def candidates(bundled_corpus):
    entry = bundled_corpus[0]
    result = synthesize_candidates(entry.table, None, default_distribution(), seed=13,
                                   candidates=4)
    assert result.candidates
    return result.candidates


def worded(statements):
    # a hook-worded candidate differs from its builtin twin in `statement`
    # alone, so runs are compared by what a statement says about which form
    return [(st.logic_form, st.text) for st in statements]


@pytest.fixture(scope="module")
def many_candidates(bundled_corpus):
    """Over 32 candidates, from three tables: many requests in flight at once."""
    out = []
    for entry in bundled_corpus[:3]:
        out.extend(synthesize_candidates(entry.table, None, default_distribution(),
                                         seed=13, candidates=4).candidates)
    assert len(out) > 32
    return out


@pytest.fixture(scope="module")
def hundreds_of_candidates(bundled_corpus):
    """At least 200 candidates, from every bundled table."""
    out = []
    for entry in bundled_corpus:
        out.extend(synthesize_candidates(entry.table, None, default_distribution(),
                                         seed=13, candidates=8).candidates)
    assert len(out) >= 200
    return out


@pytest.fixture(scope="module")
def wide_candidates():
    """60 candidates of one 48-row table: their requests overfill a 64 KiB pipe."""
    words = ["alpha", "bravo", "carol", "delta", "echo", "foxtrot", "golf", "hotel"]
    rows = [[f"{words[i % 8]} {words[i * 3 % 8]} the {i}th", str(i * 7 % 90),
             f"{i % 28 + 1} may 2011", f"the {words[i * 5 % 8]} club of {words[i % 5]}",
             str(1000 + i * 37), f"{i * 1.3:.1f} points over {i % 12 + 1} games"]
            for i in range(48)]
    headers = ["player", "goals", "date", "team", "attendance", "score"]
    table = Table.from_strings("wide", "a wide table", headers, rows)
    out = synthesize_candidates(table, None, default_distribution(), seed=13,
                                candidates=60).candidates[:60]
    assert len(out) == 60 and 60 * len(serialize_table(table).encode()) > 1 << 16
    return out


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

    def test_blank_lines_buy_no_time(self, tmp_path, candidates, caplog):
        # a hook that prints only blank lines answers nothing: its items time out
        command = hook_command(tmp_path, "blank.py", BLANK_ONLY_GENERATOR)
        start = time.monotonic()
        with caplog.at_level("WARNING", logger="loft.pipeline"):
            out = generate_statements(candidates[:3], HookConfig(command, timeout=1.0))
        assert out == [] and time.monotonic() - start < 10
        assert caplog.text.count("timed out") == 3 and "unparseable" not in caplog.text

    def test_stale_answers_are_discarded_and_resynced(self, tmp_path, candidates, caplog):
        command = hook_command(tmp_path, "stale.py", STALE_ECHO_GENERATOR)
        with caplog.at_level("WARNING", logger="loft.pipeline"):
            out = generate_statements(candidates[:3], HookConfig(command, timeout=30.0))
        assert [st.text.startswith("fresh ") for st in out] == [True, True, True]
        assert "stale" in caplog.text

    def test_unlaunchable_hook_is_fatal(self, candidates):
        for command in ("/nonexistent/hook-binary", "", "   "):
            with pytest.raises(HookError, match="cannot launch"):
                generate_statements(candidates, HookConfig(command))

    def test_hook_exit_mid_run_is_fatal(self, tmp_path, candidates):
        command = hook_command(tmp_path, "quitter.py", QUITTER_HOOK)
        with pytest.raises(HookError, match="mid-run"):
            generate_statements(candidates[:3], HookConfig(command, timeout=30.0))


class TestPipelinedHooks:
    def test_answers_in_reverse_order_match_builtin(self, tmp_path, many_candidates):
        command = hook_command(tmp_path, "reverse.py", REVERSE_BATCH_GENERATOR)
        via_hook = generate_statements(many_candidates, HookConfig(command, timeout=30.0))
        builtin = generate_statements(many_candidates, HookConfig())
        assert worded(via_hook) == worded(builtin)

    def test_a_batching_hook_receives_every_request_at_once(self, tmp_path, many_candidates):
        command = hook_command(tmp_path, "hold.py", HOLD_UNTIL_QUIET_GENERATOR)
        out = generate_statements(many_candidates, HookConfig(command, timeout=30.0))
        n = len(many_candidates)
        assert [st.text for st in out] == [f"batch of {n}"] * n

    def test_a_hook_that_caps_its_batch_loses_nothing(self, tmp_path, hundreds_of_candidates,
                                                      caplog):
        # ~25 steps of 0.05 s outlast the timeout: it runs from the hook's last line
        command = hook_command(tmp_path, "capped.py", CAPPED_BATCH_GENERATOR)
        with caplog.at_level("WARNING", logger="loft.pipeline"):
            out = generate_statements(hundreds_of_candidates, HookConfig(command, timeout=0.5))
        assert worded(out) == worded(generate_statements(hundreds_of_candidates, HookConfig()))
        assert "timed out" not in caplog.text

    def test_a_hook_that_stops_reading_costs_only_the_timeout(self, tmp_path, wide_candidates,
                                                              caplog):
        command = hook_command(tmp_path, "stalled.py", STALLED_GENERATOR)
        start = time.monotonic()
        with caplog.at_level("WARNING", logger="loft.pipeline"):
            out = generate_statements(wide_candidates, HookConfig(command, timeout=1.0))
        assert out == [] and time.monotonic() - start < 10
        assert "timed out" in caplog.text
        pid = int((tmp_path / "stalled.py.pid").read_text())
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
        gc.collect()  # a pipe left open would warn here

    def test_a_stalled_child_of_the_hook_is_killed_with_it(self, tmp_path, wide_candidates):
        # the child holds the hook's pipes, so killing the wrapper alone
        # would leave the writer blocked and the child sleeping
        command = (hook_command(tmp_path, "wrapper.py", WRAPPER) + " "
                   + hook_command(tmp_path, "stalled.py", STALLED_GENERATOR))
        start = time.monotonic()
        out = generate_statements(wide_candidates, HookConfig(command, timeout=1.0))
        elapsed = time.monotonic() - start
        pid = int((tmp_path / "stalled.py.pid").read_text())
        assert gone(pid)
        assert out == [] and elapsed < 5

    def test_ctrl_c_kills_a_stalled_hook_at_once(self, tmp_path, wide_candidates):
        # the hook runs in a session of its own, so SIGINT reaches only
        # the stage's process, which must then kill the hook
        pickled = tmp_path / "candidates.pickle"
        pickled.write_bytes(pickle.dumps(wide_candidates))
        runner = tmp_path / "runner.py"
        runner.write_text(STAGE_RUNNER, encoding="utf-8")
        command = hook_command(tmp_path, "stalled.py", STALLED_GENERATOR)
        env = {**os.environ, "PYTHONPATH": str(Path(loft.__file__).parents[1])}
        stage = subprocess.Popen([sys.executable, str(runner), str(pickled), command],
                                 env=env, stderr=subprocess.DEVNULL)
        pid_file = tmp_path / "stalled.py.pid"
        deadline = time.monotonic() + 30
        while not (pid_file.exists() and pid_file.read_text()) and time.monotonic() < deadline:
            time.sleep(0.05)
        time.sleep(0.2)  # the writer fills the pipe; the stage awaits its first answer
        stage.send_signal(signal.SIGINT)
        start = time.monotonic()
        try:
            stage.wait(timeout=3)
        except subprocess.TimeoutExpired:
            stage.kill()
            stage.wait()
        elapsed = time.monotonic() - start
        assert gone(int(pid_file.read_text()))
        assert stage.returncode != 0 and elapsed < 3

    def test_a_hook_that_closes_its_stdin_is_fatal(self, tmp_path, wide_candidates):
        command = hook_command(tmp_path, "closer.py", STDIN_CLOSER_GENERATOR)
        start = time.monotonic()
        with pytest.raises(HookError, match="stopped accepting input"):
            generate_statements(wide_candidates, HookConfig(command, timeout=30.0))
        assert time.monotonic() - start < 10

    def test_a_hook_that_reads_everything_is_never_killed(self, tmp_path, wide_candidates):
        command = hook_command(tmp_path, "mark.py", MARK_EOF_GENERATOR)
        out = generate_statements(wide_candidates, HookConfig(command, timeout=1.0))
        assert len(out) == len(wide_candidates)
        assert (tmp_path / "mark.py.eof").exists()

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
        assert worded(out) == worded(builtin[:1] + builtin[2:])
        assert "unparseable line" in caplog.text
        assert "timed out" not in caplog.text

    def test_lone_surrogate_statement_costs_only_its_item(self, tmp_path, candidates, caplog):
        items = candidates[:3]
        command = hook_command(tmp_path, "surrogate.py", LONE_SURROGATE_GENERATOR)
        with caplog.at_level("WARNING", logger="loft.pipeline"):
            out = generate_statements(items, HookConfig(command, timeout=5.0))
        builtin = generate_statements(items, HookConfig())
        assert worded(out) == worded(builtin[:1] + builtin[2:])
        assert "no usable statement" in caplog.text

    def assert_hooked_run_matches_builtin(self, tmp_path, corpus, hooks,
                                          generator=ECHO_GENERATOR):
        # any external hook takes the generate -> verify -> sample path, which
        # must write what the builtin run writes when its hooks change nothing
        builtin_out, hooked_out = tmp_path / "builtin.jsonl", tmp_path / "hooked.jsonl"
        builtin = run_pipeline(corpus, builtin_out, default_distribution(),
                               seed=13, candidates=5)
        echo = HookConfig(hook_command(tmp_path, "echo.py", generator), 30.0)
        accept = HookConfig(hook_command(tmp_path, "yes.py", ACCEPT_ALL_VERIFIER), 30.0)
        hooked = run_pipeline(
            corpus, hooked_out, default_distribution(), seed=13, candidates=5,
            generator=echo if "echo" in hooks else HookConfig(),
            verifier=accept if "accept" in hooks else HookConfig(),
        )
        assert hooked.candidates > 32  # many requests in flight at once
        assert hooked.to_json() == builtin.to_json()
        assert hooked_out.read_bytes() == builtin_out.read_bytes()

    def test_hooked_run_over_the_bundled_corpus_matches_builtin(self, tmp_path,
                                                                bundled_corpus):
        self.assert_hooked_run_matches_builtin(tmp_path, bundled_corpus, ("echo", "accept"))

    @pytest.mark.parametrize("hook", ["echo", "accept"])
    def test_a_run_with_one_hook_matches_builtin(self, tmp_path, bundled_corpus, hook):
        self.assert_hooked_run_matches_builtin(tmp_path, bundled_corpus, (hook,))

    def test_blank_lines_from_a_hook_cost_nothing(self, tmp_path, bundled_corpus, caplog):
        # a blank line is no answer: it drops no item and shifts no answer
        with caplog.at_level("WARNING", logger="loft.pipeline"):
            self.assert_hooked_run_matches_builtin(tmp_path, bundled_corpus, ("echo",),
                                                   generator=BLANK_LINE_ECHO_GENERATOR)
        assert "dropped" not in caplog.text and "stale" not in caplog.text


class TestHookStage:
    def test_each_table_is_serialized_once_per_stage(self, tmp_path, many_candidates,
                                                     monkeypatch):
        serialized = []

        def counting(table):
            serialized.append(table.table_id)
            return serialize_table(table)

        monkeypatch.setattr("loft.pipeline.serialize_table", counting)
        table_ids = list(dict.fromkeys(cand.table.table_id for cand in many_candidates))
        assert len(table_ids) == 3
        generator = HookConfig(hook_command(tmp_path, "echo.py", ECHO_GENERATOR), 30.0)
        statements = generate_statements(many_candidates, generator)
        assert len(statements) == len(many_candidates) and serialized == table_ids
        serialized.clear()
        verifier = HookConfig(hook_command(tmp_path, "yes.py", ACCEPT_ALL_VERIFIER), 30.0)
        assert verify_statements(statements, verifier) == statements
        assert serialized == table_ids

    @pytest.mark.parametrize("timeout", [0, -5, float("nan"), float("inf")])
    def test_timeout_must_be_positive_and_finite(self, timeout):
        with pytest.raises(ValueError, match="timeout must be above 0"):
            HookConfig("python hook.py", timeout)


class TestVerifierHooks:
    def test_builtin_keeps_true_statements(self, candidates):
        statements = generate_statements(candidates, HookConfig())
        kept = verify_statements(statements, HookConfig())
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
        sound = run_pipeline(bundled_corpus, tmp_path / "sound.jsonl", dist, k=5, seed=13,
                             candidates=2)
        assert sound.sampled > 0 and sound.execution_faithfulness == 1.0
        monkeypatch.setattr("loft.synthesizer.verify", lambda form, table: True)
        broken = run_pipeline(bundled_corpus, tmp_path / "broken.jsonl", dist, k=5, seed=13,
                              candidates=2)
        assert broken.verified == broken.candidates > sound.candidates
        assert broken.execution_faithfulness < 1.0

    def test_reject_all_hook_filters_everything(self, tmp_path, candidates):
        statements = generate_statements(candidates, HookConfig())
        command = hook_command(tmp_path, "nope.py", REJECT_ALL_VERIFIER)
        kept = verify_statements(statements, HookConfig(command, timeout=30.0))
        assert kept == []

    def test_non_boolean_answer_costs_only_its_item(self, tmp_path, candidates, caplog):
        statements = generate_statements(candidates, HookConfig())
        assert len(statements) >= 3
        command = hook_command(tmp_path, "yes_str.py", NON_BOOLEAN_VERIFIER)
        with caplog.at_level("WARNING", logger="loft.pipeline"):
            kept = verify_statements(statements, HookConfig(command, timeout=30.0))
        assert kept == statements[:1] + statements[2:]
        assert "gave no boolean" in caplog.text


def make_statements(categories, table_id="t", prefix="s"):
    # each is worded, so its (absent) form is never realized
    table = Table(table_id, table_id, ("x",), ())
    return [
        SynthesizedCandidate(table=table, column_set=(0,), form=None,
                             logic_form=f"{prefix}{i}", category=cat,
                             statement=f"{prefix}{i}")
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
        with pytest.raises(ValueError, match="strategy"):
            sample_outputs([], 3, "sorted", seed=0)

    def test_negative_k(self):
        with pytest.raises(ValueError, match="k must be at least 0"):
            sample_outputs(make_statements(["count"] * 3), -1, "random", seed=0)

    def test_selection_ignores_other_tables(self):
        # per-table draws depend only on (seed, table_id), so adding another
        # table's statements to the batch cannot change what t gets
        statements = make_statements(["count"] * 8)
        other = make_statements(["count"] * 5, table_id="u", prefix="u")
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
            verify, parse_logic_form, print_logic_form, realize_logic_form,
            generate_statements, verify_statements,
        )
        assert report.sampled > 0
        # each stage runs once, and with both hooks builtin none reads a text:
        # only the written statements are realized, as their text is read
        realized = {caller: n for (name, caller), n in calls.items()
                    if name == "realize_logic_form"}
        assert realized == {"loft.synthesizer": report.sampled}
        stages = {key: n for key, n in calls.items()
                  if key[0] in ("generate_statements", "verify_statements")}
        assert stages == {("generate_statements", "loft.pipeline"): 1,
                          ("verify_statements", "loft.pipeline"): 1}
        assert report.generated == report.verified == report.candidates
        # synthesis prints each form it fills, once, and verifies each distinct
        # text of a table once: 120 of the 634 filled forms repeat a text
        assert calls["verify", "loft.synthesizer"] == true["verify", "loft.synthesizer"] == 514
        assert report.candidates == 514
        printed = {caller: n for (name, caller), n in calls.items()
                   if name == "print_logic_form" and caller != "loft.forms"}
        assert printed == {"loft.synthesizer": 634}
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
            candidates=5,
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
        raw = synthesize_candidates(table, list(sets), default_distribution(), seed=13,
                                    candidates=20)
        prints = [print_logic_form(c.form) for c in raw.candidates]
        assert len(set(prints)) < len(prints)  # the overlap really repeats forms

        entry = CorpusEntry(table=table, selected_column_sets=sets)
        out = tmp_path / "overlap.jsonl"
        report = run_pipeline([entry], out, default_distribution(), k=40, seed=13,
                              candidates=20)
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
        alone, both = tmp_path / "alone.jsonl", tmp_path / "both.jsonl"
        want = run_pipeline([first], alone, default_distribution(), seed=13, candidates=5)
        with caplog.at_level("WARNING", logger="loft.pipeline"):
            got = run_pipeline([first, same_id], both, default_distribution(), seed=13,
                               candidates=5)
        assert got.to_json() == want.to_json()
        assert both.read_text() == alone.read_text()
        assert repr(first.table.table_id) in caplog.text

    def test_column_sets_that_fall_short_are_reported_by_table_and_columns(self, tmp_path):
        # one row of text cannot fill many candidates for any column set
        table = Table.from_strings("tiny", "tiny", ["a", "b", "c"], [["x", "y", "z"]])
        sets = ((0, 1), (0, 2))
        want = synthesize_candidates(table, list(sets), default_distribution(), seed=13,
                                     candidates=50)
        report = run_pipeline([CorpusEntry(table=table, selected_column_sets=sets)],
                              tmp_path / "out.jsonl", default_distribution(), seed=13,
                              candidates=50)
        shortfalls = {res.column_set: res.shortfall for res in want.per_set}
        assert all(shortfalls.values())
        assert report.shortfalls == {
            "tiny:0,1": shortfalls[(0, 1)], "tiny:0,2": shortfalls[(0, 2)],
        }

    def test_a_repeated_column_set_is_synthesized_and_reported_once(self, tmp_path):
        table = Table.from_strings("t", "t", ["team", "city"], [["lions", "rome"]])
        once = synthesize_candidates(table, [(0,)], default_distribution(), seed=13,
                                     candidates=20)
        twice = synthesize_candidates(table, [(0,), [0]], default_distribution(), seed=13,
                                      candidates=20)
        assert [res.column_set for res in twice.per_set] == [(0,)]
        assert twice.per_set[0].attempts == once.per_set[0].attempts
        assert [c.logic_form for c in twice.candidates] == [c.logic_form for c in once.candidates]
        report = run_pipeline([CorpusEntry(table=table, selected_column_sets=((0,), (0,)))],
                              tmp_path / "out.jsonl", default_distribution(), seed=13,
                              candidates=20)
        assert report.shortfalls == {"t:0": once.per_set[0].shortfall}
        assert report.candidates == len(once.candidates)

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
                              candidates=20)
        assert report.tables == 1
        assert report.verified == report.candidates > 0
        statements = [st for line in out.read_text().splitlines()
                      for st in json.loads(line)["statements"]]
        assert statements
        for st in statements:
            assert verify(st["logic_form"], entries[0].table)
            assert set(referenced_columns(
                parse_logic_form(st["logic_form"]))) <= {"team", "points"}

    def test_a_table_with_a_blank_header_is_skipped_at_load(self, tmp_path, caplog):
        # its forms would name the column by an empty token, which no parser
        # reads back, and the run's faithfulness would fall below 1
        rows = [["a", "1"], ["b", "2"], ["c", "3"], ["d", "4"]]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            json.dumps({"table_id": table_id, "title": table_id, "header": header,
                        "rows": rows}) + "\n"
            for table_id, header in (("blank", ["  ", "n"]), ("named", ["team", "n"]))
        ), encoding="utf-8")
        with caplog.at_level("WARNING"):
            entries = load_corpus(corpus)
        assert [e.table.table_id for e in entries] == ["named"]
        assert "header 0 is blank" in caplog.text
        out = tmp_path / "out.jsonl"
        report = run_pipeline(entries, out, default_distribution(), seed=0)
        assert report.execution_faithfulness == 1.0
        assert score_output(out, entries).execution_faithfulness == 1.0

    @pytest.mark.parametrize("k, written", [(5, [{"statements": 1, "table_id": "one"}]),
                                            (0, [{"statements": 0, "table_id": "one"}])])
    def test_a_table_gets_a_line_only_when_it_keeps_a_statement(self, tmp_path, k, written):
        # "only { all_rows }" holds on the 1-row table and on no other
        dist = TemplateDistribution(
            entries=(WeightedTemplate(parse_template("only { all_rows }"), 1.0),))
        entries = [CorpusEntry(Table.from_strings("one", "one", ["a"], [["x"]])),
                   CorpusEntry(Table.from_strings("two", "two", ["a"], [["x"], ["y"]]))]
        out = tmp_path / "out.jsonl"
        run_pipeline(entries, out, dist, k=k, seed=13, candidates=1)
        lines = [json.loads(line) for line in out.read_text("utf-8").splitlines()]
        assert [{**rec, "statements": len(rec["statements"])} for rec in lines] == written

    def test_reruns_are_byte_identical(self, tmp_path, bundled_corpus):
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            run_pipeline(
                bundled_corpus[:4], path, default_distribution(),
                k=3, seed=13, candidates=4,
            )
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("strategy", ["stratified", "random"])
    def test_output_does_not_depend_on_corpus_order(self, tmp_path, bundled_corpus, strategy):
        # synthesis and sampling draw from (seed, table id) alone, never the position
        rng = random.Random(4)
        tables = [random_table(rng) for _ in range(7)] + [
            random_table(rng, max_rows=1), random_table(rng, max_cols=1),
            random_table(rng, max_rows=1, max_cols=1)]
        assert any(cell.kind == EMPTY for t in tables for row in t.rows for cell in row)
        save_corpus(bundled_corpus + [CorpusEntry(t) for t in tables], tmp_path / "corpus.jsonl")
        lines = (tmp_path / "corpus.jsonl").read_text("utf-8").splitlines(keepends=True)
        runs = []
        for shuffle in (None, 1, 2, 3):
            if shuffle is not None:
                random.Random(shuffle).shuffle(lines)
            corpus, out = tmp_path / f"corpus{shuffle}.jsonl", tmp_path / f"out{shuffle}.jsonl"
            corpus.write_text("".join(lines), encoding="utf-8")
            report = run_pipeline(load_corpus(corpus), out, default_distribution(),
                                  k=3, strategy=strategy, seed=13)
            runs.append((out.read_bytes(), report.to_json()))
        assert runs[0][1]["tables"] == len(bundled_corpus) + len(tables)
        assert runs[0][1]["sampled"] > 0
        assert all(run == runs[0] for run in runs[1:])

    @pytest.mark.parametrize("strategy", ["stratified", "random"])
    def test_a_table_writes_the_same_line_alone_as_in_the_corpus(self, tmp_path,
                                                                 bundled_corpus, strategy):
        # synthesis and sampling of a table draw on that table alone
        rng = random.Random(9)
        tables = [random_table(rng) for _ in range(3)] + [
            random_table(rng, max_rows=1), random_table(rng, max_cols=1),
            random_table(rng, max_rows=1, max_cols=1)]
        assert any(cell.kind == EMPTY for t in tables for row in t.rows for cell in row)
        entries = bundled_corpus + [CorpusEntry(t) for t in tables]

        def lines(run_entries, name):
            out = tmp_path / name
            run_pipeline(run_entries, out, default_distribution(), k=3, strategy=strategy,
                         seed=13)
            return {json.loads(line)["table_id"]: line
                    for line in out.read_text("utf-8").splitlines()}

        together = lines(entries, "all.jsonl")
        assert len(together) > len(bundled_corpus)
        for i, entry in enumerate(entries):
            alone = lines([entry], f"alone{i}.jsonl")
            table_id = entry.table.table_id
            assert alone == ({table_id: together[table_id]} if table_id in together else {})

    def test_bad_k_or_strategy_fails_before_synthesis(self, tmp_path, bundled_corpus,
                                                      monkeypatch):
        def no_synthesis(*args, **kwargs):
            raise AssertionError("synthesis ran before the arguments were checked")

        monkeypatch.setattr("loft.pipeline.synthesize_candidates", no_synthesis)
        out = tmp_path / "out.jsonl"
        with pytest.raises(ValueError, match="k must be at least 0, got -1"):
            run_pipeline(bundled_corpus, out, default_distribution(), k=-1)
        with pytest.raises(ValueError, match="strategy must be one of .* got 'sorted'"):
            run_pipeline(bundled_corpus, out, default_distribution(), strategy="sorted")
        for entries in (bundled_corpus, []):
            with pytest.raises(ValueError, match="candidates must be at least 1, got 0"):
                run_pipeline(entries, out, default_distribution(), candidates=0)
        assert not out.exists()

    def test_a_table_whose_synthesis_fails_is_reported_and_the_rest_written(
            self, tmp_path, bundled_corpus, monkeypatch, caplog):
        failing = bundled_corpus[0].table.table_id

        def synthesize(table, *args, **kwargs):
            if table.table_id == failing:
                raise LoftError("no forms for this table")
            return synthesize_candidates(table, *args, **kwargs)

        rest = tmp_path / "rest.jsonl"
        run_pipeline(bundled_corpus[1:], rest, default_distribution(), seed=13, candidates=5)
        monkeypatch.setattr("loft.pipeline.synthesize_candidates", synthesize)
        out = tmp_path / "out.jsonl"
        with caplog.at_level("ERROR", logger="loft.pipeline"):
            report = run_pipeline(bundled_corpus, out, default_distribution(), seed=13,
                                  candidates=5)
        assert report.synthesis_failures == [failing]
        assert report.to_json()["synthesis_failures"] == [failing]
        assert f"synthesis failed for table {failing}" in caplog.text
        assert out.read_text("utf-8") == rest.read_text("utf-8") != ""

    def test_seed_changes_selection(self, tmp_path, bundled_corpus):
        texts = []
        for seed, name in ((13, "a.jsonl"), (14, "b.jsonl")):
            path = tmp_path / name
            run_pipeline(
                bundled_corpus[:4], path, default_distribution(),
                k=2, seed=seed, candidates=6,
            )
            texts.append(path.read_text())
        assert texts[0] != texts[1]

    def test_stratified_coverage_is_at_least_random(self, tmp_path, bundled_corpus):
        coverage = {}
        for strategy in ("random", "stratified"):
            path = tmp_path / f"{strategy}.jsonl"
            report = run_pipeline(
                bundled_corpus, path, default_distribution(),
                k=4, strategy=strategy, seed=13, candidates=8,
            )
            coverage[strategy] = len(report.category_histogram)
        assert coverage["stratified"] >= coverage["random"]

    def test_report_json_is_stable(self, tmp_path, bundled_corpus):
        report = run_pipeline(
            bundled_corpus[:2], tmp_path / "out.jsonl", default_distribution(),
            k=2, seed=13, candidates=3,
        )
        payload = report.to_json()
        assert payload["tables"] == 2
        assert list(payload) == [
            "tables", "candidates", "generated", "verified", "sampled",
            "seed", "k", "strategy", "category_histogram",
            "synthesis_failures", "shortfalls", "execution_faithfulness",
        ]
        assert json.dumps(payload) == json.dumps(report.to_json())


def _soundness_distribution() -> TemplateDistribution:
    """The bundled templates at half weight, plus "only { all_rows }", which
    grounds to itself and is false on any table of more than one row: only
    synthesis' verify keeps its forms out of the output."""
    entries = tuple(replace(e, weight=e.weight / 2) for e in default_distribution().entries)
    return TemplateDistribution(
        entries=entries + (WeightedTemplate(parse_template("only { all_rows }"), 0.5),))


# corpus cells: the empty markers, numbers written as text, a signed zero,
# two foldings of one word, and short random text
CORPUS_CELLS = st.one_of(
    st.sampled_from(["", "-", "n/a", "3", "12%", "5 (x)", "-0", "1,000", "a", "A  a"]),
    st.text(max_size=4),
)


@st.composite
def corpus_records(draw):
    """One corpus record, at times of no columns or no rows, with a column
    of empty cells, ragged rows, repeated or blank headers, a repeated
    table_id, bad column indices or a field that is not a list."""
    n_cols = draw(st.integers(0, 3))
    header = draw(st.lists(st.sampled_from(["a", "b", "A", " ", "c  d"]),
                           min_size=n_cols, max_size=n_cols))
    hollow = draw(st.booleans())  # the first column holds only empty cells
    rows = []
    for _ in range(draw(st.sampled_from([0, 1, 3]))):
        width = draw(st.sampled_from([n_cols, n_cols, n_cols + 1, max(n_cols - 1, 0)]))
        row = draw(st.lists(CORPUS_CELLS, min_size=width, max_size=width))
        if hollow and row:
            row[0] = draw(st.sampled_from(["", "-", "n/a"]))
        rows.append(row)
    record = {"table_id": draw(st.sampled_from(["t1", "t2", "t3", "t4"])), "title": "t",
              "header": header, "rows": rows}
    if draw(st.booleans()):
        record["selected_columns"] = draw(
            st.lists(st.lists(st.integers(-1, 3), min_size=1, max_size=3), max_size=2))
    if draw(st.integers(0, 9)) == 0:
        record[draw(st.sampled_from(["header", "rows", "selected_columns"]))] = "0"
    return record


class TestCorpusFuzz:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(corpus_records(), min_size=1, max_size=4))
    # a zero-row table, a column of empty cells, a one-column table, a ragged row
    @example([{"table_id": "z", "title": "t", "header": ["a", "b"], "rows": []},
              {"table_id": "e", "title": "t", "header": ["a", "b"], "rows": [["-", "1"], ["", "x"]]},
              {"table_id": "o", "title": "t", "header": ["a"], "rows": [["1"], ["2"]]},
              {"table_id": "r", "title": "t", "header": ["a", "b"], "rows": [["1"]]}])
    def test_every_line_loads_or_is_skipped_with_a_warning(self, tmp_path_factory, caplog,
                                                             records):
        work = tmp_path_factory.mktemp("fuzz")
        corpus, out = work / "corpus.jsonl", work / "out.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
        caplog.clear()
        with caplog.at_level("WARNING", logger="loft.tables"):
            entries = load_corpus(corpus)
        skipped = [r for r in caplog.records if r.getMessage().startswith("skipping entry at")]
        assert len(entries) + len(skipped) == len(records)
        for entry in entries:
            table = entry.table
            for columns in (table.numbers, table.folds):
                assert len(columns) == len(table.headers)
                assert all(len(column) == table.n_rows for column in columns)
        report = run_pipeline(entries, out, default_distribution(), k=3, seed=13, candidates=3)
        assert report.tables == len(entries)
        scores = score_output(out, entries)
        assert scores.execution_faithfulness in (None, 1.0)


# (seed, max_rows, max_cols) of each generated table; shapes of at most one
# row or one column come up as often as the others
TABLE_SHAPES = st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([1, 8]),
                         st.sampled_from([1, 5]))


class TestSoundnessProperty:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(TABLE_SHAPES, min_size=1, max_size=4, unique=True))
    # empty cells ("-", "n/a"), numbers written as text ("3 (x)", "12%"),
    # repeated values, and 1-row, 1-column and 1-cell tables
    @example([(4, 8, 5), (5, 8, 5), (6, 1, 5), (7, 8, 1), (8, 1, 1)])
    def test_every_written_statement_executes_true(self, tmp_path_factory, shapes):
        tables = [random_table(random.Random(seed), max_rows=rows, max_cols=cols)
                  for seed, rows, cols in shapes]
        entries = [CorpusEntry(t) for t in tables]
        out = tmp_path_factory.mktemp("soundness") / "out.jsonl"
        report = run_pipeline(entries, out, _soundness_distribution(), k=100, seed=13,
                              candidates=5)
        by_id: dict[str, Table] = {}
        for t in tables:
            # two seeds can draw one table_id; the pipeline keeps the first table
            by_id.setdefault(t.table_id, t)
        written = 0
        for line in out.read_text("utf-8").splitlines():
            row = json.loads(line)
            table = by_id[row["table_id"]]
            for statement in row["statements"]:
                form = parse_logic_form(statement["logic_form"])
                assert type_check(form, table) == BOOL, statement["logic_form"]
                assert execute(form, table) is True, statement["logic_form"]
                written += 1
        faithfulness = 1.0 if written else None
        assert report.execution_faithfulness == faithfulness
        assert score_output(out, entries).execution_faithfulness == faithfulness
