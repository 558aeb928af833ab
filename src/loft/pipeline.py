"""End-to-end run: synthesize, generate, verify, sample, write.

Every run passes the synthesized candidates through the same stages.  A
candidate carries its statement: a generator hook's wording, or else the
builtin realization of its form, made when its text is read.  With both
hooks builtin, no stage reads a text, so only the written statements are
realized, as they are written.

External hooks are line-delimited JSON subprocesses.  A generator hook
receives {"id", "table_text", "logic_form", "readable"} per line and must
answer {"id", "statement"}; a verifier hook receives {"id", "table_text",
"statement"} and must answer {"id", "entailed"}.  A hook that cannot be
launched, or that exits while items are in flight, aborts the run; a hook
that answers late, with broken JSON, or with the wrong shape only costs
the affected item, which is dropped with a warning.  The command string
"builtin" selects the in-process realizer (generator role), or keeps every
statement (verifier role): synthesis has already verified each logic form,
and no generator can change it.

A stage writes its requests from a thread of their own, as fast as the
hook reads them, so a batching hook should cap its batch.  Answers may
come in any order: they are matched by id and collected in request order.
An item times out when the hook has printed nothing for the timeout since
the stage start or its last line, whichever is later: a hook that stops
reading so loses its unanswered items, and is killed.  An answer to an id
not in flight is discarded.  Hook stderr is logged at DEBUG.  A hook runs
in a session of its own and is killed with every process it started when
its stage ends, at once if a HookError or Ctrl-C cut the stage short.
"""

from __future__ import annotations

import json
import logging
import os
import shlex
import signal
import subprocess
import threading
import time
from collections import Counter
from collections.abc import Iterator
from contextlib import closing, suppress
from pathlib import Path
from queue import Empty, Queue

from .errors import HookError, LoftError
from .executor import verify
from .realizer import realize_logic_form, serialize_table
from .synthesizer import (
    DEFAULT_CANDIDATES,
    SynthesizedCandidate,
    synthesize_candidates,
    table_rng,
)
from .tables import CorpusEntry, Frozen, first_entries, is_utf8_text, json_object, write_json_lines
from .templates import TemplateDistribution

log = logging.getLogger(__name__)

BUILTIN = "builtin"

RANDOM = "random"
STRATIFIED = "stratified"
STRATEGIES = (RANDOM, STRATIFIED)

# run defaults, shared by run_pipeline and the CLI
DEFAULT_SEED = 13
DEFAULT_K = 5
DEFAULT_STRATEGY = RANDOM
# seconds a hook may stay silent before its items time out
DEFAULT_TIMEOUT = 10.0


class HookConfig(Frozen):
    """How one pipeline stage talks to the outside world.

    ``timeout`` is in seconds, above 0 and at most threading.TIMEOUT_MAX,
    the longest wait a queue accepts.
    """

    __slots__ = _compared = ("command", "timeout")

    def __init__(self, command: str = BUILTIN, timeout: float = DEFAULT_TIMEOUT):
        if not 0 < timeout <= threading.TIMEOUT_MAX:
            raise ValueError(
                f"timeout must be above 0 and at most {threading.TIMEOUT_MAX:.0f} s,"
                f" got {timeout}"
            )
        object.__setattr__(self, "command", command)
        object.__setattr__(self, "timeout", timeout)

    @property
    def is_builtin(self) -> bool:
        return self.command == BUILTIN


class _HookProcess:
    """One live hook subprocess, a writer thread for its stdin and reader
    threads for its stdout and stderr, and the requests not answered yet."""

    def __init__(self, command: str, timeout: float, role: str):
        self.role = role
        self.timeout = timeout
        try:
            argv = shlex.split(command)
            if not argv:
                raise ValueError("the command is blank")
            self.proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                # its own process group, which close() kills whole
                start_new_session=True,
            )
        except (OSError, ValueError) as exc:
            raise HookError(f"cannot launch {role} hook {command!r}: {exc}") from exc
        # (monotonic arrival time, stdout line or the HookError that ends the stage)
        self.lines: Queue = Queue()
        # ids of the stage's requests not answered yet
        self.in_flight: set[str] = set()
        # answers that arrived while another item was being awaited
        self.answers: dict[str, dict] = {}
        # the stage start, then the arrival of the hook's last line
        self.last_line = 0.0
        self.writer: threading.Thread | None = None
        self.readers = [
            (threading.Thread(target=self._pump, daemon=True), self.proc.stdout),
            (threading.Thread(target=self._log_stderr, daemon=True), self.proc.stderr),
        ]
        for reader, _ in self.readers:
            reader.start()

    def _pump(self) -> None:
        # read bytes: request() decodes each line, so a line that is not
        # valid text costs one item instead of stopping this reader
        assert self.proc.stdout is not None
        for raw in self.proc.stdout.buffer:
            self.lines.put((time.monotonic(), raw))
        self.lines.put((time.monotonic(), HookError(f"{self.role} hook exited mid-run")))

    def _write(self, payloads: list[dict]) -> None:
        # one flush at the end: the pipe is the only window
        try:
            self.proc.stdin.writelines(json.dumps(payload, ensure_ascii=False, sort_keys=True)
                                       + "\n" for payload in payloads)
            self.proc.stdin.flush()
        except (OSError, ValueError) as exc:
            self.lines.put((time.monotonic(),
                            HookError(f"{self.role} hook stopped accepting input: {exc}")))

    def _log_stderr(self) -> None:
        # read bytes: a line that is not valid text must not stop the drain,
        # or a chatty hook would block on a full pipe
        assert self.proc.stderr is not None
        for raw in self.proc.stderr.buffer:
            log.debug("%s hook stderr: %s", self.role,
                      raw.decode("utf-8", "replace").rstrip("\r\n"))

    def close(self) -> None:
        # items still in flight mean a HookError or Ctrl-C cut the stage
        # short: the hook, in a session of its own, then gets no grace
        cut_short = bool(self.in_flight)
        # a hook that stops reading blocks the writer in a pipe write: it
        # has the timeout to read on
        if self.writer:
            self.writer.join(timeout=0 if cut_short else self.timeout)
        if not (self.writer and self.writer.is_alive()):
            with suppress(OSError):
                self.proc.stdin.close()
            # the stdout reader ends as the hook exits
            self.readers[0][0].join(timeout=0 if cut_short else 2)
        # the kill ends a blocked write, and every process the hook started,
        # one that holds its pipes too; before wait, so the group is the hook's
        with suppress(ProcessLookupError):
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        threads = [(self.writer, self.proc.stdin)] if self.writer else []
        for thread, stream in threads + self.readers:
            # the pipes end with the group unless a process that left it
            # holds them open; the stderr drain logs its last lines here
            thread.join(timeout=2)
            if not thread.is_alive():
                with suppress(OSError):
                    stream.close()

    def exchange(self, payloads: list[dict]) -> Iterator[dict | None]:
        """Each payload's answer, in payload order; None means dropped."""
        self.in_flight = {payload["id"] for payload in payloads}
        self.last_line = time.monotonic()
        self.writer = threading.Thread(target=self._write, args=(payloads,), daemon=True)
        self.writer.start()
        for payload in payloads:
            yield self.request(payload)

    def request(self, payload: dict) -> dict | None:
        """Wait for the answer to one request that exchange() writes.

        None means the item was dropped: the hook printed nothing but
        blank lines for `timeout` seconds since the stage start or since
        its last other line, whichever is later (so a hook that stops
        reading loses its unanswered items), or it printed a malformed line
        while this item was awaited; a blank line is skipped.
        """
        item_id = payload["id"]
        while item_id not in self.answers:
            remaining = self.last_line + self.timeout - time.monotonic()
            try:
                arrived, raw = self.lines.get(timeout=max(remaining, 0.0))
            except Empty:
                return self._drop(item_id, "timed out")
            if isinstance(raw, HookError):
                raise raw
            if raw.isspace():  # a blank line answers nothing: it costs no item, buys no time
                continue
            self.last_line = arrived
            try:
                data = json_object(raw)
            except ValueError as exc:
                return self._drop(item_id, f"sent unparseable line ({exc})")
            answered = data.get("id")
            if not isinstance(answered, str) or answered not in self.in_flight:
                log.warning("%s hook answered stale id %r, discarded",
                            self.role, answered)
                continue
            self.in_flight.remove(answered)
            self.answers[answered] = data
        return self.answers.pop(item_id)

    def _drop(self, item_id: str, why: str) -> None:
        self.in_flight.remove(item_id)
        log.warning("%s hook %s, item %s dropped", self.role, why, item_id)


def _ask_hook(hook: HookConfig, role: str, items: list, fields) -> Iterator[tuple]:
    """(item, id, answer) for each item the hook answered, in item order;
    each payload holds item.table's text and fields(item)."""
    # launched first, so the hook starts up while the payloads are built
    with closing(_HookProcess(hook.command, hook.timeout, role)) as proc:
        # by id: Table.__hash__ hashes every cell; the items keep each table alive
        table_texts: dict[int, str] = {}
        payloads = []
        for i, item in enumerate(items):
            table = item.table
            if id(table) not in table_texts:
                table_texts[id(table)] = serialize_table(table)
            payloads.append({"id": f"{table.table_id}#{i}",
                             "table_text": table_texts[id(table)], **fields(item)})
        for item, payload, resp in zip(items, payloads, proc.exchange(payloads)):
            if resp is not None:
                yield item, payload["id"], resp


def generate_statements(
    candidates: list[SynthesizedCandidate], hook: HookConfig
) -> list[SynthesizedCandidate]:
    """Word the candidates: a hook words each one it answers usably and drops the
    rest; the builtin generator keeps them as they are, realized when read."""
    if hook.is_builtin:
        return list(candidates)
    out: list[SynthesizedCandidate] = []
    answers = _ask_hook(hook, "generator", candidates, lambda cand: {
        "logic_form": cand.logic_form, "readable": realize_logic_form(cand.form)})
    for cand, item_id, resp in answers:
        statement = resp.get("statement")
        # a lone surrogate ("\ud800") would stop the output write
        if not (isinstance(statement, str) and statement.strip() and is_utf8_text(statement)):
            log.warning("generator hook gave no usable statement for %s", item_id)
            continue
        out.append(cand._replace(statement=statement.strip()))
    return out


def verify_statements(
    statements: list[SynthesizedCandidate], hook: HookConfig
) -> list[SynthesizedCandidate]:
    """Keep only statements the verifier marks as entailed.

    The builtin verifier keeps every statement and executes nothing: each
    logic form passed the one full verify of synthesis, and no generator
    can change it.  The written statements are checked again, from their
    forms, when ``run_pipeline`` measures execution faithfulness.
    """
    if hook.is_builtin:
        return list(statements)
    kept: list[SynthesizedCandidate] = []
    answers = _ask_hook(hook, "verifier", statements, lambda st: {"statement": st.text})
    for st, item_id, resp in answers:
        entailed = resp.get("entailed")
        if not isinstance(entailed, bool):
            log.warning("verifier hook gave no boolean for %s", item_id)
        elif entailed:
            kept.append(st)
    return kept


def _check_sampling(k: int, strategy: str) -> None:
    if k < 0:
        raise ValueError(f"k must be at least 0, got {k}")
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {', '.join(STRATEGIES)}, got {strategy!r}")


def sample_outputs(
    items: list[SynthesizedCandidate], k: int, strategy: str, seed: int
) -> dict[str, list[SynthesizedCandidate]]:
    """Pick at most k statements per table, keyed by table_id.

    random: uniform without replacement.  stratified: one draw from every
    root category first (category order shuffled), then uniform fill from
    what is left.  A table's picks depend only on the seed, its table_id
    and its own items' categories and logic forms in order, never on other
    tables or on any text, so sampling words nothing.
    """
    _check_sampling(k, strategy)
    grouped: dict[str, list] = {}
    for st in items:
        grouped.setdefault(st.table.table_id, []).append(st)
    out: dict[str, list[SynthesizedCandidate]] = {}
    for table_id, group in grouped.items():
        rng = table_rng(seed, table_id, salt="sample")
        if len(group) <= k:
            chosen = list(group)
        elif strategy == RANDOM:
            chosen = rng.sample(group, k)
        else:
            by_cat: dict[str, list] = {}
            for st in group:
                by_cat.setdefault(st.category, []).append(st)
            cats = sorted(by_cat)
            rng.shuffle(cats)
            chosen = []
            for cat in cats[:k]:
                pool = by_cat[cat]
                pick = pool.pop(rng.randrange(len(pool)))
                chosen.append(pick)
            leftovers = [st for cat in sorted(by_cat) for st in by_cat[cat]]
            if len(chosen) < k:
                chosen.extend(rng.sample(leftovers, k - len(chosen)))
        chosen.sort(key=lambda st: (st.category, st.logic_form))
        out[table_id] = chosen
    return out


class PipelineReport:
    def __init__(self, seed: int, k: int, strategy: str):
        self.tables = 0
        self.candidates = 0
        self.generated = 0
        self.verified = 0
        self.sampled = 0
        self.seed = seed
        self.k = k
        self.strategy = strategy
        self.category_histogram: dict[str, int] = {}
        self.synthesis_failures: list[str] = []
        self.shortfalls: dict[str, int] = {}
        self.execution_faithfulness: float | None = None

    def to_json(self) -> dict:
        """Every field, in the order __init__ sets them, with sorted copies of
        the histogram, failures and shortfalls."""
        out = dict(vars(self))
        out["category_histogram"] = dict(sorted(self.category_histogram.items()))
        out["synthesis_failures"] = sorted(self.synthesis_failures)
        out["shortfalls"] = dict(sorted(self.shortfalls.items()))
        return out


def run_pipeline(
    entries: list[CorpusEntry],
    out_path: str | Path,
    dist: TemplateDistribution,
    *,
    k: int = DEFAULT_K,
    strategy: str = DEFAULT_STRATEGY,
    seed: int = DEFAULT_SEED,
    generator: HookConfig = HookConfig(),
    verifier: HookConfig = HookConfig(),
    candidates: int = DEFAULT_CANDIDATES,
) -> PipelineReport:
    """Full run over a corpus; writes the output file, returns stats.

    A table gets one JSON line when at least one statement survives for
    it, holding up to `k` of them (an empty list when `k` is 0); a table
    with none (no candidate synthesized, or a hook dropped them all) gets
    no line.

    One seed, recorded in the report, drives both synthesis (up to
    `candidates` forms per column set) and sampling (`k` per table).
    Output lines are sorted by table id and rendered with sorted keys, so
    identical inputs and seed give byte-identical files.
    """
    _check_sampling(k, strategy)
    if candidates < 1:
        raise ValueError(f"candidates must be at least 1, got {candidates}")
    report = PipelineReport(seed=seed, k=k, strategy=strategy)
    by_id = first_entries(entries)
    unique: list[SynthesizedCandidate] = []
    for entry in by_id.values():
        table = entry.table
        try:
            result = synthesize_candidates(
                table, entry.selected_column_sets, dist, seed=seed, candidates=candidates
            )
        except LoftError as exc:
            log.error("synthesis failed for table %s: %s", table.table_id, exc)
            report.synthesis_failures.append(table.table_id)
            continue
        for res in result.shortfalls:
            key = f"{table.table_id}:{','.join(map(str, res.column_set))}"
            report.shortfalls[key] = res.shortfall
        # overlapping column sets can synthesize the same form twice for a
        # table; the output contract forbids duplicates, so keep the first
        firsts: dict[str, SynthesizedCandidate] = {}
        for cand in result.candidates:
            firsts.setdefault(cand.logic_form, cand)
        unique.extend(firsts.values())
    report.tables = len(by_id)
    report.candidates = len(unique)

    statements = generate_statements(unique, generator)
    kept = verify_statements(statements, verifier)
    report.generated, report.verified = len(statements), len(kept)
    sampled = sample_outputs(kept, k, strategy, seed)

    table_ids = sorted(sampled)
    written = [st for table_id in table_ids for st in sampled[table_id]]
    report.sampled = len(written)
    report.category_histogram = dict(Counter(st.category for st in written))
    faithful = sum(verify(st.logic_form, st.table) for st in written)
    report.execution_faithfulness = (faithful / len(written)) if written else None
    write_json_lines(out_path, [{"table_id": table_id, "statements": [
        {"text": st.text, "logic_form": st.logic_form, "category": st.category}
        for st in sampled[table_id]]} for table_id in table_ids])
    return report
