"""End-to-end run: synthesize, realize or delegate, verify, sample, write.

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

Each stage keeps up to HOOK_WINDOW requests written ahead of the item it
is collecting, so a hook can answer a batch in one step.  Answers may come
in any order: they are matched by id, and items are collected in request
order, so output does not depend on the order the hook answers in.  An
answer to an id that is not in flight (already answered, or timed out) is
discarded.  Hook stderr is logged at DEBUG.
"""

from __future__ import annotations

import json
import logging
import shlex
import subprocess
import threading
import time
from collections import Counter
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field
from pathlib import Path
from queue import Empty, Queue

from .errors import HookError, LoftError
from .executor import verify
from .realizer import realize_logic_form, serialize_table
from .synthesizer import (
    SynthesisConfig,
    SynthesizedCandidate,
    synthesize_candidates,
    table_rng,
)
from .tables import CorpusEntry, Table
from .templates import TemplateDistribution

log = logging.getLogger(__name__)

BUILTIN = "builtin"

RANDOM = "random"
STRATIFIED = "stratified"
STRATEGIES = (RANDOM, STRATIFIED)

# requests written to a hook ahead of the item being collected
HOOK_WINDOW = 32


@dataclass(frozen=True)
class HookConfig:
    """How one pipeline stage talks to the outside world."""

    command: str = BUILTIN
    timeout: float = 10.0

    @property
    def is_builtin(self) -> bool:
        return self.command == BUILTIN


@dataclass
class Statement:
    table_id: str
    text: str
    logic_form: str
    category: str


class _HookProcess:
    """One live hook subprocess, reader threads for its stdout and stderr,
    and the requests it has not answered yet."""

    def __init__(self, command: str, timeout: float, role: str):
        self.role = role
        self.timeout = timeout
        try:
            self.proc = subprocess.Popen(
                shlex.split(command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
        except (OSError, ValueError) as exc:
            raise HookError(f"cannot launch {role} hook {command!r}: {exc}") from exc
        self.lines: Queue = Queue()
        # id -> monotonic send time of each request sent and not yet answered
        self.in_flight: dict[str, float] = {}
        # answers that arrived while another item was being awaited
        self.answers: dict[str, dict] = {}
        self.last_line = 0.0
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
        self.lines.put((time.monotonic(), None))

    def _log_stderr(self) -> None:
        # read bytes: a line that is not valid text must not stop the drain,
        # or a chatty hook would block on a full pipe
        assert self.proc.stderr is not None
        for raw in self.proc.stderr.buffer:
            log.debug("%s hook stderr: %s", self.role,
                      raw.decode("utf-8", "replace").rstrip("\r\n"))

    def __enter__(self) -> "_HookProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        try:
            if self.proc.stdin:
                self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=2)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for reader, stream in self.readers:
            # the hook has exited, so its pipes end unless a child of it
            # holds them open; the stderr drain logs its last lines here
            reader.join(timeout=2)
            if not reader.is_alive():
                stream.close()

    def exchange(self, payloads: list[dict]) -> Iterator[dict | None]:
        """Each payload's answer, in payload order; None means dropped.

        Up to HOOK_WINDOW requests are written ahead of the item being
        collected, so the hook can work on them while it is awaited.
        """
        sent = 0
        for i, payload in enumerate(payloads):
            while sent < min(i + HOOK_WINDOW, len(payloads)):
                self._send(payloads[sent])
                sent += 1
            yield self.request(payload)

    def _send(self, payload: dict) -> None:
        line = json.dumps(payload, ensure_ascii=False, sort_keys=True)
        try:
            assert self.proc.stdin is not None
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        except (OSError, ValueError) as exc:
            raise HookError(f"{self.role} hook stopped accepting input: {exc}") from exc
        self.in_flight[payload["id"]] = time.monotonic()

    def request(self, payload: dict) -> dict | None:
        """Send one request unless it is in flight, and wait for its answer.

        None means the item was dropped: the hook printed nothing for
        `timeout` seconds since the item was sent or since its last line,
        whichever is later, or it printed a malformed line while this item
        was awaited.
        """
        item_id = payload["id"]
        if item_id not in self.in_flight and item_id not in self.answers:
            self._send(payload)
        while item_id not in self.answers:
            since = max(self.in_flight[item_id], self.last_line)
            remaining = since + self.timeout - time.monotonic()
            try:
                self.last_line, raw = self.lines.get(timeout=max(remaining, 0.0))
            except Empty:
                return self._drop(item_id, "%s hook timed out on item %s")
            if raw is None:
                raise HookError(f"{self.role} hook exited mid-run")
            try:
                data = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                return self._drop(item_id, "%s hook sent unparseable line, item %s dropped")
            if not isinstance(data, dict):
                return self._drop(item_id, "%s hook sent a non-object line, item %s dropped")
            answered = data.get("id")
            if not isinstance(answered, str) or answered not in self.in_flight:
                log.warning("%s hook answered stale id %r, discarded",
                            self.role, answered)
                continue
            del self.in_flight[answered]
            self.answers[answered] = data
        return self.answers.pop(item_id)

    def _drop(self, item_id: str, message: str) -> None:
        del self.in_flight[item_id]
        log.warning(message, self.role, item_id)


def generate_statements(
    candidates: list[SynthesizedCandidate], hook: HookConfig
) -> list[Statement]:
    """Turn candidate forms into statement texts via realizer or hook."""
    out: list[Statement] = []
    if hook.is_builtin:
        for cand in candidates:
            out.append(
                Statement(
                    table_id=cand.table.table_id,
                    text=realize_logic_form(cand.form),
                    logic_form=cand.logic_form,
                    category=cand.category,
                )
            )
        return out
    with _HookProcess(hook.command, hook.timeout, "generator") as proc:
        # keyed by object: the candidates keep every table alive
        table_texts: dict[int, str] = {}
        payloads = []
        for i, cand in enumerate(candidates):
            if id(cand.table) not in table_texts:
                table_texts[id(cand.table)] = serialize_table(cand.table)
            payloads.append({
                "id": f"{cand.table.table_id}#{i}",
                "table_text": table_texts[id(cand.table)],
                "logic_form": cand.logic_form,
                "readable": realize_logic_form(cand.form),
            })
        for cand, payload, resp in zip(candidates, payloads, proc.exchange(payloads)):
            if resp is None:
                continue
            statement = resp.get("statement")
            if not isinstance(statement, str) or not statement.strip():
                log.warning("generator hook gave no statement for %s", payload["id"])
                continue
            out.append(
                Statement(
                    table_id=cand.table.table_id,
                    text=statement.strip(),
                    logic_form=payload["logic_form"],
                    category=cand.category,
                )
            )
    return out


def verify_statements(
    statements: list[Statement], hook: HookConfig, tables: dict[str, Table]
) -> list[Statement]:
    """Keep only statements the verifier marks as entailed.

    The builtin verifier keeps every statement and executes nothing: each
    logic form passed the one full verify of synthesis (``instantiate``),
    and no generator can change it.  The sampled statements are checked
    again, from their written forms, when ``run_pipeline`` measures
    execution faithfulness.
    """
    if hook.is_builtin:
        return list(statements)
    kept: list[Statement] = []
    with _HookProcess(hook.command, hook.timeout, "verifier") as proc:
        table_texts = {
            table_id: serialize_table(tables[table_id])
            for table_id in dict.fromkeys(st.table_id for st in statements)
        }
        payloads = [
            {"id": f"{st.table_id}#{i}", "table_text": table_texts[st.table_id],
             "statement": st.text}
            for i, st in enumerate(statements)
        ]
        for st, payload, resp in zip(statements, payloads, proc.exchange(payloads)):
            if resp is None:
                continue
            entailed = resp.get("entailed")
            if not isinstance(entailed, bool):
                log.warning("verifier hook gave no boolean for %s", payload["id"])
                continue
            if entailed:
                kept.append(st)
    return kept


def sample_outputs(
    statements: list[Statement], k: int, strategy: str, seed: int
) -> dict[str, list[Statement]]:
    """Pick at most k statements per table.

    random: uniform without replacement.  stratified: one draw from every
    root category first (category order shuffled), then uniform fill from
    what is left.  Selection only depends on (seed, table_id), never on
    corpus order.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown sampling strategy {strategy!r}")
    grouped: dict[str, list[Statement]] = {}
    for st in statements:
        grouped.setdefault(st.table_id, []).append(st)
    out: dict[str, list[Statement]] = {}
    for table_id, items in grouped.items():
        rng = table_rng(seed, table_id, salt="sample")
        if len(items) <= k:
            chosen = list(items)
        elif strategy == RANDOM:
            chosen = rng.sample(items, k)
        else:
            by_cat: dict[str, list[Statement]] = {}
            for st in items:
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


@dataclass
class PipelineReport:
    tables: int = 0
    candidates: int = 0
    generated: int = 0
    verified: int = 0
    sampled: int = 0
    seed: int = 13
    k: int = 5
    strategy: str = RANDOM
    category_histogram: dict[str, int] = field(default_factory=dict)
    synthesis_failures: list[str] = field(default_factory=list)
    shortfalls: dict[str, int] = field(default_factory=dict)
    execution_faithfulness: float | None = None

    def to_json(self) -> dict:
        out = asdict(self)
        out["category_histogram"] = dict(sorted(self.category_histogram.items()))
        out["synthesis_failures"] = sorted(self.synthesis_failures)
        out["shortfalls"] = dict(sorted(self.shortfalls.items()))
        return out


def run_pipeline(
    entries: list[CorpusEntry],
    out_path: str | Path,
    dist: TemplateDistribution,
    *,
    k: int = 5,
    strategy: str = RANDOM,
    seed: int = 13,
    generator: HookConfig = HookConfig(),
    verifier: HookConfig = HookConfig(),
    synthesis: SynthesisConfig | None = None,
) -> PipelineReport:
    """Full run over a corpus; writes one JSON line per table, returns stats.

    Output lines are sorted by table id and rendered with sorted keys, so
    identical inputs and seed give byte-identical files.
    """
    if synthesis is None:
        synthesis = SynthesisConfig(seed=seed)
    report = PipelineReport(seed=seed, k=k, strategy=strategy)
    tables: dict[str, Table] = {}
    candidates: list[SynthesizedCandidate] = []
    for entry in entries:
        table = entry.table
        if table.table_id in tables:
            # as load_corpus does: a repeated id would mix two tables' rows
            log.warning("skipping repeated table_id %r; the first table is kept", table.table_id)
            continue
        tables[table.table_id] = table
        try:
            result = synthesize_candidates(
                table, list(entry.selected_column_sets) or None, synthesis, dist
            )
        except LoftError as exc:
            log.error("synthesis failed for table %s: %s", table.table_id, exc)
            report.synthesis_failures.append(table.table_id)
            continue
        for res in result.shortfalls:
            key = f"{table.table_id}:{','.join(map(str, res.column_set))}"
            report.shortfalls[key] = res.shortfall
        candidates.extend(result.candidates)
    report.tables = len(tables)
    # overlapping column sets can synthesize the same form twice for a
    # table; the output contract forbids duplicates, so keep the first
    seen_forms: set[tuple[str, str]] = set()
    unique: list[SynthesizedCandidate] = []
    for cand in candidates:
        key = (cand.table.table_id, cand.logic_form)
        if key not in seen_forms:
            seen_forms.add(key)
            unique.append(cand)
    candidates = unique
    report.candidates = len(candidates)

    statements = generate_statements(candidates, generator)
    report.generated = len(statements)
    kept = verify_statements(statements, verifier, tables)
    report.verified = len(kept)
    sampled = sample_outputs(kept, k, strategy, seed)

    histogram: Counter = Counter()
    faithful = 0
    total = 0
    lines = []
    for table_id in sorted(sampled):
        payload = {
            "table_id": table_id,
            "statements": [
                {"text": st.text, "logic_form": st.logic_form, "category": st.category}
                for st in sampled[table_id]
            ],
        }
        for st in sampled[table_id]:
            histogram[st.category] += 1
            total += 1
            if verify(st.logic_form, tables[table_id]):
                faithful += 1
        lines.append(json.dumps(payload, ensure_ascii=False, sort_keys=True))
    report.sampled = total
    report.category_histogram = dict(histogram)
    report.execution_faithfulness = (faithful / total) if total else None

    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return report
