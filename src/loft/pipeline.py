"""End-to-end run: synthesize, realize or delegate, check, sample, write.

External hooks are line-delimited JSON subprocesses.  A generator hook
receives {"id", "table_text", "logic_form", "readable"} per line and must
answer {"id", "statement"}; a verifier hook receives {"id", "table_text",
"statement"} and must answer {"id", "entailed"}.  A hook that cannot be
launched aborts the run; a hook that answers late, with broken JSON, or
with the wrong shape only costs the affected item, which is dropped with
a warning.  The command string "builtin" selects the in-process realizer
(generator role) or the logic-form checker (verifier role).

A single worker drives each hook process sequentially.  Requests carry
unique ids anyway, so a late answer to a timed-out item is recognized and
discarded instead of corrupting the next item.
"""

from __future__ import annotations

import json
import logging
import shlex
import subprocess
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from queue import Empty, Queue

from .errors import HookError, LoftError
from .executor import verify
from .forms import print_logic_form
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
    """One live hook subprocess plus a reader thread for its stdout."""

    def __init__(self, command: str, timeout: float, role: str):
        self.role = role
        self.timeout = timeout
        try:
            self.proc = subprocess.Popen(
                shlex.split(command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
            )
        except (OSError, ValueError) as exc:
            raise HookError(f"cannot launch {role} hook {command!r}: {exc}") from exc
        self.lines: Queue = Queue()
        self.reader = threading.Thread(target=self._pump, daemon=True)
        self.reader.start()

    def _pump(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

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

    def request(self, payload: dict) -> dict | None:
        """Send one request and wait for its answer; None means dropped."""
        line = json.dumps(payload, ensure_ascii=False, sort_keys=True)
        try:
            assert self.proc.stdin is not None
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        except (OSError, ValueError) as exc:
            raise HookError(f"{self.role} hook stopped accepting input: {exc}") from exc
        deadline = self.timeout
        start = time.monotonic()
        while True:
            remaining = deadline - (time.monotonic() - start)
            if remaining <= 0:
                log.warning("%s hook timed out on item %s", self.role, payload["id"])
                return None
            try:
                raw = self.lines.get(timeout=remaining)
            except Empty:
                log.warning("%s hook timed out on item %s", self.role, payload["id"])
                return None
            if raw is None:
                raise HookError(f"{self.role} hook exited mid-run")
            try:
                data = json.loads(raw)
            except json.JSONDecodeError:
                log.warning("%s hook sent unparseable line, item %s dropped",
                            self.role, payload["id"])
                return None
            if not isinstance(data, dict):
                log.warning("%s hook sent a non-object line, item %s dropped",
                            self.role, payload["id"])
                return None
            if data.get("id") != payload["id"]:
                log.warning("%s hook answered stale id %r, discarded",
                            self.role, data.get("id"))
                continue
            return data


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
                    logic_form=print_logic_form(cand.form),
                    category=cand.category,
                )
            )
        return out
    with _HookProcess(hook.command, hook.timeout, "generator") as proc:
        for i, cand in enumerate(candidates):
            form_text = print_logic_form(cand.form)
            payload = {
                "id": f"{cand.table.table_id}#{i}",
                "table_text": serialize_table(cand.table),
                "logic_form": form_text,
                "readable": realize_logic_form(cand.form),
            }
            resp = proc.request(payload)
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
                    logic_form=form_text,
                    category=cand.category,
                )
            )
    return out


def verify_statements(
    statements: list[Statement], hook: HookConfig, tables: dict[str, Table]
) -> list[Statement]:
    """Keep only statements the verifier marks as entailed."""
    if hook.is_builtin:
        return [
            st for st in statements if verify(st.logic_form, tables[st.table_id])
        ]
    kept: list[Statement] = []
    with _HookProcess(hook.command, hook.timeout, "verifier") as proc:
        for i, st in enumerate(statements):
            payload = {
                "id": f"{st.table_id}#{i}",
                "table_text": serialize_table(tables[st.table_id]),
                "statement": st.text,
            }
            resp = proc.request(payload)
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
        key = (cand.table.table_id, print_logic_form(cand.form))
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
