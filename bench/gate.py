"""Correctness gate for one benchmark iteration (one shard of one round).

An iteration passes when its output file, its PipelineReport.to_json()
and its MetricsReport.to_json() hash to the values recorded in
golden.json for that workload, seed and shard, and both reports read an
execution faithfulness of exactly 1.0.  For a seed with no recorded
values, every iteration on a shard must match the run's first one on
that shard, and the first one must also pass check_output, which
re-derives every output statement from its logic form independently of
the run that wrote it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8")


def fingerprint(output_path: Path, report, metrics) -> dict:
    """What the gate compares: three hashes, plus counts for messages."""
    return {
        "output_sha256": sha256_bytes(Path(output_path).read_bytes()),
        "report_sha256": sha256_bytes(canonical(report.to_json())),
        "metrics_sha256": sha256_bytes(canonical(metrics.to_json())),
        "candidates": report.candidates,
        "statements": metrics.statements,
    }


def load_golden(path: Path = GOLDEN) -> dict:
    if not path.exists():
        return {}
    return json.loads(path.read_text("utf-8")).get("workloads", {})


def compare(expected: dict, actual: dict) -> list[str]:
    """Differences between a recorded and a measured fingerprint."""
    return [
        f"{key}: expected {expected[key]}, got {actual.get(key)}"
        for key in sorted(expected)
        if expected[key] != actual.get(key)
    ]


def faithfulness_problems(report, metrics) -> list[str]:
    problems = []
    if report.execution_faithfulness != 1.0:
        problems.append(f"pipeline faithfulness {report.execution_faithfulness}")
    if metrics.execution_faithfulness != 1.0:
        problems.append(f"scored faithfulness {metrics.execution_faithfulness}")
    return problems


def check_output(loft, output_path: Path, entries, k: int) -> list[str]:
    """Check an output file line by line against the corpus.

    Each table appears once, in id order, with at most k statements and
    no repeated form.  Each form parses, prints back to itself, executes
    true on its table, has the category of its root function, and its
    text is the builtin realization of the form (the benchmark's fake
    generator hook echoes that same text).
    """
    tables = {entry.table.table_id: entry.table for entry in entries}
    problems: list[str] = []
    ids: list[str] = []
    for lineno, line in enumerate(Path(output_path).read_text("utf-8").splitlines(), 1):
        row = json.loads(line)
        table = tables.get(row["table_id"])
        ids.append(row["table_id"])
        if table is None:
            problems.append(f"line {lineno}: unknown table {row['table_id']!r}")
            continue
        statements = row["statements"]
        if not 0 < len(statements) <= k:
            problems.append(f"line {lineno}: {len(statements)} statements")
        forms = [st["logic_form"] for st in statements]
        if len(set(forms)) != len(forms):
            problems.append(f"line {lineno}: repeated logic form")
        for st in statements:
            form = loft.parse_logic_form(st["logic_form"])
            where = f"line {lineno} form {st['logic_form']!r}"
            if loft.print_logic_form(form) != st["logic_form"]:
                problems.append(f"{where}: does not print back to itself")
            if not loft.verify(form, table):
                problems.append(f"{where}: does not execute true")
            if loft.CATALOG[form.name].category != st["category"]:
                problems.append(f"{where}: category {st['category']!r}")
            if loft.realize_logic_form(form) != st["text"]:
                problems.append(f"{where}: text {st['text']!r}")
    if ids != sorted(set(ids)):
        problems.append("table ids are not unique and sorted")
    return problems


class Gate:
    """Applies the rules above to each iteration of one run."""

    def __init__(self, loft, workload: str, seed: int, shards: list, k: int):
        self.loft = loft
        self.shards = shards
        self.k = k
        # one fingerprint per shard, or None for an unrecorded seed
        self.expected: list | None = load_golden().get(workload, {}).get(str(seed))
        self.first: dict[int, dict] = {}

    @property
    def status(self) -> str:
        return "recorded" if self.expected else "unrecorded"

    def candidates(self, shards) -> int:
        """Known candidate count of the given shards: recorded or first seen."""
        known = dict(enumerate(self.expected)) if self.expected else self.first
        return sum(known[shard]["candidates"] for shard in shards if shard in known)

    def check(self, it) -> list[str]:
        """Problems with one iteration (see run.Iteration); empty means it passed."""
        problems = list(it.problems)
        if self.expected is not None:
            if len(self.expected) != len(self.shards):
                problems.append(f"{len(self.expected)} shards recorded, {len(self.shards)} run")
            else:
                problems += compare(self.expected[it.shard], it.fingerprint)
        elif it.shard not in self.first:
            problems += check_output(self.loft, it.output, self.shards[it.shard], self.k)
        else:
            problems += compare(self.first[it.shard], it.fingerprint)
        self.first.setdefault(it.shard, it.fingerprint)
        return problems
