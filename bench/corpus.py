"""The benchmark workloads and their seeded corpus generator.

Every table is drawn from its own generator, seeded from (workload, seed,
index), and its id is built from (seed, index), so one seed always gives
the same bytes and the program sees only an ordinary JSONL corpus file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BUNDLED_CORPUS = REPO / "src" / "loft" / "data" / "sample_corpus.jsonl"

HEADERS = ["name", "team", "city", "year", "score", "points", "rank",
           "country", "games", "price", "age", "height", "club", "region",
           "total", "wins", "stock", "genre", "speed", "level"]
WORDS = ["alpha", "bravo", "carol", "delta", "echo", "fox", "golf", "hotel",
         "india", "jazz", "kilo", "lima", "metro", "nova", "oscar", "polar",
         "quartz", "river", "sierra", "tango", "umber", "vista", "willow",
         "xenon"]


@dataclass(frozen=True)
class Workload:
    """One workload: its corpus make-up and how the pipeline runs on it."""

    bundled: bool
    tables: int
    rows: tuple[int, int]
    cols: tuple[int, int]
    distinct_words: int
    column_sets: int
    strategy: str
    hooked: bool
    shards: int


WORKLOADS = {
    "many-small": Workload(bundled=True, tables=30, rows=(4, 8), cols=(2, 5),
                           distinct_words=12, column_sets=4,
                           strategy="stratified", hooked=False, shards=8),
    "large-tables": Workload(bundled=False, tables=18, rows=(48, 48), cols=(6, 6),
                             distinct_words=24, column_sets=5,
                             strategy="random", hooked=False, shards=18),
    "hooked": Workload(bundled=True, tables=4, rows=(4, 8), cols=(2, 5),
                       distinct_words=12, column_sets=4,
                       strategy="stratified", hooked=True, shards=2),
}


def _cell(rng: random.Random, kind: str, words: list[str]) -> str:
    # Only mixed columns hold empty cells.  An empty cell in a numeric or
    # text column makes every all_* template fail there, and each such
    # draw burns all its retries on full-column scans; those rare, costly
    # draws would make a seed's cost depend on luck more than on its tables.
    if kind == "num":
        if rng.random() < 0.4:
            return str(rng.randint(0, 40))
        return f"{rng.uniform(0, 100):.1f}"
    if kind == "text":
        return rng.choice(words)
    return rng.choice([str(rng.randint(0, 9)), rng.choice(words), "-",
                       f"{rng.randint(1, 5)} (x)", f"{rng.randint(10, 99)}%"])


def seeded_table(workload: str, seed: int, index: int) -> dict:
    """One corpus record, a pure function of (workload, seed, index).

    The table's schema (size, headers, column kinds and the column sets
    to synthesize over) depends on the index alone, so every seed draws
    the same mix of shapes and seeds differ only in cell contents; that
    keeps the work per seed comparable.
    """
    shape = WORKLOADS[workload]
    schema = random.Random(f"loft-bench-schema:{workload}:{index}")
    n_cols = schema.randint(*shape.cols)
    n_rows = schema.randint(*shape.rows)
    header = schema.sample(HEADERS, n_cols)
    # the first column is always numeric so every table has something to
    # rank, sum and compare; the rest mix numeric, text and mixed cells
    kinds = ["num"] + [schema.choice(["num", "text", "mixed"]) for _ in range(n_cols - 1)]
    # column sets of two or three columns, each holding the numeric first one
    others = range(1, n_cols)
    candidates = [(0, a) for a in others] + [(0, a, b) for a in others for b in others if a < b]
    column_sets = sorted(schema.sample(candidates, min(shape.column_sets, len(candidates))))
    rng = random.Random(f"loft-bench:{workload}:{seed}:{index}")
    words = rng.sample(WORDS, shape.distinct_words)
    rows = [[_cell(rng, kind, words) for kind in kinds] for _ in range(n_rows)]
    return {
        "table_id": f"s{seed}-{index:04d}",
        "title": f"seeded table {index} of seed {seed}",
        "header": header,
        "rows": rows,
        "selected_columns": [list(s) for s in column_sets],
    }


def corpus_bytes(workload: str, seed: int) -> bytes:
    """The whole JSONL corpus of one workload and seed."""
    shape = WORKLOADS[workload]
    lines = []
    if shape.bundled:
        lines.extend(
            line for line in BUNDLED_CORPUS.read_text("utf-8").splitlines() if line.strip()
        )
    for index in range(shape.tables):
        lines.append(json.dumps(seeded_table(workload, seed, index), sort_keys=True))
    return "".join(line + "\n" for line in lines).encode("utf-8")


def write_corpus(workload: str, seed: int, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(corpus_bytes(workload, seed))
    return path

