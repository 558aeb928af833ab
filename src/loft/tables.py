"""Table model: cell normalization, column typing, corpus loading.

Cells are normalized once at ingestion and kept immutable afterwards.  A
cell keeps its display text (trimmed original) alongside an optional
numeric reading, so serialization round-trips while comparisons stay
numeric where possible.

Normalization contract, applied in order to the raw string:
  1. trim surrounding whitespace
  2. "" / "-" / "n/a" (case-insensitive) become Empty
  3. thousands commas are stripped and a single trailing "%" dropped
     before the numeric parse
  4. a leading decimal number makes the cell Number ("5 (t2)" reads as 5,
     text preserved); otherwise the cell is Text
"""

from __future__ import annotations

import csv
import json
import logging
import re
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import IngestError

log = logging.getLogger(__name__)

NUMBER = "number"
TEXT = "text"
EMPTY = "empty"

NUMERIC = "numeric"
TEXTUAL = "textual"

# Share of non-empty cells that must parse as numbers for a column to be
# treated as numeric.
NUMERIC_COLUMN_SHARE = 0.8

_EMPTY_MARKERS = {"", "-", "n/a"}
_LEADING_DECIMAL = re.compile(r"^[+-]?(?:\d+(?:\.\d*)?|\.\d+)")


def normalize_header(name: str) -> str:
    """Lowercase, trim and collapse inner whitespace."""
    return " ".join(str(name).strip().lower().split())


@dataclass(frozen=True)
class CellValue:
    """A normalized cell: kind is one of number/text/empty."""

    kind: str
    text: str
    number: float | None = None


def normalize_cell(raw: str) -> CellValue:
    """Normalize one raw cell string. Total; idempotent on its own text."""
    s = str(raw).strip()
    if s.lower() in _EMPTY_MARKERS:
        return CellValue(EMPTY, s)
    t = s.replace(",", "")
    if t.endswith("%"):
        t = t[:-1]
    m = _LEADING_DECIMAL.match(t)
    if m:
        value = float(m.group(0))
        return CellValue(NUMBER, s, value)
    return CellValue(TEXT, s)


@dataclass(frozen=True)
class Table:
    """An immutable table with normalized headers, cells and column types."""

    table_id: str
    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple[CellValue, ...], ...]
    column_types: tuple[str, ...]

    def __post_init__(self):
        if not self.headers:
            raise ValueError("table has no columns")
        seen = set()
        for h in self.headers:
            if h in seen:
                raise ValueError(f"duplicate header after normalization: {h!r}")
            seen.add(h)
        for i, row in enumerate(self.rows):
            if len(row) != len(self.headers):
                raise ValueError(
                    f"row {i} has {len(row)} cells, expected {len(self.headers)}"
                )
        if len(self.column_types) != len(self.headers):
            raise ValueError("column_types does not match headers")

    @classmethod
    def from_strings(
        cls,
        table_id: str,
        title: str,
        headers: list[str],
        rows: list[list[str]],
    ) -> "Table":
        norm_headers = tuple(normalize_header(h) for h in headers)
        norm_rows = tuple(
            tuple(normalize_cell(c) for c in row) for row in rows
        )
        table = cls(
            table_id=str(table_id),
            title=str(title),
            headers=norm_headers,
            rows=norm_rows,
            column_types=tuple(TEXTUAL for _ in norm_headers),
        )
        return infer_column_types(table)

    def column_index(self, name: str) -> int | None:
        name = normalize_header(name)
        try:
            return self.headers.index(name)
        except ValueError:
            return None

    def column_cells(self, index: int) -> list[CellValue]:
        return [row[index] for row in self.rows]

    @property
    def n_rows(self) -> int:
        return len(self.rows)


def infer_column_types(table: Table) -> Table:
    """Recompute column types: numeric iff >= 80% of non-empty cells parse
    as numbers and at least one does."""
    types = []
    for j in range(len(table.headers)):
        cells = [row[j] for row in table.rows]
        non_empty = [c for c in cells if c.kind != EMPTY]
        numeric = [c for c in non_empty if c.kind == NUMBER]
        if numeric and len(numeric) >= NUMERIC_COLUMN_SHARE * len(non_empty):
            types.append(NUMERIC)
        else:
            types.append(TEXTUAL)
    return replace(table, column_types=tuple(types))


@dataclass(frozen=True)
class CorpusEntry:
    """One corpus record: a table plus optional column sets and references."""

    table: Table
    selected_column_sets: tuple[tuple[int, ...], ...] = field(default=())
    references: tuple[str, ...] = field(default=())


def _clean_column_sets(raw_sets, n_cols: int) -> tuple[tuple[int, ...], ...]:
    """Deduplicate indices inside each set, keep order, reject bad indices."""
    cleaned = []
    for s in raw_sets:
        seen: list[int] = []
        for idx in s:
            idx = int(idx)
            if not 0 <= idx < n_cols:
                raise ValueError(f"column index {idx} out of range")
            if idx not in seen:
                seen.append(idx)
        if not seen:
            raise ValueError("empty column set")
        cleaned.append(tuple(seen))
    return tuple(cleaned)


def _entry_from_record(record: dict, where: str) -> CorpusEntry:
    for key in ("table_id", "title", "header", "rows"):
        if key not in record:
            raise IngestError(f"{where}: missing required field {key!r}")
    table = Table.from_strings(
        record["table_id"],
        record["title"],
        [str(h) for h in record["header"]],
        [[str(c) for c in row] for row in record["rows"]],
    )
    sets = _clean_column_sets(record.get("selected_columns", []), len(table.headers))
    refs = tuple(str(r) for r in record.get("references", []))
    return CorpusEntry(table=table, selected_column_sets=sets, references=refs)


def _not_utf8(path: Path) -> IngestError:
    """An IngestError naming the first line of `path` that is not UTF-8."""
    with open(path, "rb") as fh:
        # no UTF-8 sequence holds a newline byte, so lines decode on their own
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return IngestError(f"{path}:{lineno}: not valid UTF-8: {exc}")
    return IngestError(f"{path}: not valid UTF-8")


def json_records(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSON-lines file.

    A line that is not UTF-8, not JSON or not an object raises IngestError
    naming it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise IngestError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
                if not isinstance(record, dict):
                    raise IngestError(f"{path}:{lineno}: record is not an object")
                yield lineno, record
    except UnicodeDecodeError as exc:
        raise _not_utf8(Path(path)) from exc


def load_corpus(path: str | Path, format: str = "json") -> list[CorpusEntry]:
    """Load a corpus file.

    format "json": one JSON object per line with table_id/title/header/rows
    and optional selected_columns/references.  format "csv": a single table;
    first row is the header, title and id come from the file name.

    Malformed JSON is fatal and names the line; a structurally bad entry
    (no columns, ragged rows, duplicate headers, bad column indices, a
    table_id already used on an earlier line) is skipped with a warning.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"corpus file not found: {path}")
    entries: list[CorpusEntry] = []
    if format == "json":
        first_line: dict[str, int] = {}
        for lineno, record in json_records(path):
            try:
                entry = _entry_from_record(record, f"{path}:{lineno}")
                table_id = entry.table.table_id
                if table_id in first_line:
                    raise IngestError(
                        f"{path}:{lineno}: duplicate table_id {table_id!r},"
                        f" first used at line {first_line[table_id]}"
                    )
                first_line[table_id] = lineno
                entries.append(entry)
            except (ValueError, IngestError) as exc:
                log.warning("skipping entry at %s:%d: %s", path, lineno, exc)
    elif format == "csv":
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                reader = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise _not_utf8(path) from exc
        if not reader:
            return []
        headers, rows = reader[0], reader[1:]
        try:
            table = Table.from_strings(path.stem, path.stem, headers, rows)
        except ValueError as exc:
            log.warning("skipping csv table %s: %s", path, exc)
            return []
        entries.append(CorpusEntry(table=table))
    else:
        raise IngestError(f"unknown corpus format: {format!r}")
    return entries


def save_corpus(entries: list[CorpusEntry], path: str | Path) -> None:
    """Write entries back out in the JSON-lines corpus format."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            t = entry.table
            record = {
                "table_id": t.table_id,
                "title": t.title,
                "header": list(t.headers),
                "rows": [[c.text for c in row] for row in t.rows],
            }
            if entry.selected_column_sets:
                record["selected_columns"] = [list(s) for s in entry.selected_column_sets]
            if entry.references:
                record["references"] = list(entry.references)
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
