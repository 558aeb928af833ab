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

A corpus load normalizes each distinct cell text once: equal texts in
one load, across all its tables, share one immutable CellValue.  The
text-to-cell dict lives for that one call; nothing is kept between loads.

A table is also laid out by column once, in the pass that types its
columns: per column, each row's number (or None) and folded text (None
when empty).  Row scans read these arrays rather than the cells.
"""

from __future__ import annotations

import csv
import json
import logging
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

from .errors import IngestError

log = logging.getLogger(__name__)

NUMBER = "number"
TEXT = "text"
EMPTY = "empty"

NUMERIC = "numeric"
TEXTUAL = "textual"

# Share of non-empty cells that must parse as numbers, and at least one
# must, for a column to be treated as numeric.
NUMERIC_COLUMN_SHARE = 0.8

_EMPTY_MARKERS = {"", "-", "n/a"}
_LEADING_DECIMAL = re.compile(r"^[+-]?(?:\d+(?:\.\d*)?|\.\d+)")


def fold_text(text: str) -> str:
    """Lowercase, trim and collapse inner whitespace: the one text equality
    of headers, column lookups and the executor's eq/not_eq."""
    return " ".join(text.lower().split())


@dataclass(frozen=True, slots=True)
class CellValue:
    """A normalized cell, and the executor's object value: kind is number, text
    or empty; folded is fold_text(text), or "" when empty, for eq's text rule."""

    kind: str
    text: str
    number: float | None = None
    folded: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        folded = "" if self.kind == EMPTY else fold_text(self.text)
        # most cells fold to their own text: share it rather than hold a copy
        object.__setattr__(self, "folded", self.text if folded == self.text else folded)


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
    """An immutable table with normalized headers and cells; column types
    are derived from the cells (see NUMERIC_COLUMN_SHARE)."""

    table_id: str
    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple[CellValue, ...], ...]
    column_types: tuple[str, ...] = field(init=False)
    # per column, one entry a row: the cell's number or None, and its
    # folded text or None when it is empty; what the executor scans
    numbers: tuple[tuple[float | None, ...], ...] = field(init=False, repr=False, compare=False)
    folds: tuple[tuple[str | None, ...], ...] = field(init=False, repr=False, compare=False)
    _column_of: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.headers:
            raise ValueError("table has no columns")
        column_of: dict[str, int] = {}
        for j, h in enumerate(self.headers):
            if not h:  # no form could name the column
                raise ValueError(f"header {j} is blank")
            if h in column_of:
                raise ValueError(f"duplicate header after normalization: {h!r}")
            column_of[h] = j
        object.__setattr__(self, "_column_of", column_of)
        for i, row in enumerate(self.rows):
            if len(row) != len(self.headers):
                raise ValueError(
                    f"row {i} has {len(row)} cells, expected {len(self.headers)}"
                )
        types, numbers, folds = [], [], []
        # zip(*rows) of no rows has no columns at all
        for column in zip(*self.rows) if self.rows else [()] * len(self.headers):
            numbers.append(tuple([cell.number for cell in column]))
            folds.append(tuple([None if cell.kind == EMPTY else cell.folded for cell in column]))
            # a cell has a number exactly when it is a number cell
            numeric = len(column) - numbers[-1].count(None)
            filled = len(column) - folds[-1].count(None)
            is_numeric = numeric > 0 and numeric >= NUMERIC_COLUMN_SHARE * filled
            types.append(NUMERIC if is_numeric else TEXTUAL)
        object.__setattr__(self, "column_types", tuple(types))
        object.__setattr__(self, "numbers", tuple(numbers))
        object.__setattr__(self, "folds", tuple(folds))

    @classmethod
    def from_strings(
        cls,
        table_id: str,
        title: str,
        headers: list[str],
        rows: list[list[str]],
    ) -> "Table":
        """A table of raw strings; each distinct cell text is normalized
        once and its cells share one CellValue."""
        return cls._from_texts(table_id, title, headers,
                               [[str(c) for c in row] for row in rows], {})

    @classmethod
    def _from_texts(cls, table_id: str, title: str, headers: list[str],
                    rows: list[list[str]], cells: dict[str, CellValue]) -> "Table":
        """A table of cell texts, each looked up in `cells`, text to
        CellValue; a text it lacks is normalized once and added."""
        for row in rows:
            for text in row:
                if text not in cells:
                    cells[text] = normalize_cell(text)
        return cls(
            table_id=str(table_id),
            title=str(title),
            headers=tuple(fold_text(str(h)) for h in headers),
            rows=tuple(tuple(map(cells.__getitem__, row)) for row in rows),
        )

    def column_index(self, name: str) -> int | None:
        """The column a name folds to; a form's names come folded already."""
        idx = self._column_of.get(name)
        return self._column_of.get(fold_text(name)) if idx is None else idx

    @property
    def n_rows(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class CorpusEntry:
    """One corpus record: a table plus optional column sets and references."""

    table: Table
    selected_column_sets: tuple[tuple[int, ...], ...] = field(default=())
    references: tuple[str, ...] = field(default=())


def _as_list(value, what: str) -> list:
    """A JSON field that must be a list: a string or number would load wrong
    or not at all."""
    if not isinstance(value, list):
        raise IngestError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _clean_column_sets(raw_sets, n_cols: int) -> tuple[tuple[int, ...], ...]:
    """Deduplicate indices inside each set, keep order, reject bad indices."""
    cleaned = []
    for s in _as_list(raw_sets, "selected_columns"):
        seen: list[int] = []
        for idx in _as_list(s, "a selected_columns set"):
            # JSON true is a Python int and 0.9 or "1" would read as one
            if not isinstance(idx, int) or isinstance(idx, bool):
                raise ValueError(f"column index {idx!r} is not an integer")
            if not 0 <= idx < n_cols:
                raise ValueError(f"column index {idx} out of range")
            if idx not in seen:
                seen.append(idx)
        if not seen:
            raise ValueError("empty column set")
        cleaned.append(tuple(seen))
    return tuple(cleaned)


def is_utf8_text(text: str) -> bool:
    """False if text holds a lone surrogate (made by a JSON escape such as
    "\\ud800"), which no UTF-8 file can hold."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


# the JSON values a text field may hold: a string, or a number read as its text
_TEXT_TYPES = frozenset((str, int, float))
_JSON_KINDS = {type(None): "null", bool: "true or false", list: "a list", dict: "an object"}


def float_text(x: float) -> str:
    """A float's text in positional notation: repr() writes 0.00005 as
    "5e-05", which would read as 5.  NaN and the infinities keep repr()'s
    "nan" and "inf"."""
    text = repr(x)
    return format(Decimal(text), "f") if "e" in text else text


def _entry_from_record(record: dict, cells: dict[str, CellValue]) -> CorpusEntry:
    for key in ("table_id", "title", "header", "rows"):
        if key not in record:
            raise IngestError(f"missing required field {key!r}")
    headers = _as_list(record["header"], "header")
    rows = [_as_list(row, "a row") for row in _as_list(record["rows"], "rows")]
    refs = _as_list(record.get("references", []), "references")
    fields = [record["table_id"], record["title"], *headers, *refs]
    # str() would load any other value as Python's text for it ("None", "True")
    odd = ({type(v) for v in fields} | {type(c) for row in rows for c in row}) - _TEXT_TYPES
    if odd:
        kinds = ", ".join(sorted(_JSON_KINDS[kind] for kind in odd))
        raise IngestError(f"a table_id, title, header, cell or reference holds {kinds},"
                          " not a string or number")
    table_id, title = str(record["table_id"]), str(record["title"])
    headers = [str(h) for h in headers]
    rows = [[float_text(c) if type(c) is float else str(c) for c in row] for row in rows]
    refs = tuple(str(r) for r in refs)
    if not is_utf8_text("".join([table_id, title, *headers, *refs, *map("".join, rows)])):
        raise IngestError("text holds a lone surrogate escape")
    table = Table._from_texts(table_id, title, headers, rows, cells)
    sets = _clean_column_sets(record.get("selected_columns", []), len(table.headers))
    return CorpusEntry(table=table, selected_column_sets=sets, references=refs)


def not_utf8(path: Path) -> IngestError:
    """An IngestError naming the first line of `path` that is not UTF-8."""
    with open(path, "rb") as fh:
        # no UTF-8 sequence holds a newline byte, so lines decode on their own
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return IngestError(f"{path}:{lineno}: not valid UTF-8: {exc}")
    return IngestError(f"{path}: not valid UTF-8")


def json_object(raw: bytes | str) -> dict:
    """The JSON object one line or file holds: bytes must be strict UTF-8
    (a leading byte-order mark is dropped), the JSON must not nest too
    deeply for the decoder, and its top level must be an object.
    ValueError says which rule a bad input breaks."""
    try:
        if isinstance(raw, bytes):  # as "utf-8-sig" decodes, at a tenth of its cost
            raw = raw.decode("utf-8").removeprefix("\ufeff")
        value = json.loads(raw)
    except UnicodeDecodeError as exc:
        raise ValueError(f"not valid UTF-8: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed JSON: {exc}") from None
    if not isinstance(value, dict):
        raise ValueError("not a JSON object")
    return value


def json_records(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSON-lines file,
    a leading byte-order mark dropped.

    A line that json_object rejects raises IngestError naming it.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json_object(line)
                except ValueError as exc:
                    raise IngestError(f"{path}:{lineno}: {exc}") from exc
                yield lineno, record
    except UnicodeDecodeError as exc:
        raise not_utf8(Path(path)) from exc


def write_json_lines(path: str | Path, records: Iterable[dict]) -> None:
    """One sorted-key JSON object a line, as UTF-8; makes the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = (json.dumps(r, ensure_ascii=False, sort_keys=True) + "\n" for r in records)
    path.write_text("".join(lines), encoding="utf-8")


def load_corpus(path: str | Path, format: str = "json") -> list[CorpusEntry]:
    """Load a corpus file.

    format "json": one JSON object per line with table_id/title/header/rows
    and optional selected_columns/references.  format "csv": a single table;
    first row is the header, title and id come from the file name.

    Each distinct cell text is normalized once per call, and equal texts
    share one immutable CellValue; a JSON number cell loads as its text,
    a float written out in positional notation (0.00005, not "5e-05").

    Malformed JSON is fatal and names the line; a structurally bad entry
    (no columns, ragged rows, a blank or duplicate header, a column index
    that is not a JSON integer or is out of range, a header, rows, row,
    references or selected_columns field that is not a list, a table_id,
    title, header, cell or reference that is not a string or number, a lone
    surrogate escape in its text, a table_id already used on an earlier
    line) is skipped with a warning naming its line.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"corpus file not found: {path}")
    entries: list[CorpusEntry] = []
    if format == "json":
        first_line: dict[str, int] = {}
        cells: dict[str, CellValue] = {}  # this load's cells, by text
        for lineno, record in json_records(path):
            try:
                entry = _entry_from_record(record, cells)
                table_id = entry.table.table_id
                if table_id in first_line:
                    raise IngestError(
                        f"duplicate table_id {table_id!r},"
                        f" first used at line {first_line[table_id]}"
                    )
                first_line[table_id] = lineno
                entries.append(entry)
            except (ValueError, IngestError) as exc:
                log.warning("skipping entry at %s:%d: %s", path, lineno, exc)
    elif format == "csv":
        try:
            # utf-8-sig: a byte-order mark would otherwise open the first header
            with open(path, newline="", encoding="utf-8-sig") as fh:
                lines = csv.reader(fh)
                try:
                    reader = list(lines)
                except csv.Error as exc:
                    # e.g. a field over csv.field_size_limit(), which is
                    # process-wide and so stays as it is
                    raise IngestError(f"{path}:{lines.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise not_utf8(path) from exc
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


def first_entries(entries: list[CorpusEntry]) -> dict[str, CorpusEntry]:
    """Each table id's first entry, in order; a repeated id would mix two
    tables' rows, so it is skipped with a warning."""
    by_id: dict[str, CorpusEntry] = {}
    for entry in entries:
        table_id = entry.table.table_id
        if table_id in by_id:
            log.warning("skipping repeated table_id %r; the first table is kept", table_id)
        else:
            by_id[table_id] = entry
    return by_id


def save_corpus(entries: list[CorpusEntry], path: str | Path) -> None:
    """Write entries back out in the JSON-lines corpus format."""
    records = []
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
        records.append(record)
    write_json_lines(path, records)
