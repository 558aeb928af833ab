"""Cell normalization, column typing, and corpus round trips."""

import csv
import inspect
import json
import pickle
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loft import CATALOG, CorpusEntry, HookConfig, IngestError, Table, load_corpus, verify
from loft.catalog import HEADER
from loft.forms import AllRows, ColumnRef, parse_logic_form
from loft.tables import (
    EMPTY,
    NUMBER,
    NUMERIC,
    TEXT,
    TEXTUAL,
    CellValue,
    fold_text,
    json_object,
    normalize_cell,
    save_corpus,
)
from loft.templates import TSlot, WeightedTemplate, default_distribution, parse_template

from .test_pipeline import count_calls


class TestNormalizeCell:
    @pytest.mark.parametrize(
        "raw, kind, number",
        [
            ("5 (t2)", NUMBER, 5.0),
            ("1,234,567", NUMBER, 1234567.0),
            ("63%", NUMBER, 63.0),
            ("-4.5", NUMBER, -4.5),
            (".5", NUMBER, 0.5),
            ("+3", NUMBER, 3.0),
            ("3.", NUMBER, 3.0),
            ("12:30", NUMBER, 12.0),
            ("abc", TEXT, None),
            ("(3)", TEXT, None),
        ],
    )
    def test_numeric_reading(self, raw, kind, number):
        cell = normalize_cell(raw)
        assert cell.kind == kind
        assert cell.number == number

    @pytest.mark.parametrize("raw", ["", "   ", "-", "N/A", "n/a", " - "])
    def test_empty_markers(self, raw):
        assert normalize_cell(raw).kind == EMPTY

    def test_display_text_is_trimmed_original(self):
        cell = normalize_cell("  5 (t2)  ")
        assert cell.text == "5 (t2)"
        assert cell.number == 5.0

    @given(st.text(max_size=30))
    def test_idempotent_on_own_text(self, raw):
        once = normalize_cell(raw)
        twice = normalize_cell(once.text)
        assert twice == once


class TestTable:
    def test_header_normalization(self):
        t = Table.from_strings("t", "t", ["  Team Name ", "POINTS"], [["a", "1"]])
        assert t.headers == ("team name", "points")

    def test_duplicate_headers_rejected(self):
        with pytest.raises(ValueError):
            Table.from_strings("t", "t", ["A", "a"], [["1", "2"]])

    @pytest.mark.parametrize("blank", ["", "  ", "\t\n"])
    def test_blank_header_rejected(self, blank):
        # a header that folds to "" would print forms no parser reads back
        with pytest.raises(ValueError, match="header 1 is blank"):
            Table.from_strings("t", "t", ["a", blank], [["1", "2"]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            Table.from_strings("t", "t", ["a", "b"], [["1", "2"], ["3"]])

    def test_column_typing_boundary(self):
        # four of five non-empty cells numeric: exactly the 80% threshold
        rows = [["1"], ["2"], ["3"], ["4"], ["x"]]
        t = Table.from_strings("t", "t", ["c"], rows)
        assert t.column_types == (NUMERIC,)
        rows = [["1"], ["2"], ["3"], ["x"], ["y"]]
        t = Table.from_strings("t", "t", ["c"], rows)
        assert t.column_types == (TEXTUAL,)

    def test_empty_cells_leave_the_denominator(self):
        rows = [["1"], ["2"], ["3"], ["4"], ["-"]]
        t = Table.from_strings("t", "t", ["c"], rows)
        assert t.column_types == (NUMERIC,)

    def test_all_empty_column_is_textual(self):
        t = Table.from_strings("t", "t", ["c"], [["-"], ["n/a"]])
        assert t.column_types == (TEXTUAL,)

    def test_column_index_normalizes_lookups(self, mt):
        assert mt.column_index("  Team ") == 0
        assert mt.column_index("nope") is None

    def test_derived_fields_stay_out_of_equality(self, mt):
        # the header map and each cell's folded text are derived, so equal
        # tables stay equal and hashable
        twin = Table.from_strings(
            "mt", "mt", ["team", "points"], [["a", "3"], ["b", "5"], ["c", "2"]]
        )
        assert twin == mt and hash(twin) == hash(mt)
        assert normalize_cell(" A  B ") == CellValue("text", "A  B")
        assert normalize_cell(" A  B ").folded == "a b"
        assert repr(normalize_cell("x")) == "CellValue(kind='text', text='x', number=None)"


_TABLE = Table.from_strings("t", "title", ["Team", "points"], [["a", "3"], ["b", "-"]])
_TEMPLATE = parse_template("COMPARE_EQ { AGGREGATION { all_rows ; COL_1 } ; OBJ_1 }")
# one value of each record type that is immutable
FROZEN = [
    CATALOG["filter_eq"], AllRows(), ColumnRef("Points"),
    parse_logic_form("eq { count { all_rows } ; 3 }"), normalize_cell("1,000"), _TABLE,
    CorpusEntry(_TABLE, ((0, 1),), ("a scored 3.",)), TSlot(HEADER, 1), _TEMPLATE.skeleton,
    _TEMPLATE, WeightedTemplate(_TEMPLATE, 1.0), default_distribution(), HookConfig("cat", 2.5),
]


@pytest.mark.parametrize("value", FROZEN, ids=lambda value: type(value).__name__)
def test_a_record_refuses_assignment_and_pickles_to_an_equal_value(value):
    # what the constructor takes, and what a slotted record derives from it
    fields = [*inspect.signature(type(value)).parameters, *getattr(value, "__slots__", ())]
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(value, name)
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and copy == value and hash(copy) == hash(value)
    assert all(getattr(copy, name) == getattr(value, name) for name in fields)


class TestCorpusIO:
    def _write(self, tmp_path, lines):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_round_trip_is_byte_stable(self, tmp_path, bundled_corpus):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        save_corpus(bundled_corpus, first)
        reloaded = load_corpus(first)
        save_corpus(reloaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert len(reloaded) == len(bundled_corpus)

    def test_optional_fields_survive(self, tmp_path):
        entry = CorpusEntry(
            table=Table.from_strings("t", "t", ["a", "b"], [["1", "x"]]),
            selected_column_sets=((0, 1),),
            references=("a ref",),
        )
        path = tmp_path / "c.jsonl"
        save_corpus([entry], path)
        back = load_corpus(path)[0]
        assert back.selected_column_sets == ((0, 1),)
        assert back.references == ("a ref",)

    def test_malformed_json_is_fatal_and_names_the_line(self, tmp_path):
        path = self._write(
            tmp_path,
            ['{"table_id": "a", "title": "a", "header": ["h"], "rows": [["1"]]}',
             "{not json"],
        )
        with pytest.raises(IngestError, match=r":2:"):
            load_corpus(path)

    def test_bad_entry_is_skipped_with_warning(self, tmp_path, caplog):
        path = self._write(
            tmp_path,
            ['{"table_id": "a", "title": "a", "header": ["h"], "rows": [["1"]]}',
             '{"table_id": "b", "title": "b", "header": ["h"], "rows": [["1", "2"]]}'],
        )
        with caplog.at_level("WARNING"):
            entries = load_corpus(path)
        assert [e.table.table_id for e in entries] == ["a"]
        assert "skipping entry" in caplog.text

    def test_zero_column_table_is_skipped(self, tmp_path, caplog):
        path = self._write(
            tmp_path,
            ['{"table_id":"a","title":"t","header":[],"rows":[]}',
             '{"table_id": "b", "title": "b", "header": ["h"], "rows": [["1"]]}'],
        )
        with caplog.at_level("WARNING"):
            entries = load_corpus(path)
        assert [e.table.table_id for e in entries] == ["b"]
        assert "no columns" in caplog.text

    def test_empty_csv_header_is_skipped(self, tmp_path, caplog):
        path = tmp_path / "blank.csv"
        path.write_text("\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            assert load_corpus(path, format="csv") == []
        assert "no columns" in caplog.text

    def test_zero_byte_csv_loads_no_table(self, tmp_path, caplog):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        with caplog.at_level("WARNING"):
            assert load_corpus(path, format="csv") == []
        assert caplog.records == []

    def test_blank_header_skips_the_entry_or_the_csv_table(self, tmp_path, caplog):
        path = self._write(
            tmp_path,
            ['{"table_id": "a", "title": "a", "header": ["h", "  "], "rows": [["1", "2"]]}',
             '{"table_id": "b", "title": "b", "header": ["h"], "rows": [["1"]]}'],
        )
        csv_path = tmp_path / "blank.csv"
        csv_path.write_text("h, \n1,2\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            assert [e.table.table_id for e in load_corpus(path)] == ["b"]
            assert load_corpus(csv_path, format="csv") == []
        assert "corpus.jsonl:1: header 1 is blank" in caplog.text
        assert "skipping csv table" in caplog.text

    def test_duplicate_table_id_keeps_the_first(self, tmp_path, caplog):
        path = self._write(
            tmp_path,
            ['{"table_id": "x", "title": "first", "header": ["h"], "rows": [["1"]]}',
             '{"table_id": "y", "title": "y", "header": ["h"], "rows": [["2"]]}',
             '{"table_id": "x", "title": "second", "header": ["h"], "rows": [["3"]]}'],
        )
        with caplog.at_level("WARNING"):
            entries = load_corpus(path)
        assert [(e.table.table_id, e.table.title) for e in entries] == [
            ("x", "first"), ("y", "y")
        ]
        assert "duplicate table_id 'x'" in caplog.text
        assert ":3:" in caplog.text and "line 1" in caplog.text

    def test_blank_lines_are_skipped_and_lines_keep_their_numbers(self, tmp_path, caplog):
        path = self._write(
            tmp_path,
            ["", "   ",
             '{"table_id": "a", "title": "a", "header": ["h"], "rows": [["1"]]}',
             "\t ",
             '{"table_id": "b", "title": "b", "header": ["h"], "rows": [["1", "2"]]}'],
        )
        with caplog.at_level("WARNING"):
            entries = load_corpus(path)
        assert [e.table.table_id for e in entries] == ["a"]
        assert [r.getMessage().split(": ")[0] for r in caplog.records] == [
            f"skipping entry at {path}:5"
        ]

    def test_missing_field_is_skipped(self, tmp_path, caplog):
        path = self._write(tmp_path, ['{"table_id": "a"}'])
        with caplog.at_level("WARNING"):
            assert load_corpus(path) == []

    def test_skip_warning_names_the_line_once(self, tmp_path, caplog):
        path = self._write(tmp_path, ['{"table_id": "a", "title": "t"}'])
        with caplog.at_level("WARNING"):
            assert load_corpus(path) == []
        assert [r.getMessage() for r in caplog.records] == [
            f"skipping entry at {path}:1: missing required field 'header'"
        ]

    @pytest.mark.parametrize("fields, message", [
        ({"rows": 5}, "rows must be a list, got int"),
        ({"header": "xy", "rows": ["12", "34"]}, "header must be a list, got str"),
        ({"header": ["x", "y"], "rows": ["12", "34"]}, "a row must be a list, got str"),
        ({"references": "a ref"}, "references must be a list, got str"),
        ({"selected_columns": 0}, "selected_columns must be a list, got int"),
        ({"selected_columns": [0]}, "a selected_columns set must be a list, got int"),
        ({"selected_columns": [[None]]}, "column index None is not an integer"),
        ({"selected_columns": [[1e400]]}, "column index inf is not an integer"),
        ({"selected_columns": [[0.9]]}, "column index 0.9 is not an integer"),
        ({"selected_columns": [["1"]]}, "column index '1' is not an integer"),
        ({"selected_columns": [[True]]}, "column index True is not an integer"),
        ({"selected_columns": [[0], []]}, "empty column set"),
    ], ids=["rows-int", "header-str", "row-str", "references-str", "sets-int", "set-int",
            "index-null", "index-inf", "index-fraction", "index-str", "index-bool", "set-empty"])
    def test_field_of_the_wrong_shape_is_skipped(self, tmp_path, caplog, fields, message):
        record = {"table_id": "a", "title": "a", "header": ["h"], "rows": [["1"]], **fields}
        path = self._write(tmp_path, [json.dumps(record)])
        with caplog.at_level("WARNING"):
            assert load_corpus(path) == []
        assert f"skipping entry at {path}:1: {message}" in caplog.text

    @pytest.mark.parametrize("fields, kinds", [
        ({"table_id": None}, "null"),
        ({"title": None}, "null"),
        ({"header": ["h", None]}, "null"),
        ({"rows": [["1", True]]}, "true or false"),
        ({"rows": [["1", [1, 2]]]}, "a list"),
        ({"rows": [[{"a": 1}, None]]}, "an object, null"),
        ({"references": [None]}, "null"),
    ], ids=["table_id-null", "title-null", "header-null", "cell-bool", "cell-list",
            "cell-object-and-null", "reference-null"])
    def test_text_that_is_not_a_string_or_number_is_skipped(self, tmp_path, caplog, fields,
                                                              kinds):
        # str() would load null as "None", true as "True" and a list as "[1, 2]"
        record = {"table_id": "a", "title": "a", "header": ["h", "g"], "rows": [["1", "x"]],
                  **fields}
        path = self._write(tmp_path, [json.dumps(record)])
        with caplog.at_level("WARNING"):
            assert load_corpus(path) == []
        assert (f"skipping entry at {path}:1: a table_id, title, header, cell or reference"
                f" holds {kinds}, not a string or number") in caplog.text

    def test_numbers_in_text_fields_load_as_their_text(self, tmp_path):
        record = {"table_id": 7, "title": 1.5, "header": ["h", 2], "rows": [[3, "x"]],
                  "references": [4]}
        [entry] = load_corpus(self._write(tmp_path, [json.dumps(record)]))
        table = entry.table
        assert (table.table_id, table.title, table.headers) == ("7", "1.5", ("h", "2"))
        assert [c.text for c in table.rows[0]] == ["3", "x"] and entry.references == ("4",)

    def test_a_float_cell_loads_as_its_positional_text(self, tmp_path):
        # str() writes 0.00005 as "5e-05" and 1e16 as "1e+16", which read as 5 and 1
        values = [0.00005, 1e16, 2.5, -1e-07, 3, float("nan"), float("inf")]
        record = {"table_id": "f", "title": "f", "header": ["x"], "rows": [[v] for v in values]}
        [entry] = load_corpus(self._write(tmp_path, [json.dumps(record)]))
        cells = [row[0] for row in entry.table.rows]
        assert [c.text for c in cells] == [
            "0.00005", "10000000000000000", "2.5", "-0.0000001", "3", "nan", "inf"]
        assert [c.number for c in cells] == [5e-05, 1e16, 2.5, -1e-07, 3.0, None, None]
        assert all(normalize_cell(c.text) == c for c in cells)

    def test_bad_column_index_is_skipped(self, tmp_path, caplog):
        record = {
            "table_id": "a", "title": "a", "header": ["h"],
            "rows": [["1"]], "selected_columns": [[4]],
        }
        path = self._write(tmp_path, [json.dumps(record)])
        with caplog.at_level("WARNING"):
            assert load_corpus(path) == []

    def test_lone_surrogate_escape_is_skipped_and_named(self, tmp_path, caplog):
        # an escaped pair decodes to one character and loads; a lone half
        # cannot be written as UTF-8, so its entry is skipped
        path = self._write(
            tmp_path,
            ['{"table_id": "pair", "title": "\\ud83d\\ude00", "header": ["h"], "rows": [["1"]]}',
             '{"table_id": "lone", "title": "t", "header": ["h"], "rows": [["\\ud800a"]]}'],
        )
        with caplog.at_level("WARNING"):
            entries = load_corpus(path)
        assert [(e.table.table_id, e.table.title) for e in entries] == [("pair", "\U0001F600")]
        assert f"{path}:2: text holds a lone surrogate" in caplog.text

    @pytest.mark.parametrize("name, fmt, body", [
        ("corpus.jsonl", "json",
         b'{"table_id": "a", "title": "a", "header": ["h"], "rows": [["1"]]}\n'
         b'{"table_id": "b", "title": "\xff", "header": ["h"], "rows": [["1"]]}\n'),
        ("table.csv", "csv", b"team,points\n\xff,3\n"),
    ], ids=["json", "csv"])
    def test_undecodable_line_is_fatal_and_named(self, tmp_path, name, fmt, body):
        path = tmp_path / name
        path.write_bytes(body)
        with pytest.raises(IngestError, match=rf"{name}:2: not valid UTF-8"):
            load_corpus(path, format=fmt)

    def test_csv_field_over_the_size_limit_is_fatal_and_named(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("team,note\na,b\nc," + "x" * 200_000 + "\n", encoding="utf-8")
        with pytest.raises(IngestError, match=r"big\.csv:3: field larger than field limit"):
            load_corpus(path, format="csv")
        assert csv.field_size_limit() == 131072  # the process-wide limit is left alone

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            load_corpus(tmp_path / "absent.jsonl")

    def test_csv_ingest_uses_stem_as_id(self, tmp_path):
        path = tmp_path / "race results.csv"
        path.write_text("driver,time\nann,62\nbob,65\n", encoding="utf-8")
        entries = load_corpus(path, format="csv")
        assert len(entries) == 1
        table = entries[0].table
        assert table.table_id == "race results"
        assert table.headers == ("driver", "time")
        assert table.n_rows == 2

    def test_csv_byte_order_mark_is_not_part_of_the_first_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeffteam,points\na,3\nb,5\n", encoding="utf-8")
        table = load_corpus(path, format="csv")[0].table
        assert table.headers == ("team", "points")
        assert verify("eq { hop { argmax { all_rows ; points } ; team } ; b }", table)

    def test_json_byte_order_mark_is_not_part_of_the_first_line(self, tmp_path):
        path = tmp_path / "bom.jsonl"
        record = {"table_id": "t", "title": "t", "header": ["team"], "rows": [["a"]]}
        path.write_text("\ufeff" + json.dumps(record) + "\n", encoding="utf-8")
        assert [e.table.table_id for e in load_corpus(path)] == ["t"]

    def test_unknown_format(self, tmp_path):
        path = self._write(tmp_path, ["{}"])
        with pytest.raises(IngestError):
            load_corpus(path, format="xml")


# cell values that repeat often: numbers, number-like texts, empty markers,
# and short texts that need CSV quoting
CELLS = st.one_of(
    st.sampled_from(["1", "1.0", " 1", "1,000", "5%", "-", "n/a", "", "x", "X", "a b"]),
    st.text(alphabet='ab1 .,-%"\n', max_size=4),
    st.integers(-3, 1000),
)
# (column count, rows) of one table
TABLES = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(CELLS, min_size=n, max_size=n), max_size=5)))


def all_cells(entries):
    return [cell for entry in entries for row in entry.table.rows for cell in row]


def assert_one_cell_per_text(entries, raw_tables):
    """Each loaded cell is normalize_cell of its raw text, and one text's
    cells are one object."""
    by_text = {}
    for entry, rows in zip(entries, raw_tables, strict=True):
        for raw_row, row in zip(rows, entry.table.rows, strict=True):
            for raw, cell in zip(raw_row, row, strict=True):
                assert cell == normalize_cell(str(raw))
                assert by_text.setdefault(str(raw), cell) is cell


def assert_no_cell_shared(first, second):
    assert {id(c) for c in all_cells(first)}.isdisjoint(id(c) for c in all_cells(second))


class TestCellSharing:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(TABLES, min_size=1, max_size=4))
    def test_json_load_normalizes_and_shares_each_text_once(self, tables):
        records = [{"table_id": f"t{i}", "title": "t", "header": [f"c{j}" for j in range(n)],
                    "rows": rows} for i, (n, rows) in enumerate(tables)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.jsonl"
            path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
            first, second = load_corpus(path), load_corpus(path)
        assert_one_cell_per_text(first, [rows for _, rows in tables])
        assert_no_cell_shared(first, second)

    @settings(max_examples=80, deadline=None)
    @given(TABLES)
    def test_csv_load_normalizes_and_shares_each_text_once(self, table):
        n, rows = table
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([[f"c{j}" for j in range(n)], *rows])
            first, second = (load_corpus(path, format="csv") for _ in range(2))
        assert_one_cell_per_text(first, [rows])
        assert_no_cell_shared(first, second)

    def test_from_strings_keeps_each_value_its_own_text(self):
        # True == 1 == 1.0 as dict keys; each must still read as its own text
        table = Table.from_strings("t", "t", ["c"], [[1], [True], [1.0], ["1"]])
        assert [row[0].text for row in table.rows] == ["1", "True", "1.0", "1"]
        assert table.rows[0][0] is table.rows[3][0]

    def test_each_distinct_cell_text_is_normalized_once_per_load(self, tmp_path):
        repeats = tmp_path / "repeats.jsonl"
        rows = [["1", "ann", "-"], ["2", "bob", "1"], ["1", "ann", "n/a"]]
        repeats.write_text("".join(json.dumps({"table_id": f"t{i}", "title": "t",
                                               "header": ["a", "b", "c"], "rows": rows}) + "\n"
                                   for i in range(4)), encoding="utf-8")
        bundled = Path(str(resources.files("loft.data").joinpath("sample_corpus.jsonl")))
        for path in (bundled, repeats):
            records = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
            texts = {str(c) for record in records for row in record["rows"] for c in row}
            n_cells = sum(len(row) for record in records for row in record["rows"])
            assert len(texts) < n_cells
            _, calls, _ = count_calls(lambda: (load_corpus(path), load_corpus(path)),
                                      normalize_cell)
            assert calls == {("normalize_cell", "loft.tables"): 2 * len(texts)}


def test_fold_text_collapses_space():
    assert fold_text("  Final   Score ") == "final score"


@pytest.mark.parametrize("raw, why", [
    (b'{"a": "\xff"}', "not valid UTF-8"),
    ("{not json", "malformed JSON"),
    ("[" * 200_000, "malformed JSON: maximum recursion depth"),
    ("[1, 2]", "not a JSON object"),
    ('"text"', "not a JSON object"),
], ids=["not-utf8", "not-json", "too-deep", "list", "string"])
def test_json_object_names_the_rule_a_line_breaks(raw, why):
    with pytest.raises(ValueError, match=why):
        json_object(raw)


def test_json_object_reads_text_and_bytes_alike():
    expected = {"a": [1, "é"]}
    assert json_object('{"a": [1, "\\u00e9"]}') == expected
    assert json_object('{"a": [1, "é"]}'.encode("utf-8")) == expected
