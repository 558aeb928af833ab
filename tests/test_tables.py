"""Cell normalization, column typing, and corpus round trips."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from loft import CorpusEntry, IngestError, Table, load_corpus, save_corpus
from loft.tables import (
    EMPTY,
    NUMBER,
    NUMERIC,
    TEXT,
    TEXTUAL,
    normalize_cell,
    normalize_header,
)


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

    def test_missing_field_is_skipped(self, tmp_path, caplog):
        path = self._write(tmp_path, ['{"table_id": "a"}'])
        with caplog.at_level("WARNING"):
            assert load_corpus(path) == []

    def test_bad_column_index_is_skipped(self, tmp_path, caplog):
        record = {
            "table_id": "a", "title": "a", "header": ["h"],
            "rows": [["1"]], "selected_columns": [[4]],
        }
        path = self._write(tmp_path, [json.dumps(record)])
        with caplog.at_level("WARNING"):
            assert load_corpus(path) == []

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

    def test_unknown_format(self, tmp_path):
        path = self._write(tmp_path, ["{}"])
        with pytest.raises(IngestError):
            load_corpus(path, format="xml")


def test_normalize_header_collapses_space():
    assert normalize_header("  Final   Score ") == "final score"
