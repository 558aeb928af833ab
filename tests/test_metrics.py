"""Scoring output files: BLEU, distinct-n, self-BLEU, coverage and faithfulness."""

import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loft import IngestError, default_distribution
from loft.catalog import CATEGORIES
from loft.forms import MAX_NESTING
from loft.metrics import (
    MetricsReport,
    _ngram_counts,
    _references,
    category_coverage,
    corpus_bleu,
    score_output,
    self_bleu,
    tokenize,
)
from loft.pipeline import run_pipeline
from loft.tables import CorpusEntry, Table

from . import bleu_reference as reference

# Short texts over a small vocabulary, so n-grams repeat within and across
# texts; whitespace-only texts tokenize to nothing, punctuation-only ones do not.
TEXT = st.one_of(
    st.lists(st.sampled_from(["a", "b", "c", "the", "!", ",", "'s", "a b"]), max_size=9)
    .map(" ".join),
    st.sampled_from(["", "   ", "\t\n", "!", ", . ;", "?!"]),
)
TEXT_SETS = st.lists(TEXT, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.one_of(st.sampled_from(pool), TEXT), max_size=12)
)
MAX_ORDER = st.integers(min_value=1, max_value=4)


class TestTokenize:
    def test_words_and_punctuation(self):
        assert tokenize("The team's score: 5!") == [
            "the", "team", "'", "s", "score", ":", "5", "!",
        ]

    def test_lowercases(self):
        assert tokenize("A B c") == ["a", "b", "c"]

    def test_empty(self):
        assert tokenize("   ") == []


def score_tables(path: Path, tables) -> MetricsReport:
    """score_output on an output file written to path, one table per
    (references, statements) pair; the corpus holds each table with its
    references, or lacks it where references is None."""
    entries, records = [], []
    for i, (references, statements) in enumerate(tables):
        if references is not None:
            table = Table.from_strings(f"t{i}", f"t{i}", ["team"], [["a"]])
            entries.append(CorpusEntry(table=table, references=tuple(references)))
        records.append({"table_id": f"t{i}", "statements": [
            {"text": text, "logic_form": "only { all_rows }", "category": "unique"}
            for text in statements
        ]})
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return score_output(path, entries)


def order_counts(token_lists, max_order=4):
    """Each text's n-gram counts per order, as score_output counts them."""
    return [[_ngram_counts(tokens, n) for tokens in token_lists]
            for n in range(1, max_order + 1)]


class TestSentenceBleu:
    """One statement against its table's references: BLEU-1/2/3."""

    @staticmethod
    def bleu(tmp_path, candidate, references):
        report = score_tables(tmp_path / "out.jsonl", [(references, [candidate])])
        return [report.bleu_1, report.bleu_2, report.bleu_3]

    def test_perfect_match_is_100(self, tmp_path):
        text = "the number of rows whose team is a is equal to 1"
        assert self.bleu(tmp_path, text, [text]) == pytest.approx([100.0] * 3)

    def test_unigram_precision(self, tmp_path):
        # 3 of 4 candidate unigrams appear in the reference
        assert self.bleu(tmp_path, "a b c d", ["a b c x"])[0] == pytest.approx(75.0)

    def test_precision_is_clipped(self, tmp_path):
        # "a" occurs once in the reference, so the candidate's four "a"
        # tokens only score one hit
        assert self.bleu(tmp_path, "a a a a", ["a b c d"])[0] == pytest.approx(25.0)

    def test_orders_without_candidate_ngrams_are_skipped(self, tmp_path):
        # a one-token candidate has no bigrams; against itself the score
        # stays perfect instead of collapsing to the epsilon floor
        assert self.bleu(tmp_path, "hello", ["hello"]) == pytest.approx([100.0] * 3)

    def test_zero_precision_floor_keeps_score_positive(self, tmp_path):
        score = self.bleu(tmp_path, "x y", ["p q"])[0]
        assert 0.0 < score < 1.0
        assert score == pytest.approx(100.0 * 0.01 / 2)

    def test_brevity_penalty(self, tmp_path):
        # two tokens against a four-token reference: exp(1 - 4/2)
        score = self.bleu(tmp_path, "a b", ["a b c d"])[0]
        assert score == pytest.approx(100.0 * math.exp(-1.0))

    def test_no_penalty_for_long_candidates(self, tmp_path):
        assert self.bleu(tmp_path, "a b c d x", ["a b c d"])[0] == pytest.approx(80.0)

    def test_closest_reference_length_wins(self, tmp_path):
        # candidate length 2; reference lengths 2 and 4: the closer one
        # sets the brevity penalty, so there is none
        assert self.bleu(tmp_path, "a b", ["a b", "a b c d"])[0] == pytest.approx(100.0)

    def test_length_ties_prefer_the_shorter_reference(self, tmp_path):
        # lengths 1 and 3 are both one away from 2; the shorter wins and
        # no penalty applies
        assert self.bleu(tmp_path, "a b", ["a", "a b c"])[0] == pytest.approx(100.0)

    def test_empty_cases_are_zero(self, tmp_path):
        assert self.bleu(tmp_path, "", ["a"]) == [0.0] * 3
        assert self.bleu(tmp_path, "a", [""]) == [0.0] * 3
        # a table without references has no statement BLEU scores
        assert self.bleu(tmp_path, "a", []) == [None] * 3

    def test_reference_order_does_not_matter(self, tmp_path):
        refs = ["a b c", "c b a", "b b b"]
        assert self.bleu(tmp_path, "a b", refs) == self.bleu(tmp_path, "a b", refs[::-1])


def bleu_parts(pairs):
    """corpus_bleu's arguments for (candidate, references) pairs; pairs
    with the same references share a group."""
    token_lists = [tokenize(candidate) for candidate, _ in pairs]
    groups = [json.dumps(references) for _, references in pairs]
    references = {key: _references(json.loads(key)) for key in groups}
    return token_lists, order_counts(token_lists), groups, references


class TestAgainstReference:
    """The parts of score_output equal the quadratic reference exactly, at
    every order up to the 4 that score_output counts."""

    @settings(max_examples=400, deadline=None)
    @given(TEXT_SETS, MAX_ORDER)
    def test_self_bleu(self, texts, max_order):
        token_lists = [tokenize(text) for text in texts]
        assert self_bleu(token_lists, order_counts(token_lists, max_order)) == (
            reference.self_bleu(texts, max_order)
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(TEXT, st.lists(TEXT, max_size=4)), max_size=8)
        .flatmap(lambda pairs: st.lists(st.sampled_from(pairs), max_size=12) if pairs
                 else st.just([])),
    )
    def test_corpus_bleu(self, pairs):
        # drawing pairs from a pool repeats reference lists, as a table's
        # statements do
        assert corpus_bleu(*bleu_parts(pairs)) == [
            reference.corpus_bleu(pairs, max_order) for max_order in (1, 2, 3, 4)
        ]

    @settings(max_examples=300, deadline=None)
    @given(TEXT, st.lists(TEXT, max_size=5))
    def test_sentence_bleu(self, candidate, references):
        assert corpus_bleu(*bleu_parts([(candidate, references)])) == [
            reference.sentence_bleu(candidate, references, max_order)
            for max_order in (1, 2, 3, 4)
        ]


# One output file's tables: each with up to 3 references (none, or all
# blank, among them), up to 5 statements, and whether the corpus holds it.
OUTPUT_TABLES = st.lists(
    st.tuples(
        st.one_of(st.lists(TEXT, max_size=3),
                  st.lists(st.sampled_from(["", "  ", "\t\n"]), min_size=1, max_size=2)),
        st.lists(TEXT, max_size=5),
        st.booleans(),
    ),
    max_size=4,
)


class TestScoreOutputAgainstReference:
    """score_output's text scores equal the quadratic reference exactly."""

    @settings(max_examples=200, deadline=None)
    @given(OUTPUT_TABLES)
    def test_text_scores(self, tables):
        entries, records, pairs, texts = [], [], [], []
        for i, (references, statements, known) in enumerate(tables):
            if known:
                table = Table.from_strings(f"t{i}", f"t{i}", ["team"], [["a"]])
                entries.append(CorpusEntry(table=table, references=tuple(references)))
                pairs += [(text, references) for text in statements if references]
            records.append({"table_id": f"t{i}", "statements": [
                {"text": text, "logic_form": "only { all_rows }", "category": "unique"}
                for text in statements
            ]})
            texts += statements
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.jsonl"
            path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
            report = score_output(path, entries)
        assert [report.bleu_1, report.bleu_2, report.bleu_3] == [
            reference.corpus_bleu(pairs, n) for n in (1, 2, 3)
        ]
        assert report.distinct_2 == reference.distinct_n(texts, 2)
        assert report.self_bleu_4 == reference.self_bleu(texts, 4)


class TestCorpusBleu:
    def test_mean_of_sentence_scores(self, tmp_path):
        tables = [(["a b"], ["a b"]), (["p q"], ["x y"])]
        both = score_tables(tmp_path / "both.jsonl", tables)
        alone = [score_tables(tmp_path / "alone.jsonl", [table]) for table in tables]
        assert both.bleu_3 == pytest.approx((alone[0].bleu_3 + alone[1].bleu_3) / 2)

    def test_empty_is_none(self, tmp_path):
        report = score_tables(tmp_path / "out.jsonl", [([], ["a b"]), (None, ["a b"])])
        assert [report.bleu_1, report.bleu_2, report.bleu_3] == [None] * 3


class TestDistinctN:
    @staticmethod
    def distinct_2(tmp_path, texts):
        return score_tables(tmp_path / "out.jsonl", [([], texts)]).distinct_2

    def test_token_denominator(self, tmp_path):
        # one distinct bigram over four tokens
        assert self.distinct_2(tmp_path, ["a b", "a b"]) == pytest.approx(0.25)

    def test_all_distinct(self, tmp_path):
        # two distinct bigrams over four tokens
        assert self.distinct_2(tmp_path, ["a b", "c d"]) == pytest.approx(0.5)

    def test_no_tokens_is_none(self, tmp_path):
        assert self.distinct_2(tmp_path, []) is None
        assert self.distinct_2(tmp_path, ["", "  "]) is None

    def test_duplicates_lower_the_score(self, tmp_path):
        varied = self.distinct_2(tmp_path, ["a b c", "d e f"])
        repeated = self.distinct_2(tmp_path, ["a b c", "a b c"])
        assert repeated < varied


class TestSelfBleu:
    @staticmethod
    def self_bleu_4(tmp_path, texts):
        return score_tables(tmp_path / "out.jsonl", [([], texts)]).self_bleu_4

    def test_identical_texts_score_100(self, tmp_path):
        assert self.self_bleu_4(tmp_path, ["same line here ok"] * 5) == pytest.approx(100.0)

    def test_fewer_than_two_is_none(self, tmp_path):
        assert self.self_bleu_4(tmp_path, []) is None
        assert self.self_bleu_4(tmp_path, ["just one"]) is None

    def test_diverse_texts_score_lower(self, tmp_path):
        texts = ["alpha beta gamma", "delta epsilon zeta", "eta theta iota"]
        assert self.self_bleu_4(tmp_path, texts) < 50.0


class TestCategoryCoverage:
    def test_full_coverage(self):
        cats = [
            "unique", "aggregation", "count", "ordinal",
            "comparative", "majority", "conjunction", "other",
        ]
        assert category_coverage(cats) == pytest.approx(1.0)

    def test_half_coverage_ignores_unknown_labels(self):
        assert category_coverage(["count", "count", "unique", "mystery", "ordinal", "other"]) == pytest.approx(0.5)

    def test_empty_is_none(self):
        assert category_coverage([]) is None


class TestScoreOutput:
    def test_scores_a_real_pipeline_run(self, tmp_path, bundled_corpus):
        out = tmp_path / "out.jsonl"
        run_pipeline(
            bundled_corpus, out, default_distribution(),
            k=4, seed=13,
            candidates=6,
        )
        report = score_output(out, bundled_corpus)
        assert report.tables >= 9
        assert report.statements >= report.tables
        assert report.execution_faithfulness == 1.0
        assert report.bleu_1 is not None and 0.0 <= report.bleu_1 <= 100.0
        assert report.bleu_1 >= report.bleu_2 >= report.bleu_3
        assert 0.0 < report.distinct_2 <= 1.0
        assert 0.0 < report.self_bleu_4 <= 100.0
        assert 0.0 < report.category_coverage <= 1.0
        assert 0.0 < report.column_coverage <= 1.0

        payload = report.to_json()
        assert payload["tables"] == report.tables
        assert set(payload) == {
            "tables", "statements", "bleu_1", "bleu_2", "bleu_3",
            "distinct_2", "self_bleu_4", "category_coverage",
            "column_coverage", "execution_faithfulness",
        }

    def test_handcrafted_file(self, tmp_path, bundled_corpus):
        # one table with references, one statement that is exactly the
        # first reference: sentence BLEU must be a perfect 100
        entry = next(e for e in bundled_corpus if e.references)
        record = {
            "table_id": entry.table.table_id,
            "statements": [
                {
                    "text": entry.references[0],
                    "logic_form": "eq { count { all_rows } ; "
                    + str(entry.table.n_rows) + " }",
                    "category": "comparative",
                }
            ],
        }
        path = tmp_path / "one.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        report = score_output(path, bundled_corpus)
        assert report.tables == 1
        assert report.statements == 1
        assert report.bleu_1 == pytest.approx(100.0)
        assert report.execution_faithfulness == 1.0
        assert report.self_bleu_4 is None

    def test_byte_order_mark_is_not_part_of_the_first_line(self, tmp_path):
        record = {
            "table_id": "ghost",
            "statements": [{"text": "a b", "logic_form": "only { all_rows }", "category": "unique"}],
        }
        path = tmp_path / "bom.jsonl"
        path.write_text("\ufeff" + json.dumps(record) + "\n", encoding="utf-8")
        assert score_output(path, []).statements == 1

    def test_unknown_tables_still_count_statements(self, tmp_path):
        record = {
            "table_id": "ghost",
            "statements": [{"text": "a b", "logic_form": "only { all_rows }", "category": "unique"}],
        }
        path = tmp_path / "ghost.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        report = score_output(path, [])
        assert report.statements == 1
        assert report.bleu_1 is None
        assert report.column_coverage is None
        assert report.execution_faithfulness == 0.0

    def test_a_repeated_table_id_scores_the_first_table(self, tmp_path, caplog):
        # entries built in code bypass load_corpus; as run_pipeline does,
        # score_output keeps the first table of a repeated id
        first = CorpusEntry(Table.from_strings(
            "t", "t", ["team", "points"], [["a", "3"], ["b", "5"], ["c", "2"]]))
        second = CorpusEntry(Table.from_strings(
            "t", "t", ["team", "points"], [["x", "9"], ["y", "9"]]))
        out = tmp_path / "out.jsonl"
        run = run_pipeline([first, second], out, default_distribution(), seed=1)
        with caplog.at_level("WARNING", logger="loft.tables"):
            report = score_output(out, [first, second])
        assert run.execution_faithfulness == report.execution_faithfulness == 1.0
        assert "skipping repeated table_id 't'" in caplog.text


# nested one function past forms.MAX_NESTING
DEEP_FORM = ("only { " + "filter_all { " * MAX_NESTING + "all_rows"
             + " ; team }" * MAX_NESTING + " }")
FORMS = st.sampled_from([
    "eq { count { all_rows } ; 3 }",
    "eq { hop { argmax { all_rows ; points } ; team } ; b }",
    "only { all_rows }",
    "count {",
    "frobnicate { all_rows }",
    DEEP_FORM,
])
STATEMENT = st.fixed_dictionaries(
    {"text": st.one_of(TEXT, st.just("lone \ud800 surrogate")), "logic_form": FORMS},
    optional={"category": st.sampled_from(CATEGORIES)},
)
NOT_A_STRING = st.one_of(st.integers(), st.none(), st.booleans(),
                         st.lists(st.integers(), max_size=2))
# a statement with a field of the wrong type, or one that is not an object
BAD_STATEMENT = st.one_of(
    st.tuples(STATEMENT, st.sampled_from(["text", "logic_form", "category"]), NOT_A_STRING)
    .map(lambda t: {**t[0], t[1]: t[2]}),
    st.one_of(st.text(max_size=3), st.integers(), st.none(), st.lists(st.just("a"), max_size=2)),
)
TABLE_ID = st.sampled_from(["t0", "t1", "ghost"])


def record_line(table_id, statements):
    return json.dumps({"table_id": table_id, "statements": statements})


# (line, whether score_output must refuse it)
OUTPUT_LINES = st.one_of(
    st.builds(record_line, TABLE_ID, st.lists(STATEMENT, max_size=3)).map(lambda s: (s, False)),
    st.sampled_from(["", "   ", "\t"]).map(lambda s: (s, False)),
    st.builds(lambda before, bad, after: record_line("t0", before + [bad] + after),
              st.lists(STATEMENT, max_size=1), BAD_STATEMENT, st.lists(STATEMENT, max_size=1))
    .map(lambda s: (s, True)),
    st.builds(record_line, TABLE_ID, st.one_of(st.integers(), st.none(), st.text(max_size=3),
                                               st.just({}))).map(lambda s: (s, True)),
    st.builds(record_line, NOT_A_STRING, st.lists(STATEMENT, max_size=1)).map(lambda s: (s, True)),
    st.sampled_from(["[]", "3", '"s"', "null", "{", '{"table_id": ', "[" * 5000 + "]" * 5000])
    .map(lambda s: (s, True)),
)


class TestOutputFuzz:
    """Any output file gives a report, or an IngestError naming the first
    bad line; never another exception."""

    ENTRIES = [
        CorpusEntry(Table.from_strings("t0", "t0", ["team", "points"],
                                       [["a", "3"], ["b", "5"], ["c", "2"]]),
                    references=("a has 3 points", "b scores the most")),
        CorpusEntry(Table.from_strings("t1", "t1", ["team"], [["a"]])),
    ]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(OUTPUT_LINES, max_size=6), st.booleans())
    def test_a_report_or_an_ingest_error_naming_the_line(self, lines, byte_order_mark):
        bad = [lineno for lineno, (_, refused) in enumerate(lines, start=1) if refused]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.jsonl"
            text = "".join(line + "\n" for line, _ in lines)
            path.write_bytes(("\ufeff" if byte_order_mark else "").encode() + text.encode())
            try:
                report = score_output(path, self.ENTRIES)
            except IngestError as exc:
                assert bad, exc
                assert re.match(rf"{re.escape(str(path))}:{bad[0]}: ", str(exc)), exc
                return
        assert not bad
        records = [json.loads(line) for line, _ in lines if line.strip()]
        assert report.tables == len(records)
        assert report.statements == sum(len(r["statements"]) for r in records)
        assert report.execution_faithfulness is None or 0.0 <= report.execution_faithfulness <= 1.0
