"""Text metrics: BLEU variants, distinct-n, coverage, and file scoring."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loft import default_distribution
from loft.metrics import (
    category_coverage,
    corpus_bleu,
    distinct_n,
    score_output,
    self_bleu,
    sentence_bleu,
    tokenize,
)
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
MAX_ORDER = st.integers(min_value=1, max_value=5)


class TestTokenize:
    def test_words_and_punctuation(self):
        assert tokenize("The team's score: 5!") == [
            "the", "team", "'", "s", "score", ":", "5", "!",
        ]

    def test_lowercases(self):
        assert tokenize("A B c") == ["a", "b", "c"]

    def test_empty(self):
        assert tokenize("   ") == []


class TestSentenceBleu:
    def test_perfect_match_is_100(self):
        text = "the number of rows whose team is a is equal to 1"
        assert sentence_bleu(text, [text]) == pytest.approx(100.0)

    def test_unigram_precision(self):
        # 3 of 4 candidate unigrams appear in the reference
        assert sentence_bleu("a b c d", ["a b c x"], max_order=1) == pytest.approx(75.0)

    def test_precision_is_clipped(self):
        # "a" occurs once in the reference, so the candidate's four "a"
        # tokens only score one hit
        assert sentence_bleu("a a a a", ["a b c d"], max_order=1) == pytest.approx(25.0)

    def test_orders_without_candidate_ngrams_are_skipped(self):
        # a one-token candidate has no bigrams; against itself the score
        # stays perfect instead of collapsing to the epsilon floor
        assert sentence_bleu("hello", ["hello"]) == pytest.approx(100.0)

    def test_zero_precision_floor_keeps_score_positive(self):
        score = sentence_bleu("x y", ["p q"], max_order=1)
        assert 0.0 < score < 1.0
        assert score == pytest.approx(100.0 * 0.01 / 2)

    def test_brevity_penalty(self):
        # two tokens against a four-token reference: exp(1 - 4/2)
        score = sentence_bleu("a b", ["a b c d"], max_order=1)
        assert score == pytest.approx(100.0 * math.exp(-1.0))

    def test_no_penalty_for_long_candidates(self):
        assert sentence_bleu("a b c d x", ["a b c d"], max_order=1) == pytest.approx(80.0)

    def test_closest_reference_length_wins(self):
        # candidate length 2; reference lengths 2 and 4: the closer one
        # sets the brevity penalty, so there is none
        assert sentence_bleu("a b", ["a b", "a b c d"], max_order=1) == pytest.approx(100.0)

    def test_length_ties_prefer_the_shorter_reference(self):
        # lengths 1 and 3 are both one away from 2; the shorter wins and
        # no penalty applies
        score = sentence_bleu("a b", ["a", "a b c"], max_order=1)
        assert score == pytest.approx(100.0)

    def test_empty_cases_are_zero(self):
        assert sentence_bleu("", ["a"]) == 0.0
        assert sentence_bleu("a", []) == 0.0
        assert sentence_bleu("a", [""]) == 0.0

    def test_reference_order_does_not_matter(self):
        refs = ["a b c", "c b a", "b b b"]
        assert sentence_bleu("a b", refs) == sentence_bleu("a b", list(reversed(refs)))


class TestAgainstReference:
    """The one-pass scores equal the quadratic reference exactly."""

    @settings(max_examples=400, deadline=None)
    @given(TEXT_SETS, MAX_ORDER)
    def test_self_bleu(self, texts, max_order):
        assert self_bleu(texts, max_order) == reference.self_bleu(texts, max_order)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(TEXT, st.lists(TEXT, max_size=4)), max_size=8)
        .flatmap(lambda pairs: st.lists(st.sampled_from(pairs), max_size=12) if pairs
                 else st.just([])),
        MAX_ORDER,
    )
    def test_corpus_bleu(self, pairs, max_order):
        # drawing pairs from a pool repeats reference lists, as a table's
        # statements do
        assert corpus_bleu(pairs, max_order) == reference.corpus_bleu(pairs, max_order)

    @settings(max_examples=300, deadline=None)
    @given(TEXT, st.lists(TEXT, max_size=5), MAX_ORDER)
    def test_sentence_bleu(self, candidate, references, max_order):
        assert sentence_bleu(candidate, references, max_order) == (
            reference.sentence_bleu(candidate, references, max_order)
        )


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
    def test_mean_of_sentence_scores(self):
        pairs = [("a b", ["a b"]), ("x y", ["p q"])]
        expected = (sentence_bleu("a b", ["a b"]) + sentence_bleu("x y", ["p q"])) / 2
        assert corpus_bleu(pairs) == pytest.approx(expected)

    def test_empty_is_none(self):
        assert corpus_bleu([]) is None


class TestDistinctN:
    def test_token_denominator(self):
        # one distinct bigram over four tokens
        assert distinct_n(["a b", "a b"], 2) == pytest.approx(0.25)

    def test_all_distinct(self):
        # two distinct bigrams over four tokens
        assert distinct_n(["a b", "c d"], 2) == pytest.approx(0.5)

    def test_no_tokens_is_none(self):
        assert distinct_n([], 2) is None
        assert distinct_n(["", "  "], 2) is None

    def test_duplicates_lower_the_score(self):
        varied = distinct_n(["a b c", "d e f"], 2)
        repeated = distinct_n(["a b c", "a b c"], 2)
        assert repeated < varied


class TestSelfBleu:
    def test_identical_texts_score_100(self):
        assert self_bleu(["same line here ok"] * 5) == pytest.approx(100.0)

    def test_fewer_than_two_is_none(self):
        assert self_bleu([]) is None
        assert self_bleu(["just one"]) is None

    def test_diverse_texts_score_lower(self):
        diverse = self_bleu(["alpha beta gamma", "delta epsilon zeta", "eta theta iota"])
        assert diverse < 50.0


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
        from loft.pipeline import run_pipeline

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
