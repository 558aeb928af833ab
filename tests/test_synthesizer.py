"""Synthesis of verify-true candidate forms from weighted templates."""

import random

import pytest

from loft import Table, default_distribution, verify
from loft.executor import K_BOOL
from loft.forms import referenced_columns
from loft.synthesizer import (
    ATTEMPT_BUDGET_FACTOR,
    _Attempt,
    derive_column_sets,
    instantiate,
    sample_template,
    synthesize_candidates,
    table_rng,
)
from loft.tables import NUMERIC, normalize_cell
from loft.templates import abstract, parse_template

from .oracle import oracle_execute


@pytest.fixture(scope="module")
def small_batch(bundled_corpus):
    """One synthesis run per bundled table, shared by the checks below."""
    dist = default_distribution()
    results = []
    for entry in bundled_corpus:
        sets = [list(s) for s in entry.selected_column_sets] or None
        results.append(synthesize_candidates(entry.table, sets, dist, seed=13, candidates=6))
    return results


class TestSoundness:
    def test_every_candidate_verifies_on_both_routes(self, small_batch):
        checked = 0
        for result in small_batch:
            for cand in result.candidates:
                assert verify(cand.form, cand.table) is True
                cross = oracle_execute(cand.form, cand.table)
                assert cross.kind == K_BOOL and cross.value is True
                checked += 1
        assert checked >= 100

    def test_candidates_only_touch_their_column_set(self, small_batch):
        for result in small_batch:
            for cand in result.candidates:
                allowed = {cand.table.headers[i] for i in cand.column_set}
                assert set(referenced_columns(cand.form)) <= allowed

    def test_candidate_forms_stay_inside_the_distribution(self, small_batch):
        canonicals = {e.template.canonical() for e in default_distribution().entries}
        for result in small_batch:
            for cand in result.candidates:
                assert abstract(cand.form).canonical() in canonicals

    def test_no_duplicate_forms_per_column_set(self, small_batch):
        from loft import print_logic_form

        for result in small_batch:
            for res in result.per_set:
                texts = [cand.logic_form for cand in res.forms]
                assert texts == [print_logic_form(cand.form) for cand in res.forms]
                assert len(texts) == len(set(texts))

    def test_category_comes_from_the_root_function(self, small_batch):
        from loft.catalog import CATALOG

        for result in small_batch:
            for cand in result.candidates:
                assert cand.category == CATALOG[cand.form.name].category


class TestDeterminism:
    def test_same_seed_same_forms(self, bundled_corpus):
        from loft import print_logic_form

        dist = default_distribution()

        def snapshot():
            out = []
            for entry in bundled_corpus[:4]:
                result = synthesize_candidates(entry.table, None, dist, seed=21, candidates=5)
                out.append([print_logic_form(c.form) for c in result.candidates])
            return out

        assert snapshot() == snapshot()

    def test_seed_changes_the_output(self, bundled_corpus):
        from loft import print_logic_form

        dist = default_distribution()
        table = bundled_corpus[0].table

        def forms_for(seed):
            result = synthesize_candidates(table, None, dist, seed=seed, candidates=8)
            return [print_logic_form(c.form) for c in result.candidates]

        assert forms_for(13) != forms_for(14)

    def test_table_rng_is_stable_and_salted(self):
        a = table_rng(13, "t1").random()
        assert a == table_rng(13, "t1").random()
        assert a != table_rng(13, "t2").random()
        assert a != table_rng(13, "t1", salt="sample").random()
        assert a != table_rng(14, "t1").random()


class TestInstantiate:
    def count_template(self):
        return parse_template(
            "COMPARE_EQ { count { FILTER_EQ { all_rows ; COL_1 ; OBJ_1 } } ; OBJ_2 }"
        )

    def test_count_comparisons_hold_under_the_cross_check(self, mt):
        rng = random.Random(5)
        template = self.count_template()
        produced = 0
        for _ in range(50):
            form = instantiate(template, mt, [0, 1], rng)
            if form is None:
                continue
            got = oracle_execute(form, mt)
            assert got.value is True
            produced += 1
        assert produced >= 40

    def test_instantiation_round_trips_through_abstraction(self, mt):
        rng = random.Random(7)
        for entry in default_distribution().entries:
            for _ in range(10):
                form = instantiate(entry.template, mt, [0, 1], rng)
                if form is not None:
                    assert abstract(form).canonical() == entry.template.canonical()

    def test_non_boolean_template_yields_nothing(self, mt):
        rng = random.Random(3)
        template = parse_template("FILTER_EQ { all_rows ; COL_1 ; OBJ_1 }")
        assert instantiate(template, mt, [0, 1], rng) is None

    def test_more_placeholders_than_columns_yields_nothing(self, mt):
        rng = random.Random(3)
        template = parse_template(
            "COMPARE_EQ { hop { SUPER_ARG { all_rows ; COL_1 } ; COL_2 } ; OBJ_1 }"
        )
        assert instantiate(template, mt, [1], rng) is None

    def test_single_cell_table_still_yields_candidates(self):
        table = Table.from_strings("one", "one", ["wins"], [["7"]])
        result = synthesize_candidates(table, None, default_distribution(), seed=13, candidates=3)
        assert len(result.candidates) >= 1
        for cand in result.candidates:
            assert verify(cand.form, table)

    def test_ordinal_ranks_stay_within_usable_values(self, bundled_corpus):
        from loft.catalog import CATALOG, ORD
        from loft.forms import Apply, walk

        dist = default_distribution()
        seen_rank = False
        for entry in bundled_corpus:
            result = synthesize_candidates(entry.table, None, dist, seed=3, candidates=10)
            for cand in result.candidates:
                for node in walk(cand.form):
                    if not isinstance(node, Apply):
                        continue
                    for arg, arg_type in zip(node.args, CATALOG[node.name].arg_types):
                        if arg_type == ORD:
                            rank = int(arg.text)
                            assert 1 <= rank <= entry.table.n_rows
                            seen_rank = True
        assert seen_rank


def test_distinct_cells_use_the_executors_text_equality():
    # eq treats these two cells as one value, so the pools must as well
    cells = [normalize_cell("a  b"), normalize_cell("A B"), normalize_cell("c")]
    assert _Attempt._distinct(cells) == [(None, "a  b"), (None, "c")]


class TestColumnSets:
    def test_all_sets_small_and_distinct(self, bundled_corpus):
        rng = random.Random(1)
        for entry in bundled_corpus:
            table = entry.table
            sets = derive_column_sets(table, rng)
            assert 1 <= len(sets) <= 4
            assert len(sets) == len(set(sets))
            for s in sets:
                assert len(s) in ((1,) if len(table.headers) == 1 else (2, 3))
                assert all(0 <= c < len(table.headers) for c in s)

    def test_sets_include_a_numeric_column_when_present(self, bundled_corpus):
        rng = random.Random(2)
        for entry in bundled_corpus:
            table = entry.table
            numeric = {i for i, t in enumerate(table.column_types) if t == NUMERIC}
            if not numeric:
                continue
            for s in derive_column_sets(table, rng):
                assert set(s) & numeric

    def test_single_column_table(self):
        table = Table.from_strings("one", "one", ["only col"], [["1"], ["2"]])
        assert derive_column_sets(table, random.Random(0)) == [(0,)]


class TestShortfalls:
    def test_impossible_target_is_reported(self, caplog):
        # a one-row all-text table cannot satisfy numeric templates at all
        table = Table.from_strings("tiny", "tiny", ["a", "b"], [["x", "y"]])
        dist = default_distribution()
        with caplog.at_level("WARNING", logger="loft.synthesizer"):
            result = synthesize_candidates(table, [(0, 1)], dist, seed=13, candidates=50)
        res = result.per_set[0]
        assert res.shortfall > 0
        assert res.attempts == ATTEMPT_BUDGET_FACTOR * 50
        assert result.shortfalls == [res]
        assert "candidates after" in caplog.text

    def test_config_validation(self):
        with pytest.raises(ValueError):
            synthesize_candidates(Table.from_strings("t", "t", ["a"], [["1"]]), None,
                                  default_distribution(), seed=13, candidates=0)


def test_sample_template_follows_weights():
    from loft.templates import TemplateDistribution, WeightedTemplate

    heavy = WeightedTemplate(parse_template("only { all_rows }"), 0.9)
    light = WeightedTemplate(parse_template("count { all_rows }"), 0.1)
    dist = TemplateDistribution(entries=(heavy, light))
    rng = random.Random(0)
    draws = [sample_template(dist, rng).canonical() for _ in range(2000)]
    share = draws.count("only { all_rows }") / len(draws)
    assert 0.87 <= share <= 0.93
