"""Synthesis of verify-true candidate forms from weighted templates."""

import gc
import hashlib
import json
import math
import random
import re
import weakref
from itertools import accumulate
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loft.executor
import loft.synthesizer
from loft import CorpusEntry, Table, default_distribution, run_pipeline, verify
from loft.catalog import GROUP_SIGNATURES, OBJECT, ORD
from loft.cli import main
from loft.errors import LoftError, ParseError
from loft.executor import apply, as_object, kept_rows
from loft.forms import parse_logic_form, print_logic_form, referenced_columns
from loft.synthesizer import (
    ATTEMPT_BUDGET_FACTOR,
    _Fail,
    _Grounding,
    _ViewIndex,
    derive_column_sets,
    sample_template,
    synthesize_candidates,
    table_rng,
)
from loft.tables import EMPTY, NUMERIC, TEXT, CellValue, normalize_cell
from loft.templates import (
    TemplateDistribution, WeightedTemplate, abstract, parse_template, weigh_templates,
)

from .generators import random_table
from .oracle import oracle_execute, oracle_step


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
                assert oracle_execute(cand.form, cand.table) is True
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
                assert abstract(cand.form) in canonicals

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
        grounding = _Grounding(mt, random.Random(5))
        template = self.count_template()
        produced = 0
        for _ in range(50):
            grounded = grounding.instantiate(template, [0, 1])
            if grounded is None:
                continue
            form, text = grounded
            assert text == print_logic_form(form)
            assert oracle_execute(form, mt) is True
            produced += 1
        assert produced >= 40

    def test_instantiation_round_trips_through_abstraction(self, mt):
        grounding = _Grounding(mt, random.Random(7))
        for entry in default_distribution().entries:
            for _ in range(10):
                grounded = grounding.instantiate(entry.template, [0, 1])
                if grounded is not None:
                    form, _ = grounded
                    assert abstract(form) == entry.template.canonical()

    def test_non_boolean_template_is_refused(self):
        with pytest.raises(ParseError, match="FILTER_EQ returns type view where type bool") as exc:
            parse_template("FILTER_EQ { all_rows ; COL_1 ; OBJ_1 }")
        assert exc.value.offset == 0

    def test_more_placeholders_than_columns_yields_nothing(self, mt):
        template = parse_template(
            "COMPARE_EQ { hop { SUPER_ARG { all_rows ; COL_1 } ; COL_2 } ; OBJ_1 }"
        )
        assert _Grounding(mt, random.Random(3)).instantiate(template, [1]) is None

    def test_a_tiny_computed_number_grounds_in_positional_notation(self):
        # avg is 5e-05, whose repr would read back as 5
        table = Table.from_strings("tiny", "tiny", ["item", "p"], [["x", "0.00004"],
                                                                   ["y", "0.00006"]])
        dist = weigh_templates(
            [parse_template("COMPARE_EQ { AGGREGATION { all_rows ; COL_1 } ; OBJ_1 }")], "test")
        result = synthesize_candidates(table, [(0, 1)], dist, seed=0, candidates=4)
        assert "eq { avg { all_rows ; p } ; 0.00005 }" in [c.logic_form for c in result.candidates]

    def test_a_huge_computed_number_is_stated_as_itself(self, tmp_path):
        # the total is 1.7e16, whose repr "1.7e+16" would read as 1.7
        table = Table.from_strings("huge", "huge", ["item", "bytes"], [
            ["a", "6000000000000000"], ["b", "4000000000000000"], ["c", "7000000000000000"]])
        dist = weigh_templates([parse_template(text) for text in (
            "COMPARE_EQ { AGGREGATION { all_rows ; COL_1 } ; OBJ_1 }",
            "COMPARE_GT { AGGREGATION { all_rows ; COL_1 } ; OBJ_1 }")], "test")
        out = tmp_path / "out.jsonl"
        report = run_pipeline([CorpusEntry(table=table)], out, dist, k=5, seed=0)
        statements = json.loads(out.read_text(encoding="utf-8"))["statements"]
        assert statements and report.execution_faithfulness == 1.0
        for statement in statements:
            # the literal as a reader takes it is the value the executor compared
            literal = parse_logic_form(statement["logic_form"]).args[1].text
            assert float(literal) == normalize_cell(literal).number, statement["text"]

    def test_a_huge_compared_number_gets_every_comparison(self):
        # above 2**53 the float spacing exceeds 1, so num + 1 can be num itself
        table = Table.from_strings("huge", "huge", ["item", "bytes"], [
            ["a", "6000000000000000"], ["b", "4000000000000000"], ["c", "7000000000000000"]])
        dist = weigh_templates([parse_template(text) for text in (
            "COMPARE_EQ { AGGREGATION { all_rows ; COL_1 } ; OBJ_1 }",
            "COMPARE_GT { AGGREGATION { all_rows ; COL_1 } ; OBJ_1 }")], "test")
        result = synthesize_candidates(table, [(1,)], dist, seed=0, candidates=8)
        forms = [cand.form for cand in result.candidates]
        assert {(form.name, form.args[0].name) for form in forms} == {
            (member, agg) for member in ("eq", "not_eq", "greater", "less")
            for agg in ("sum", "avg")}
        for form in forms:
            value, literal = loft.executor.execute(form.args[0], table), form.args[1].number
            assert (literal == value) == (form.name == "eq"), print_logic_form(form)
            assert verify(form, table)

    def test_huge_majority_extremes_stay_outside_the_column(self):
        # above 2**53 a step of 1 is below the float spacing, so the least
        # number - 1 and the greatest + 1 would read back as themselves
        table = Table.from_strings("huge", "huge", ["bytes"], [
            ["100000000000000000"], ["200000000000000000"], ["300000000000000000"]])
        grounding = _Grounding(table, random.Random(0))
        pools = {member: grounding.pools[member, 0, grounding.all_rows, False]
                 for member in ("all_greater", "all_less")}
        assert pools == {"all_greater": ["99999999999999980"],
                         "all_less": ["300000000000000060"]}
        for member, pool in pools.items():
            for text in pool:
                assert verify(parse_logic_form(f"{member} {{ all_rows ; bytes ; {text} }}"), table)

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


@pytest.mark.parametrize("skeleton", [
    # a computed object (a count) meets a free COMPARE_GT object
    "COMPARE_GT { OBJ_1 ; count { FILTER_EQ { all_rows ; COL_1 ; OBJ_2 } } }",
    "COMPARE_GT { AGGREGATION { all_rows ; COL_1 } ; OBJ_1 }",
    "only { filter_all { FILTER_EQ { all_rows ; COL_1 ; OBJ_1 } ; COL_2 } }",
    # OBJ_2 is bound by the first comparison and shared by the second
    "and { COMPARE_EQ { hop { FILTER_EQ { all_rows ; COL_1 ; OBJ_1 } ; COL_2 } ; OBJ_2 } ;"
    " COMPARE_EQ { hop { FILTER_EQ { all_rows ; COL_1 ; OBJ_3 } ; COL_2 } ; OBJ_2 } }",
    # ORD_1 is bound by the first ordinal and shared by the second
    "COMPARE_EQ { ORDINAL { all_rows ; COL_1 ; ORD_1 } ; ORDINAL { all_rows ; COL_2 ; ORD_1 } }",
    # a computed majority object
    "MAJORITY_ALL_GT { all_rows ; COL_1 ; AGGREGATION { all_rows ; COL_1 } }",
    # a ranked row (nth_argmax / nth_argmin) under a hop
    "COMPARE_EQ { hop { ORD_ARG { all_rows ; COL_1 ; ORD_1 } ; COL_2 } ; OBJ_1 }",
    # the difference of two computed values
    "COMPARE_EQ { diff { hop { FILTER_EQ { all_rows ; COL_1 ; OBJ_1 } ; COL_2 } ;"
    " hop { FILTER_EQ { all_rows ; COL_1 ; OBJ_2 } ; COL_2 } } ; OBJ_3 }",
], ids=["gt-count", "gt-aggregate", "filter-all", "shared-obj", "shared-ord",
        "computed-majority-obj", "ord-arg", "diff"])
def test_each_grounding_branch_yields_sound_candidates(bundled_corpus, skeleton):
    dist = TemplateDistribution(entries=(WeightedTemplate(parse_template(skeleton), 1.0),))
    produced = 0
    for entry in bundled_corpus:
        result = synthesize_candidates(entry.table, None, dist, seed=1, candidates=3)
        for cand in result.candidates:
            produced += 1
            assert verify(cand.form, cand.table) is True, cand.logic_form
            allowed = {cand.table.headers[i] for i in cand.column_set}
            assert set(referenced_columns(cand.form)) <= allowed, cand.logic_form
    assert produced >= 1


class TestGroundingRefusals:
    """Draws that grounding refuses before a form is printed: nothing
    raises, and every form that reaches verify holds."""

    @pytest.fixture
    def answers(self, monkeypatch):
        """Each answer synthesis gets from verify, in order."""
        seen = []

        def recording(form, table):
            seen.append(verify(form, table))
            return seen[-1]

        monkeypatch.setattr(loft.synthesizer, "verify", recording)
        return seen

    def test_all_and_most_over_an_empty_view(self, tmp_path, answers):
        # a computed object binds without a pool, so only the empty view stops it
        table = Table.from_strings("empty", "empty", ["team"], [])
        dist = TemplateDistribution(entries=tuple(
            WeightedTemplate(parse_template(s), 0.25) for s in (
                "MAJORITY_ALL_EQ { all_rows ; COL_1 ; count { all_rows } }",
                "MAJORITY_MOST_EQ { all_rows ; COL_1 ; count { all_rows } }",
                "MAJORITY_ALL_EQ { all_rows ; COL_1 ; OBJ_1 }",
                "COMPARE_EQ { count { all_rows } ; OBJ_1 }",
            )))
        out = tmp_path / "out.jsonl"
        report = run_pipeline([CorpusEntry(table)], out, dist, k=5, candidates=5)
        assert answers and all(answers)
        statements = json.loads(out.read_text("utf-8"))["statements"]
        assert report.sampled == len(statements) >= 1
        for statement in statements:
            assert statement["category"] == "comparative"
            assert verify(statement["logic_form"], table) is True

    @pytest.mark.parametrize("group, forms", [("round_eq", 4), ("COMPARE_GT", 8)])
    def test_a_compared_cell_with_no_number(self, group, forms, answers):
        # the score column is numeric, but rows e and f hold a text and an
        # empty cell; asking for more forms than the four numeric rows give
        # spends the whole attempt budget
        table = Table.from_strings("mixed", "mixed", ["name", "score"], [
            ["a", "3"], ["b", "5"], ["c", "7"], ["d", "9"], ["e", "x"], ["f", "-"]])
        skeleton = f"{group} {{ hop {{ FILTER_EQ {{ all_rows ; COL_1 ; OBJ_1 }} ; COL_2 }} ; OBJ_2 }}"
        dist = TemplateDistribution(entries=(WeightedTemplate(parse_template(skeleton), 1.0),))
        result = synthesize_candidates(table, [(0, 1)], dist, seed=5, candidates=10)
        assert len(result.candidates) == forms
        assert answers and all(answers)
        for cand in result.candidates:
            assert verify(cand.form, table) is True, cand.logic_form
            assert "name ; e }" not in cand.logic_form and "name ; f }" not in cand.logic_form


def _distinct(cells):
    """The reference distinct values: each non-empty cell that the executor's
    eq does not match with a cell kept before it, in order."""
    kept = []
    for cell in cells:
        if cell.kind != EMPTY and not any(loft.executor._equal(cell, k) for k in kept):
            kept.append(cell)
    return kept


def test_distinct_cells_use_the_executors_text_equality():
    # eq treats "a  b" and "A B" as one value, and "5" and "5.0", so the
    # pools must as well
    texts = ["a  b", "A B", "c", "-", "5", "5.0", "c"]
    table = Table.from_strings("t", "t", ["c"], [[t] for t in texts])
    index = _ViewIndex(table, 0, tuple(range(table.n_rows)))
    cells = [row[0] for row in table.rows]
    assert index.distinct == _distinct(cells) == [cells[0], cells[2], cells[4]]


OPS = ("eq", "not_eq", "greater", "less", "greater_eq", "less_eq")
# empty markers, numbers with trailing text, percentages, thousands commas,
# signed zeros, case and whitespace variants of one word, and a number too
# large for a float, whose extremes print as "inf"/"-inf"
CELL_TEXTS = st.one_of(
    st.sampled_from([
        "", "-", "n/a", "N/A", "5 (x)", "5", "5.0", "12%", "12", "1,000", "1000",
        "0", "-0", "0.0", "-2.5", "alpha", "Alpha", " ALPHA ", "a  b", "A B", "a b",
        "inf", "-inf", "1" + "0" * 400, "-" + "9" * 400,
    ]),
    st.text(alphabet=" aAbB019-.,%()", max_size=6),
)


def _majority_pool(view, column):
    """The majority pool as the synthesizer builds it, before deduplication:
    view values, column values, then the synthetic extremes one step (1, or
    the float spacing where that is larger) below the least number and
    above the greatest."""
    pool = _distinct(view) + _distinct(column)
    numbers = [obj.number for obj in pool if obj.number is not None]
    if numbers:
        low, high = min(numbers), max(numbers)
        pool += [as_object(low - max(1.0, math.ulp(low))),
                 as_object(high + max(1.0, math.ulp(high)))]
    return pool


def _scan(op, rows, obj, table):
    """The rows of column 0 a filter with comparator op keeps against obj,
    by the tests' own per-cell scan."""
    return oracle_step("filter_" + op, (rows, 0, obj), table)


class TestPoolCounts:
    """Candidate pools count hits from one index of the view; the counts and
    the pools must match a per-cell scan for each value, and so must the
    executor's filter rule."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(CELL_TEXTS, max_size=12), st.lists(CELL_TEXTS, max_size=6))
    # the extreme above 1e400 reads as inf and prints as the text cell "inf"
    @example(["inf", "1" + "0" * 400], [])
    # an object with no number meets a number cell by its text alone
    @example(["5", "5 (x)"], ["5"])
    def test_counts_match_a_predicate_scan(self, view_texts, other_texts):
        table = Table.from_strings("t", "t", ["c"], [[t] for t in view_texts])
        view, rows = [row[0] for row in table.rows], tuple(range(table.n_rows))
        pool = _majority_pool(view, view + [normalize_cell(t) for t in other_texts])
        # and objects with no numeric reading whatever their text, as the
        # executor is free to be given, and a computed NaN (inf - inf)
        pool += [CellValue(TEXT, t) for t in view_texts + other_texts]
        pool.append(as_object(float("inf") - float("inf")))
        index = _ViewIndex(table, 0, rows)
        assert index.distinct == _distinct(view)
        for op in OPS:
            expected = [_scan(op, rows, obj, table) for obj in pool]
            assert index.counts(op, pool) == [len(kept) for kept in expected], op
            for obj, kept in zip(pool, expected):
                assert tuple(kept_rows(op, rows, table, 0, obj)) == kept, (op, obj)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(CELL_TEXTS, min_size=1, max_size=12), st.data())
    def test_pools_match_a_predicate_scan(self, texts, data):
        table = Table.from_strings("t", "t", ["c"], [[t] for t in texts])
        rows = tuple(sorted(data.draw(st.sets(st.sampled_from(range(len(texts))), min_size=1))))
        grounding = _Grounding(table, random.Random(0))
        view = [table.rows[i][0] for i in rows]

        def kept(op, obj):
            return len(_scan(op, rows, obj, table))

        for op in OPS:
            for unique in (False, True):
                counts = [(obj.text, kept(op, obj)) for obj in _distinct(view)]
                expected = [text for text, n in counts if (n == 1 if unique else n >= 1)]
                got = grounding.pools["filter_" + op, 0, rows, unique]
                assert got == expected, (op, unique)
            for quantifier in ("all_", "most_"):
                expected, seen = [], set()
                for obj in _majority_pool(view, [row[0] for row in table.rows]):
                    if obj.text in seen:
                        continue
                    seen.add(obj.text)
                    n = kept(op, obj)
                    if n == len(view) if quantifier == "all_" else n * 2 > len(view):
                        expected.append(obj.text)
                got = grounding.pools[quantifier + op, 0, rows, False]
                assert got == expected, (quantifier + op)
            for obj in _majority_pool(view, [row[0] for row in table.rows]):
                got = apply("filter_" + op, (rows, 0, obj), table)
                assert got == _scan(op, rows, obj, table), (op, obj)


def _seeded_table(seed: int) -> Table:
    """48 rows of two numeric, two text and two mixed columns of seeded cells."""
    rng = random.Random(seed)
    words = ["alpha", "bravo", "carol", "delta", "echo", "fox", "golf", "hotel",
             "india", "jazz", "kilo", "lima", "metro", "nova", "oscar", "polar"]

    def cell(kind):
        if kind == "num":
            return str(rng.randint(0, 40)) if rng.random() < 0.4 else f"{rng.uniform(0, 100):.1f}"
        if kind == "text":
            return rng.choice(words)
        return rng.choice([str(rng.randint(0, 9)), rng.choice(words), "-",
                           f"{rng.randint(1, 5)} (x)", f"{rng.randint(10, 99)}%"])

    kinds = ["num", "text", "mixed", "num", "text", "mixed"]
    rows = [[cell(k) for k in kinds] for _ in range(48)]
    return Table.from_strings(f"wide{seed}", "wide", [f"c{j}" for j in range(6)], rows)


# 240 candidates when recorded.  Pins the synthesizer's draw order and
# grounding on wide tables with empty, percentage and "n (x)" cells; a
# deliberate output change must re-record it and say why in CHANGES.md.
WIDE_TABLES_SHA256 = "e9c3c45b6dea0a685d08469af88a6bfc43abb10e4f27bc14ced8cde1304324c8"


def test_synthesis_on_wide_mixed_tables_is_byte_stable(mined_distribution):
    digest = hashlib.sha256()
    for s in range(3):
        result = synthesize_candidates(
            _seeded_table(s), None, mined_distribution, seed=13, candidates=20
        )
        for cand in result.candidates:
            digest.update(f"{list(cand.column_set)} {cand.logic_form}\n".encode("utf-8"))
    assert digest.hexdigest() == WIDE_TABLES_SHA256


def _with_empty_cells(table: Table, share: float, seed: int) -> Table:
    """The table with about `share` of its cells replaced by the empty marker "-"."""
    rng = random.Random(seed)
    rows = [["-" if rng.random() < share else cell.text for cell in row] for row in table.rows]
    return Table.from_strings(table.table_id, table.title, list(table.headers), rows)


def _with_majority_all_gt(dist: TemplateDistribution) -> TemplateDistribution:
    """dist at half weight plus MAJORITY_ALL_GT at the other half: all_* draws
    over views with empty cells are the ones that fail most."""
    extra = WeightedTemplate(parse_template("MAJORITY_ALL_GT { all_rows ; COL_1 ; OBJ_1 }"), 0.5)
    halved = tuple(WeightedTemplate(e.template, e.weight / 2) for e in dist.entries)
    return TemplateDistribution(entries=halved + (extra,))


# 160 candidates when recorded, before grounding memoized its views and
# pools, which must change no byte.  Pins draws on a 48-row table with 2%
# and then 10% more empty cells, under a distribution where half the draws
# are all_greater: some ground at 2%, and at 10% every one is doomed.
EMPTY_CELLS_SHA256 = "654a2c30706cd38c060c88eaf02653b9c412d4dffd2785d36bcaf4be7632d5f8"


def test_synthesis_with_empty_cells_and_all_draws_is_byte_stable():
    dist = _with_majority_all_gt(default_distribution())
    digest = hashlib.sha256()
    for share in (0.02, 0.1):
        table = _with_empty_cells(_seeded_table(0), share, seed=1)
        result = synthesize_candidates(table, None, dist, seed=13, candidates=20)
        for cand in result.candidates:
            digest.update(f"{list(cand.column_set)} {cand.logic_form}\n".encode("utf-8"))
    assert digest.hexdigest() == EMPTY_CELLS_SHA256


# One template per grounding shape: every group, every computed-object
# position and every fail point a template that loads can reach, so a
# change to the order of draws or fails shows in the digest.
GROUNDING_SKELETONS = [
    "COMPARE_EQ { hop { ORD_ARG { all_rows ; COL_1 ; ORD_1 } ; COL_2 } ; OBJ_1 }",
    "COMPARE_GT { ORDINAL { FILTER_EQ { all_rows ; COL_1 ; OBJ_1 } ; COL_2 ; ORD_1 } ; OBJ_2 }",
    "only { filter_all { FILTER_EQ { all_rows ; COL_1 ; OBJ_1 } ; COL_2 } }",
    "COMPARE_EQ { count { FILTER_GE { all_rows ; COL_1 ; OBJ_1 } } ; OBJ_2 }",
    "only { FILTER_GT { all_rows ; COL_1 ; AGGREGATION { all_rows ; COL_1 } } }",
    "MAJORITY_MOST_GE { all_rows ; COL_1 ; hop { SUPER_ARG { all_rows ; COL_1 } ; COL_1 } }",
    "round_eq { OBJ_1 ; AGGREGATION { FILTER_EQ { all_rows ; COL_1 ; OBJ_2 } ; COL_2 } }",
    "MAJORITY_ALL_EQ { FILTER_GT { all_rows ; COL_1 ; OBJ_1 } ; COL_2 ; OBJ_2 }",
    "COMPARE_EQ { hop { FILTER_EQ { all_rows ; COL_1 ; OBJ_1 } ; COL_2 } ; OBJ_2 }",
    "and { COMPARE_GT { count { all_rows } ; OBJ_1 } ;"
    " only { FILTER_EQ { all_rows ; COL_1 ; OBJ_2 } } }",
    "and { COMPARE_EQ { hop { FILTER_EQ { all_rows ; COL_1 ; OBJ_1 } ; COL_2 } ; OBJ_2 } ;"
    " COMPARE_EQ { hop { FILTER_EQ { all_rows ; COL_1 ; OBJ_3 } ; COL_2 } ; OBJ_2 } }",
    "COMPARE_GT { diff { ORDINAL { all_rows ; COL_1 ; ORD_1 } ;"
    " ORDINAL { all_rows ; COL_1 ; ORD_2 } } ; OBJ_1 }",
    "COMPARE_EQ { OBJ_1 ; hop { ORD_ARG { FILTER_GT { all_rows ; COL_1 ; OBJ_2 } ;"
    " COL_2 ; ORD_1 } ; COL_3 } }",
]

# 1,114 forms when recorded, before templates were typed at load, which
# must change no byte of a distribution that still loads.
GROUNDING_SHA256 = "3497ff50f3eb0a01640521f8f694d3e195de63e29abbcedd48d2d18f89b9c86e"


def test_grounding_of_every_group_is_byte_stable():
    weight = 1 / len(GROUNDING_SKELETONS)
    dist = TemplateDistribution(entries=tuple(
        WeightedTemplate(parse_template(s), weight) for s in GROUNDING_SKELETONS))
    rng = random.Random(2020)
    tables = [random_table(rng) for _ in range(24)] + [_seeded_table(0)]
    digest = hashlib.sha256()
    for seed in (1, 2):
        for table in tables:
            for res in synthesize_candidates(table, None, dist, seed=seed, candidates=8).per_set:
                digest.update(f"{list(res.column_set)} {res.attempts}\n".encode("utf-8"))
                for cand in res.forms:
                    digest.update(f"{cand.logic_form}\n".encode("utf-8"))
    assert digest.hexdigest() == GROUNDING_SHA256


# Skeletons that parse but can never give a candidate, each refused where
# it loads.
REFUSED_SKELETONS = {
    "number-under-only": "only { count { all_rows } }",
    "number-under-and": "and { count { all_rows } ; only { all_rows } }",
    "object-operand-of-and":
        "and { COMPARE_EQ { count { all_rows } ; OBJ_1 } ; hop { all_rows ; COL_1 } }",
    "view-root": "FILTER_EQ { all_rows ; COL_1 ; OBJ_1 }",
    "view-compared": "COMPARE_EQ { FILTER_EQ { all_rows ; COL_1 ; OBJ_1 } ; OBJ_2 }",
    "bool-as-view": "count { only { all_rows } }",
    "free-obj-under-diff":
        "COMPARE_EQ { diff { hop { FILTER_EQ { all_rows ; COL_1 ; OBJ_1 } ; COL_2 } ; OBJ_2 } ;"
        " OBJ_3 }",
    "two-free-objects": "COMPARE_EQ { OBJ_1 ; OBJ_2 }",
}


@pytest.mark.parametrize("skeleton", REFUSED_SKELETONS.values(), ids=REFUSED_SKELETONS.keys())
def test_skeleton_that_cannot_ground_is_refused_at_load(tmp_path, capsys, skeleton):
    with pytest.raises(ParseError):
        parse_template(skeleton)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"table_id": "mt", "title": "mt", "header": ["team", "points"],
                                  "rows": [["a", "3"], ["b", "5"]]}) + "\n", encoding="utf-8")
    templates = tmp_path / "templates.json"
    templates.write_text(json.dumps({"entries": [{"skeleton": skeleton, "weight": 1.0}]}),
                         encoding="utf-8")
    code = main(["pipeline", "--corpus", str(corpus), "--templates", str(templates),
                 "--output", str(tmp_path / "out.jsonl")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {templates}: entry 0: ")


_RETURN_FITS = {"number": "object", "object": "object", "view": "view", "bool": "bool"}
# the leaves that fit each argument position
_TYPED_LEAVES = {"view": ["all_rows"], "header": ["COL_1", "COL_2"], "object": ["OBJ_1", "OBJ_2"],
                 "ordinal": ["ORD_1", "ORD_2"], "bool": []}
_ANY_LEAF = [leaf for leaves in _TYPED_LEAVES.values() for leaf in leaves]


@st.composite
def skeleton_nodes(draw, position, depth):
    """A skeleton node: a catalog group over nodes, a placeholder or
    all_rows, drawn from those that fit its position three times in four
    and from all of them otherwise."""
    typed = draw(st.integers(0, 3)) > 0
    groups = sorted(g for g, sig in GROUP_SIGNATURES.items()
                    if not typed or _RETURN_FITS[sig.return_type] == position)
    leaves = _TYPED_LEAVES[position] if typed else _ANY_LEAF
    if depth == 0 or not groups or (leaves and draw(st.booleans())):
        return draw(st.sampled_from(leaves or _ANY_LEAF))
    group = draw(st.sampled_from(groups))
    args = [draw(skeleton_nodes(arg_type, depth - 1))
            for arg_type in GROUP_SIGNATURES[group].arg_types]
    return f"{group} {{ {' ; '.join(args)} }}"


def _numbered_by_first_appearance(text):
    numbers: dict[str, str] = {}

    def renumber(match):
        kind = match.group(1)
        count = sum(key.startswith(kind) for key in numbers)
        return numbers.setdefault(match.group(0), f"{kind}_{count + 1}")

    return re.sub(r"(COL|OBJ|ORD)_[0-9]+", renumber, text)


SKELETON_TEXTS = skeleton_nodes("bool", 3).map(_numbered_by_first_appearance)


@settings(max_examples=150, deadline=None)
@given(SKELETON_TEXTS, st.integers(0, 2**32 - 1))
@example("COMPARE_EQ { AGGREGATION { all_rows ; count { all_rows } } ; OBJ_1 }", 0)
@example("COMPARE_EQ { ORDINAL { all_rows ; COL_1 ; count { all_rows } } ; OBJ_1 }", 0)
# two object and two rank placeholders of one column, which must differ
@example("and { only { FILTER_EQ { all_rows ; COL_1 ; OBJ_1 } } ;"
         " only { FILTER_EQ { all_rows ; COL_1 ; OBJ_2 } } }", 0)
@example("COMPARE_EQ { ORDINAL { all_rows ; COL_1 ; ORD_1 } ;"
         " ORDINAL { all_rows ; COL_1 ; ORD_2 } }", 1)
def test_any_skeleton_is_refused_at_load_or_grounds_only_true_forms(text, seed):
    try:
        template = parse_template(text)
    except LoftError:
        return
    rng = random.Random(seed)
    for _ in range(2):
        table = random_table(rng)
        columns = list(range(len(table.headers)))
        grounding = _Grounding(table, rng)
        for _ in range(2):
            grounded = grounding.instantiate(template, columns)
            if grounded is not None:
                form, printed = grounded
                assert printed == print_logic_form(form)
                assert verify(form, table) is True
                # each placeholder has one value, and no two of one position share one
                assert abstract(form) == template.canonical()


def test_grounding_memo_lives_for_one_call(monkeypatch):
    # one _Grounding serves each synthesize_candidates call; within it each
    # view index, shared hit count, majority-object list and object pool is
    # built once per key, and the next call builds every one again: nothing
    # is kept on the table or in the module between calls
    groundings = []

    def recording_init(self, *args, _real=_Grounding.__init__):
        groundings.append(self)
        _real(self, *args)

    monkeypatch.setattr(_Grounding, "__init__", recording_init)
    runs = []  # per call: (builder, key) -> each value it built
    # each builder's arguments before its memo key
    for name, skip in (("_ViewIndex", 1), ("_hits", 2), ("_majority_objects", 2), ("_pool", 1)):
        def recording(*args, _name=name, _skip=skip, _real=getattr(loft.synthesizer, name)):
            value = _real(*args)
            runs[-1].setdefault((_name,) + args[_skip:], []).append(value)
            return value

        monkeypatch.setattr(loft.synthesizer, name, recording)
    table = _seeded_table(0)
    def attributes_of(t):
        return {name: getattr(t, name) for name in Table.__slots__}

    attributes = attributes_of(table)
    dist = _with_majority_all_gt(default_distribution())
    for _ in range(2):
        runs.append({})
        synthesize_candidates(table, None, dist, seed=13, candidates=20)
    first, second = runs
    assert len(groundings) == 2
    assert [g.all_rows for g in groundings] == [tuple(range(table.n_rows))] * 2
    assert {key[0] for key in first} == {"_ViewIndex", "_hits", "_majority_objects", "_pool"}
    assert all(len(values) == 1 for run in runs for values in run.values())
    assert second.keys() == first.keys()
    assert all(second[key][0] is not values[0] for key, values in first.items())
    assert attributes_of(table).keys() == attributes.keys()
    assert all(attributes_of(table)[k] is v for k, v in attributes.items())


def test_a_grounding_is_freed_when_its_call_returns(monkeypatch):
    # no memo builder holds the grounding, so no reference cycle keeps it
    # alive until a cyclic collection: with gc off it still dies with its call
    groundings = []

    def recording_init(self, *args, _real=_Grounding.__init__):
        groundings.append(weakref.ref(self))
        _real(self, *args)

    monkeypatch.setattr(_Grounding, "__init__", recording_init)
    dist = _with_majority_all_gt(default_distribution())
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = synthesize_candidates(_seeded_table(0), None, dist, seed=13, candidates=20)
        (grounding,) = groundings
        assert result.candidates and grounding() is None
    finally:
        if enabled:
            gc.enable()


def _rng_stream_digest(monkeypatch, table, dist):
    """A digest of the table's generator state after synthesis and of each
    column set's attempt count: it moves with any draw, even one whose
    candidate list happens to stay the same."""
    generators = []

    def capturing(*args, _real=table_rng):
        generators.append(_real(*args))
        return generators[-1]

    monkeypatch.setattr(loft.synthesizer, "table_rng", capturing)
    result = synthesize_candidates(table, None, dist, seed=13, candidates=20)
    (rng,) = generators
    digest = hashlib.sha256(repr(rng.getstate()).encode("utf-8"))
    for res in result.per_set:
        digest.update(f"{list(res.column_set)} {res.attempts}\n".encode("utf-8"))
    return digest.hexdigest()


# Recorded before the per-call column plans and the copy-free binds, which
# must move no draw.
RNG_STREAM_SHA256 = {
    "wide-default": "ca0581d7e9815d57e92926e953d49b617d3ecd4bf1e71ef5920d4b2f00e14703",
    "wide-all-greater": "9392d270faa0016189460a41aa2fa18256349bfc32bc5cdd42daf6d669599381",
    "bundled": "2dd1f07082f9ca5787fbc39fc68b34fe22b62f8ef8d9f178942afb76472e7a1a",
}


@pytest.mark.parametrize("case", RNG_STREAM_SHA256)
def test_the_synthesis_rng_stream_is_pinned(monkeypatch, bundled_corpus, case):
    dist = default_distribution()
    if case == "bundled":
        table = bundled_corpus[0].table
    else:
        table = _seeded_table(0)
        if case == "wide-all-greater":
            dist = _with_majority_all_gt(dist)
    assert _rng_stream_digest(monkeypatch, table, dist) == RNG_STREAM_SHA256[case]


def _bind_by_filtered_copy(bound, index, pool, rng):
    """The binding rule as a draw from a filtered copy of the pool: the
    value bound, else one drawn among the values no other placeholder
    holds; None when there is none."""
    if index in bound:
        return bound[index]
    taken = set(bound.values())
    candidates = [v for v in pool if v not in taken]
    if not candidates:
        return None
    bound[index] = rng.choice(candidates)
    return bound[index]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "c", "d", "e", "5", "7"]), unique=True),
       st.dictionaries(st.integers(1, 4), st.sampled_from(["a", "b", "c", "5", "x"]), max_size=3),
       st.integers(1, 4), st.integers(0, 12), st.integers(0, 2**32 - 1))
def test_bind_draws_what_a_draw_from_the_filtered_copy_draws(pool, bound, index, ranks, seed):
    # objects from a pool list, and ranks from a range, with or without
    # other placeholders of the position already bound
    grounding = _Grounding(Table.from_strings("t", "t", ["c"], [["1"]]), random.Random(seed))
    reference = random.Random(seed)
    rank_bound = {i: 1 + len(v) % 4 for i, v in bound.items()}
    grounding.bound = {OBJECT: dict(bound), ORD: dict(rank_bound)}
    for position, options, expected_bound in (
        (OBJECT, pool, dict(bound)), (ORD, range(1, ranks + 1), dict(rank_bound)),
    ):
        expected = _bind_by_filtered_copy(expected_bound, index, options, reference)
        try:
            got = grounding.bind(position, index, lambda options=options: options)
        except _Fail:
            got = None
        assert got == expected, position
        assert grounding.bound[position] == expected_bound, position
    assert grounding.rng.getstate() == reference.getstate()


def _columns_by_per_draw_list(table, needs, columns, rng):
    """Column assignment as a per-draw list: for each placeholder in index
    order, a draw among the unused columns of the set, numeric ones where
    it needs one; None when one has no column left."""
    assign, used = {}, set()
    for idx in sorted(needs):
        eligible = [c for c in columns
                    if c not in used and (not needs[idx] or table.column_types[c] == NUMERIC)]
        if not eligible:
            return None
        assign[idx] = rng.choice(eligible)
        used.add(assign[idx])
    return assign


@settings(max_examples=300, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=6),
       st.dictionaries(st.integers(1, 4), st.booleans(), max_size=4),
       st.data(), st.integers(0, 2**32 - 1))
def test_the_column_plan_draws_what_a_per_draw_list_draws(numeric, needs, data, seed):
    # a column set of a table whose columns are numeric or text, drawn from
    # one precomputed plan for several draws in a row
    rows = [[str(i + j) if kind else f"w{i + j}" for j, kind in enumerate(numeric)]
            for i in range(3)]
    table = Table.from_strings("t", "t", [f"c{j}" for j in range(len(numeric))], rows)
    assert [t == NUMERIC for t in table.column_types] == numeric
    columns = data.draw(st.lists(st.sampled_from(range(len(numeric))), unique=True))
    grounding = _Grounding(table, random.Random(seed))
    plan = grounding._column_plan(needs, columns)
    reference = random.Random(seed)
    for _ in range(4):
        expected = _columns_by_per_draw_list(table, needs, columns, reference)
        try:
            got = grounding._assign_columns(plan)
        except _Fail:
            got = None
        assert got == expected
    assert grounding.rng.getstate() == reference.getstate()


# rows the filter rule scans for one table: 8,640 when recorded (the
# verify steps' 3,648 plus synthesis's own filter steps); a scan per pool
# value made 293,472
CALL_BOUND = 10_000


def test_row_predicate_calls_per_table_stay_pinned(monkeypatch):
    # Pools are counted from one index of the view, so the only rows the
    # filter rule scans are those of the executor's own filter and
    # majority steps.
    calls = 0

    def counting(op, rows, *args):
        nonlocal calls
        calls += len(rows)
        return kept_rows(op, rows, *args)

    monkeypatch.setattr(loft.executor, "kept_rows", counting)
    result = synthesize_candidates(
        _seeded_table(0), None, default_distribution(), seed=13, candidates=20
    )
    assert len(result.candidates) >= 60
    assert 0 < calls <= CALL_BOUND


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
    heavy = WeightedTemplate(parse_template("only { all_rows }"), 0.9)
    light = WeightedTemplate(parse_template("COMPARE_EQ { count { all_rows } ; OBJ_1 }"), 0.1)
    dist = TemplateDistribution(entries=(heavy, light))
    rng = random.Random(0)
    draws = [sample_template(dist, rng).canonical() for _ in range(2000)]
    share = draws.count("only { all_rows }") / len(draws)
    assert 0.87 <= share <= 0.93


def _linear_scan_draw(dist, rng):
    """The reference draw: the first entry whose running weight sum reaches
    the point, scanned one entry at a time."""
    total = sum(e.weight for e in dist.entries)
    point = rng.random() * total
    acc = 0.0
    for entry in dist.entries:
        acc += entry.weight
        if point <= acc:
            return entry.template
    return dist.entries[-1].template


WEIGHTS = st.one_of(st.just(0.0), st.sampled_from([0.1, 0.2, 0.3, 0.7, 1 / 3, 1e-9]),
                    st.floats(0.0, 1.0))


@settings(max_examples=100, deadline=None)
@given(st.lists(WEIGHTS, min_size=1, max_size=10), st.integers(0, 2**32 - 1))
@example([0.0, 0.5, 0.0, 0.5, 0.0], 0)
@example([1.0], 0)
@example([0.1] * 10, 0)  # sums to 0.9999999999999999
@example([0.0, 0.0], 0)
def test_sample_template_picks_what_a_linear_scan_picks(weights, seed):
    # entries stand for templates by their index; zero weights, which a
    # TemplateDistribution refuses, must still never be picked differently
    dist = SimpleNamespace(entries=tuple(WeightedTemplate(i, w) for i, w in enumerate(weights)),
                           running=tuple(accumulate(weights)), total=sum(weights))
    fast, reference = random.Random(seed), random.Random(seed)
    for _ in range(300):
        assert sample_template(dist, fast) == _linear_scan_draw(dist, reference)
