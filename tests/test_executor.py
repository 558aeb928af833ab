"""Evaluator semantics: hand-computed values, edge cases, and identities.

The mt fixture is:  team=[a, b, c]  points=[3, 5, 2].
"""

import random

import pytest

from loft import (
    Apply,
    EmptyViewError,
    NonNumericError,
    RankRangeError,
    Table,
    TypeCheckError,
    ViewSizeError,
    execute,
    parse_logic_form,
    type_check,
    verify,
)
from loft.executor import ExecValue, K_BOOL, K_NUMBER, apply, number_text

from .generators import outcome, random_form, random_table


def run(text, table):
    return execute(parse_logic_form(text), table)


class TestHandValues:
    def test_count_all(self, mt):
        assert run("count { all_rows }", mt).value == 3.0

    def test_count_filtered(self, mt):
        assert run("count { filter_eq { all_rows ; team ; a } }", mt).value == 1.0

    def test_hop_argmax(self, mt):
        got = run("hop { argmax { all_rows ; points } ; team }", mt)
        assert got.kind == "object"
        assert got.value.text == "b"

    def test_avg(self, mt):
        assert run("avg { all_rows ; points }", mt).value == pytest.approx(10 / 3)

    def test_sum(self, mt):
        assert run("sum { all_rows ; points }", mt).value == 10.0

    def test_most_greater(self, mt):
        assert run("most_greater { all_rows ; points ; 2 }", mt).value is True
        assert run("most_greater { all_rows ; points ; 3 }", mt).value is False

    def test_all_greater_eq(self, mt):
        assert run("all_greater_eq { all_rows ; points ; 2 }", mt).value is True

    def test_nth_max(self, mt):
        assert run("nth_max { all_rows ; points ; 1 }", mt).value == 5.0
        assert run("nth_max { all_rows ; points ; 2 }", mt).value == 3.0
        assert run("nth_min { all_rows ; points ; 1 }", mt).value == 2.0

    def test_nth_argmax(self, mt):
        got = run("hop { nth_argmax { all_rows ; points ; 2 } ; team }", mt)
        assert got.value.text == "a"

    def test_round_eq(self, mt):
        assert run("round_eq { avg { all_rows ; points } ; 3.33 }", mt).value is True
        assert run("round_eq { 3.4 ; 3.33 }", mt).value is False

    def test_eq_casefolds_text(self, mt):
        assert run("eq { hop { argmax { all_rows ; points } ; team } ; B }", mt).value is True

    def test_eq_numeric_when_both_numbers(self, mt):
        assert run("eq { count { all_rows } ; 3.0 }", mt).value is True

    def test_diff(self, mt):
        got = run("diff { nth_max { all_rows ; points ; 1 } ; nth_min { all_rows ; points ; 1 } }", mt)
        assert got.value == 3.0

    def test_and(self, mt):
        assert run("and { only { filter_eq { all_rows ; team ; a } } ; eq { count { all_rows } ; 3 } }", mt).value is True
        assert run("and { only { all_rows } ; eq { count { all_rows } ; 3 } }", mt).value is False

    def test_filter_all_keeps_rows(self, mt):
        got = run("filter_all { all_rows ; team }", mt)
        assert got.value == (0, 1, 2)


class TestRuntimeErrors:
    def test_rank_out_of_range(self, mt):
        with pytest.raises(RankRangeError):
            run("nth_max { all_rows ; points ; 4 }", mt)
        with pytest.raises(RankRangeError):
            run("nth_max { all_rows ; points ; 0 }", mt)

    def test_hop_needs_single_row(self, mt):
        with pytest.raises(ViewSizeError):
            run("hop { all_rows ; team }", mt)
        with pytest.raises(ViewSizeError):
            run("hop { filter_eq { all_rows ; team ; zzz } ; team }", mt)

    def test_aggregation_over_empty_view(self, mt):
        with pytest.raises(EmptyViewError):
            run("avg { filter_eq { all_rows ; team ; zzz } ; points }", mt)

    def test_majority_over_empty_view(self, mt):
        with pytest.raises(EmptyViewError):
            run("most_eq { filter_eq { all_rows ; team ; zzz } ; points ; 1 }", mt)

    def test_non_numeric_comparison(self, mt):
        with pytest.raises(NonNumericError):
            run("greater { a ; b }", mt)
        with pytest.raises(NonNumericError):
            run("round_eq { hop { argmax { all_rows ; points } ; team } ; 3 }", mt)
        with pytest.raises(NonNumericError):
            run("diff { a ; 3 }", mt)


class TestEmptyCells:
    @pytest.fixture
    def holed(self):
        return Table.from_strings(
            "holed", "holed",
            ["name", "score"],
            [["ann", "4"], ["bob", "-"], ["cyd", "6"], ["dee", "n/a"]],
        )

    def test_empty_cells_fail_predicates(self, holed):
        got = run("count { filter_greater { all_rows ; score ; 0 } }", holed)
        assert got.value == 2.0
        got = run("count { filter_not_eq { all_rows ; score ; 4 } }", holed)
        assert got.value == 1.0

    def test_empty_cells_count_in_most_denominator(self, holed):
        # 2 hits out of 4 rows is not "most"
        assert run("most_greater { all_rows ; score ; 0 }", holed).value is False

    def test_aggregates_skip_empty_cells(self, holed):
        assert run("avg { all_rows ; score }", holed).value == 5.0
        assert run("sum { all_rows ; score }", holed).value == 10.0


class TestTies:
    @pytest.fixture
    def tied(self):
        return Table.from_strings(
            "tied", "tied", ["name", "v"], [["x", "5"], ["y", "5"], ["z", "3"]]
        )

    def test_argmax_tie_takes_earliest_row(self, tied):
        got = run("hop { argmax { all_rows ; v } ; name }", tied)
        assert got.value.text == "x"

    def test_duplicates_occupy_consecutive_ranks(self, tied):
        assert run("nth_max { all_rows ; v ; 1 }", tied).value == 5.0
        assert run("nth_max { all_rows ; v ; 2 }", tied).value == 5.0
        assert run("nth_max { all_rows ; v ; 3 }", tied).value == 3.0

    def test_nth_argmax_breaks_ties_by_row(self, tied):
        first = run("hop { nth_argmax { all_rows ; v ; 1 } ; name }", tied)
        second = run("hop { nth_argmax { all_rows ; v ; 2 } ; name }", tied)
        assert (first.value.text, second.value.text) == ("x", "y")


class TestVerify:
    def test_true_statement(self, mt):
        assert verify("eq { count { all_rows } ; 3 }", mt) is True

    def test_false_statement(self, mt):
        assert verify("eq { count { all_rows } ; 4 }", mt) is False

    def test_parse_error_is_false(self, mt):
        assert verify("eq { count {", mt) is False

    def test_non_boolean_root_is_false(self, mt):
        assert verify("count { all_rows }", mt) is False

    def test_unknown_column_is_false(self, mt):
        assert verify("eq { count { filter_eq { all_rows ; venue ; a } } ; 1 }", mt) is False

    def test_runtime_error_is_false(self, mt):
        assert verify("eq { nth_max { all_rows ; points ; 9 } ; 1 }", mt) is False

    def test_strict_typing_applies(self, mt):
        assert verify("eq { hop { all_rows ; team } ; a }", mt) is False

    def test_malformed_hand_built_tree_is_a_type_error(self, mt):
        # a bare string where a node belongs is rejected by the type check,
        # not by a crash that verify would have to swallow
        lf = Apply("count", ("all_rows",))
        with pytest.raises(TypeCheckError):
            type_check(lf, mt)
        assert verify(lf, mt) is False


class TestExecValue:
    def test_to_json_integers(self, mt):
        assert run("count { all_rows }", mt).to_json() == 3
        assert isinstance(run("count { all_rows }", mt).to_json(), int)

    def test_to_json_fraction(self, mt):
        assert run("avg { all_rows ; points }", mt).to_json() == pytest.approx(10 / 3)

    def test_to_json_object_and_view(self, mt):
        assert run("hop { argmax { all_rows ; points } ; team }", mt).to_json() == "b"
        assert run("filter_greater { all_rows ; points ; 2 }", mt).to_json() == [0, 1]

    def test_to_json_bool(self, mt):
        assert run("only { all_rows }", mt).to_json() is False

    def test_number_text(self):
        assert number_text(3.0) == "3"
        assert number_text(3.25) == "3.25"
        assert number_text(-2.0) == "-2"


class TestApplyStep:
    """The per-node step takes evaluated arguments and evaluates nothing."""

    def test_step_on_child_values(self, mt):
        assert apply("filter_greater", ((0, 1, 2), 1, (2.0, "2")), mt).value == (0, 1)
        assert apply("hop", ((1,), 0), mt).value.text == "b"
        assert apply("nth_max", ((0, 1, 2), 1, 2), mt).value == 3.0
        assert apply("eq", ((3.0, "3"), (None, "3 ")), mt).value is True

    def test_majority_step_rejects_an_empty_view(self, mt):
        with pytest.raises(EmptyViewError):
            apply("all_eq", ((), 0, (None, "a")), mt)


class TestPropertyIdentities:
    """Random structural identities; each failure prints its seed case."""

    def seeds(self):
        return range(60)

    def test_filter_is_idempotent(self):
        for seed in self.seeds():
            rng = random.Random(seed)
            table = random_table(rng)
            col = rng.choice(table.headers)
            cell = rng.choice(rng.choice(table.rows))
            text = cell.text if cell.text else "1"
            inner = f"filter_eq {{ all_rows ; {col} ; {text} }}"
            once = outcome(execute, parse_logic_form(inner), table)
            twice = outcome(
                execute,
                parse_logic_form(f"filter_eq {{ {inner} ; {col} ; {text} }}"),
                table,
            )
            assert once == twice, f"seed {seed}"

    def test_filter_all_preserves_count(self):
        for seed in self.seeds():
            rng = random.Random(seed)
            table = random_table(rng)
            col = rng.choice(table.headers)
            plain = run("count { all_rows }", table)
            kept = run(f"count {{ filter_all {{ all_rows ; {col} }} }}", table)
            assert plain.value == kept.value, f"seed {seed}"

    def test_only_iff_count_is_one(self):
        for seed in self.seeds():
            rng = random.Random(seed)
            table = random_table(rng)
            col = rng.choice(table.headers)
            cell = rng.choice(rng.choice(table.rows))
            text = cell.text if cell.text else "1"
            sub = f"filter_eq {{ all_rows ; {col} ; {text} }}"
            only = run(f"only {{ {sub} }}", table).value
            count = run(f"count {{ {sub} }}", table).value
            assert only == (count == 1.0), f"seed {seed}"

    def test_argmax_equals_rank_one(self):
        hits = 0
        for seed in self.seeds():
            rng = random.Random(seed)
            table = random_table(rng)
            numeric = [h for h, t in zip(table.headers, table.column_types) if t == "numeric"]
            if not numeric:
                continue
            col = rng.choice(numeric)
            top = outcome(execute, parse_logic_form(f"argmax {{ all_rows ; {col} }}"), table)
            first = outcome(
                execute, parse_logic_form(f"nth_argmax {{ all_rows ; {col} ; 1 }}"), table
            )
            assert top == first, f"seed {seed}"
            hits += 1
        assert hits > 10

    def test_all_implies_most_on_nonempty_views(self):
        checked = 0
        for seed in self.seeds():
            rng = random.Random(seed)
            table = random_table(rng)
            col = rng.choice(table.headers)
            cell = rng.choice(rng.choice(table.rows))
            text = cell.text if cell.text else "1"
            try:
                every = run(f"all_eq {{ all_rows ; {col} ; {text} }}", table).value
                most = run(f"most_eq {{ all_rows ; {col} ; {text} }}", table).value
            except EmptyViewError:
                continue
            if every:
                assert most, f"seed {seed}"
            checked += 1
        assert checked > 10

    def test_execution_is_deterministic(self):
        for seed in range(30):
            rng_a = random.Random(seed)
            table = random_table(rng_a)
            form = random_form(rng_a, table)
            assert outcome(execute, form, table) == outcome(execute, form, table)


def test_exec_value_is_frozen():
    value = ExecValue(K_NUMBER, 1.0)
    with pytest.raises(AttributeError):
        value.kind = K_BOOL
