"""Evaluator semantics: hand-computed values, edge cases, and identities.

The mt fixture is:  team=[a, b, c]  points=[3, 5, 2].
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loft import Table, TypeCheckError, execute, parse_logic_form, verify
from loft.catalog import BOOL, CATALOG, NUM, OBJECT, VIEW
from loft.errors import ExecutionError, LoftError
from loft.cli import _json_value
from loft.executor import apply, as_object, number_text
from loft.forms import MAX_NESTING, AllRows, Apply, ColumnRef, type_check
from loft.tables import CellValue, normalize_cell

from .generators import outcome, random_form, random_table
from .oracle import oracle_step


def run(text, table):
    return execute(parse_logic_form(text), table)


class TestHandValues:
    def test_count_all(self, mt):
        assert run("count { all_rows }", mt) == 3.0

    def test_count_filtered(self, mt):
        assert run("count { filter_eq { all_rows ; team ; a } }", mt) == 1.0

    def test_hop_argmax(self, mt):
        got = run("hop { argmax { all_rows ; points } ; team }", mt)
        assert isinstance(got, CellValue)
        assert got.text == "b"

    def test_avg(self, mt):
        assert run("avg { all_rows ; points }", mt) == pytest.approx(10 / 3)

    def test_sum(self, mt):
        assert run("sum { all_rows ; points }", mt) == 10.0

    def test_most_greater(self, mt):
        assert run("most_greater { all_rows ; points ; 2 }", mt) is True
        assert run("most_greater { all_rows ; points ; 3 }", mt) is False

    def test_all_greater_eq(self, mt):
        assert run("all_greater_eq { all_rows ; points ; 2 }", mt) is True

    def test_nth_max(self, mt):
        assert run("nth_max { all_rows ; points ; 1 }", mt) == 5.0
        assert run("nth_max { all_rows ; points ; 2 }", mt) == 3.0
        assert run("nth_min { all_rows ; points ; 1 }", mt) == 2.0

    def test_nth_argmax(self, mt):
        got = run("hop { nth_argmax { all_rows ; points ; 2 } ; team }", mt)
        assert got.text == "a"

    def test_round_eq(self, mt):
        assert run("round_eq { avg { all_rows ; points } ; 3.33 }", mt) is True
        assert run("round_eq { 3.4 ; 3.33 }", mt) is False

    def test_eq_casefolds_text(self, mt):
        assert run("eq { hop { argmax { all_rows ; points } ; team } ; B }", mt) is True

    def test_eq_numeric_when_both_numbers(self, mt):
        assert run("eq { count { all_rows } ; 3.0 }", mt) is True

    def test_diff(self, mt):
        got = run("diff { nth_max { all_rows ; points ; 1 } ; nth_min { all_rows ; points ; 1 } }", mt)
        assert got == 3.0

    def test_and(self, mt):
        assert run("and { only { filter_eq { all_rows ; team ; a } } ; eq { count { all_rows } ; 3 } }", mt) is True
        assert run("and { only { all_rows } ; eq { count { all_rows } ; 3 } }", mt) is False

    def test_filter_all_keeps_rows(self, mt):
        got = run("filter_all { all_rows ; team }", mt)
        assert got == (0, 1, 2)


class TestRuntimeErrors:
    def test_rank_out_of_range(self, mt):
        with pytest.raises(ExecutionError) as exc:
            run("nth_max { all_rows ; points ; 4 }", mt)
        assert exc.value.kind == "rank_range"
        with pytest.raises(ExecutionError) as exc:
            run("nth_max { all_rows ; points ; 0 }", mt)
        assert exc.value.kind == "rank_range"

    def test_hop_needs_single_row(self, mt):
        with pytest.raises(ExecutionError) as exc:
            run("hop { all_rows ; team }", mt)
        assert exc.value.kind == "view_size"
        with pytest.raises(ExecutionError) as exc:
            run("hop { filter_eq { all_rows ; team ; zzz } ; team }", mt)
        assert exc.value.kind == "view_size"

    def test_aggregation_over_empty_view(self, mt):
        with pytest.raises(ExecutionError) as exc:
            run("avg { filter_eq { all_rows ; team ; zzz } ; points }", mt)
        assert exc.value.kind == "empty_view"

    def test_majority_over_empty_view(self, mt):
        with pytest.raises(ExecutionError) as exc:
            run("most_eq { filter_eq { all_rows ; team ; zzz } ; points ; 1 }", mt)
        assert exc.value.kind == "empty_view"

    def test_non_numeric_comparison(self, mt):
        with pytest.raises(ExecutionError) as exc:
            run("greater { a ; b }", mt)
        assert exc.value.kind == "non_numeric"
        with pytest.raises(ExecutionError) as exc:
            run("round_eq { hop { argmax { all_rows ; points } ; team } ; 3 }", mt)
        assert exc.value.kind == "non_numeric"
        with pytest.raises(ExecutionError) as exc:
            run("diff { a ; 3 }", mt)
        assert exc.value.kind == "non_numeric"

    def test_a_bare_column_reference_is_not_executable(self, mt):
        with pytest.raises(TypeCheckError, match="column reference is not executable on its own"):
            execute(ColumnRef("team"), mt)


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
        assert got == 2.0
        got = run("count { filter_not_eq { all_rows ; score ; 4 } }", holed)
        assert got == 1.0

    def test_empty_cells_count_in_most_denominator(self, holed):
        # 2 hits out of 4 rows is not "most"
        assert run("most_greater { all_rows ; score ; 0 }", holed) is False

    def test_aggregates_skip_empty_cells(self, holed):
        assert run("avg { all_rows ; score }", holed) == 5.0
        assert run("sum { all_rows ; score }", holed) == 10.0

    def test_every_empty_marker_is_one_object(self):
        # eq reads each empty marker as "", so "n/a", "-" and "" are equal
        t = Table.from_strings("t", "t", ["team", "points"], [["a", "3"], ["b", "n/a"], ["c", "-"]])
        b = "hop { filter_eq { all_rows ; team ; b } ; points }"
        c = "hop { filter_eq { all_rows ; team ; c } ; points }"
        assert verify(f"eq {{ {b} ; - }}", t) is True
        assert verify(f"eq {{ {b} ; {c} }}", t) is True


class TestComputedObjects:
    def test_a_computed_number_is_held_exactly(self):
        # the sum's repr is "1e+20", which would read back as 1
        t = Table.from_strings(
            "t", "t", ["big"], [["60000000000000000000"], ["40000000000000000000"]]
        )
        assert verify("greater { sum { all_rows ; big } ; 5 }", t) is True
        assert as_object(1e20) == CellValue("number", "100000000000000000000", 1e20)


class TestTies:
    @pytest.fixture
    def tied(self):
        return Table.from_strings(
            "tied", "tied", ["name", "v"], [["x", "5"], ["y", "5"], ["z", "3"]]
        )

    def test_argmax_tie_takes_earliest_row(self, tied):
        got = run("hop { argmax { all_rows ; v } ; name }", tied)
        assert got.text == "x"

    def test_duplicates_occupy_consecutive_ranks(self, tied):
        assert run("nth_max { all_rows ; v ; 1 }", tied) == 5.0
        assert run("nth_max { all_rows ; v ; 2 }", tied) == 5.0
        assert run("nth_max { all_rows ; v ; 3 }", tied) == 3.0

    def test_nth_argmax_breaks_ties_by_row(self, tied):
        first = run("hop { nth_argmax { all_rows ; v ; 1 } ; name }", tied)
        second = run("hop { nth_argmax { all_rows ; v ; 2 } ; name }", tied)
        assert (first.text, second.text) == ("x", "y")


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

    @staticmethod
    def hand_built(levels):
        """only { filter_all { ... } } of `levels` functions, built without the parser."""
        view = AllRows()
        for _ in range(levels - 1):
            view = Apply("filter_all", (view, ColumnRef("team")))
        return Apply("only", (view,))

    def test_hand_built_nesting_is_bounded_like_parsed_text(self, mt):
        assert type_check(self.hand_built(MAX_NESTING), mt) == BOOL
        with pytest.raises(TypeCheckError, match="nested more than"):
            type_check(self.hand_built(MAX_NESTING + 1), mt)
        # far past the interpreter's recursion limit: still False, no RecursionError
        assert verify(self.hand_built(3000), mt) is False


def to_json(text, table):
    """The value `loft execute` prints: JSON for the type type_check gives."""
    lf = parse_logic_form(text)
    return _json_value(type_check(lf, table), execute(lf, table))


class TestExecValue:
    """execute's plain value as `loft execute` renders it."""

    def test_to_json_integers(self, mt):
        assert to_json("count { all_rows }", mt) == 3
        assert isinstance(to_json("count { all_rows }", mt), int)

    def test_to_json_fraction(self, mt):
        assert to_json("avg { all_rows ; points }", mt) == pytest.approx(10 / 3)

    def test_to_json_object_and_view(self, mt):
        assert to_json("hop { argmax { all_rows ; points } ; team }", mt) == "b"
        assert to_json("filter_greater { all_rows ; points ; 2 }", mt) == [0, 1]

    def test_to_json_bool(self, mt):
        assert to_json("only { all_rows }", mt) is False

    def test_number_text(self):
        assert number_text(3.0) == "3"
        assert number_text(3.25) == "3.25"
        assert number_text(-2.0) == "-2"
        assert number_text(1.7e16) == "17000000000000000"
        assert number_text(5e-05) == "0.00005"
        assert number_text(float("inf")) == "inf"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(1.7e16)
    @example(-5e-05)
    @example(5e-324)
    def test_number_text_reads_back_as_its_number(self, value):
        # a literal of a computed number must mean that number: exponent
        # form would read as its mantissa alone ("1.7e+16" as 1.7)
        text = number_text(value)
        assert normalize_cell(text).number == value
        short = str(int(value)) if value.is_integer() and abs(value) < 1e15 else repr(value)
        if "e" not in short:
            assert text == short


class TestApplyStep:
    """The per-node step takes evaluated arguments and evaluates nothing."""

    def test_step_on_child_values(self, mt):
        assert apply("filter_greater", ((0, 1, 2), 1, normalize_cell("2")), mt) == (0, 1)
        assert apply("hop", ((1,), 0), mt).text == "b"
        assert apply("nth_max", ((0, 1, 2), 1, 2), mt) == 3.0
        # a text object meets a number by its folded text
        assert apply("eq", (as_object(3.0), CellValue("text", "3 ")), mt) is True

    def test_majority_step_rejects_an_empty_view(self, mt):
        with pytest.raises(ExecutionError) as exc:
            apply("all_eq", ((), 0, CellValue("text", "a")), mt)
        assert exc.value.kind == "empty_view"


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
            assert plain == kept, f"seed {seed}"

    def test_only_iff_count_is_one(self):
        for seed in self.seeds():
            rng = random.Random(seed)
            table = random_table(rng)
            col = rng.choice(table.headers)
            cell = rng.choice(rng.choice(table.rows))
            text = cell.text if cell.text else "1"
            sub = f"filter_eq {{ all_rows ; {col} ; {text} }}"
            only = run(f"only {{ {sub} }}", table)
            count = run(f"count {{ {sub} }}", table)
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
                every = run(f"all_eq {{ all_rows ; {col} ; {text} }}", table)
                most = run(f"most_eq {{ all_rows ; {col} ; {text} }}", table)
            except ExecutionError as exc:
                if exc.kind != "empty_view":
                    raise
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

    def test_type_check_gives_the_type_of_the_value(self):
        # the one source of a form's type: what execute returns has it
        kinds = []
        for seed in range(400):
            rng = random.Random(seed)
            table = random_table(rng)
            form = random_form(rng, table)
            try:
                kind = type_check(form, table)
            except TypeCheckError:
                continue
            got = outcome(execute, form, table)
            if got[0] != "error":
                assert got[0] == kind, f"seed {seed}"
                kinds.append(kind)
        assert len(kinds) > 150 and set(kinds) == {BOOL, NUM, OBJECT, VIEW}


# what the column scans must read as the per-cell rule does: the empty
# markers, a percentage, numbers with trailing text or thousands commas,
# negatives and signed zeros, one word in three foldings, and the text
# "inf" that a computed infinity prints as; 48 rows drawn from 19 values
# repeat most of them, so ties abound
SCAN_CELLS = ["", "-", "n/a", "12%", "12", "5 (x)", "5", "-3", "-0", "0", "0.0", "2.5",
              "alpha", "Alpha", " ALPHA ", "beta", "1,000", "1000", "inf"]
PREDICATES = [name for name, sig in CATALOG.items() if sig.op is not None]
RANKINGS = ["nth_max", "nth_min", "nth_argmax", "nth_argmin"]


def _step(run, name, args, table):
    """run's value or error kind; a float by its repr, so -0.0 and 0.0 differ."""
    try:
        value = run(name, args, table)
    except LoftError as exc:
        return ("error", exc.kind)
    return repr(value) if isinstance(value, float) else value


class TestColumnScansAgree:
    """apply's column scans against the tests' per-cell scans (oracle_step)
    on 48-row tables, where oracle_execute refuses to run."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(SCAN_CELLS), min_size=96, max_size=96),
           st.sets(st.integers(0, 47)))
    def test_every_column_step_agrees_with_a_per_cell_scan(self, cells, subset):
        table = Table.from_strings("t", "t", ["a", "b"], [cells[i:i + 2] for i in range(0, 96, 2)])
        objects = [normalize_cell(text) for text in SCAN_CELLS + ["7", "-1", "zeta"]]
        objects += [as_object(-0.0), as_object(2.5), as_object(float("inf")),
                    CellValue("text", "12")]
        for rows in (tuple(range(48)), tuple(sorted(subset))):
            for col in (0, 1):
                for name in PREDICATES:
                    for obj in objects:
                        args = (rows, col, obj)
                        assert _step(apply, name, args, table) == _step(oracle_step, name, args,
                                                                        table), (name, obj.text)
                for name in ("avg", "sum", "argmax", "argmin"):
                    args = (rows, col)
                    assert _step(apply, name, args, table) == _step(oracle_step, name, args, table)
                usable = sum(table.rows[i][col].number is not None for i in rows)
                for name in RANKINGS:
                    for n in {0, 1, 2, usable // 2, usable - 1, usable, usable + 1}:
                        args = (rows, col, n)
                        assert _step(apply, name, args, table) == _step(oracle_step, name, args,
                                                                        table), (name, n)
