"""Seeded random tables and type-correct forms for property-style tests.

Tables stay within the cross-check evaluator's size limit so every
generated case can be run through both execution routes.
"""

from __future__ import annotations

import random

from loft import Table
from loft.catalog import BOOL, NUM, OBJECT, VIEW
from loft.errors import LoftError
from loft.executor import execute
from loft.forms import AllRows, Apply, ColumnRef
from loft.tables import NUMERIC, CellValue, normalize_cell

from .oracle import oracle_execute

WORDS = ["alpha", "bravo", "carol", "delta", "echo", "fox", "golf", "hotel",
         "india", "jazz", "kilo", "lima"]

FILTERS = ["filter_eq", "filter_not_eq", "filter_greater", "filter_less",
           "filter_greater_eq", "filter_less_eq"]
MAJORITIES = ["all_eq", "all_not_eq", "all_greater", "all_less",
              "all_greater_eq", "all_less_eq", "most_eq", "most_not_eq",
              "most_greater", "most_less", "most_greater_eq", "most_less_eq"]


def random_table(rng: random.Random, max_rows: int = 8, max_cols: int = 5) -> Table:
    n_cols = rng.randint(1, max_cols)
    n_rows = rng.randint(1, max_rows)
    kinds = [rng.choice(["num", "text", "mixed"]) for _ in range(n_cols)]
    rows = []
    for _ in range(n_rows):
        row = []
        for kind in kinds:
            roll = rng.random()
            if kind == "num":
                if roll < 0.08:
                    row.append("-")
                elif roll < 0.4:
                    row.append(str(rng.randint(0, 20)))
                else:
                    row.append(f"{rng.uniform(0, 100):.1f}")
            elif kind == "text":
                if roll < 0.08:
                    row.append("n/a")
                else:
                    row.append(rng.choice(WORDS))
            else:
                row.append(
                    rng.choice(
                        [str(rng.randint(0, 9)), rng.choice(WORDS), "-",
                         f"{rng.randint(1, 5)} (x)", f"{rng.randint(10, 99)}%"]
                    )
                )
        rows.append(row)
    headers = [f"c{i}" for i in range(n_cols)]
    return Table.from_strings(f"t{rng.randrange(10 ** 9)}", "random", headers, rows)


def _any_col(rng, table):
    return ColumnRef(rng.choice(table.headers))


def _numeric_cols(table):
    return [h for h, t in zip(table.headers, table.column_types) if t == NUMERIC]


def _literal(rng, table):
    roll = rng.random()
    if roll < 0.55:
        row = rng.choice(table.rows)
        cell = rng.choice(row)
        if cell.text:
            return normalize_cell(cell.text)
    if roll < 0.8:
        return normalize_cell(str(rng.randint(-5, 30)))
    return normalize_cell(rng.choice(WORDS))


def _ordinal(rng, table):
    # mostly in range, sometimes deliberately past the end
    hi = table.n_rows + (2 if rng.random() < 0.15 else 0)
    return normalize_cell(str(rng.randint(1, max(1, hi))))


def _view(rng, table, depth):
    if depth <= 0 or rng.random() < 0.35:
        return AllRows()
    pick = rng.random()
    inner = _view(rng, table, depth - 1)
    if pick < 0.55:
        return Apply(rng.choice(FILTERS), (inner, _any_col(rng, table), _literal(rng, table)))
    if pick < 0.65:
        return Apply("filter_all", (inner, _any_col(rng, table)))
    numeric = _numeric_cols(table)
    if not numeric:
        return Apply("filter_eq", (inner, _any_col(rng, table), _literal(rng, table)))
    col = ColumnRef(rng.choice(numeric))
    if pick < 0.85:
        return Apply(rng.choice(["argmax", "argmin"]), (inner, col))
    return Apply(rng.choice(["nth_argmax", "nth_argmin"]), (inner, col, _ordinal(rng, table)))


def _single_row_view(rng, table, depth):
    view = _view(rng, table, depth)
    if isinstance(view, AllRows):
        numeric = _numeric_cols(table)
        if numeric:
            return Apply("argmax", (view, ColumnRef(rng.choice(numeric))))
        return Apply("filter_eq", (view, _any_col(rng, table), _literal(rng, table)))
    return view


def _value(rng, table, depth):
    numeric = _numeric_cols(table)
    pick = rng.random()
    if pick < 0.25 or not numeric:
        if pick < 0.12:
            return Apply("hop", (_single_row_view(rng, table, depth - 1), _any_col(rng, table)))
        return Apply("count", (_view(rng, table, depth - 1),))
    col = ColumnRef(rng.choice(numeric))
    if pick < 0.5:
        return Apply(rng.choice(["avg", "sum"]), (_view(rng, table, depth - 1), col))
    if pick < 0.75:
        return Apply(
            rng.choice(["nth_max", "nth_min"]),
            (_view(rng, table, depth - 1), col, _ordinal(rng, table)),
        )
    return Apply("hop", (_single_row_view(rng, table, depth - 1), col))


def _operand(rng, table, depth):
    if rng.random() < 0.4:
        return _literal(rng, table)
    return _value(rng, table, depth)


def random_bool_form(rng: random.Random, table: Table, max_depth: int = 4) -> Apply:
    """A boolean form that type-checks against the table's schema."""
    pick = rng.random()
    if pick < 0.3:
        name = rng.choice(["eq", "not_eq", "round_eq", "greater", "less"])
        return Apply(name, (_operand(rng, table, max_depth - 1),
                            _operand(rng, table, max_depth - 1)))
    if pick < 0.45:
        return Apply("only", (_view(rng, table, max_depth - 1),))
    if pick < 0.75:
        return Apply(
            rng.choice(MAJORITIES),
            (_view(rng, table, max_depth - 1), _any_col(rng, table), _literal(rng, table)),
        )
    if pick < 0.9:
        return Apply("and", (random_bool_form(rng, table, max_depth - 1),
                             random_bool_form(rng, table, max_depth - 1)))
    name = rng.choice(["eq", "not_eq"])
    return Apply(name, (Apply("diff", (_operand(rng, table, max_depth - 1),
                                       _operand(rng, table, max_depth - 1))),
                        _literal(rng, table)))


def random_form(rng: random.Random, table: Table, max_depth: int = 4):
    """Any executable form: mostly boolean roots, sometimes value roots."""
    pick = rng.random()
    if pick < 0.6:
        return random_bool_form(rng, table, max_depth)
    if pick < 0.8:
        return _value(rng, table, max_depth)
    return _view(rng, table, max_depth)


def outcome(run, lf, table):
    """Comparable result tuple for one evaluation route, its catalog type
    read off the plain value."""
    try:
        value = run(lf, table)
    except LoftError as exc:
        return ("error", getattr(exc, "kind", "parse"))
    if isinstance(value, CellValue):
        return (OBJECT, value.kind, value.text, value.number)
    return ({bool: BOOL, float: NUM, tuple: VIEW}[type(value)], value)


def agreement_case(rng: random.Random):
    """One random (table, form, main outcome, cross-check outcome) tuple."""
    table = random_table(rng)
    form = random_form(rng, table)
    return table, form, outcome(execute, form, table), outcome(oracle_execute, form, table)
