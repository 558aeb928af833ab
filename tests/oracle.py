"""Naive cross-check evaluator for the tests.

Re-derives every function's meaning with plain row scans: selection by
repeated extraction instead of sorting, its own literal parsing and its
own text folding.  It shares data containers and error classes with the
main evaluator but none of its computation helpers, so agreement between
the two is meaningful evidence.

Tables larger than 12 rows x 6 columns are refused: this evaluator is
quadratic where the main one sorts and exists only for small fixtures.
``oracle_step`` applies one column function to plain values, as
``executor.apply`` does, by the same per-cell scans; it takes tables of
any size, since one step is at worst quadratic in its view.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from loft.catalog import BOOL, CATALOG, HEADER, NUM, OBJECT, VIEW
from loft.errors import ExecutionError, TypeCheckError
from loft.executor import Value
from loft.forms import AllRows, Apply, ColumnRef, LogicForm
from loft.tables import CellValue, Table

MAX_ROWS = 12
MAX_COLS = 6

# round_eq tolerates |a - b| <= max(ROUND_ABS, ROUND_REL * |b|)
ROUND_ABS = 1e-6
ROUND_REL = 1e-2


class _Tagged(NamedTuple):
    """A result with its own catalog type, or "__lit__" for a literal's
    (number, text) not yet read as a cell."""

    kind: str
    value: object


_NUM_PREFIX = re.compile(r"^[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)")


def _literal_number(text: str) -> float | None:
    s = text.strip()
    if s.lower() in ("", "-", "n/a"):
        return None
    s = s.replace(",", "")
    if s.endswith("%"):
        s = s[:-1]
    m = _NUM_PREFIX.match(s)
    if m is None:
        return None
    return float(m.group(0))


def _fold(text: str) -> str:
    out = []
    last_space = True
    for ch in text.strip().lower():
        if ch.isspace():
            if not last_space:
                out.append(" ")
            last_space = True
        else:
            out.append(ch)
            last_space = False
    return "".join(out).rstrip()


def _pair_of(value: _Tagged) -> tuple[float | None, str]:
    if value.kind == NUM:
        n = float(value.value)
        if n == int(n) and abs(n) < 1e15:
            return n, str(int(n))
        return n, repr(n)
    cell = value.value
    if cell.kind == "empty":
        return None, ""
    return cell.number, cell.text


def oracle_execute(lf: LogicForm, table: Table) -> Value:
    """The form's plain value, as ``execute`` returns it."""
    if table.n_rows > MAX_ROWS or len(table.headers) > MAX_COLS:
        raise ValueError("oracle only handles small tables")
    result = _Oracle(table).run(lf)
    if result.kind == "__lit__":
        num, text = result.value
        text = text.strip()
        if text.lower() in ("", "-", "n/a"):
            cell = CellValue("empty", text)
        elif num is not None:
            cell = CellValue("number", text, num)
        else:
            cell = CellValue("text", text)
        return cell
    return result.value


def oracle_step(name: str, args: tuple, table: Table) -> Value:
    """One function that reads a column (a filter, all, most, hop,
    aggregate or ranking) applied to ``apply``'s plain arguments: the
    view's rows, a column index and, third, an object cell or a rank."""
    rows, col, extra = list(args[0]), args[1], args[2:]
    if extra and isinstance(extra[0], CellValue):
        extra = ((None, "") if extra[0].kind == "empty" else (extra[0].number, extra[0].text),)
    return _Oracle(table).column_step(name, rows, col, *extra).value


class _Oracle:
    def __init__(self, table: Table):
        self.table = table

    def run(self, node: LogicForm) -> _Tagged:
        if isinstance(node, AllRows):
            every = []
            for i in range(len(self.table.rows)):
                every.append(i)
            return _Tagged(VIEW, tuple(every))
        if isinstance(node, CellValue):  # a literal: read from its text alone
            num = _literal_number(node.text)
            return _Tagged("__lit__", (num, node.text))
        if isinstance(node, ColumnRef):
            raise TypeCheckError("column reference is not executable on its own")
        return self.call(node)

    # -- helpers ---------------------------------------------------------

    def col(self, ref: ColumnRef) -> int:
        for j, h in enumerate(self.table.headers):
            if h == _fold(ref.name):
                return j
        raise TypeCheckError(f"unknown column {ref.name!r}", kind="unknown_column")

    def rows_of(self, node: LogicForm) -> list[int]:
        return list(self.run(node).value)

    def operand(self, node: LogicForm) -> tuple[float | None, str]:
        value = self.run(node)
        if value.kind == "__lit__":
            num, text = value.value
            if text.strip().lower() in ("", "-", "n/a"):
                return None, ""
            return num, text
        return _pair_of(value)

    def numbered(self, rows: list[int], col: int) -> list[tuple[float, int]]:
        found = []
        for i in rows:
            cell = self.table.rows[i][col]
            if cell.number is not None:
                found.append((cell.number, i))
        return found

    def holds(self, op: str, row: int, col: int, obj: tuple[float | None, str]) -> bool:
        cell = self.table.rows[row][col]
        if cell.kind == "empty":
            return False
        obj_num, obj_text = obj
        if op in ("eq", "not_eq"):
            if cell.number is not None and obj_num is not None:
                same = cell.number == obj_num
            else:
                same = _fold(cell.text) == _fold(obj_text)
            return (not same) if op == "not_eq" else same
        if cell.number is None or obj_num is None:
            return False
        if op == "greater":
            return cell.number > obj_num
        if op == "less":
            return cell.number < obj_num
        if op == "greater_eq":
            return cell.number >= obj_num
        if op == "less_eq":
            return cell.number <= obj_num
        raise ValueError(op)

    @staticmethod
    def op_of(name: str) -> str:
        for op in ("greater_eq", "less_eq", "not_eq", "greater", "less", "eq"):
            if name.endswith(op):
                return op
        raise ValueError(name)

    def take_extreme(self, cands: list[tuple[float, int]], want_max: bool) -> tuple[float, int]:
        best = cands[0]
        for v, i in cands[1:]:
            if want_max and (v > best[0] or (v == best[0] and i < best[1])):
                best = (v, i)
            elif not want_max and (v < best[0] or (v == best[0] and i < best[1])):
                best = (v, i)
        return best

    def take_ranked(self, cands: list[tuple[float, int]], n: int, want_max: bool) -> tuple[float, int]:
        pool = list(cands)
        chosen = None
        for _ in range(n):
            chosen = self.take_extreme(pool, want_max)
            pool.remove(chosen)
        return chosen

    # -- functions -------------------------------------------------------

    def column_step(self, name: str, rows: list[int], col: int, extra=None) -> _Tagged:
        """A function of a view and a column, given the view's rows, the
        column's index and, as extra, the rank or the object's (number,
        text) pair."""
        if name in ("avg", "sum"):
            nums = self.numbered(rows, col)
            if len(nums) == 0:
                raise ExecutionError(name, "empty_view")
            total = 0.0
            for v, _ in nums:
                total += v
            if name == "sum":
                return _Tagged(NUM, total)
            return _Tagged(NUM, total / len(nums))
        if name in ("argmax", "argmin"):
            nums = self.numbered(rows, col)
            if len(nums) == 0:
                raise ExecutionError(name, "empty_view")
            _, row = self.take_extreme(nums, name == "argmax")
            return _Tagged(VIEW, (row,))
        if name in ("nth_argmax", "nth_argmin", "nth_max", "nth_min"):
            nums = self.numbered(rows, col)
            if len(nums) == 0:
                raise ExecutionError(name, "empty_view")
            if extra < 1 or extra > len(nums):
                raise ExecutionError(name, "rank_range")
            value, row = self.take_ranked(nums, extra, "max" in name)
            if name in ("nth_argmax", "nth_argmin"):
                return _Tagged(VIEW, (row,))
            return _Tagged(NUM, value)
        if name == "filter_all":
            return _Tagged(VIEW, tuple(rows))
        if name.startswith("filter_"):
            op = self.op_of(name)
            kept = []
            for i in rows:
                if self.holds(op, i, col, extra):
                    kept.append(i)
            return _Tagged(VIEW, tuple(kept))
        if name.startswith("all_") or name.startswith("most_"):
            if len(rows) == 0:
                raise ExecutionError(name, "empty_view")
            op = self.op_of(name)
            good = 0
            for i in rows:
                if self.holds(op, i, col, extra):
                    good += 1
            if name.startswith("all_"):
                return _Tagged(BOOL, good == len(rows))
            return _Tagged(BOOL, good > len(rows) - good)
        if name == "hop":
            if len(rows) != 1:
                raise ExecutionError(name, "view_size")
            return _Tagged(OBJECT, self.table.rows[rows[0]][col])
        raise TypeCheckError(f"unknown function {name!r}")

    def call(self, node: Apply) -> _Tagged:
        name = node.name
        a = node.args

        if name == "count":
            return _Tagged(NUM, 0.0 + len(self.rows_of(a[0])))
        if name == "only":
            return _Tagged(BOOL, len(self.rows_of(a[0])) == 1)
        if CATALOG[name].arg_types[1:2] == (HEADER,):
            rows, col = self.rows_of(a[0]), self.col(a[1])
            if len(a) == 2:
                return self.column_step(name, rows, col)
            if name.startswith("nth_"):
                return self.column_step(name, rows, col, int(a[2].text))
            if name.startswith(("all_", "most_")) and len(rows) == 0:
                # an empty view fails before its object is looked at
                raise ExecutionError(name, "empty_view")
            return self.column_step(name, rows, col, self.operand(a[2]))
        if name in ("eq", "not_eq"):
            ln, lt = self.operand(a[0])
            rn, rt = self.operand(a[1])
            if ln is not None and rn is not None:
                same = ln == rn
            else:
                same = _fold(lt) == _fold(rt)
            return _Tagged(BOOL, (not same) if name == "not_eq" else same)
        if name == "round_eq":
            ln, _ = self.operand(a[0])
            rn, _ = self.operand(a[1])
            if ln is None or rn is None:
                raise ExecutionError(name, "non_numeric")
            bound = ROUND_ABS
            if ROUND_REL * abs(rn) > bound:
                bound = ROUND_REL * abs(rn)
            return _Tagged(BOOL, abs(ln - rn) <= bound)
        if name in ("greater", "less", "diff"):
            ln, _ = self.operand(a[0])
            rn, _ = self.operand(a[1])
            if ln is None or rn is None:
                raise ExecutionError(name, "non_numeric")
            if name == "greater":
                return _Tagged(BOOL, ln > rn)
            if name == "less":
                return _Tagged(BOOL, ln < rn)
            return _Tagged(NUM, ln - rn)
        if name == "and":
            left = self.run(a[0])
            right = self.run(a[1])
            return _Tagged(BOOL, bool(left.value) and bool(right.value))
        raise TypeCheckError(f"unknown function {name!r}")
