"""Naive cross-check evaluator for the tests.

Re-derives every function's meaning with plain row scans: selection by
repeated extraction instead of sorting, its own literal parsing and its
own text folding.  It shares data containers and error classes with the
main evaluator but none of its computation helpers, so agreement between
the two is meaningful evidence.

Tables larger than 12 rows x 6 columns are refused: this evaluator is
quadratic where the main one sorts and exists only for small fixtures.
"""

from __future__ import annotations

import re

from loft.errors import (
    EmptyViewError,
    NonNumericError,
    RankRangeError,
    TypeCheckError,
    ViewSizeError,
)
from loft.executor import ExecValue, K_BOOL, K_NUMBER, K_OBJECT, K_VIEW
from loft.forms import AllRows, Apply, ColumnRef, Literal, LogicForm
from loft.tables import CellValue, Table

MAX_ROWS = 12
MAX_COLS = 6

# round_eq tolerates |a - b| <= max(ROUND_ABS, ROUND_REL * |b|)
ROUND_ABS = 1e-6
ROUND_REL = 1e-2

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


def _pair_of(value: ExecValue) -> tuple[float | None, str]:
    if value.kind == K_NUMBER:
        n = float(value.value)
        if n == int(n) and abs(n) < 1e15:
            return n, str(int(n))
        return n, repr(n)
    cell = value.value
    if cell.kind == "empty":
        return None, ""
    return cell.number, cell.text


def oracle_execute(lf: LogicForm, table: Table) -> ExecValue:
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
        return ExecValue(K_OBJECT, cell)
    return result


class _Oracle:
    def __init__(self, table: Table):
        self.table = table

    def run(self, node: LogicForm) -> ExecValue:
        if isinstance(node, AllRows):
            every = []
            for i in range(len(self.table.rows)):
                every.append(i)
            return ExecValue(K_VIEW, tuple(every))
        if isinstance(node, Literal):
            num = _literal_number(node.text)
            return ExecValue("__lit__", (num, node.text))
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

    def call(self, node: Apply) -> ExecValue:
        name = node.name
        a = node.args

        if name == "count":
            return ExecValue(K_NUMBER, 0.0 + len(self.rows_of(a[0])))
        if name == "only":
            return ExecValue(K_BOOL, len(self.rows_of(a[0])) == 1)
        if name in ("avg", "sum"):
            rows, col = self.rows_of(a[0]), self.col(a[1])
            nums = self.numbered(rows, col)
            if len(nums) == 0:
                raise EmptyViewError(name)
            total = 0.0
            for v, _ in nums:
                total += v
            if name == "sum":
                return ExecValue(K_NUMBER, total)
            return ExecValue(K_NUMBER, total / len(nums))
        if name in ("argmax", "argmin"):
            rows, col = self.rows_of(a[0]), self.col(a[1])
            nums = self.numbered(rows, col)
            if len(nums) == 0:
                raise EmptyViewError(name)
            _, row = self.take_extreme(nums, name == "argmax")
            return ExecValue(K_VIEW, (row,))
        if name in ("nth_argmax", "nth_argmin", "nth_max", "nth_min"):
            rows, col = self.rows_of(a[0]), self.col(a[1])
            n = int(a[2].text)
            nums = self.numbered(rows, col)
            if len(nums) == 0:
                raise EmptyViewError(name)
            if n < 1 or n > len(nums):
                raise RankRangeError(name)
            value, row = self.take_ranked(nums, n, "max" in name)
            if name in ("nth_argmax", "nth_argmin"):
                return ExecValue(K_VIEW, (row,))
            return ExecValue(K_NUMBER, value)
        if name == "filter_all":
            rows = self.rows_of(a[0])
            self.col(a[1])
            return ExecValue(K_VIEW, tuple(rows))
        if name.startswith("filter_"):
            rows, col = self.rows_of(a[0]), self.col(a[1])
            obj = self.operand(a[2])
            op = self.op_of(name)
            kept = []
            for i in rows:
                if self.holds(op, i, col, obj):
                    kept.append(i)
            return ExecValue(K_VIEW, tuple(kept))
        if name.startswith("all_") or name.startswith("most_"):
            rows, col = self.rows_of(a[0]), self.col(a[1])
            if len(rows) == 0:
                raise EmptyViewError(name)
            obj = self.operand(a[2])
            op = self.op_of(name)
            good = 0
            for i in rows:
                if self.holds(op, i, col, obj):
                    good += 1
            if name.startswith("all_"):
                return ExecValue(K_BOOL, good == len(rows))
            return ExecValue(K_BOOL, good > len(rows) - good)
        if name == "hop":
            rows, col = self.rows_of(a[0]), self.col(a[1])
            if len(rows) != 1:
                raise ViewSizeError(name)
            return ExecValue(K_OBJECT, self.table.rows[rows[0]][col])
        if name in ("eq", "not_eq"):
            ln, lt = self.operand(a[0])
            rn, rt = self.operand(a[1])
            if ln is not None and rn is not None:
                same = ln == rn
            else:
                same = _fold(lt) == _fold(rt)
            return ExecValue(K_BOOL, (not same) if name == "not_eq" else same)
        if name == "round_eq":
            ln, _ = self.operand(a[0])
            rn, _ = self.operand(a[1])
            if ln is None or rn is None:
                raise NonNumericError(name)
            bound = ROUND_ABS
            if ROUND_REL * abs(rn) > bound:
                bound = ROUND_REL * abs(rn)
            return ExecValue(K_BOOL, abs(ln - rn) <= bound)
        if name in ("greater", "less", "diff"):
            ln, _ = self.operand(a[0])
            rn, _ = self.operand(a[1])
            if ln is None or rn is None:
                raise NonNumericError(name)
            if name == "greater":
                return ExecValue(K_BOOL, ln > rn)
            if name == "less":
                return ExecValue(K_BOOL, ln < rn)
            return ExecValue(K_NUMBER, ln - rn)
        if name == "and":
            left = self.run(a[0])
            right = self.run(a[1])
            return ExecValue(K_BOOL, bool(left.value) and bool(right.value))
        raise TypeCheckError(f"unknown function {name!r}")
