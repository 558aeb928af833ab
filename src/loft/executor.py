"""Reference evaluator for logic forms over tables.

Semantics notes that the code cannot show on its own:
  * eq/not_eq compare numerically when both operands read as numbers,
    otherwise by case-folded, whitespace-collapsed text.
  * round_eq tolerates |a - b| <= max(abs_tol, rel_tol * |b|).
  * Ties in argmax/argmin go to the earliest row; nth_* ranks the sorted
    value multiset, so duplicated values occupy consecutive ranks.
  * Empty cells always fail filter and majority predicates but still count
    toward the "most" denominator.
  * "most" means strictly more than half of the view's rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import BOOL as T_BOOL
from .errors import (
    EmptyViewError,
    LoftError,
    NonNumericError,
    RankRangeError,
    TypeCheckError,
    ViewSizeError,
)
from .forms import AllRows, Apply, ColumnRef, Literal, LogicForm, parse_logic_form, type_check
from .tables import EMPTY, CellValue, Table, View, normalize_cell

ROUND_EQ_ABS = 1e-6
ROUND_EQ_REL = 1e-2

K_BOOL = "bool"
K_NUMBER = "number"
K_OBJECT = "object"
K_VIEW = "view"


@dataclass(frozen=True)
class ExecValue:
    kind: str
    value: bool | float | CellValue | View

    def to_json(self):
        """JSON-friendly rendering used by the CLI."""
        if self.kind == K_NUMBER:
            v = self.value
            return int(v) if float(v).is_integer() and abs(v) < 1e15 else v
        if self.kind == K_OBJECT:
            return self.value.text
        if self.kind == K_VIEW:
            return list(self.value.row_indices)
        return self.value


def number_text(value: float) -> str:
    """Canonical literal text for a computed number."""
    value = float(value)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _norm_text(s: str) -> str:
    return " ".join(s.strip().lower().split())


def obj_pair(v: ExecValue) -> tuple[float | None, str]:
    """Reduce a number/object value to (numeric reading, comparison text)."""
    if v.kind == K_NUMBER:
        return float(v.value), number_text(v.value)
    cell: CellValue = v.value
    if cell.kind == EMPTY:
        return None, ""
    return cell.number, cell.text


def _values_equal(a: ExecValue, b: ExecValue) -> bool:
    na, ta = obj_pair(a)
    nb, tb = obj_pair(b)
    if na is not None and nb is not None:
        return na == nb
    return _norm_text(ta) == _norm_text(tb)


def cell_predicate(op: str, cell: CellValue, obj_num: float | None, obj_text: str) -> bool:
    """Row predicate for filter/majority functions. Empty cells fail."""
    if cell.kind == EMPTY:
        return False
    if op in ("eq", "not_eq"):
        if cell.number is not None and obj_num is not None:
            hit = cell.number == obj_num
        else:
            hit = _norm_text(cell.text) == _norm_text(obj_text)
        return not hit if op == "not_eq" else hit
    if cell.number is None or obj_num is None:
        return False
    if op == "greater":
        return cell.number > obj_num
    if op == "less":
        return cell.number < obj_num
    if op == "greater_eq":
        return cell.number >= obj_num
    return cell.number <= obj_num  # less_eq


_PRED_SUFFIXES = (
    ("greater_eq", "greater_eq"),
    ("less_eq", "less_eq"),
    ("not_eq", "not_eq"),
    ("greater", "greater"),
    ("less", "less"),
    ("eq", "eq"),
)


def predicate_op(name: str) -> str:
    """Comparator carried by a filter_*/all_*/most_* function name."""
    for suffix, op in _PRED_SUFFIXES:
        if name.endswith(suffix):
            return op
    raise ValueError(f"{name} carries no predicate")


class _Evaluator:
    def __init__(self, table: Table, round_abs: float, round_rel: float):
        self.table = table
        self.round_abs = round_abs
        self.round_rel = round_rel

    def eval(self, node: LogicForm) -> ExecValue:
        if isinstance(node, AllRows):
            return ExecValue(K_VIEW, View(self.table, tuple(range(self.table.n_rows))))
        if isinstance(node, Literal):
            return ExecValue(K_OBJECT, normalize_cell(node.text))
        if isinstance(node, ColumnRef):
            raise TypeCheckError("column reference is not executable on its own")
        return self.apply(node)

    def view_rows(self, node: LogicForm) -> tuple[int, ...]:
        return self.eval(node).value.row_indices

    def column(self, node: LogicForm) -> int:
        idx = self.table.column_index(node.name)
        if idx is None:
            raise TypeCheckError(f"unknown column {node.name!r}", kind="unknown_column")
        return idx

    def cells(self, rows: tuple[int, ...], col: int) -> list[CellValue]:
        return [self.table.rows[i][col] for i in rows]

    def numeric_cells(self, rows: tuple[int, ...], col: int) -> list[tuple[float, int]]:
        out = []
        for i in rows:
            cell = self.table.rows[i][col]
            if cell.number is not None:
                out.append((cell.number, i))
        return out

    def apply(self, node: Apply) -> ExecValue:
        name = node.name
        args = node.args

        if name == "count":
            return ExecValue(K_NUMBER, float(len(self.view_rows(args[0]))))
        if name == "only":
            return ExecValue(K_BOOL, len(self.view_rows(args[0])) == 1)
        if name in ("avg", "sum"):
            rows, col = self.view_rows(args[0]), self.column(args[1])
            nums = [v for v, _ in self.numeric_cells(rows, col)]
            if not nums:
                raise EmptyViewError(f"{name}: no numeric values in view")
            total = sum(nums)
            return ExecValue(K_NUMBER, total / len(nums) if name == "avg" else total)
        if name in ("argmax", "argmin"):
            rows, col = self.view_rows(args[0]), self.column(args[1])
            cands = self.numeric_cells(rows, col)
            if not cands:
                raise EmptyViewError(f"{name}: no numeric values in view")
            if name == "argmax":
                best = max(cands, key=lambda t: (t[0], -t[1]))
            else:
                best = min(cands, key=lambda t: (t[0], t[1]))
            return ExecValue(K_VIEW, View(self.table, (best[1],)))
        if name in ("nth_argmax", "nth_argmin", "nth_max", "nth_min"):
            rows, col = self.view_rows(args[0]), self.column(args[1])
            n = int(args[2].text)
            cands = self.numeric_cells(rows, col)
            if not cands:
                raise EmptyViewError(f"{name}: no numeric values in view")
            if n < 1 or n > len(cands):
                raise RankRangeError(f"{name}: rank {n} outside 1..{len(cands)}")
            descending = name.endswith("max")
            ranked = sorted(cands, key=lambda t: (-t[0] if descending else t[0], t[1]))
            value, row = ranked[n - 1]
            if name.startswith("nth_arg"):
                return ExecValue(K_VIEW, View(self.table, (row,)))
            return ExecValue(K_NUMBER, value)
        if name.startswith("filter_") and name != "filter_all":
            rows, col = self.view_rows(args[0]), self.column(args[1])
            op = predicate_op(name)
            obj_num, obj_text = obj_pair(self.eval(args[2]))
            kept = tuple(
                i for i in rows
                if cell_predicate(op, self.table.rows[i][col], obj_num, obj_text)
            )
            return ExecValue(K_VIEW, View(self.table, kept))
        if name == "filter_all":
            rows = self.view_rows(args[0])
            self.column(args[1])
            return ExecValue(K_VIEW, View(self.table, rows))
        if name.startswith(("all_", "most_")):
            rows, col = self.view_rows(args[0]), self.column(args[1])
            if not rows:
                raise EmptyViewError(f"{name}: empty view")
            op = predicate_op(name)
            obj_num, obj_text = obj_pair(self.eval(args[2]))
            hits = sum(
                1 for i in rows
                if cell_predicate(op, self.table.rows[i][col], obj_num, obj_text)
            )
            if name.startswith("all_"):
                return ExecValue(K_BOOL, hits == len(rows))
            return ExecValue(K_BOOL, hits * 2 > len(rows))
        if name == "hop":
            rows, col = self.view_rows(args[0]), self.column(args[1])
            if len(rows) != 1:
                raise ViewSizeError(f"hop over a view of {len(rows)} rows")
            return ExecValue(K_OBJECT, self.table.rows[rows[0]][col])
        if name in ("eq", "not_eq"):
            equal = _values_equal(self.eval(args[0]), self.eval(args[1]))
            return ExecValue(K_BOOL, not equal if name == "not_eq" else equal)
        if name == "round_eq":
            na, _ = obj_pair(self.eval(args[0]))
            nb, _ = obj_pair(self.eval(args[1]))
            if na is None or nb is None:
                raise NonNumericError("round_eq needs numeric operands")
            tol = max(self.round_abs, self.round_rel * abs(nb))
            return ExecValue(K_BOOL, abs(na - nb) <= tol)
        if name in ("greater", "less", "diff"):
            na, _ = obj_pair(self.eval(args[0]))
            nb, _ = obj_pair(self.eval(args[1]))
            if na is None or nb is None:
                raise NonNumericError(f"{name} needs numeric operands")
            if name == "greater":
                return ExecValue(K_BOOL, na > nb)
            if name == "less":
                return ExecValue(K_BOOL, na < nb)
            return ExecValue(K_NUMBER, na - nb)
        if name == "and":
            a = self.eval(args[0])
            b = self.eval(args[1])
            return ExecValue(K_BOOL, bool(a.value) and bool(b.value))
        raise TypeCheckError(f"unknown function {name!r}")  # pragma: no cover


def execute(
    lf: LogicForm,
    table: Table,
    *,
    round_abs: float = ROUND_EQ_ABS,
    round_rel: float = ROUND_EQ_REL,
) -> ExecValue:
    """Evaluate a type-checked form. Deterministic; never mutates the table."""
    return _Evaluator(table, round_abs, round_rel).eval(lf)


def verify(lf: LogicForm | str, table: Table) -> bool:
    """True iff the form type-checks and executes to boolean true.

    Total: parse, type and execution errors all come back as False.
    """
    try:
        if isinstance(lf, str):
            lf = parse_logic_form(lf)
        if type_check(lf, table).result_type != T_BOOL:
            return False
        result = execute(lf, table)
        return result.kind == K_BOOL and result.value is True
    except LoftError:
        return False
