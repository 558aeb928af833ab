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

from .catalog import BOOL, CATALOG, HEADER, OBJECT, ORD, VIEW
from .errors import (
    EmptyViewError,
    LoftError,
    NonNumericError,
    RankRangeError,
    TypeCheckError,
    ViewSizeError,
)
from .forms import AllRows, ColumnRef, Literal, LogicForm, parse_logic_form, type_check
from .tables import EMPTY, CellValue, Table, normalize_cell

ROUND_EQ_ABS = 1e-6
ROUND_EQ_REL = 1e-2

K_BOOL = "bool"
K_NUMBER = "number"
K_OBJECT = "object"
K_VIEW = "view"


@dataclass(frozen=True)
class ExecValue:
    """One evaluated value; a view is the tuple of its row indices."""

    kind: str
    value: bool | float | CellValue | tuple[int, ...]

    def to_json(self):
        """JSON-friendly rendering used by the CLI."""
        if self.kind == K_NUMBER:
            v = self.value
            return int(v) if float(v).is_integer() and abs(v) < 1e15 else v
        if self.kind == K_OBJECT:
            return self.value.text
        if self.kind == K_VIEW:
            return list(self.value)
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


_MAJORITY = ("all_", "most_")


def apply(name: str, args: tuple, table: Table) -> ExecValue:
    """One function applied to its evaluated arguments.

    Arguments arrive as ``_eval`` produces them: a view as its row
    indices, a header as its column index, an ordinal as its rank, an object
    as its ``obj_pair`` reading and a bool as a bool.  Nothing is evaluated
    here, so callers that already hold child values can step one node.
    """
    if name == "count":
        return ExecValue(K_NUMBER, float(len(args[0])))
    if name == "only":
        return ExecValue(K_BOOL, len(args[0]) == 1)
    if name == "and":
        return ExecValue(K_BOOL, args[0] and args[1])
    if name in ("eq", "not_eq"):
        (na, ta), (nb, tb) = args
        if na is not None and nb is not None:
            equal = na == nb
        else:
            equal = _norm_text(ta) == _norm_text(tb)
        return ExecValue(K_BOOL, not equal if name == "not_eq" else equal)
    if name in ("round_eq", "greater", "less", "diff"):
        (na, _), (nb, _) = args
        if na is None or nb is None:
            raise NonNumericError(f"{name} needs numeric operands")
        if name == "round_eq":
            return ExecValue(K_BOOL, abs(na - nb) <= max(ROUND_EQ_ABS, ROUND_EQ_REL * abs(nb)))
        if name == "greater":
            return ExecValue(K_BOOL, na > nb)
        if name == "less":
            return ExecValue(K_BOOL, na < nb)
        return ExecValue(K_NUMBER, na - nb)
    rows, col = args[0], args[1]
    if name == "hop":
        if len(rows) != 1:
            raise ViewSizeError(f"hop over a view of {len(rows)} rows")
        return ExecValue(K_OBJECT, table.rows[rows[0]][col])
    if name == "filter_all":
        return ExecValue(K_VIEW, rows)
    if name.startswith(("filter_",) + _MAJORITY):
        op = predicate_op(name)
        obj_num, obj_text = args[2]
        kept = tuple(i for i in rows if cell_predicate(op, table.rows[i][col], obj_num, obj_text))
        if name.startswith("filter_"):
            return ExecValue(K_VIEW, kept)
        if not rows:
            raise EmptyViewError(f"{name}: empty view")
        if name.startswith("all_"):
            return ExecValue(K_BOOL, len(kept) == len(rows))
        return ExecValue(K_BOOL, len(kept) * 2 > len(rows))
    # the rest read the view's numeric cells: avg, sum, argmax, argmin, nth_*
    cands = [(table.rows[i][col].number, i) for i in rows if table.rows[i][col].number is not None]
    if not cands:
        raise EmptyViewError(f"{name}: no numeric values in view")
    if name in ("avg", "sum"):
        total = sum(v for v, _ in cands)
        return ExecValue(K_NUMBER, total / len(cands) if name == "avg" else total)
    if name == "argmax":
        return ExecValue(K_VIEW, (max(cands, key=lambda t: (t[0], -t[1]))[1],))
    if name == "argmin":
        return ExecValue(K_VIEW, (min(cands)[1],))
    n = args[2]
    if n < 1 or n > len(cands):
        raise RankRangeError(f"{name}: rank {n} outside 1..{len(cands)}")
    descending = name.endswith("max")
    value, row = sorted(cands, key=lambda t: (-t[0] if descending else t[0], t[1]))[n - 1]
    if name.startswith("nth_arg"):
        return ExecValue(K_VIEW, (row,))
    return ExecValue(K_NUMBER, value)


def _eval(node: LogicForm, table: Table) -> ExecValue:
    """Evaluate the arguments left to right, each by its signature type,
    then step the node."""
    if isinstance(node, AllRows):
        return ExecValue(K_VIEW, tuple(range(table.n_rows)))
    if isinstance(node, Literal):
        return ExecValue(K_OBJECT, normalize_cell(node.text))
    if isinstance(node, ColumnRef):
        raise TypeCheckError("column reference is not executable on its own")
    name = node.name
    args: list = []
    for arg, arg_type in zip(node.args, CATALOG[name].arg_types):
        if arg_type == VIEW:
            args.append(_eval(arg, table).value)
        elif arg_type == HEADER:
            idx = table.column_index(arg.name)
            if idx is None:
                raise TypeCheckError(f"unknown column {arg.name!r}", kind="unknown_column")
            args.append(idx)
        elif arg_type == ORD:
            args.append(int(arg.text))
        elif arg_type == OBJECT:
            if name.startswith(_MAJORITY) and not args[0]:
                # an empty view fails before the object is evaluated
                raise EmptyViewError(f"{name}: empty view")
            args.append(obj_pair(_eval(arg, table)))
        else:  # BOOL
            args.append(bool(_eval(arg, table).value))
    return apply(name, tuple(args), table)


def execute(lf: LogicForm, table: Table) -> ExecValue:
    """Evaluate a type-checked form. Deterministic; never mutates the table."""
    return _eval(lf, table)


def verify(lf: LogicForm | str, table: Table) -> bool:
    """True iff the form type-checks and executes to boolean true.

    Total: parse, type and execution errors all come back as False.
    """
    try:
        if isinstance(lf, str):
            lf = parse_logic_form(lf)
        if type_check(lf, table).result_type != BOOL:
            return False
        result = execute(lf, table)
        return result.kind == K_BOOL and result.value is True
    except LoftError:
        return False
