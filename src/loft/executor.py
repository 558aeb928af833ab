"""Reference evaluator for logic forms over tables.

Semantics notes that the code cannot show on its own:
  * An object is a cell: a literal is parsed straight to one and is its own
    value, and ``as_object`` makes a computed number one.  eq/not_eq
    compare numerically when both operands read as numbers, otherwise by
    ``CellValue.folded`` (``tables.fold_text``; every empty cell reads as "").
  * round_eq tolerates |a - b| <= max(abs_tol, rel_tol * |b|).
  * Ties in argmax/argmin go to the earliest row; nth_* ranks the sorted
    value multiset, so duplicated values occupy consecutive ranks, the
    earlier row first.  Both rest on a view's rows being in table order.
  * ``kept_rows`` is the one filter rule of filter, all and most alike; it
    and the numeric steps scan the table's column arrays, not its cells.
  * Empty cells always fail filter and majority predicates but still count
    toward the "most" denominator.
  * "most" means strictly more than half of the view's rows.
"""

from __future__ import annotations

from .catalog import BOOL, CATALOG, HEADER, OBJECT, ORD
from .errors import ExecutionError, LoftError, TypeCheckError
from .forms import AllRows, ColumnRef, LogicForm, parse_logic_form, type_check
from .tables import NUMBER, CellValue, Table, float_text

ROUND_EQ_ABS = 1e-6
ROUND_EQ_REL = 1e-2

# a plain value: BOOL, NUM, OBJECT or VIEW (its row indices) in catalog terms
Value = bool | float | CellValue | tuple[int, ...]


def number_text(value: float) -> str:
    """Canonical literal text for a computed number, which reads back as it:
    a whole number below 1e15 as an int, any other by ``tables.float_text``."""
    value = float(value)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return float_text(value)


def as_object(value: float | CellValue) -> CellValue:
    """A cell as is; a number as a number cell holding it exactly, not re-read from its text."""
    if isinstance(value, CellValue):
        return value
    return CellValue(NUMBER, number_text(value), float(value))


def _equal(a: CellValue, b: CellValue) -> bool:
    """The one object equality: numbers when both read as one, else folded text."""
    if a.number is not None and b.number is not None:
        return a.number == b.number
    return a.folded == b.folded


def kept_rows(op: str, rows: tuple[int, ...], table: Table, col: int, obj: CellValue) -> list[int]:
    """The one filter rule, for filter, all and most alike: the view's rows
    whose cell in col passes comparator op against obj, in view order.
    Empty cells fail; an order needs numbers on both sides."""
    nums, folds, n, f = table.numbers[col], table.folds[col], obj.number, obj.folded
    if op == "eq":
        if n is None:
            return [i for i in rows if folds[i] == f]
        # a cell with no number meets a number by its text (see _equal)
        return [i for i in rows if nums[i] == n or nums[i] is None and folds[i] == f]
    if op == "not_eq":
        if n is None:
            return [i for i in rows if folds[i] is not None and folds[i] != f]
        return [i for i in rows
                if folds[i] is not None and nums[i] != n and (nums[i] is not None or folds[i] != f)]
    if n is None:
        return []
    if op == "greater":
        return [i for i in rows if nums[i] is not None and nums[i] > n]
    if op == "less":
        return [i for i in rows if nums[i] is not None and nums[i] < n]
    if op == "greater_eq":
        return [i for i in rows if nums[i] is not None and nums[i] >= n]
    return [i for i in rows if nums[i] is not None and nums[i] <= n]  # less_eq


def apply(name: str, args: tuple, table: Table) -> Value:
    """One function applied to its evaluated arguments.

    Arguments arrive as ``_eval`` produces them: a view as its row
    indices, a header as its column index, an ordinal as its rank, an object
    as a cell (see ``as_object``) and a bool as a bool.  The result is plain
    too, of the function's catalog return type.  Nothing is evaluated here,
    so callers that already hold child values can step one node.
    """
    sig = CATALOG[name]
    if sig.op is not None:  # a filter, all or most function: the commonest step
        rows = args[0]
        kept = kept_rows(sig.op, rows, table, args[1], args[2])
        if sig.family == "filter":
            return tuple(kept)
        if not rows:
            raise ExecutionError(f"{name}: empty view", "empty_view")
        if sig.family == "all":
            return len(kept) == len(rows)
        return len(kept) * 2 > len(rows)
    if name == "count":
        return float(len(args[0]))
    if name == "only":
        return len(args[0]) == 1
    if name == "and":
        return args[0] and args[1]
    if name in ("eq", "not_eq"):
        equal = _equal(*args)
        return not equal if name == "not_eq" else equal
    if sig.family == "numeric_pair":
        na, nb = args[0].number, args[1].number
        if na is None or nb is None:
            raise ExecutionError(f"{name} needs numeric operands", "non_numeric")
        if name == "round_eq":
            return abs(na - nb) <= max(ROUND_EQ_ABS, ROUND_EQ_REL * abs(nb))
        if name == "greater":
            return na > nb
        if name == "less":
            return na < nb
        return na - nb
    rows, col = args[0], args[1]
    if name == "hop":
        if len(rows) != 1:
            raise ExecutionError(f"hop over a view of {len(rows)} rows", "view_size")
        return table.rows[rows[0]][col]
    if name == "filter_all":
        return rows
    # the rest read the view's numbers: avg, sum, argmax, argmin, nth_*
    nums = table.numbers[col]
    numeric = [i for i in rows if nums[i] is not None]
    if not numeric:
        raise ExecutionError(f"{name}: no numeric values in view", "empty_view")
    if name in ("avg", "sum"):
        total = sum([nums[i] for i in numeric])
        return total / len(numeric) if name == "avg" else total
    # max, min and the stable sorts keep the earliest of tied rows first
    if name == "argmax":
        return (max(numeric, key=nums.__getitem__),)
    if name == "argmin":
        return (min(numeric, key=nums.__getitem__),)
    n = args[2]
    if n < 1 or n > len(numeric):
        raise ExecutionError(f"{name}: rank {n} outside 1..{len(numeric)}", "rank_range")
    row = sorted(numeric, key=nums.__getitem__, reverse=name.endswith("max"))[n - 1]
    return (row,) if name.startswith("nth_arg") else nums[row]


def _eval(node: LogicForm, table: Table) -> Value:
    """Evaluate the arguments left to right, each by its signature type,
    then step the node."""
    if isinstance(node, AllRows):
        return tuple(range(table.n_rows))
    if isinstance(node, CellValue):  # a literal is its own value
        return node
    if isinstance(node, ColumnRef):
        raise TypeCheckError("column reference is not executable on its own")
    name, sig = node.name, CATALOG[node.name]
    args: list = []
    for arg, arg_type in zip(node.args, sig.arg_types):
        if arg_type == HEADER:
            idx = table.column_index(arg.name)
            if idx is None:
                raise TypeCheckError(f"unknown column {arg.name!r}", kind="unknown_column")
            args.append(idx)
        elif arg_type == ORD:
            args.append(int(arg.text))
        elif arg_type == OBJECT:
            if sig.family in ("all", "most") and not args[0]:
                # an empty view fails before the object is evaluated
                raise ExecutionError(f"{name}: empty view", "empty_view")
            args.append(as_object(_eval(arg, table)))
        else:  # VIEW or BOOL
            args.append(_eval(arg, table))
    return apply(name, tuple(args), table)


def execute(lf: LogicForm, table: Table) -> Value:
    """Evaluate a type-checked form to its plain value, of the type
    ``type_check`` returned.  Deterministic; never mutates the table."""
    return _eval(lf, table)  # a bare column reference raises here


def verify(lf: LogicForm | str, table: Table) -> bool:
    """True iff the form type-checks and executes to boolean true.

    Total: parse, type and execution errors all come back as False.
    """
    try:
        if isinstance(lf, str):
            lf = parse_logic_form(lf)
        if type_check(lf, table) != BOOL:
            return False
        return execute(lf, table) is True
    except LoftError:
        return False
