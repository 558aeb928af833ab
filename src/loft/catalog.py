"""Function catalog for the logic-form DSL.

Every function carries a reasoning category (eight in total), an
abstraction group used by template mining, argument types and a return
type.  Functions that differ only in comparator direction or polarity
share a group (greater/less, all_greater_eq/all_less_eq, ...); functions
with no such twin keep their own name as the group.

Two more fields say what a function does, so no caller reads it from the
name.  ``family`` is ``filter``, ``all`` or ``most`` for the row-predicate
functions (a filter keeps the passing rows; ``all`` holds when every row
passes, ``most`` when more than half do), ``numeric_pair`` for the
functions whose two objects must both read as numbers (round_eq, greater,
less, diff), and the function's own name for every other function.
``op`` is the comparator a row-predicate function tests each cell with
(eq, not_eq, greater, less, greater_eq, less_eq) and None elsewhere.
"""

from __future__ import annotations

from .tables import Frozen

UNIQUE = "unique"
AGGREGATION = "aggregation"
COUNT = "count"
ORDINAL = "ordinal"
COMPARATIVE = "comparative"
MAJORITY = "majority"
CONJUNCTION = "conjunction"
OTHER = "other"

CATEGORIES = (
    UNIQUE,
    AGGREGATION,
    COUNT,
    ORDINAL,
    COMPARATIVE,
    MAJORITY,
    CONJUNCTION,
    OTHER,
)

# Argument / return type tags.  "ordinal" is an object position restricted
# to a positive integer literal at type-check time.
VIEW = "view"
HEADER = "header"
OBJECT = "object"
ORD = "ordinal"
BOOL = "bool"
NUM = "number"

# The position a node of each type fills, in forms and templates alike: a
# number fills an object position, every other type its own.
FILLS = {VIEW: VIEW, HEADER: HEADER, OBJECT: OBJECT, ORD: ORD, BOOL: BOOL, NUM: OBJECT}


class FunctionSignature(Frozen):
    """One catalog function.  ``numeric_column`` says its header argument
    must be a numeric column, and ``op`` is the comparator of a
    filter/all/most function (None elsewhere)."""

    __slots__ = _compared = ("name", "category", "group", "arg_types", "return_type", "family",
                             "numeric_column", "op")

    def __init__(self, name: str, category: str, group: str, arg_types: tuple[str, ...],
                 return_type: str, family: str, numeric_column: bool = False,
                 op: str | None = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "category", category)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "arg_types", arg_types)
        object.__setattr__(self, "return_type", return_type)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "numeric_column", numeric_column)
        object.__setattr__(self, "op", op)


def _sig(name, category, group, args, ret, numeric=False, family=None):
    return FunctionSignature(name, category, group, tuple(args), ret, family or name, numeric)


# Each row-predicate comparator, with the suffix of the group it shares
# with its twin (eq/not_eq, greater/less, greater_eq/less_eq); the order
# is the catalog's, which template grounding draws members by.
_COMPARATORS = {
    "eq": "EQ", "not_eq": "EQ", "greater": "GT", "less": "GT", "greater_eq": "GE", "less_eq": "GE",
}
# comparators that order numbers: their object is a numeric threshold
ORDER_OPS = frozenset(op for op, suffix in _COMPARATORS.items() if suffix != "EQ")


def _predicates(family, category, group, ret):
    """The six ``<family>_<op>`` functions, one per comparator."""
    return [
        FunctionSignature(f"{family}_{op}", category, f"{group}_{suffix}", (VIEW, HEADER, OBJECT),
                          ret, family, op=op)
        for op, suffix in _COMPARATORS.items()
    ]


_DEFS = [
    _sig("only", UNIQUE, "only", [VIEW], BOOL),
    _sig("avg", AGGREGATION, "AGGREGATION", [VIEW, HEADER], NUM, numeric=True),
    _sig("sum", AGGREGATION, "AGGREGATION", [VIEW, HEADER], NUM, numeric=True),
    _sig("count", COUNT, "count", [VIEW], NUM),
    _sig("nth_argmax", ORDINAL, "ORD_ARG", [VIEW, HEADER, ORD], VIEW, numeric=True),
    _sig("nth_argmin", ORDINAL, "ORD_ARG", [VIEW, HEADER, ORD], VIEW, numeric=True),
    _sig("nth_max", ORDINAL, "ORDINAL", [VIEW, HEADER, ORD], NUM, numeric=True),
    _sig("nth_min", ORDINAL, "ORDINAL", [VIEW, HEADER, ORD], NUM, numeric=True),
    _sig("argmax", ORDINAL, "SUPER_ARG", [VIEW, HEADER], VIEW, numeric=True),
    _sig("argmin", ORDINAL, "SUPER_ARG", [VIEW, HEADER], VIEW, numeric=True),
    _sig("eq", COMPARATIVE, "COMPARE_EQ", [OBJECT, OBJECT], BOOL),
    _sig("not_eq", COMPARATIVE, "COMPARE_EQ", [OBJECT, OBJECT], BOOL),
    _sig("round_eq", COMPARATIVE, "round_eq", [OBJECT, OBJECT], BOOL, family="numeric_pair"),
    _sig("greater", COMPARATIVE, "COMPARE_GT", [OBJECT, OBJECT], BOOL, family="numeric_pair"),
    _sig("less", COMPARATIVE, "COMPARE_GT", [OBJECT, OBJECT], BOOL, family="numeric_pair"),
    _sig("diff", COMPARATIVE, "diff", [OBJECT, OBJECT], NUM, family="numeric_pair"),
    *_predicates("all", MAJORITY, "MAJORITY_ALL", BOOL),
    *_predicates("most", MAJORITY, "MAJORITY_MOST", BOOL),
    *_predicates("filter", CONJUNCTION, "FILTER", VIEW),
    _sig("filter_all", CONJUNCTION, "filter_all", [VIEW, HEADER], VIEW),
    _sig("hop", OTHER, "hop", [VIEW, HEADER], OBJECT),
    _sig("and", OTHER, "and", [BOOL, BOOL], BOOL),
]

CATALOG: dict[str, FunctionSignature] = {s.name: s for s in _DEFS}

GROUPS: dict[str, tuple[str, ...]] = {}
for _s in _DEFS:
    GROUPS.setdefault(_s.group, ())
    GROUPS[_s.group] = GROUPS[_s.group] + (_s.name,)

# Each group's representative signature: its members share types, category
# and family.
GROUP_SIGNATURES: dict[str, FunctionSignature] = {
    group: CATALOG[members[0]] for group, members in GROUPS.items()
}
