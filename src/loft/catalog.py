"""Function catalog for the logic-form DSL.

Every function carries a reasoning category (eight in total), an
abstraction group used by template mining, argument types and a return
type.  Functions that differ only in comparator direction or polarity
share a group (greater/less, all_greater_eq/all_less_eq, ...); functions
with no such twin keep their own name as the group.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class FunctionSignature:
    name: str
    category: str
    group: str
    arg_types: tuple[str, ...]
    return_type: str
    numeric_column: bool = False  # header argument must be a numeric column


def _sig(name, category, group, args, ret, numeric=False):
    return FunctionSignature(name, category, group, tuple(args), ret, numeric)


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
    _sig("round_eq", COMPARATIVE, "round_eq", [OBJECT, OBJECT], BOOL),
    _sig("greater", COMPARATIVE, "COMPARE_GT", [OBJECT, OBJECT], BOOL),
    _sig("less", COMPARATIVE, "COMPARE_GT", [OBJECT, OBJECT], BOOL),
    _sig("diff", COMPARATIVE, "diff", [OBJECT, OBJECT], NUM),
    _sig("all_eq", MAJORITY, "MAJORITY_ALL_EQ", [VIEW, HEADER, OBJECT], BOOL),
    _sig("all_not_eq", MAJORITY, "MAJORITY_ALL_EQ", [VIEW, HEADER, OBJECT], BOOL),
    _sig("all_greater", MAJORITY, "MAJORITY_ALL_GT", [VIEW, HEADER, OBJECT], BOOL),
    _sig("all_less", MAJORITY, "MAJORITY_ALL_GT", [VIEW, HEADER, OBJECT], BOOL),
    _sig("all_greater_eq", MAJORITY, "MAJORITY_ALL_GE", [VIEW, HEADER, OBJECT], BOOL),
    _sig("all_less_eq", MAJORITY, "MAJORITY_ALL_GE", [VIEW, HEADER, OBJECT], BOOL),
    _sig("most_eq", MAJORITY, "MAJORITY_MOST_EQ", [VIEW, HEADER, OBJECT], BOOL),
    _sig("most_not_eq", MAJORITY, "MAJORITY_MOST_EQ", [VIEW, HEADER, OBJECT], BOOL),
    _sig("most_greater", MAJORITY, "MAJORITY_MOST_GT", [VIEW, HEADER, OBJECT], BOOL),
    _sig("most_less", MAJORITY, "MAJORITY_MOST_GT", [VIEW, HEADER, OBJECT], BOOL),
    _sig("most_greater_eq", MAJORITY, "MAJORITY_MOST_GE", [VIEW, HEADER, OBJECT], BOOL),
    _sig("most_less_eq", MAJORITY, "MAJORITY_MOST_GE", [VIEW, HEADER, OBJECT], BOOL),
    _sig("filter_eq", CONJUNCTION, "FILTER_EQ", [VIEW, HEADER, OBJECT], VIEW),
    _sig("filter_not_eq", CONJUNCTION, "FILTER_EQ", [VIEW, HEADER, OBJECT], VIEW),
    _sig("filter_greater", CONJUNCTION, "FILTER_GT", [VIEW, HEADER, OBJECT], VIEW),
    _sig("filter_less", CONJUNCTION, "FILTER_GT", [VIEW, HEADER, OBJECT], VIEW),
    _sig("filter_greater_eq", CONJUNCTION, "FILTER_GE", [VIEW, HEADER, OBJECT], VIEW),
    _sig("filter_less_eq", CONJUNCTION, "FILTER_GE", [VIEW, HEADER, OBJECT], VIEW),
    _sig("filter_all", CONJUNCTION, "filter_all", [VIEW, HEADER], VIEW),
    _sig("hop", OTHER, "hop", [VIEW, HEADER], OBJECT),
    _sig("and", OTHER, "and", [BOOL, BOOL], BOOL),
]

CATALOG: dict[str, FunctionSignature] = {s.name: s for s in _DEFS}

GROUPS: dict[str, tuple[str, ...]] = {}
for _s in _DEFS:
    GROUPS.setdefault(_s.group, ())
    GROUPS[_s.group] = GROUPS[_s.group] + (_s.name,)

# Groups whose object argument is a numeric threshold; their header column
# must be numeric for any row to satisfy the predicate.
NUMERIC_PREDICATE_GROUPS = frozenset(
    {
        "FILTER_GT",
        "FILTER_GE",
        "MAJORITY_ALL_GT",
        "MAJORITY_ALL_GE",
        "MAJORITY_MOST_GT",
        "MAJORITY_MOST_GE",
    }
)

# Functions whose two object operands must both read as numbers.
NUMERIC_OPERANDS = frozenset({"round_eq", "greater", "less", "diff"})


def group_signature(group: str) -> FunctionSignature:
    """Representative signature of a group (members share types)."""
    return CATALOG[GROUPS[group][0]]


def group_category(group: str) -> str:
    return group_signature(group).category
