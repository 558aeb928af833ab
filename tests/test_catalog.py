"""The catalog's comparator and family fields, and its order.

The fields are checked against readings of the function names made here
and in the oracle, which shares no code with the catalog.  The order is
written out because grounding draws group members by position: a reorder
changes every synthesized corpus.
"""

from loft.catalog import BOOL, CATALOG, COMPARATIVE, GROUPS, ORDER_OPS

from .oracle import _Oracle

PREDICATE_PREFIXES = ("filter_", "all_", "most_")

CATALOG_ORDER = [
    "only", "avg", "sum", "count", "nth_argmax", "nth_argmin", "nth_max", "nth_min",
    "argmax", "argmin", "eq", "not_eq", "round_eq", "greater", "less", "diff",
    "all_eq", "all_not_eq", "all_greater", "all_less", "all_greater_eq", "all_less_eq",
    "most_eq", "most_not_eq", "most_greater", "most_less", "most_greater_eq", "most_less_eq",
    "filter_eq", "filter_not_eq", "filter_greater", "filter_less", "filter_greater_eq",
    "filter_less_eq", "filter_all", "hop", "and",
]

GROUP_ORDER = {
    "only": ("only",),
    "AGGREGATION": ("avg", "sum"),
    "count": ("count",),
    "ORD_ARG": ("nth_argmax", "nth_argmin"),
    "ORDINAL": ("nth_max", "nth_min"),
    "SUPER_ARG": ("argmax", "argmin"),
    "COMPARE_EQ": ("eq", "not_eq"),
    "round_eq": ("round_eq",),
    "COMPARE_GT": ("greater", "less"),
    "diff": ("diff",),
    "MAJORITY_ALL_EQ": ("all_eq", "all_not_eq"),
    "MAJORITY_ALL_GT": ("all_greater", "all_less"),
    "MAJORITY_ALL_GE": ("all_greater_eq", "all_less_eq"),
    "MAJORITY_MOST_EQ": ("most_eq", "most_not_eq"),
    "MAJORITY_MOST_GT": ("most_greater", "most_less"),
    "MAJORITY_MOST_GE": ("most_greater_eq", "most_less_eq"),
    "FILTER_EQ": ("filter_eq", "filter_not_eq"),
    "FILTER_GT": ("filter_greater", "filter_less"),
    "FILTER_GE": ("filter_greater_eq", "filter_less_eq"),
    "filter_all": ("filter_all",),
    "hop": ("hop",),
    "and": ("and",),
}


def test_row_predicates_carry_the_comparator_and_family_their_names_spell():
    predicates = [n for n in CATALOG if n.startswith(PREDICATE_PREFIXES) and n != "filter_all"]
    assert len(predicates) == 18
    for name in predicates:
        sig = CATALOG[name]
        assert sig.op == _Oracle.op_of(name), name
        assert sig.family == name.split("_", 1)[0], name


def test_every_other_function_has_no_comparator():
    others = [n for n in CATALOG if not n.startswith(PREDICATE_PREFIXES) or n == "filter_all"]
    assert others and all(CATALOG[n].op is None for n in others)


def test_numeric_operand_family():
    assert {n for n, s in CATALOG.items() if s.family == "numeric_pair"} == {
        "round_eq", "greater", "less", "diff"}


def test_functions_outside_the_named_families_are_their_own_family():
    named = ("filter", "all", "most", "numeric_pair")
    assert all(s.family == n for n, s in CATALOG.items() if s.family not in named)


def test_order_comparators_are_exactly_the_numeric_threshold_groups():
    groups = {s.group for s in CATALOG.values() if s.op in ORDER_OPS}
    assert groups == {"FILTER_GT", "FILTER_GE", "MAJORITY_ALL_GT", "MAJORITY_ALL_GE",
                      "MAJORITY_MOST_GT", "MAJORITY_MOST_GE"}


def test_compare_groups_are_the_boolean_comparatives():
    # diff is comparative but returns a number; grounding must not treat it as a comparison
    groups = {s.group for s in CATALOG.values() if s.category == COMPARATIVE and s.return_type == BOOL}
    assert groups == {"COMPARE_EQ", "COMPARE_GT", "round_eq"}


def test_catalog_and_group_order_are_pinned():
    assert list(CATALOG) == CATALOG_ORDER
    assert list(GROUPS.items()) == list(GROUP_ORDER.items())
