"""The two evaluation routes must agree everywhere.

The main evaluator sorts and vectorizes; the cross-check evaluator scans.
Any disagreement on a (table, form) pair is a real bug in one of them, so
these tests freeze hand-computed values first and then compare the routes
on a few thousand random pairs.
"""

import random

import pytest

from loft import Table, execute, parse_logic_form

from .generators import agreement_case, outcome
from .oracle import oracle_execute

# Frozen expectations: worked out by hand on the mt fixture
# (team=[a, b, c], points=[3, 5, 2]) before either engine existed.
HAND_CASES = [
    ("count { all_rows }", ("number", 3.0)),
    ("count { filter_eq { all_rows ; team ; a } }", ("number", 1.0)),
    ("count { filter_greater { all_rows ; points ; 2 } }", ("number", 2.0)),
    ("sum { all_rows ; points }", ("number", 10.0)),
    ("avg { all_rows ; points }", ("number", 10 / 3)),
    ("argmax { all_rows ; points }", ("view", (1,))),
    ("argmin { all_rows ; points }", ("view", (2,))),
    ("nth_argmax { all_rows ; points ; 2 }", ("view", (0,))),
    ("nth_max { all_rows ; points ; 2 }", ("number", 3.0)),
    ("nth_min { all_rows ; points ; 3 }", ("number", 5.0)),
    ("nth_max { all_rows ; points ; 4 }", ("error", "rank_range")),
    ("hop { argmax { all_rows ; points } ; team }", ("object", "text", "b", None)),
    ("hop { all_rows ; team }", ("error", "view_size")),
    ("avg { filter_eq { all_rows ; team ; zzz } ; points }", ("error", "empty_view")),
    ("eq { count { all_rows } ; 3 }", ("bool", True)),
    ("not_eq { count { all_rows } ; 3 }", ("bool", False)),
    ("round_eq { avg { all_rows ; points } ; 3.33 }", ("bool", True)),
    ("greater { nth_max { all_rows ; points ; 1 } ; 4 }", ("bool", True)),
    ("less { a ; b }", ("error", "non_numeric")),
    ("diff { sum { all_rows ; points } ; 4 }", ("number", 6.0)),
    ("most_greater { all_rows ; points ; 2 }", ("bool", True)),
    ("all_greater { all_rows ; points ; 2 }", ("bool", False)),
    ("all_greater_eq { all_rows ; points ; 2 }", ("bool", True)),
    ("most_eq { filter_eq { all_rows ; team ; zzz } ; points ; 1 }", ("error", "empty_view")),
    # error precedence: an empty view fails before a failing object subform,
    # and an unknown column before the object is evaluated
    ("most_eq { filter_eq { all_rows ; team ; zzz } ; points ; "
     "hop { filter_eq { all_rows ; team ; zzz } ; points } }", ("error", "empty_view")),
    ("filter_eq { all_rows ; nosuch ; hop { all_rows ; team } }", ("error", "unknown_column")),
    ("only { filter_eq { all_rows ; team ; a } }", ("bool", True)),
    ("only { all_rows }", ("bool", False)),
    ("filter_not_eq { all_rows ; team ; a }", ("view", (1, 2))),
    ("filter_less_eq { all_rows ; points ; 3 }", ("view", (0, 2))),
    ("and { only { filter_eq { all_rows ; team ; a } } ; eq { count { all_rows } ; 3 } }", ("bool", True)),
]


@pytest.mark.parametrize("text, expected", HAND_CASES, ids=[c[0] for c in HAND_CASES])
def test_both_routes_match_frozen_values(mt, text, expected):
    lf = parse_logic_form(text)
    assert outcome(execute, lf, mt) == expected
    assert outcome(oracle_execute, lf, mt) == expected


class TestRandomAgreement:
    def test_routes_agree_on_random_forms(self):
        disagreements = []
        for seed in range(300):
            rng = random.Random(seed)
            table, form, main, cross = agreement_case(rng)
            if main != cross:
                disagreements.append((seed, form, main, cross))
        assert not disagreements, disagreements[:3]

    def test_routes_agree_on_literal_heavy_forms(self):
        # comparisons between raw literals stress text folding and the
        # numeric-prefix reader
        texts = ["5", "5.0", " 5 ", "05", "a", "A ", "5 (t2)", "63%", "1,000", "-", ""]
        table = Table.from_strings("lit", "lit", ["c"], [["1"]])
        for name in ("eq", "not_eq", "round_eq", "greater", "less", "diff"):
            for a in texts:
                for b in texts:
                    if not a.strip() or not b.strip():
                        continue  # bare empties cannot be written as tokens
                    lf = parse_logic_form(f"{name} {{ {a} ; {b} }}")
                    assert outcome(execute, lf, table) == outcome(oracle_execute, lf, table), (
                        name, a, b,
                    )


class TestOracleLimits:
    def test_rejects_too_many_rows(self):
        table = Table.from_strings("big", "big", ["c"], [["1"]] * 13)
        with pytest.raises(ValueError):
            oracle_execute(parse_logic_form("count { all_rows }"), table)

    def test_rejects_too_many_columns(self):
        headers = [f"c{i}" for i in range(7)]
        table = Table.from_strings("wide", "wide", headers, [["1"] * 7])
        with pytest.raises(ValueError):
            oracle_execute(parse_logic_form("count { all_rows }"), table)

    def test_accepts_the_boundary(self):
        headers = [f"c{i}" for i in range(6)]
        table = Table.from_strings("edge", "edge", headers, [["1"] * 6] * 12)
        got = oracle_execute(parse_logic_form("count { all_rows }"), table)
        assert got.value == 12.0
