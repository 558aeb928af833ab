"""The names the benchmark reads from loft exist in loft.

`bench/tracing.py` patches each `(module, function)` of its `TRACED` and
`loft.pipeline._HookProcess.request` when a traced run starts, and reads
each synthesis result's `per_set` entries; `bench/run.py` calls
`loft.realizer.load_phrase_table` in set-up.  A rename in loft would
otherwise only show as a crash of a benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_names() -> tuple[tuple[str, str], ...]:
    """TRACED as written in bench/tracing.py, read without importing it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no TRACED")


@pytest.mark.parametrize("module_name, attr", traced_names(),
                         ids=lambda value: value)
def test_traced_function_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(f"loft.{module_name}"), attr, None))


def test_hook_request_resolves():
    from loft.pipeline import _HookProcess

    assert callable(vars(_HookProcess).get("request"))


def test_phrase_table_loader_resolves():
    # bench/run.py loads the phrase table during each run's set-up
    from loft.realizer import load_phrase_table

    assert callable(load_phrase_table)


def test_synthesis_result_has_what_the_tracer_counts():
    # bench/tracing.py counts attempts, forms and shortfall of each per_set entry
    from loft import Table, default_distribution
    from loft.synthesizer import synthesize_candidates

    table = Table.from_strings("t", "t", ["team", "points"], [["a", "3"], ["b", "5"]])
    result = synthesize_candidates(table, [(0, 1)], default_distribution(), seed=0, candidates=2)
    (res,) = result.per_set
    assert res.attempts >= 1
    assert isinstance(res.forms, list)
    assert res.shortfall == max(0, 2 - len(res.forms))
