"""The functions the benchmark's tracer wraps by name exist in loft.

`bench/tracing.py` patches each `(module, function)` of its `TRACED` and
`loft.pipeline._HookProcess.request` when a traced run starts, so a rename
in loft would otherwise only show as a crash of that run.
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
