"""What loft keeps in memory: nothing after a re-import, little per value."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loft
from loft.forms import AllRows, Apply, ColumnRef, parse_logic_form
from loft.tables import load_corpus, normalize_cell

LOFT_ROOT = str(Path(loft.__file__).resolve().parents[1])

# Imports loft, drops every loft module, imports it again and prints which
# classes of the first import are still alive after a collection.
REIMPORT = """
import gc, importlib, json, sys, weakref

def first_import():
    import loft  # noqa: F401
    loaded = [m for name, m in sys.modules.items() if name == "loft" or name.startswith("loft.")]
    refs = {f"{m.__name__}.{name}": weakref.ref(value) for m in loaded
            for name, value in vars(m).items()
            if isinstance(value, type) and value.__module__ == m.__name__}
    for m in loaded:
        del sys.modules[m.__name__]
    return refs

refs = first_import()
importlib.import_module("loft")
gc.collect()
print(json.dumps({"classes": sorted(refs),
                  "alive": sorted(name for name, ref in refs.items() if ref() is not None)}))
"""


def test_a_reimport_leaves_no_class_of_the_first_import_alive():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [LOFT_ROOT, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", REIMPORT], capture_output=True, text=True,
                            env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    got = json.loads(result.stdout)
    assert {"loft.forms.Apply", "loft.tables.CellValue", "loft.templates.TApply"} <= set(
        got["classes"])
    assert got["alive"] == []


@pytest.mark.parametrize("value", [
    normalize_cell("3"), normalize_cell("a b"), normalize_cell("-"),
    AllRows(), ColumnRef("points"), Apply("count", (AllRows(),)),
    # the literal leaf of a parsed form is a CellValue
    pytest.param(parse_logic_form("eq { count { all_rows } ; 3 }").args[1],
                 id="Literal(text='3')"),
], ids=repr)
def test_cells_and_form_nodes_have_no_instance_dict(value):
    assert not hasattr(value, "__dict__")


def test_a_loaded_corpus_holds_one_cell_value_per_distinct_text(tmp_path):
    rows = [["1", "ann", "-"], ["2", "bob", "1"], [" 1", "ann", "n/a"]]
    records = [{"table_id": f"t{i}", "title": "t", "header": ["a", "b", "c"], "rows": rows}
               for i in range(50)]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    entries = load_corpus(path)
    cells = [cell for entry in entries for row in entry.table.rows for cell in row]
    assert len(cells) == 450
    # " 1" and "1" make equal cells, but only equal texts share one
    assert len({id(cell) for cell in cells}) == len({text for row in rows for text in row}) == 7
