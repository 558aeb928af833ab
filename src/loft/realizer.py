"""Rule-based surface realization of logic forms, plus table flattening.

Every catalog function has a phrase pattern in data/phrase_table.json.
Functions returning views carry two variants: a plural one used where the
text talks about a set of rows ("rows whose team is a") and a unit one
used where it talks about a single row ("row with the highest points").
Patterns reference arguments by position: {0} renders an argument in its
default shape, {unit0} forces the single-row shape, and {scope0} renders
as nothing for the whole table and as " among ..." for a subview.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from importlib import resources

from .catalog import CATALOG, VIEW
from .forms import AllRows, Apply, ColumnRef, Literal, LogicForm, parse_logic_form
from .tables import Table

_SLOT_RE = re.compile(r"\{(unit|scope)?(\d+)\}")

PLURAL = "plural"
UNIT = "unit"


class PhraseTableError(ValueError):
    pass


def _validate(table: dict) -> dict:
    if "all_rows" not in table or "functions" not in table:
        raise PhraseTableError("phrase table needs all_rows and functions sections")
    for mode in (PLURAL, UNIT):
        if mode not in table["all_rows"]:
            raise PhraseTableError(f"all_rows entry is missing its {mode} phrase")
    functions = table["functions"]
    for name, sig in CATALOG.items():
        entry = functions.get(name)
        if entry is None:
            raise PhraseTableError(f"no phrase for function {name}")
        wanted = (PLURAL, UNIT) if sig.return_type == VIEW else ("pattern",)
        for key in wanted:
            if key not in entry:
                raise PhraseTableError(f"phrase for {name} is missing {key}")
        for pattern in entry.values():
            for kind, pos in _SLOT_RE.findall(pattern):
                idx = int(pos)
                if idx >= len(sig.arg_types):
                    raise PhraseTableError(f"phrase for {name} references arg {idx}")
                if kind and sig.arg_types[idx] != VIEW:
                    raise PhraseTableError(
                        f"phrase for {name} uses {kind} on a non-view arg"
                    )
    return table


@lru_cache(maxsize=1)
def load_phrase_table() -> dict:
    raw = resources.files("loft.data").joinpath("phrase_table.json").read_text("utf-8")
    return _validate(json.loads(raw))


def _render(node: LogicForm, mode: str, phrases: dict) -> str:
    if isinstance(node, AllRows):
        return phrases["all_rows"][mode]
    if isinstance(node, ColumnRef):
        return node.name
    if isinstance(node, Literal):
        return node.text
    sig = CATALOG[node.name]
    entry = phrases["functions"][node.name]
    pattern = entry[mode] if sig.return_type == VIEW else entry["pattern"]

    def fill(match: re.Match) -> str:
        kind, pos = match.group(1), int(match.group(2))
        arg = node.args[pos]
        if kind == "unit":
            return _render(arg, UNIT, phrases)
        if kind == "scope":
            if isinstance(arg, AllRows):
                return ""
            return " among " + _render(arg, PLURAL, phrases)
        return _render(arg, PLURAL, phrases)

    return _SLOT_RE.sub(fill, pattern)


def realize_logic_form(lf: LogicForm | str) -> str:
    """One declarative sentence (no trailing period) describing the form."""
    if isinstance(lf, str):
        lf = parse_logic_form(lf)
    return _render(lf, PLURAL, load_phrase_table())


def serialize_table(table: Table) -> str:
    """Flatten a table to one line for hook payloads and prompts."""
    parts = ["title : " + table.title, "col : " + " | ".join(table.headers)]
    head = " | ".join(parts)
    rows = [
        f"row {i + 1} : " + " | ".join(cell.text for cell in row)
        for i, row in enumerate(table.rows)
    ]
    return " || ".join([head] + rows)
