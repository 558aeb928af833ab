"""Template abstraction and weighted template distributions.

A template is a logic form with entities masked: column references become
COL_i, object literals OBJ_j, ordinal literals ORD_k (each one ``TSlot``
that names the catalog position it fills), and each function is
replaced by its abstraction group (argmax/argmin -> SUPER_ARG); functions
without a direction twin keep their own name (hop stays hop).  Repeated
entities share a placeholder, and placeholders are numbered by first
appearance in printing order, which makes abstraction a pure function of
the form and lets instantiation round-trip exactly.

``parse_template`` is the one place a Template is made: it checks that each
node fills its position by the table ``forms.type_check`` uses,
``catalog.FILLS``, so a Template always holds its column needs.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

from .catalog import (
    BOOL, CATALOG, COMPARATIVE, FILLS, GROUP_SIGNATURES, HEADER, OBJECT, ORD, ORDER_OPS, VIEW,
)
from .errors import DistributionError, ParseError
from .forms import AllRows, Apply, ColumnRef, LogicForm, parse_tree, print_logic_form
from .tables import DATA, Frozen, Memo, json_object

_PLACEHOLDER_RE = re.compile(r"^(COL|OBJ|ORD)_([1-9][0-9]*)$")
# a skeleton's tokens (group names, placeholders, all_rows) in printing order
_TOKEN_RE = re.compile(r"[^\s{};]+")

WEIGHT_SUM_TOLERANCE = 1e-9


class TSlot(Frozen):
    """A placeholder: the catalog position it fills (HEADER for COL_i,
    OBJECT for OBJ_j, ORD for ORD_k) and its number."""

    __slots__ = _compared = ("position", "index")

    def __init__(self, position: str, index: int):
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "index", index)


class TApply(Frozen):
    __slots__ = _compared = ("group", "args")

    def __init__(self, group: str, args: tuple["TemplateNode", ...]):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "args", args)


TemplateNode = AllRows | TSlot | TApply


class Template(Frozen):
    """A skeleton as ``parse_template`` checked it, with whether each COL
    index needs a numeric column."""

    __slots__ = ("skeleton", "needs")
    _compared = ("skeleton",)

    def __init__(self, skeleton: TApply, needs: dict[int, bool]):
        object.__setattr__(self, "skeleton", skeleton)
        object.__setattr__(self, "needs", needs)

    @property
    def category(self) -> str:
        return GROUP_SIGNATURES[self.skeleton.group].category

    def canonical(self) -> str:
        return template_to_string(self.skeleton)


_PLACEHOLDERS = {"COL": HEADER, "OBJ": OBJECT, "ORD": ORD}
_PREFIXES = {position: prefix for prefix, position in _PLACEHOLDERS.items()}


def template_to_string(node: TemplateNode) -> str:
    if isinstance(node, TApply):
        inner = " ; ".join(template_to_string(a) for a in node.args)
        return f"{node.group} {{ {inner} }}"
    if isinstance(node, AllRows):
        return "all_rows"
    return f"{_PREFIXES[node.position]}_{node.index}"


def abstract(lf: LogicForm) -> str:
    """Mask a concrete form into its template's canonical text.

    Placeholder numbering follows first appearance, and identical entities
    reuse their placeholder.  Every form has a template text, and
    ``parse_template`` checks it: it refuses one whose root is not a
    function application, as it refuses an object in a view position.
    """
    numbers: dict[str, dict[str, int]] = {HEADER: {}, OBJECT: {}, ORD: {}}

    def mask(node: LogicForm, position: str | None) -> TemplateNode:
        if isinstance(node, AllRows):
            return node
        if isinstance(node, Apply):
            sig = CATALOG[node.name]
            return TApply(sig.group, tuple(map(mask, node.args, sig.arg_types)))
        if isinstance(node, ColumnRef):
            position, entity = HEADER, node.name
        else:
            position, entity = ORD if position == ORD else OBJECT, node.text
        seen = numbers[position]
        return TSlot(position, seen.setdefault(entity, len(seen) + 1))

    return template_to_string(mask(lf, None))


def _template_leaf(token: str, offset: int, expected: str | None) -> TemplateNode:
    if token == "all_rows":
        return AllRows()
    m = _PLACEHOLDER_RE.match(token)
    if not m:
        raise ParseError(f"expected a placeholder, got {token!r}", offset)
    return TSlot(_PLACEHOLDERS[m.group(1)], int(m.group(2)))


def _check_skeleton(skeleton: TApply, text: str) -> dict[int, bool]:
    """Check a parsed skeleton by the position table ``forms.type_check``
    applies to forms, and return whether each COL needs a numeric column.

    One pre-order walk checks that every node fills its position (the
    root's is boolean; header and ordinal ones take placeholders only), the
    numbering, and that no hop sits over all_rows; it refuses two shapes
    that type-check but never ground: two free objects compared, and a free
    object under diff.  It meets the nodes in the order of their tokens in
    ``text``, which gives each ParseError its offset.
    """
    offsets = (m.start() for m in _TOKEN_RE.finditer(text))
    numbered = dict.fromkeys(_PREFIXES, 0)
    needs: dict[int, bool] = {}

    def visit(node: TemplateNode, position: str, numeric: bool) -> None:
        # numeric: a COL here, or the column a hop here reads, must be numeric
        offset = next(offsets)
        sig = GROUP_SIGNATURES[node.group] if isinstance(node, TApply) else None
        label = f"{node.group} returns type {sig.return_type}" if sig else template_to_string(node)
        fills = FILLS[sig.return_type] if sig else (node.position if isinstance(node, TSlot) else VIEW)
        if fills != position:
            raise ParseError(f"{label} where type {position} is expected", offset)
        if isinstance(node, TSlot):
            if node.index > numbered[fills] + 1:
                raise ParseError(f"{label} is not numbered by first appearance", offset)
            numbered[fills] = max(numbered[fills], node.index)
            if fills == HEADER:
                needs[node.index] = needs.get(node.index, False) or numeric
        if sig is None:
            return
        group = node.group
        if group == "hop" and type(node.args[0]) is AllRows:
            raise ParseError("hop over all_rows never type-checks", offset)
        free = sum(isinstance(arg, TSlot) and arg.position == OBJECT for arg in node.args)
        if sig.category == COMPARATIVE and (free == 2 or group == "diff" and free):
            raise ParseError(f"{group} cannot ground its OBJ: an OBJ under diff or compared "
                             f"with another OBJ can never be grounded", offset)
        reads_number = sig.numeric_column or sig.op in ORDER_OPS or (group == "hop" and numeric)
        for arg, arg_type in zip(node.args, sig.arg_types):
            visit(arg, arg_type,
                  reads_number if arg_type == HEADER else sig.family == "numeric_pair")

    visit(skeleton, BOOL, False)
    return needs


def parse_template(text: str) -> Template:
    """Parse and check one skeleton string.

    Raises the form parser's errors: UnknownFunctionError for a name that
    is not a group, ArityError on argument count, ParseError otherwise,
    including a skeleton that breaks a rule of ``_check_skeleton``.
    """
    skeleton = parse_tree(text, GROUP_SIGNATURES, TApply, _template_leaf)
    if not isinstance(skeleton, TApply):
        raise ParseError("template root must be a function group", 0)
    return Template(skeleton, _check_skeleton(skeleton, text))


class WeightedTemplate(NamedTuple):
    template: Template
    weight: float


class TemplateDistribution(Frozen):
    __slots__ = ("entries", "provenance", "running", "total")
    _compared = ("entries", "provenance")

    def __init__(self, entries: tuple[WeightedTemplate, ...], provenance: str = ""):
        if not entries:
            raise DistributionError("a distribution needs at least one template")
        seen = set()
        for e in entries:
            key = e.template.canonical()
            if key in seen:
                raise DistributionError(f"duplicate template: {key}")
            seen.add(key)
            if not e.weight > 0:  # NaN fails this too
                raise DistributionError(f"weight {e.weight!r} for {key} is not positive")
        weights = [e.weight for e in entries]
        total = sum(weights)
        if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
            raise DistributionError(f"weights sum to {total!r}, expected 1.0")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "running", tuple(accumulate(weights)))
        object.__setattr__(self, "total", total)


def _template_or_error(text: str) -> Template | ParseError:
    try:
        return parse_template(text)
    except ParseError as exc:
        return exc


def mine_templates(forms: list[LogicForm]) -> list[Template | ParseError]:
    """Each form's template, or the ParseError that refuses it; each
    distinct template is checked once."""
    checked = Memo(_template_or_error)
    return [checked[abstract(lf)] for lf in forms]


def build_distribution(forms: list[LogicForm], provenance: str = "corpus") -> TemplateDistribution:
    """Mine a weighted distribution from concrete forms by mine_templates;
    a form whose template parse_template refuses is refused, by name."""
    templates = mine_templates(forms)
    for lf, template in zip(forms, templates):
        if isinstance(template, ParseError):
            raise DistributionError(f"{print_logic_form(lf)}: its template {abstract(lf)}"
                                    f" is refused: {template}")
    return weigh_templates(templates, provenance)


def weigh_templates(templates: list[Template], provenance: str) -> TemplateDistribution:
    """Weigh templates by their occurrence shares.

    Entries are sorted by descending weight, then canonical string, so
    equal corpora give identical files.
    """
    if not templates:
        raise DistributionError("no forms to mine templates from")
    entries = [WeightedTemplate(template=t, weight=c / len(templates))
               for t, c in Counter(templates).items()]
    entries.sort(key=lambda e: (-e.weight, e.template.canonical()))
    return TemplateDistribution(entries=tuple(entries), provenance=provenance)


def save_distribution(dist: TemplateDistribution, path: str | Path) -> None:
    payload = {
        "provenance": dist.provenance,
        "entries": [
            {
                "skeleton": e.template.canonical(),
                "category": e.template.category,
                "weight": e.weight,
            }
            for e in dist.entries
        ],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_distribution(path: str | Path) -> TemplateDistribution:
    path = Path(path)
    try:
        payload = json_object(path.read_bytes())
    except FileNotFoundError as exc:
        raise DistributionError(f"distribution file not found: {path}") from exc
    except ValueError as exc:
        raise DistributionError(f"{path}: {exc}") from exc
    if not isinstance(payload.get("entries"), list):
        raise DistributionError(f"{path}: expected an object with an entries list")
    entries = []
    for i, raw in enumerate(payload["entries"]):
        try:
            template = parse_template(raw["skeleton"])
            if isinstance(raw["weight"], bool):
                raise TypeError(f"weight must be a number, not {raw['weight']!r}")
            weight = float(raw["weight"])
        except (KeyError, TypeError, ValueError, ParseError) as exc:
            raise DistributionError(f"{path}: entry {i}: {exc}") from exc
        declared = raw.get("category")
        if declared is not None and declared != template.category:
            raise DistributionError(
                f"{path}: entry {i}: category {declared!r} does not match root"
            )
        entries.append(WeightedTemplate(template=template, weight=weight))
    try:
        return TemplateDistribution(
            entries=tuple(entries), provenance=str(payload.get("provenance", ""))
        )
    except DistributionError as exc:
        raise DistributionError(f"{path}: {exc}") from exc


def default_distribution() -> TemplateDistribution:
    """The distribution bundled with the package: one hand-written template
    for each reasoning skill, uniform weights."""
    return load_distribution(DATA / "default_templates.json")
