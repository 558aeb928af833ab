"""Template abstraction and weighted template distributions.

A template is a logic form with entities masked: column references become
COL_i, object literals OBJ_j, ordinal literals ORD_k, and each function is
replaced by its abstraction group (argmax/argmin -> SUPER_ARG); functions
without a direction twin keep their own name (hop stays hop).  Repeated
entities share a placeholder, and placeholders are numbered by first
appearance in printing order, which makes abstraction a pure function of
the form and lets instantiation round-trip exactly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

from .catalog import (
    CATALOG,
    GROUP_SIGNATURES,
    HEADER,
    OBJECT,
    ORD,
    VIEW,
)
from .errors import DistributionError, ParseError
from .forms import AllRows, Apply, ColumnRef, Literal, LogicForm, parse_tree, walk
from .tables import json_object

_PLACEHOLDER_RE = re.compile(r"^(COL|OBJ|ORD)_([1-9][0-9]*)$")

WEIGHT_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class TAllRows:
    pass


@dataclass(frozen=True)
class TCol:
    index: int


@dataclass(frozen=True)
class TObj:
    index: int


@dataclass(frozen=True)
class TOrd:
    index: int


@dataclass(frozen=True)
class TApply:
    group: str
    args: tuple["TemplateNode", ...]


TemplateNode = TAllRows | TCol | TObj | TOrd | TApply


@dataclass(frozen=True)
class Template:
    skeleton: TApply
    category: str

    def canonical(self) -> str:
        return template_to_string(self.skeleton)


def template_to_string(node: TemplateNode) -> str:
    if isinstance(node, TAllRows):
        return "all_rows"
    if isinstance(node, TCol):
        return f"COL_{node.index}"
    if isinstance(node, TObj):
        return f"OBJ_{node.index}"
    if isinstance(node, TOrd):
        return f"ORD_{node.index}"
    inner = " ; ".join(template_to_string(a) for a in node.args)
    return f"{node.group} {{ {inner} }}"


def abstract(lf: LogicForm) -> Template:
    """Mask a concrete form into its template.

    The root must be a function application; placeholder numbering follows
    first appearance, and identical entities reuse their placeholder.
    """
    if not isinstance(lf, Apply):
        raise ValueError("only function applications can be abstracted")
    cols: dict[str, int] = {}
    objs: dict[str, int] = {}
    ords: dict[str, int] = {}

    def mask(node: LogicForm, position: str | None) -> TemplateNode:
        if isinstance(node, AllRows):
            return TAllRows()
        if isinstance(node, ColumnRef):
            idx = cols.setdefault(node.name, len(cols) + 1)
            return TCol(idx)
        if isinstance(node, Literal):
            if position == ORD:
                idx = ords.setdefault(node.text, len(ords) + 1)
                return TOrd(idx)
            idx = objs.setdefault(node.text, len(objs) + 1)
            return TObj(idx)
        sig = CATALOG[node.name]
        args = tuple(mask(a, t) for a, t in zip(node.args, sig.arg_types))
        return TApply(sig.group, args)

    skeleton = mask(lf, None)
    return Template(skeleton=skeleton, category=CATALOG[lf.name].category)


def _template_leaf(token: str, offset: int, expected: str | None) -> TemplateNode:
    if token == "all_rows":
        if expected not in (VIEW, None):
            raise ParseError("all_rows outside a view position", offset)
        return TAllRows()
    m = _PLACEHOLDER_RE.match(token)
    if not m:
        raise ParseError(f"expected a placeholder, got {token!r}", offset)
    kind, index = m.group(1), int(m.group(2))
    if kind == "COL":
        if expected != HEADER:
            raise ParseError("COL placeholder outside a header position", offset)
        return TCol(index)
    if kind == "ORD":
        if expected != ORD:
            raise ParseError("ORD placeholder outside an ordinal position", offset)
        return TOrd(index)
    if expected not in (OBJECT,):
        raise ParseError("OBJ placeholder outside an object position", offset)
    return TObj(index)


def _check_numbering(skeleton: TApply) -> None:
    """Placeholders must be numbered 1..n by first appearance."""
    seen: dict[str, list[int]] = {"COL": [], "OBJ": [], "ORD": []}
    for node in walk(skeleton):
        for kind, cls in (("COL", TCol), ("OBJ", TObj), ("ORD", TOrd)):
            if isinstance(node, cls) and node.index not in seen[kind]:
                if node.index != len(seen[kind]) + 1:
                    raise ParseError(
                        f"{kind} placeholders must be numbered by first appearance"
                    )
                seen[kind].append(node.index)


def parse_template(text: str) -> Template:
    """Parse and validate one skeleton string.

    Raises the form parser's errors: UnknownFunctionError for a name that
    is not a group, ArityError on argument count, ParseError otherwise.
    """
    skeleton = parse_tree(text, GROUP_SIGNATURES, TApply, _template_leaf)
    if not isinstance(skeleton, TApply):
        raise ParseError("template root must be a function group", 0)
    _check_numbering(skeleton)
    return Template(skeleton=skeleton, category=GROUP_SIGNATURES[skeleton.group].category)


@dataclass(frozen=True)
class WeightedTemplate:
    template: Template
    weight: float


@dataclass(frozen=True)
class TemplateDistribution:
    entries: tuple[WeightedTemplate, ...]
    provenance: str = ""
    running: tuple[float, ...] = field(init=False, repr=False, compare=False)
    total: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.entries:
            raise DistributionError("a distribution needs at least one template")
        seen = set()
        for e in self.entries:
            key = e.template.canonical()
            if key in seen:
                raise DistributionError(f"duplicate template: {key}")
            seen.add(key)
            if not e.weight > 0:  # NaN fails this too
                raise DistributionError(f"weight {e.weight!r} for {key} is not positive")
        weights = [e.weight for e in self.entries]
        object.__setattr__(self, "running", tuple(accumulate(weights)))
        object.__setattr__(self, "total", sum(weights))
        if abs(self.total - 1.0) > WEIGHT_SUM_TOLERANCE:
            raise DistributionError(f"weights sum to {self.total!r}, expected 1.0")


def build_distribution(forms: list[LogicForm], provenance: str = "corpus") -> TemplateDistribution:
    """Mine a weighted distribution from concrete forms.

    Weights are occurrence shares; entries are sorted by descending weight,
    then canonical string, so equal corpora give identical files.
    """
    if not forms:
        raise DistributionError("no forms to mine templates from")
    counts: dict[str, tuple[Template, int]] = {}
    for lf in forms:
        template = abstract(lf)
        key = template.canonical()
        prev = counts.get(key)
        counts[key] = (template, (prev[1] if prev else 0) + 1)
    total = sum(c for _, c in counts.values())
    entries = [
        WeightedTemplate(template=t, weight=c / total) for t, c in counts.values()
    ]
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
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_distribution(path: str | Path) -> TemplateDistribution:
    path = Path(path)
    try:
        payload = json_object(path.read_bytes())
    except FileNotFoundError as exc:
        raise DistributionError(f"distribution file not found: {path}") from exc
    except ValueError as exc:
        raise DistributionError(f"{path}: {exc}") from exc
    return distribution_from_payload(payload, where=str(path))


def distribution_from_payload(payload: dict, where: str = "<payload>") -> TemplateDistribution:
    if not isinstance(payload, dict) or not isinstance(payload.get("entries"), list):
        raise DistributionError(f"{where}: expected an object with an entries list")
    entries = []
    for i, raw in enumerate(payload["entries"]):
        try:
            template = parse_template(raw["skeleton"])
            if isinstance(raw["weight"], bool):
                raise TypeError(f"weight must be a number, not {raw['weight']!r}")
            weight = float(raw["weight"])
        except (KeyError, TypeError, ValueError, ParseError) as exc:
            raise DistributionError(f"{where}: entry {i}: {exc}") from exc
        declared = raw.get("category")
        if declared is not None and declared != template.category:
            raise DistributionError(
                f"{where}: entry {i}: category {declared!r} does not match root"
            )
        entries.append(WeightedTemplate(template=template, weight=weight))
    try:
        return TemplateDistribution(
            entries=tuple(entries), provenance=str(payload.get("provenance", ""))
        )
    except DistributionError as exc:
        raise DistributionError(f"{where}: {exc}") from exc


def default_distribution() -> TemplateDistribution:
    """The distribution bundled with the package: one hand-written template
    for each reasoning skill, uniform weights."""
    from importlib.resources import files

    payload = json.loads(
        files("loft.data").joinpath("default_templates.json").read_text(encoding="utf-8")
    )
    return distribution_from_payload(payload, where="default_templates.json")
