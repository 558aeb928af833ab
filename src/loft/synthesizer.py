"""Candidate synthesis: weighted template sampling plus bottom-up filling.

Placeholders are grounded innermost-first against the live table: filter
objects come from cell values of the current view (so the subview is never
empty), comparison thresholds sit inside the view's value range, ordinal
ranks stay within the usable value multiset, and values compared against a
computed subform (a count, an aggregate, a looked-up cell) are set to that
computed result instead of being guessed.  A node's value comes from the
executor's per-node step applied to the values its children already
produced, so no subtree is executed twice.  Every filled form still goes
through verification before it is returned, so these strategies only buy
speed, never soundness.

All randomness flows through one generator per table, seeded from
(seed, table_id), so runs are reproducible regardless of corpus order.
"""

from __future__ import annotations

import hashlib
import logging
import random
from dataclasses import dataclass, field

from .catalog import BOOL, CATALOG, GROUPS, HEADER, NUMERIC_PREDICATE_GROUPS, group_signature
from .errors import LoftError
from .executor import (
    K_OBJECT,
    ExecValue,
    apply,
    cell_predicate,
    number_text,
    obj_pair,
    predicate_op,
    verify,
)
from .forms import AllRows, Apply, ColumnRef, Literal, LogicForm, print_logic_form
from .tables import EMPTY, NUMERIC, CellValue, Table, normalize_cell
from .templates import (
    TAllRows,
    TApply,
    TCol,
    TObj,
    TOrd,
    Template,
    TemplateDistribution,
    TemplateNode,
)

log = logging.getLogger(__name__)

_COMPARE_GROUPS = ("COMPARE_EQ", "COMPARE_GT", "round_eq")
_MAJORITY_GROUPS = (
    "MAJORITY_ALL_EQ",
    "MAJORITY_ALL_GT",
    "MAJORITY_ALL_GE",
    "MAJORITY_MOST_EQ",
    "MAJORITY_MOST_GT",
    "MAJORITY_MOST_GE",
)
_FILTER_GROUPS = ("FILTER_EQ", "FILTER_GT", "FILTER_GE")


@dataclass(frozen=True)
class SynthesisConfig:
    candidates_per_column_set: int = 20
    seed: int = 13
    max_column_sets: int = 4

    def __post_init__(self):
        if self.candidates_per_column_set < 1:
            raise ValueError("candidates_per_column_set must be positive")


def table_rng(seed: int, table_id: str, salt: str = "") -> random.Random:
    """Private generator for one table, stable across corpus order."""
    digest = hashlib.sha256(f"{seed}:{table_id}:{salt}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def sample_template(dist: TemplateDistribution, rng: random.Random) -> Template:
    """Draw one template with probability proportional to its weight."""
    total = sum(e.weight for e in dist.entries)
    point = rng.random() * total
    acc = 0.0
    for entry in dist.entries:
        acc += entry.weight
        if point <= acc:
            return entry.template
    return dist.entries[-1].template


def derive_column_sets(
    table: Table, rng: random.Random, max_sets: int = 4
) -> list[tuple[int, ...]]:
    """Sample up to max_sets subsets of 2-3 columns, each containing a
    numeric column whenever the table has one."""
    n = len(table.headers)
    if n == 1:
        return [(0,)]
    numeric = [i for i in range(n) if table.column_types[i] == NUMERIC]
    sets: list[tuple[int, ...]] = []
    for _ in range(max_sets * 10):
        if len(sets) >= max_sets:
            break
        size = rng.randint(2, min(3, n))
        chosen: list[int] = []
        if numeric:
            chosen.append(rng.choice(numeric))
        rest = [i for i in range(n) if i not in chosen]
        while len(chosen) < size and rest:
            pick = rng.choice(rest)
            chosen.append(pick)
            rest.remove(pick)
        candidate = tuple(sorted(chosen))
        if candidate not in sets:
            sets.append(candidate)
    return sets


class _Fail(Exception):
    """One draw could not be grounded; the caller retries."""


def _column_needs(skeleton: TApply) -> dict[int, bool]:
    """Which COL placeholders must be numeric columns."""
    needs: dict[int, bool] = {}

    def scan(node: TemplateNode, numeric_hop: bool = False) -> None:
        if not isinstance(node, TApply):
            return
        sig = group_signature(node.group)
        numeric = sig.numeric_column or node.group in NUMERIC_PREDICATE_GROUPS
        if node.group == "hop" and numeric_hop:
            numeric = True
        # hop results fed into numeric comparison must come from numeric columns
        child_hop_numeric = node.group in ("COMPARE_GT", "round_eq", "diff")
        for arg, arg_type in zip(node.args, sig.arg_types):
            if arg_type == HEADER:
                if isinstance(arg, TCol):
                    needs[arg.index] = needs.get(arg.index, False) or numeric
            else:
                scan(arg, numeric_hop=child_hop_numeric)

    scan(skeleton)
    return needs


class _Attempt:
    """One grounding attempt; owns the placeholder assignments."""

    def __init__(
        self, table: Table, columns: list[int], rng: random.Random, needs: dict[int, bool]
    ):
        self.table = table
        self.rng = rng
        self.objs: dict[int, str] = {}
        self.ords: dict[int, int] = {}
        self.cols = self._assign_columns(needs, columns)

    # -- assignment helpers ----------------------------------------------

    def _assign_columns(self, needs: dict[int, bool], columns: list[int]) -> dict[int, int]:
        assign: dict[int, int] = {}
        used: set[int] = set()
        for idx in sorted(needs):
            eligible = [
                c
                for c in columns
                if c not in used
                and (not needs[idx] or self.table.column_types[c] == NUMERIC)
            ]
            if not eligible:
                raise _Fail()
            choice = self.rng.choice(eligible)
            assign[idx] = choice
            used.add(choice)
        return assign

    def choice(self, candidates: list):
        if not candidates:
            raise _Fail()
        return self.rng.choice(candidates)

    def new_obj(self, index: int, candidates: list[str]) -> str:
        taken = set(self.objs.values())
        free = [c for c in candidates if c not in taken]
        text = self.choice(free)
        self.objs[index] = text
        return text

    def bind_ord(self, node: TOrd, limit: int) -> int:
        if node.index in self.ords:
            value = self.ords[node.index]
            if value > limit:
                raise _Fail()
            return value
        taken = set(self.ords.values())
        free = [n for n in range(1, limit + 1) if n not in taken]
        value = self.choice(free)
        self.ords[node.index] = value
        return value

    def bind_obj(self, node: TemplateNode, pool) -> tuple[LogicForm, tuple[float | None, str]]:
        """Form and value of a filter or majority object: a computed subform,
        the literal already bound to the placeholder, or a draw from pool()."""
        if not isinstance(node, TObj):
            return self.fill_value(node)
        if node.index in self.objs:
            text = self.objs[node.index]
        else:
            text = self.new_obj(node.index, pool())
        return Literal(text), _literal_value(text)

    # -- execution helpers -----------------------------------------------

    def step(self, name: str, *args) -> ExecValue:
        """The value of one node, from the child values already computed."""
        try:
            return apply(name, args, self.table)
        except LoftError:
            raise _Fail() from None

    def col_ref(self, node: TCol) -> tuple[ColumnRef, int]:
        col = self.cols[node.index]
        return ColumnRef(self.table.headers[col]), col

    def view_cells(self, rows: tuple[int, ...], col: int) -> list[CellValue]:
        return [self.table.rows[i][col] for i in rows]

    def numeric_count(self, rows: tuple[int, ...], col: int) -> int:
        """Numeric cells of the column within the view; none fails the draw."""
        usable = sum(1 for c in self.view_cells(rows, col) if c.number is not None)
        if usable == 0:
            raise _Fail()
        return usable

    # -- candidate pools ---------------------------------------------------

    @staticmethod
    def _distinct(cells: list[CellValue]) -> list[tuple[float | None, str]]:
        """Distinct non-empty values by comparison key, first text wins."""
        out: dict[object, tuple[float | None, str]] = {}
        for cell in cells:
            if cell.kind == EMPTY:
                continue
            key = cell.number if cell.number is not None else cell.text.lower()
            if key not in out:
                out[key] = (cell.number, cell.text)
        return list(out.values())

    def filter_obj_candidates(
        self, member: str, col: int, rows: tuple[int, ...], unique: bool
    ) -> list[str]:
        cells = self.view_cells(rows, col)
        op = predicate_op(member)
        candidates = []
        for num, text in self._distinct(cells):
            kept = sum(1 for c in cells if cell_predicate(op, c, num, text))
            if (kept == 1) if unique else (kept >= 1):
                candidates.append(text)
        return candidates

    def majority_obj_candidates(
        self, member: str, col: int, rows: tuple[int, ...]
    ) -> list[str]:
        cells = self.view_cells(rows, col)
        op = predicate_op(member)
        is_all = member.startswith("all_")
        pool = self._distinct(cells)
        # values absent from the view and synthetic extremes give the
        # all_not_eq / all_greater family something true to say
        pool += self._distinct(self.table.column_cells(col))
        numbers = [num for num, _ in pool if num is not None]
        if numbers:
            low, high = min(numbers), max(numbers)
            pool.append((low - 1, number_text(low - 1)))
            pool.append((high + 1, number_text(high + 1)))
        seen: set[str] = set()
        candidates = []
        for num, text in pool:
            if text in seen:
                continue
            seen.add(text)
            hits = sum(1 for c in cells if cell_predicate(op, c, num, text))
            ok = hits == len(cells) if is_all else hits * 2 > len(cells)
            if ok:
                candidates.append(text)
        return candidates

    # -- recursive filling -------------------------------------------------

    def fill_view(self, node: TemplateNode, unique: bool = False) -> tuple[LogicForm, tuple[int, ...]]:
        if isinstance(node, TAllRows):
            return AllRows(), tuple(range(self.table.n_rows))
        if not isinstance(node, TApply):
            raise _Fail()
        group = node.group
        if group in _FILTER_GROUPS:
            inner_form, inner_rows = self.fill_view(node.args[0])
            ref, col = self.col_ref(node.args[1])
            member = self.choice(list(GROUPS[group]))
            obj_form, obj = self.bind_obj(
                node.args[2], lambda: self.filter_obj_candidates(member, col, inner_rows, unique)
            )
            rows = self.step(member, inner_rows, col, obj).value
            return Apply(member, (inner_form, ref, obj_form)), rows
        if group == "filter_all":
            inner_form, inner_rows = self.fill_view(node.args[0])
            ref, _ = self.col_ref(node.args[1])
            return Apply("filter_all", (inner_form, ref)), inner_rows
        if group in ("SUPER_ARG", "ORD_ARG"):
            inner_form, inner_rows = self.fill_view(node.args[0])
            ref, col = self.col_ref(node.args[1])
            usable = self.numeric_count(inner_rows, col)
            member = self.choice(list(GROUPS[group]))
            args, values = (inner_form, ref), (inner_rows, col)
            if group == "ORD_ARG":
                rank = self.bind_ord(node.args[2], usable)
                args, values = args + (Literal(str(rank)),), values + (rank,)
            return Apply(member, args), self.step(member, *values).value
        raise _Fail()

    def fill_value(self, node: TemplateNode) -> tuple[Apply, tuple[float | None, str]]:
        if not isinstance(node, TApply):
            raise _Fail()
        group = node.group
        if group == "count":
            inner_form, inner_rows = self.fill_view(node.args[0])
            form, value = Apply("count", (inner_form,)), self.step("count", inner_rows)
        elif group == "AGGREGATION":
            inner_form, inner_rows = self.fill_view(node.args[0])
            ref, col = self.col_ref(node.args[1])
            self.numeric_count(inner_rows, col)
            member = self.choice(list(GROUPS[group]))
            form, value = Apply(member, (inner_form, ref)), self.step(member, inner_rows, col)
        elif group == "ORDINAL":
            inner_form, inner_rows = self.fill_view(node.args[0])
            ref, col = self.col_ref(node.args[1])
            rank = self.bind_ord(node.args[2], self.numeric_count(inner_rows, col))
            member = self.choice(list(GROUPS[group]))
            form = Apply(member, (inner_form, ref, Literal(str(rank))))
            value = self.step(member, inner_rows, col, rank)
        elif group == "hop":
            inner_form, inner_rows = self.fill_view(node.args[0], unique=True)
            ref, col = self.col_ref(node.args[1])
            form, value = Apply("hop", (inner_form, ref)), self.step("hop", inner_rows, col)
        elif group == "diff":
            parts = []
            for arg in node.args:
                if isinstance(arg, (TObj, TOrd, TCol, TAllRows)):
                    raise _Fail()
                parts.append(self.fill_value(arg))
            forms, values = zip(*parts)
            form, value = Apply("diff", forms), self.step("diff", *values)
        else:
            raise _Fail()
        return form, obj_pair(value)

    def fill_bool(self, node: TApply) -> Apply:
        group = node.group
        if group == "and":
            left = self.fill_bool(node.args[0])
            right = self.fill_bool(node.args[1])
            return Apply("and", (left, right))
        if group == "only":
            inner_form, _ = self.fill_view(node.args[0], unique=True)
            return Apply("only", (inner_form,))
        if group in _MAJORITY_GROUPS:
            inner_form, inner_rows = self.fill_view(node.args[0])
            if not inner_rows:
                raise _Fail()
            ref, col = self.col_ref(node.args[1])
            member = self.choice(list(GROUPS[group]))
            obj_form, _ = self.bind_obj(
                node.args[2], lambda: self.majority_obj_candidates(member, col, inner_rows)
            )
            return Apply(member, (inner_form, ref, obj_form))
        if group in _COMPARE_GROUPS:
            return self.fill_compare(group, node.args)
        raise _Fail()

    def fill_compare(self, group: str, args: tuple[TemplateNode, ...]) -> Apply:
        left, right = args
        left_obj = isinstance(left, TObj)
        right_obj = isinstance(right, TObj)
        if left_obj and right_obj:
            raise _Fail()  # nothing to ground a free comparison against
        if not left_obj and not right_obj:
            return self.holding_member(group, self.fill_value(left), self.fill_value(right))
        obj_node = left if left_obj else right
        sub = self.fill_value(right if left_obj else left)
        if obj_node.index in self.objs:
            # a shared placeholder fixed earlier: pick any member that holds
            text = self.objs[obj_node.index]
            lit = (Literal(text), _literal_value(text))
            return self.holding_member(group, *((lit, sub) if left_obj else (sub, lit)))
        sub_form, (num, text) = sub
        member, target = self._compare_target(group, num, text, left_obj, sub_form)
        lit = Literal(self.new_obj(obj_node.index, [target]))
        return Apply(member, (lit, sub_form) if left_obj else (sub_form, lit))

    def holding_member(self, group: str, left: tuple, right: tuple) -> Apply:
        """The first member, in shuffled order, that holds between two
        (form, value) operands."""
        (left_form, left_value), (right_form, right_value) = left, right
        for member in _shuffled(self.rng, GROUPS[group]):
            if self.step(member, left_value, right_value).value:
                return Apply(member, (left_form, right_form))
        raise _Fail()

    def _compare_target(
        self, group: str, num: float | None, text: str, obj_first: bool, sub_form: Apply
    ) -> tuple[str, str]:
        """Pick a member plus a literal text that makes the comparison true."""
        if group == "round_eq":
            if num is None:
                raise _Fail()
            return "round_eq", number_text(num)
        if group == "COMPARE_EQ":
            if not text:
                raise _Fail()
            member = self.choice(["eq", "not_eq"])
            if member == "eq":
                return "eq", text
            if num is not None:
                return "not_eq", number_text(num + 1)
            return "not_eq", self._different_text(sub_form, text)
        # COMPARE_GT
        if num is None:
            raise _Fail()
        member = self.choice(["greater", "less"])
        step = 1.0 if float(num).is_integer() else 0.5
        above, below = number_text(num + step), number_text(num - step)
        if member == "greater":
            return "greater", (above if obj_first else below)
        return "less", (below if obj_first else above)

    def _different_text(self, sub_form: Apply, text: str) -> str:
        """A live value unequal to text, from the column the value came from."""
        if sub_form.name != "hop":
            raise _Fail()
        ref = sub_form.args[1]
        col = self.table.column_index(ref.name)
        folded = text.strip().lower()
        pool = [
            t for _, t in self._distinct(self.table.column_cells(col))
            if t.strip().lower() != folded
        ]
        return self.choice(pool)


def _literal_value(text: str) -> tuple[float | None, str]:
    """The executor's reading of a literal in an object position."""
    return obj_pair(ExecValue(K_OBJECT, normalize_cell(text)))


def _shuffled(rng: random.Random, items: tuple[str, ...]) -> list[str]:
    out = list(items)
    rng.shuffle(out)
    return out


def instantiate(
    template: Template,
    table: Table,
    columns: list[int],
    rng: random.Random,
) -> Apply | None:
    """Ground one template against the table, or None after all retries.

    Returned forms always verify true and reference only the given columns.
    """
    if group_signature(template.skeleton.group).return_type != BOOL:
        return None
    columns = [c for c in columns if 0 <= c < len(table.headers)]
    needs = _column_needs(template.skeleton)
    if len(needs) > len(columns):
        return None
    for _ in range(RETRIES_PER_TEMPLATE):
        try:
            form = _Attempt(table, columns, rng, needs).fill_bool(template.skeleton)
        except _Fail:
            continue
        if verify(form, table):
            return form
    return None


@dataclass
class SynthesizedCandidate:
    table: Table
    column_set: tuple[int, ...]
    form: Apply
    logic_form: str  # print_logic_form(form), printed once at synthesis
    category: str


@dataclass
class ColumnSetResult:
    column_set: tuple[int, ...]
    forms: list[SynthesizedCandidate] = field(default_factory=list)
    requested: int = 0
    attempts: int = 0

    @property
    def shortfall(self) -> int:
        return max(0, self.requested - len(self.forms))


@dataclass
class SynthesisResult:
    table: Table
    per_set: list[ColumnSetResult] = field(default_factory=list)

    @property
    def candidates(self) -> list[SynthesizedCandidate]:
        return [cand for res in self.per_set for cand in res.forms]

    @property
    def shortfalls(self) -> list[ColumnSetResult]:
        return [r for r in self.per_set if r.shortfall]


# Attempt budget per column set, as a multiple of the candidate target.
ATTEMPT_BUDGET_FACTOR = 20
# Grounding draws per sampled template before it counts as a failed attempt.
RETRIES_PER_TEMPLATE = 50


def synthesize_candidates(
    table: Table,
    column_sets: list[tuple[int, ...]] | None,
    config: SynthesisConfig,
    dist: TemplateDistribution,
) -> SynthesisResult:
    """Produce up to candidates_per_column_set distinct verify-true forms
    for every column set (sampled from the table when none are given)."""
    rng = table_rng(config.seed, table.table_id)
    if not column_sets:
        column_sets = derive_column_sets(table, rng, config.max_column_sets)
    result = SynthesisResult(table=table)
    target = config.candidates_per_column_set
    for column_set in column_sets:
        res = ColumnSetResult(column_set=tuple(column_set), requested=target)
        seen: set[str] = set()
        budget = ATTEMPT_BUDGET_FACTOR * target
        while len(res.forms) < target and res.attempts < budget:
            res.attempts += 1
            template = sample_template(dist, rng)
            form = instantiate(template, table, list(column_set), rng)
            if form is None:
                continue
            text = print_logic_form(form)
            if text in seen:
                continue
            seen.add(text)
            res.forms.append(SynthesizedCandidate(
                table=table, column_set=res.column_set, form=form, logic_form=text,
                category=CATALOG[form.name].category,
            ))
        if res.shortfall:
            log.warning(
                "table %s columns %s: %d/%d candidates after %d attempts",
                table.table_id,
                res.column_set,
                len(res.forms),
                target,
                res.attempts,
            )
        result.per_set.append(res)
    return result
