"""Candidate synthesis: weighted template sampling plus bottom-up filling.

Placeholders are grounded innermost-first against the live table: filter
objects come from cell values of the current view (so the subview is never
empty), all and most objects also from its whole column and from one step
(1, or the float spacing where that is larger) below that column's least
number and above its greatest, ordinal ranks stay within the usable value
multiset, and a value compared against a computed subform (a count, an
aggregate, a looked-up cell) is that result, one step off it for greater
or less (1, or 0.5 for a fraction, or the float spacing where that is
larger), or for not_eq its number plus the larger of 1 and that spacing,
or another text of its column.  One ``_Grounding`` object
serves a whole ``synthesize_candidates`` call: ``instantiate`` draws a
template up to RETRIES_PER_TEMPLATE times, and its dispatcher ``fill``
grounds every node, which ``parse_template`` has already checked fits
its position: it fills the node's inner view, reads its column, draws
the member and binds the object or rank by one rule, ``bind``: a
placeholder keeps its first value, and no two placeholders of one
position share a value.  A node's value comes from the executor's
per-node step applied to the values its children already produced (a
number as a cell), so no subtree is executed twice.  Each view gets one
index, built from the table's column arrays (equality by number, else by
folded text; order by bisecting the sorted numbers): the object pools
read the view's distinct values (a whole column's are the all-rows
view's) and count every value's hits from it in one batched call, never
with one scan per value.  The object holds the all-rows view, the column
references and a chain of ``tables.Memo`` (literal cells, view indexes,
majority objects, hit counts, pools) whose entries a module-level
function of the key builds on first read.  It dies with the call: no
builder holds it, and nothing is kept on the table, module or
distribution.  No draw copies a pool it only reads, so every random
choice draws from the same sequence it would from a copy.  Every filled
form is printed, and each distinct text goes through one full
verification per call before it is returned; a form with the same text
is the same tree, so it reuses that answer.  These strategies only buy
speed, never soundness.

All randomness flows through one generator per table, seeded from
(seed, table_id), so runs are reproducible regardless of corpus order.
"""

from __future__ import annotations

import hashlib
import logging
import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from typing import NamedTuple

from .catalog import CATALOG, COMPARATIVE, GROUP_SIGNATURES, GROUPS, NUM, OBJECT, ORD
from .errors import LoftError
from .executor import Value, apply, as_object, number_text, verify
from .forms import AllRows, Apply, ColumnRef, LogicForm, print_logic_form
from .realizer import realize_logic_form
from .tables import EMPTY, NUMERIC, CellValue, Memo, Table, normalize_cell
from .templates import TSlot, Template, TemplateDistribution, TemplateNode

log = logging.getLogger(__name__)

# Candidate target per column set unless a caller asks for another.
DEFAULT_CANDIDATES = 20
# Column sets sampled for a table that pins none.
MAX_COLUMN_SETS = 4


def table_rng(seed: int, table_id: str, salt: str = "") -> random.Random:
    """Private generator for one table, stable across corpus order."""
    digest = hashlib.sha256(f"{seed}:{table_id}:{salt}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def sample_template(dist: TemplateDistribution, rng: random.Random) -> Template:
    """Draw one template with probability proportional to its weight: the
    first entry whose running weight sum reaches the drawn point, found by
    bisecting the distribution's own running sums."""
    i = bisect_left(dist.running, rng.random() * dist.total)
    return dist.entries[min(i, len(dist.running) - 1)].template


def derive_column_sets(table: Table, rng: random.Random) -> list[tuple[int, ...]]:
    """Sample up to MAX_COLUMN_SETS subsets of 2-3 columns, each containing
    a numeric column whenever the table has one."""
    n = len(table.headers)
    if n == 1:
        return [(0,)]
    numeric = [i for i in range(n) if table.column_types[i] == NUMERIC]
    sets: list[tuple[int, ...]] = []
    for _ in range(MAX_COLUMN_SETS * 10):
        if len(sets) >= MAX_COLUMN_SETS:
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


class _Grounding:
    """The grounding of one ``synthesize_candidates`` call: what every draw
    reads that depends only on the table (the all-rows view, the column
    references, and memos of literal cells, view indexes and object pools),
    and each printed text's verify answer.  Built per call, dropped with it."""

    def __init__(self, table: Table, rng: random.Random):
        self.table = table
        self.rng = rng
        all_rows = self.all_rows = tuple(range(table.n_rows))
        self.refs = [ColumnRef(h) for h in table.headers]
        # a text's own cell, never a pool object: its number may not be its text's
        self.literals = Memo(normalize_cell)
        # no builder reads self: that cycle would keep the grounding past its call
        views = self.views = Memo(lambda key: _ViewIndex(table, *key))
        majority = Memo(lambda key: _majority_objects(views, all_rows, *key))
        hits = Memo(lambda key: _hits(views, majority, *key))
        self.pools = Memo(lambda key: _pool(hits, *key))
        # by hand: the answer is the form's, the key its printed text
        self.verified: dict[str, bool] = {}

    def instantiate(self, template: Template, columns: list[int]) -> tuple[Apply, str] | None:
        """Ground one template, as parse_template checked it, over the
        columns: the form and its printed text, or None after all retries.
        Returned forms always verify true and reference only those columns."""
        if len(template.needs) > len(columns):
            return None
        plan = self._column_plan(template.needs, columns)
        for _ in range(RETRIES_PER_TEMPLATE):
            try:
                form = self.draw(template.skeleton, plan)
            except _Fail:
                continue
            text = print_logic_form(form)
            # parse(print(form)) is form, so a text this call verified has its answer
            answer = self.verified.get(text)
            if answer is None:
                answer = self.verified[text] = verify(form, self.table)
            if answer:
                return form, text
        return None

    def draw(self, skeleton: TemplateNode, plan: list) -> LogicForm:
        """One grounding of the skeleton, from fresh column and placeholder
        assignments."""
        self.cols = self._assign_columns(plan)
        # each position's placeholder index -> its value: object text or rank
        self.bound: dict[str, dict[int, str | int]] = {OBJECT: {}, ORD: {}}
        return self.fill(skeleton)[0]

    # -- assignment helpers ----------------------------------------------

    def _column_plan(self, needs: dict[int, bool], columns: list[int]) -> list:
        """Each column placeholder, in index order, with the columns that
        may fill it before any is used: the numeric ones where it needs one."""
        types = self.table.column_types
        return [(idx, [c for c in columns if not needs[idx] or types[c] == NUMERIC])
                for idx in sorted(needs)]

    def _assign_columns(self, plan: list) -> dict[int, int]:
        assign: dict[int, int] = {}
        for idx, eligible in plan:
            if assign:  # no two placeholders share a column
                used = assign.values()
                eligible = [c for c in eligible if c not in used]
            if not eligible:
                raise _Fail()
            assign[idx] = self.rng.choice(eligible)
        return assign

    def choice(self, candidates: Sequence):
        if not candidates:
            raise _Fail()
        return self.rng.choice(candidates)

    def bind(self, position: str, index: int, options: Callable[[], Sequence]):
        """The value of placeholder `index` of `position`: the one already
        bound, else a draw among options() that no other placeholder of
        that position holds."""
        bound = self.bound[position]
        value = bound.get(index)
        if value is None:
            pool = options()
            if bound:  # a draw from the pool itself draws what one from its copy would
                taken = bound.values()
                pool = [v for v in pool if v not in taken]
            value = bound[index] = self.choice(pool)
        return value

    def bind_obj(self, node: TemplateNode, pool) -> tuple[LogicForm, CellValue]:
        """Form and value of an object: a computed subform, or the literal
        bound to the placeholder from pool()."""
        if not isinstance(node, TSlot):
            return self.fill(node)
        lit = self.literals[self.bind(OBJECT, node.index, pool)]
        return lit, lit

    # -- execution helpers -----------------------------------------------

    def step(self, name: str, *args) -> Value:
        """The value of one node, from the child values already computed."""
        try:
            return apply(name, args, self.table)
        except LoftError:
            raise _Fail() from None

    # -- recursive filling -------------------------------------------------

    def fill(self, node: TemplateNode, unique: bool = False) -> tuple[LogicForm, Value]:
        """Form and value of a node: a view's rows, an object's cell (a
        number is one, by ``catalog.FILLS``) or True (the boolean holds).
        A filter under ``unique`` keeps exactly one row."""
        if isinstance(node, AllRows):
            return node, self.all_rows
        group, args, sig = node.group, node.args, GROUP_SIGNATURES[node.group]
        if group == "and":
            return Apply("and", tuple(self.fill(arg)[0] for arg in args)), True
        if group == "diff":
            (left, a), (right, b) = [self.fill(arg) for arg in args]
            return Apply("diff", (left, right)), as_object(self.step("diff", a, b))
        if sig.category == COMPARATIVE:
            return self.fill_compare(group, args), True
        inner_form, rows = self.fill(args[0], unique=group in ("hop", "only"))
        if group == "count":
            return Apply("count", (inner_form,)), as_object(self.step("count", rows))
        if group == "only":
            return Apply("only", (inner_form,)), True
        col = self.cols[args[1].index]
        ref = self.refs[col]
        # the column's numbers within the view; none fails the draw
        usable = len(self.views[col, rows].numbers) if sig.numeric_column else 0
        if sig.numeric_column and not usable:
            raise _Fail()
        if group == "filter_all":
            return Apply("filter_all", (inner_form, ref)), rows
        if group == "hop":
            return Apply("hop", (inner_form, ref)), self.step("hop", rows, col)
        if sig.family in ("all", "most") and not rows:
            raise _Fail()
        # ORDINAL binds its rank before drawing its member, ORD_ARG after
        member = None if group == "ORDINAL" else self.choice(GROUPS[group])
        ranks = ()
        if group in ("ORDINAL", "ORD_ARG"):
            ranks = (self.bind(ORD, args[2].index, lambda: range(1, usable + 1)),)
            if ranks[0] > usable:  # bound over a view with more numbers
                raise _Fail()
        member = member or self.choice(GROUPS[group])
        if sig.family == "filter":
            obj_form, obj = self.bind_obj(args[2], lambda: self.pools[member, col, rows, unique])
            rows = self.step(member, rows, col, obj)
            return Apply(member, (inner_form, ref, obj_form)), rows
        if sig.family in ("all", "most"):
            obj_form, _ = self.bind_obj(args[2], lambda: self.pools[member, col, rows, False])
            return Apply(member, (inner_form, ref, obj_form)), True
        # AGGREGATION, SUPER_ARG, ORDINAL, ORD_ARG: a step over the column
        form = Apply(member, (inner_form, ref) + tuple(self.literals[str(r)] for r in ranks))
        value = self.step(member, rows, col, *ranks)
        return form, (as_object(value) if sig.return_type == NUM else value)

    def fill_compare(self, group: str, args: tuple[TemplateNode, ...]) -> Apply:
        left, right = args
        left_obj, right_obj = isinstance(left, TSlot), isinstance(right, TSlot)
        if not left_obj and not right_obj:
            return self.holding_member(group, self.fill(left), self.fill(right))
        obj_node = left if left_obj else right
        sub = self.fill(right if left_obj else left)
        if obj_node.index in self.bound[OBJECT]:
            # a shared placeholder fixed earlier: pick any member that holds
            lit = self.bind_obj(obj_node, None)
            return self.holding_member(group, *((lit, sub) if left_obj else (sub, lit)))
        sub_form, obj = sub
        member, target = self._compare_target(group, obj, left_obj, sub_form)
        lit = self.literals[self.bind(OBJECT, obj_node.index, lambda: [target])]
        return Apply(member, (lit, sub_form) if left_obj else (sub_form, lit))

    def holding_member(self, group: str, left: tuple, right: tuple) -> Apply:
        """The first member, in shuffled order, that holds between two
        (form, value) operands."""
        (left_form, left_value), (right_form, right_value) = left, right
        members = list(GROUPS[group])
        self.rng.shuffle(members)
        for member in members:
            if self.step(member, left_value, right_value):
                return Apply(member, (left_form, right_form))
        raise _Fail()

    def _compare_target(
        self, group: str, obj: CellValue, obj_first: bool, sub_form: Apply
    ) -> tuple[str, str]:
        """Pick a member plus a literal text that makes the comparison true."""
        num = obj.number
        if group == "round_eq":
            if num is None:
                raise _Fail()
            return "round_eq", number_text(num)
        if group == "COMPARE_EQ":
            if obj.kind == EMPTY:
                raise _Fail()
            member = self.choice(GROUPS[group])
            if member == "eq":
                return "eq", obj.text
            if num is not None:  # a step below the float spacing would not move num
                return "not_eq", number_text(num + max(1.0, math.ulp(num)))
            return "not_eq", self._different_text(sub_form, obj)
        # COMPARE_GT
        if num is None:
            raise _Fail()
        member = self.choice(GROUPS[group])
        step = max(1.0 if float(num).is_integer() else 0.5, math.ulp(num))
        above, below = number_text(num + step), number_text(num - step)
        if member == "greater":
            return "greater", (above if obj_first else below)
        return "less", (below if obj_first else above)

    def _different_text(self, sub_form: Apply, obj: CellValue) -> str:
        """A live value's text unequal to obj, from the column obj came from:
        only a hop gives an object with no number."""
        col = self.table.column_index(sub_form.args[1].name)
        column = self.views[col, self.all_rows].distinct
        return self.choice([c.text for c in column if c.folded != obj.folded])


def _pool(hits: Memo, member: str, col: int, rows: tuple[int, ...], unique: bool) -> list[str]:
    """The object texts member may take over the view: for a filter, those that
    keep a row (exactly one under unique); for all or most, those that all or
    most of the view's cells pass.  Shared by every draw; none mutates it."""
    sig, n = CATALOG[member], len(rows)
    texts, counts = hits[sig.family == "filter", sig.op, col, rows]
    # the least and most cells an object may keep
    low, high = {"filter": (1, 1 if unique else n), "all": (n, n),
                 "most": (n // 2 + 1, n)}[sig.family]
    return [text for text, kept in zip(texts, counts) if low <= kept <= high]


def _hits(views: Memo, majority: Memo, filtering: bool, op: str, col: int,
          rows: tuple[int, ...]) -> tuple[list, list]:
    """The texts a filter (else a majority) pool of the view draws among,
    and how many cells each one's object keeps under op; shared by the
    unique and non-unique filter pools, and by all_op and most_op."""
    index = views[col, rows]
    objs = index.distinct if filtering else majority[col, rows]
    return [obj.text for obj in objs], index.counts(op, objs)


def _majority_objects(views: Memo, all_rows: tuple, col: int, rows: tuple) -> list[CellValue]:
    """The first object of each text among the view's values, the whole
    column's and two synthetic extremes a step (1, or the float spacing if
    larger) beyond its least and greatest numbers: values absent from the
    view give the all_not_eq / all_greater family something true to say."""
    pool = views[col, rows].distinct + views[col, all_rows].distinct
    numbers = [obj.number for obj in pool if obj.number is not None]
    if numbers:
        low, high = min(numbers), max(numbers)
        pool += [as_object(low - max(1.0, math.ulp(low))),
                 as_object(high + max(1.0, math.ulp(high)))]
    firsts: dict[str, CellValue] = {}
    for obj in pool:
        firsts.setdefault(obj.text, obj)
    return list(firsts.values())


class _ViewIndex:
    """One view of one column, indexed from the table's column arrays: its
    distinct values (the first non-empty cell of each equality key, in row
    order), its numbers sorted, and how many cells hold each number and
    each folded text; ``counts`` reads a whole pool's hits off these."""

    def __init__(self, table: Table, col: int, rows: tuple[int, ...]):
        nums, folds = table.numbers[col], table.folds[col]
        filled = [i for i in rows if folds[i] is not None]
        # the equality key: the number, else the folded text
        keys = [folds[i] if nums[i] is None else nums[i] for i in filled]
        first_row = dict(zip(reversed(keys), reversed(filled)))  # a key's earliest row is set last
        self.distinct = [table.rows[first_row[key]][col] for key in dict.fromkeys(keys)]
        self.numbers = sorted([nums[i] for i in filled if nums[i] is not None])
        self.by_number = Counter(self.numbers)
        self.by_text = Counter([folds[i] for i in filled if nums[i] is None])  # cells with no number
        self.any_text = Counter([folds[i] for i in filled])
        self.filled = len(filled)

    def counts(self, op: str, objs: Iterable[CellValue]) -> list[int]:
        """For each object, how many of the view's cells the executor's
        ``kept_rows(op, ...)`` keeps against it."""
        if op in ("eq", "not_eq"):
            by_number, by_text, any_text = self.by_number, self.by_text, self.any_text
            # a number's text can still equal a text cell; get() skips Counter.__missing__
            equal = [any_text.get(obj.folded, 0) if obj.number is None
                     else by_number.get(obj.number, 0) + by_text.get(obj.folded, 0) for obj in objs]
            return equal if op == "eq" else [self.filled - n for n in equal]
        numbers = self.numbers
        cut = bisect_right if op in ("greater", "less_eq") else bisect_left
        # how many sorted numbers lie below the cut; none for no number or NaN
        below = [None if obj.number is None or obj.number != obj.number
                 else cut(numbers, obj.number) for obj in objs]
        if op.startswith("less"):
            return [n or 0 for n in below]
        return [0 if n is None else len(numbers) - n for n in below]


class SynthesizedCandidate(NamedTuple):
    table: Table
    column_set: tuple[int, ...]
    form: Apply
    logic_form: str  # print_logic_form(form), printed once at synthesis
    category: str
    statement: str | None = None  # a generator hook's wording

    @property
    def text(self) -> str:
        """The hook's wording, else the form realized anew on each read."""
        return realize_logic_form(self.form) if self.statement is None else self.statement


class ColumnSetResult:
    def __init__(self, column_set: tuple[int, ...], requested: int):
        self.column_set = column_set
        self.forms: list[SynthesizedCandidate] = []
        self.requested = requested
        self.attempts = 0

    @property
    def shortfall(self) -> int:
        return max(0, self.requested - len(self.forms))


class SynthesisResult:
    def __init__(self, table: Table):
        self.table = table
        self.per_set: list[ColumnSetResult] = []

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
    column_sets: Sequence[tuple[int, ...]] | None,
    dist: TemplateDistribution,
    *,
    seed: int,
    candidates: int,
) -> SynthesisResult:
    """Up to `candidates` (at least 1) distinct verify-true forms for each
    distinct column set, or for up to MAX_COLUMN_SETS sets sampled when none
    are given; every draw comes from table_rng(seed, table id)."""
    if candidates < 1:
        raise ValueError("candidates per column set must be positive")
    rng = table_rng(seed, table.table_id)
    if not column_sets:
        column_sets = derive_column_sets(table, rng)
    result = SynthesisResult(table=table)
    grounding = _Grounding(table, rng)
    for column_set in dict.fromkeys(map(tuple, column_sets)):  # a repeated set once
        columns = [c for c in column_set if 0 <= c < len(table.headers)]
        res = ColumnSetResult(column_set=column_set, requested=candidates)
        seen: set[str] = set()
        budget = ATTEMPT_BUDGET_FACTOR * candidates
        while len(res.forms) < candidates and res.attempts < budget:
            res.attempts += 1
            template = sample_template(dist, rng)
            grounded = grounding.instantiate(template, columns)
            if grounded is None:
                continue
            form, text = grounded
            if text in seen:
                continue
            seen.add(text)
            res.forms.append(SynthesizedCandidate(
                table=table, column_set=res.column_set, form=form, logic_form=text,
                category=template.category,
            ))
        if res.shortfall:
            log.warning(
                "table %s columns %s: %d/%d candidates after %d attempts",
                table.table_id,
                res.column_set,
                len(res.forms),
                candidates,
                res.attempts,
            )
        result.per_set.append(res)
    return result
