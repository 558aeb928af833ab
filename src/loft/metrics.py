"""Surface and logic diversity measures for generated statement sets.

BLEU here is the sentence-level variant averaged over the corpus.  Orders
where the candidate has no n-grams at all (short sentences) are skipped
rather than zeroed, and an order with no matches contributes a small
epsilon precision instead of collapsing the whole geometric mean.  Scores
are on a 0..100 scale.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Hashable, Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

from .catalog import CATEGORIES
from .errors import IngestError, ParseError
from .executor import verify
from .forms import parse_logic_form, referenced_columns
from .tables import CorpusEntry, json_records

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

ZERO_PRECISION_EPSILON = 0.01


def tokenize(text: str) -> list[str]:
    """Lowercased words and standalone punctuation marks."""
    return _TOKEN_RE.findall(text.lower())


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(zip(*[tokens[i:] for i in range(n)]))


def _order_counts(token_lists: list[list[str]], max_order: int):
    """Yield n and each text's n-gram counts for n = 1..max_order, an
    order at a time."""
    for n in range(1, max_order + 1):
        yield n, [_ngram_counts(tokens, n) for tokens in token_lists]


def _closest_length(lengths: list[int], n: int, own: int = 0) -> int:
    """Reference length closest to n, the shorter one on a tie.

    lengths is sorted; own copies of n in it are the candidate itself and
    are not references.  At least one reference must remain.
    """
    lo = bisect_left(lengths, n)
    hi = bisect_right(lengths, n)
    if hi - lo > own:
        return n
    nearest = lengths[lo - 1 : lo] + lengths[hi : hi + 1]
    return min(nearest, key=lambda L: (abs(L - n), L))


def _bleu(cand_len: int, matches: list[tuple[int, int]], ref_len: int) -> float:
    """BLEU from (clipped, total) n-gram counts per order, lowest first.

    Orders where the candidate has no n-grams are left out of matches.
    """
    if not matches:
        return 0.0
    log_sum = 0.0
    for clipped, total in matches:
        precision = clipped / total
        if precision == 0.0:
            precision = ZERO_PRECISION_EPSILON / cand_len
        log_sum += math.log(precision)
    geo_mean = math.exp(log_sum / len(matches))
    brevity = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * brevity * geo_mean


def _references(references: Sequence[str]) -> tuple[list[list[str]], list[int]]:
    """The token lists of the references that have tokens, and their
    sorted lengths."""
    refs = [tokens for tokens in map(tokenize, references) if tokens]
    return refs, sorted(map(len, refs))


def _best_counts(refs: list[list[str]], n: int) -> Counter:
    """Each n-gram's highest count in any one reference."""
    best = Counter()
    for ref in refs:
        for gram, count in _ngram_counts(ref, n).items():
            if count > best[gram]:
                best[gram] = count
    return best


class _Bleu:
    """Sentence BLEU of candidates against their references, gathered one
    n-gram order at a time.

    groups[i] keys text i's references, as _references gives them, or is
    None for a text that is not a candidate.
    """

    def __init__(
        self,
        token_lists: list[list[str]],
        groups: list[Hashable | None],
        references: dict[Hashable, tuple[list[list[str]], list[int]]],
    ):
        self.token_lists = token_lists
        self.groups = groups
        self.references = references
        # per text, its (clipped, total) n-gram counts per order so far
        self.matches: list[list[tuple[int, int]]] = [[] for _ in token_lists]

    def add_order(self, n: int, counts: list[Counter]) -> None:
        """Match each candidate's n-gram counts, where it has n-grams."""
        best = {key: _best_counts(refs, n) for key, (refs, _) in self.references.items()}
        for matches, cand_counts, group in zip(self.matches, counts, self.groups):
            if group is None or not cand_counts:
                continue
            ref_counts = best[group]
            clipped = sum(min(count, ref_counts[gram]) for gram, count in cand_counts.items())
            matches.append((clipped, sum(cand_counts.values())))

    def mean(self, max_order: int) -> float | None:
        """Mean BLEU up to max_order over the candidates; None without any."""
        scores = []
        for cand, matches, group in zip(self.token_lists, self.matches, self.groups):
            if group is None:
                continue
            lengths = self.references[group][1]
            if not cand or not lengths:
                scores.append(0.0)
                continue
            ref_len = _closest_length(lengths, len(cand))
            scores.append(_bleu(len(cand), matches[:max_order], ref_len))
        return sum(scores) / len(scores) if scores else None


def sentence_bleu(candidate: str, references: list[str], max_order: int = 4) -> float:
    """Modified n-gram precision BLEU of one sentence against references."""
    return corpus_bleu([(candidate, references)], max_order)


def corpus_bleu(
    pairs: list[tuple[str, list[str]]], max_order: int = 4
) -> float | None:
    """Mean sentence score over (candidate, references) pairs."""
    token_lists = [tokenize(candidate) for candidate, _ in pairs]
    groups = [tuple(references) for _, references in pairs]
    bleu = _Bleu(token_lists, groups, {key: _references(key) for key in dict.fromkeys(groups)})
    for n, counts in _order_counts(token_lists, max_order):
        bleu.add_order(n, counts)
    return bleu.mean(max_order)


def _distinct(counts: list[Counter], total_tokens: int) -> float | None:
    """Distinct n-grams over the texts' counts, divided by the token count."""
    if total_tokens == 0:
        return None
    return len(set().union(*counts)) / total_tokens


def distinct_n(texts: list[str], n: int = 2) -> float | None:
    """Distinct n-grams over the whole set, divided by the total token count."""
    token_lists = [tokenize(t) for t in texts]
    counts = [_ngram_counts(tokens, n) for tokens in token_lists]
    return _distinct(counts, sum(map(len, token_lists)))


def _shortfall(counts: list[Counter]) -> list[int]:
    """Per text, its n-gram count less its clipped count against all the
    other texts.

    For each n-gram: the highest count in any text, the text that holds
    it, and the second highest count.  Against the others, a text's clip
    is the highest count, or the second one where the text holds the
    highest, so it falls short by the gap to the second count over the
    n-grams it holds the highest count of.
    """
    top: dict[tuple[str, ...], list[int]] = {}
    for i, text_counts in enumerate(counts):
        for gram, count in text_counts.items():
            entry = top.get(gram)
            if entry is None:
                top[gram] = [count, i, 0]
            elif count > entry[0]:
                entry[:] = count, i, entry[0]
            elif count > entry[2]:
                entry[2] = count
    lost = [0] * len(counts)
    for count, owner, second in top.values():
        lost[owner] += count - second
    return lost


def _self_bleu(token_lists: list[list[str]], shortfall: list[list[int]]) -> float | None:
    """Mean BLEU of each text against all the others, from each order's
    shortfall; None below 2 texts."""
    if len(token_lists) < 2:
        return None
    lengths = sorted(len(tokens) for tokens in token_lists if tokens)
    scores = []
    for i, tokens in enumerate(token_lists):
        if not tokens or len(lengths) < 2:
            scores.append(0.0)
            continue
        matches = [
            (len(tokens) - n + 1 - short[i], len(tokens) - n + 1)
            for n, short in enumerate(shortfall, start=1)
            if len(tokens) >= n
        ]
        ref_len = _closest_length(lengths, len(tokens), own=1)
        scores.append(_bleu(len(tokens), matches, ref_len))
    return sum(scores) / len(scores)


def self_bleu(texts: list[str], max_order: int = 4) -> float | None:
    """Mean BLEU of each text against all the others; None below 2 texts.

    Equal to averaging sentence_bleu(text, others), in one pass per order
    (see _shortfall).
    """
    token_lists = [tokenize(t) for t in texts]
    shortfall = [_shortfall(counts) for _, counts in _order_counts(token_lists, max_order)]
    return _self_bleu(token_lists, shortfall)


def category_coverage(categories: list[str]) -> float | None:
    """Fraction of the known root categories that appear at least once."""
    if not categories:
        return None
    return len(set(categories) & set(CATEGORIES)) / len(CATEGORIES)


@dataclass
class MetricsReport:
    tables: int = 0
    statements: int = 0
    bleu_1: float | None = None
    bleu_2: float | None = None
    bleu_3: float | None = None
    distinct_2: float | None = None
    self_bleu_4: float | None = None
    category_coverage: float | None = None
    column_coverage: float | None = None
    execution_faithfulness: float | None = None

    def to_json(self) -> dict:
        return asdict(self)


def _read_output(path: str | Path) -> list[dict]:
    """The records of a pipeline output file; IngestError names a bad line."""
    rows = []
    for lineno, row in json_records(path):
        statements = row.get("statements")
        if not isinstance(row.get("table_id"), str) or not isinstance(statements, list):
            raise IngestError(f"{path}:{lineno}: record needs a table_id and a statements list")
        for st in statements:
            if not (
                isinstance(st, dict)
                and isinstance(st.get("text"), str)
                and isinstance(st.get("logic_form"), str)
                and isinstance(st.get("category", ""), str)
            ):
                raise IngestError(
                    f"{path}:{lineno}: each statement needs text and logic_form"
                    " strings, and a category, if any, must be a string"
                )
        rows.append(row)
    return rows


def score_output(output_path: str | Path, entries: list[CorpusEntry]) -> MetricsReport:
    """Score a pipeline output file against the corpus it came from."""
    by_id = {entry.table.table_id: entry for entry in entries}
    rows = _read_output(output_path)

    texts: list[str] = []
    categories: list[str] = []
    # groups[i] is the id of text i's table if it has references, else None
    groups: list[str | None] = []
    references: dict[str, tuple[list[list[str]], list[int]]] = {}
    coverage: list[float] = []
    faithful = 0
    total = 0
    for row in rows:
        entry = by_id.get(row["table_id"])
        statements = row["statements"]
        group = None
        if entry is not None and entry.references and statements:
            group = entry.table.table_id
            if group not in references:
                references[group] = _references(entry.references)
        used_columns: set[str] = set()
        for st in statements:
            texts.append(st["text"])
            categories.append(st.get("category", ""))
            groups.append(group)
            total += 1
            if entry is not None:
                try:
                    form = parse_logic_form(st["logic_form"])
                except ParseError:
                    continue
                used_columns.update(referenced_columns(form))
                if verify(form, entry.table):
                    faithful += 1
        if entry is not None and statements:
            headers = set(entry.table.headers)
            coverage.append(len(used_columns & headers) / len(headers))

    token_lists = [tokenize(text) for text in texts]
    bleu = _Bleu(token_lists, groups, references)
    shortfall = []
    report = MetricsReport(tables=len(rows), statements=total)
    for n, counts in _order_counts(token_lists, 4):
        if n <= 3:
            bleu.add_order(n, counts)
        if n == 2:
            report.distinct_2 = _distinct(counts, sum(map(len, token_lists)))
        shortfall.append(_shortfall(counts))
    report.bleu_1, report.bleu_2, report.bleu_3 = (bleu.mean(m) for m in (1, 2, 3))
    report.self_bleu_4 = _self_bleu(token_lists, shortfall)
    report.category_coverage = category_coverage(categories)
    report.column_coverage = (
        sum(coverage) / len(coverage) if coverage else None
    )
    report.execution_faithfulness = (faithful / total) if total else None
    return report
