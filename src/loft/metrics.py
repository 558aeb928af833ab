"""Scoring a pipeline output file.

score_output is the one scorer.  It counts each statement's n-grams of
orders 1-4 once and reads them in three parts: corpus_bleu (BLEU-1/2/3
against the table's references), distinct_n (distinct-2) and self_bleu
(self-BLEU-4).

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
from collections.abc import Sequence
from pathlib import Path

from .catalog import CATEGORIES
from .errors import IngestError, ParseError
from .executor import verify
from .forms import parse_logic_form, referenced_columns
from .tables import CorpusEntry, first_entries, json_records

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

ZERO_PRECISION_EPSILON = 0.01


def tokenize(text: str) -> list[str]:
    """Lowercased words and standalone punctuation marks."""
    return _TOKEN_RE.findall(text.lower())


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(zip(*[tokens[i:] for i in range(n)]))


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

    Orders where the candidate has no n-grams are left out of matches;
    callers score an empty candidate 0.0 themselves, so order 1 is always in.
    """
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


def corpus_bleu(
    token_lists: list[list[str]],
    order_counts: list[list[Counter]],
    groups: list[str | None],
    references: dict[str, tuple[list[list[str]], list[int]]],
) -> list[float | None]:
    """Mean sentence BLEU of the candidates against their references, up
    to each order in turn: one mean per order of order_counts.

    order_counts[n - 1][i] is text i's n-gram counts.  groups[i] keys text
    i's references, as _references gives them, or is None for a text that
    is not a candidate.  A mean is None without any candidate.
    """
    # per text, its (clipped, total) n-gram counts per order where it has
    # n-grams, lowest first
    matches: list[list[tuple[int, int]]] = [[] for _ in token_lists]
    for n, counts in enumerate(order_counts, start=1):
        best = {key: _best_counts(refs, n) for key, (refs, _) in references.items()}
        for text_matches, cand_counts, group in zip(matches, counts, groups):
            if group is None or not cand_counts:
                continue
            ref_counts = best[group]
            clipped = sum(min(count, ref_counts[gram]) for gram, count in cand_counts.items())
            text_matches.append((clipped, sum(cand_counts.values())))
    means = []
    for max_order in range(1, len(order_counts) + 1):
        scores = []
        for cand, text_matches, group in zip(token_lists, matches, groups):
            if group is None:
                continue
            lengths = references[group][1]
            if not cand or not lengths:
                scores.append(0.0)
                continue
            ref_len = _closest_length(lengths, len(cand))
            scores.append(_bleu(len(cand), text_matches[:max_order], ref_len))
        means.append(sum(scores) / len(scores) if scores else None)
    return means


def distinct_n(counts: list[Counter], total_tokens: int) -> float | None:
    """Distinct n-grams over the texts' counts, divided by the token count."""
    if total_tokens == 0:
        return None
    return len(set().union(*counts)) / total_tokens


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


def self_bleu(token_lists: list[list[str]], order_counts: list[list[Counter]]) -> float | None:
    """Mean BLEU of each text against all the others, up to the last order
    of order_counts; None below 2 texts.

    Equal to averaging each text's sentence BLEU against the others, in
    one pass per order (see _shortfall).
    """
    if len(token_lists) < 2:
        return None
    shortfall = [_shortfall(counts) for counts in order_counts]
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


def category_coverage(categories: list[str]) -> float | None:
    """Fraction of the known root categories that appear at least once."""
    if not categories:
        return None
    return len(set(categories) & set(CATEGORIES)) / len(CATEGORIES)


class MetricsReport:
    def __init__(self, tables: int, statements: int):
        self.tables = tables
        self.statements = statements
        self.bleu_1: float | None = None
        self.bleu_2: float | None = None
        self.bleu_3: float | None = None
        self.distinct_2: float | None = None
        self.self_bleu_4: float | None = None
        self.category_coverage: float | None = None
        self.column_coverage: float | None = None
        self.execution_faithfulness: float | None = None

    def to_json(self) -> dict:
        """Every field, in the order __init__ sets them."""
        return dict(vars(self))


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
    """Score a pipeline output file against the corpus it came from; of
    entries with the same table id, the first is the one scored."""
    by_id = first_entries(entries)
    rows = _read_output(output_path)

    texts: list[str] = []
    categories: list[str] = []
    # groups[i] is the id of text i's table if it has references, else None
    groups: list[str | None] = []
    references: dict[str, tuple[list[list[str]], list[int]]] = {}
    coverage: list[float] = []
    faithful = 0
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
    # order_counts[n - 1][i] is text i's n-gram counts
    order_counts = [[_ngram_counts(tokens, n) for tokens in token_lists] for n in range(1, 5)]
    report = MetricsReport(tables=len(rows), statements=len(texts))
    report.bleu_1, report.bleu_2, report.bleu_3 = corpus_bleu(
        token_lists, order_counts[:3], groups, references
    )
    report.distinct_2 = distinct_n(order_counts[1], sum(map(len, token_lists)))
    report.self_bleu_4 = self_bleu(token_lists, order_counts)
    report.category_coverage = category_coverage(categories)
    report.column_coverage = sum(coverage) / len(coverage) if coverage else None
    report.execution_faithfulness = faithful / len(texts) if texts else None
    return report
