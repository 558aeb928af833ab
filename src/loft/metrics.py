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
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


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


def _reference_stats(
    references: list[str], max_order: int
) -> tuple[list[Counter], list[int]]:
    """Per order, each n-gram's highest count in any one reference; and the
    sorted lengths of the non-empty references."""
    refs = [tokens for tokens in map(tokenize, references) if tokens]
    best = []
    for n in range(1, max_order + 1):
        counts = Counter()
        for ref in refs:
            for gram, count in _ngram_counts(ref, n).items():
                if count > counts[gram]:
                    counts[gram] = count
        best.append(counts)
    return best, sorted(map(len, refs))


def _score_against(cand: list[str], stats: tuple[list[Counter], list[int]]) -> float:
    best, lengths = stats
    if not cand or not lengths:
        return 0.0
    matches = []
    for n, ref_counts in enumerate(best, start=1):
        cand_counts = _ngram_counts(cand, n)
        if not cand_counts:
            continue
        clipped = sum(min(count, ref_counts[gram]) for gram, count in cand_counts.items())
        matches.append((clipped, len(cand) - n + 1))
    return _bleu(len(cand), matches, _closest_length(lengths, len(cand)))


def sentence_bleu(candidate: str, references: list[str], max_order: int = 4) -> float:
    """Modified n-gram precision BLEU of one sentence against references."""
    return _score_against(tokenize(candidate), _reference_stats(references, max_order))


def corpus_bleu(
    pairs: list[tuple[str, list[str]]], max_order: int = 4
) -> float | None:
    """Mean sentence score over (candidate, references) pairs."""
    if not pairs:
        return None
    stats: dict[tuple[str, ...], tuple[list[Counter], list[int]]] = {}
    scores = []
    for candidate, references in pairs:
        key = tuple(references)
        if key not in stats:
            stats[key] = _reference_stats(references, max_order)
        scores.append(_score_against(tokenize(candidate), stats[key]))
    return sum(scores) / len(scores)


def distinct_n(texts: list[str], n: int = 2) -> float | None:
    """Distinct n-grams over the whole set, divided by the total token count."""
    grams: set[tuple[str, ...]] = set()
    total_tokens = 0
    for tokens in map(tokenize, texts):
        total_tokens += len(tokens)
        grams.update(_ngram_counts(tokens, n))
    if total_tokens == 0:
        return None
    return len(grams) / total_tokens


def self_bleu(texts: list[str], max_order: int = 4) -> float | None:
    """Mean BLEU of each text against all the others; None below 2 texts.

    Equal to averaging sentence_bleu(text, others), in one pass: for each
    n-gram, the highest count in any text, the text that holds it, and the
    second highest count.  Against the others, a text's clip is the
    highest count, or the second one where the text holds the highest, so
    its clipped total is its n-gram count less, over the n-grams it holds
    the highest count of, the gap to the second count.
    """
    if len(texts) < 2:
        return None
    token_lists = [tokenize(t) for t in texts]
    lengths = sorted(len(tokens) for tokens in token_lists if tokens)
    shortfall = []
    for n in range(1, max_order + 1):
        top: dict[tuple[str, ...], list[int]] = {}
        for i, tokens in enumerate(token_lists):
            for gram, count in _ngram_counts(tokens, n).items():
                entry = top.get(gram)
                if entry is None:
                    top[gram] = [count, i, 0]
                elif count > entry[0]:
                    entry[:] = count, i, entry[0]
                elif count > entry[2]:
                    entry[2] = count
        lost = [0] * len(texts)
        for count, owner, second in top.values():
            lost[owner] += count - second
        shortfall.append(lost)
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
    bleu_pairs: list[tuple[str, list[str]]] = []
    coverage: list[float] = []
    faithful = 0
    total = 0
    for row in rows:
        entry = by_id.get(row["table_id"])
        statements = row["statements"]
        refs = list(entry.references) if entry else []
        used_columns: set[str] = set()
        for st in statements:
            texts.append(st["text"])
            categories.append(st.get("category", ""))
            if refs:
                bleu_pairs.append((st["text"], refs))
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

    report = MetricsReport(tables=len(rows), statements=total)
    report.bleu_1 = corpus_bleu(bleu_pairs, 1)
    report.bleu_2 = corpus_bleu(bleu_pairs, 2)
    report.bleu_3 = corpus_bleu(bleu_pairs, 3)
    report.distinct_2 = distinct_n(texts, 2)
    report.self_bleu_4 = self_bleu(texts, 4)
    report.category_coverage = category_coverage(categories)
    report.column_coverage = (
        sum(coverage) / len(coverage) if coverage else None
    )
    report.execution_faithfulness = (faithful / total) if total else None
    return report
