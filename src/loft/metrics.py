"""Surface and logic diversity measures for generated statement sets.

BLEU here is the sentence-level variant averaged over the corpus.  Orders
where the candidate has no n-grams at all (short sentences) are skipped
rather than zeroed, and an order with no matches contributes a small
epsilon precision instead of collapsing the whole geometric mean.  Scores
are on a 0..100 scale.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

from .catalog import CATEGORIES
from .executor import verify
from .forms import parse_logic_form, referenced_columns
from .tables import CorpusEntry

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

ZERO_PRECISION_EPSILON = 0.01

TOKENS = "tokens"
NGRAMS = "ngrams"


def tokenize(text: str) -> list[str]:
    """Lowercased words and standalone punctuation marks."""
    return _TOKEN_RE.findall(text.lower())


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def sentence_bleu(candidate: str, references: list[str], max_order: int = 4) -> float:
    """Modified n-gram precision BLEU of one sentence against references."""
    cand = tokenize(candidate)
    refs = [tokenize(r) for r in references]
    refs = [r for r in refs if r]
    if not cand or not refs:
        return 0.0
    log_sum = 0.0
    orders = 0
    for n in range(1, max_order + 1):
        cand_counts = _ngram_counts(cand, n)
        total = sum(cand_counts.values())
        if total == 0:
            continue
        best = Counter()
        for ref in refs:
            ref_counts = _ngram_counts(ref, n)
            for gram, count in ref_counts.items():
                if count > best[gram]:
                    best[gram] = count
        clipped = sum(min(count, best[gram]) for gram, count in cand_counts.items())
        precision = clipped / total
        if precision == 0.0:
            precision = ZERO_PRECISION_EPSILON / len(cand)
        log_sum += math.log(precision)
        orders += 1
    if orders == 0:
        return 0.0
    geo_mean = math.exp(log_sum / orders)
    ref_len = min((len(r) for r in refs), key=lambda L: (abs(L - len(cand)), L))
    brevity = 1.0 if len(cand) >= ref_len else math.exp(1.0 - ref_len / len(cand))
    return 100.0 * brevity * geo_mean


def corpus_bleu(
    pairs: list[tuple[str, list[str]]], max_order: int = 4
) -> float | None:
    """Mean sentence score over (candidate, references) pairs."""
    if not pairs:
        return None
    scores = [sentence_bleu(c, refs, max_order) for c, refs in pairs]
    return sum(scores) / len(scores)


def distinct_n(texts: list[str], n: int = 2, denominator: str = TOKENS) -> float | None:
    """Distinct n-grams over the whole set, divided by total token count
    (default) or by total n-gram count."""
    if denominator not in (TOKENS, NGRAMS):
        raise ValueError(f"unknown denominator {denominator!r}")
    token_lists = [tokenize(t) for t in texts]
    grams: set[tuple[str, ...]] = set()
    total_tokens = 0
    total_grams = 0
    for tokens in token_lists:
        total_tokens += len(tokens)
        total_grams += max(0, len(tokens) - n + 1)
        grams.update(_ngram_counts(tokens, n))
    denom = total_tokens if denominator == TOKENS else total_grams
    if denom == 0:
        return None
    return len(grams) / denom


def self_bleu(texts: list[str], max_order: int = 4) -> float | None:
    """Mean BLEU of each text against all the others; None below 2 texts."""
    if len(texts) < 2:
        return None
    scores = []
    for i, text in enumerate(texts):
        others = texts[:i] + texts[i + 1 :]
        scores.append(sentence_bleu(text, others, max_order))
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


def score_output(
    output_path: str | Path,
    entries: list[CorpusEntry],
    distinct_denominator: str = TOKENS,
) -> MetricsReport:
    """Score a pipeline output file against the corpus it came from."""
    by_id = {entry.table.table_id: entry for entry in entries}
    rows = []
    with open(output_path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))

    texts: list[str] = []
    categories: list[str] = []
    bleu_pairs: list[tuple[str, list[str]]] = []
    coverage: list[float] = []
    faithful = 0
    total = 0
    for row in rows:
        entry = by_id.get(row["table_id"])
        statements = row.get("statements", [])
        refs = list(entry.references) if entry else []
        used_columns: set[str] = set()
        for st in statements:
            texts.append(st["text"])
            categories.append(st.get("category", ""))
            if refs:
                bleu_pairs.append((st["text"], refs))
            total += 1
            if entry is not None:
                form = parse_logic_form(st["logic_form"])
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
    report.distinct_2 = distinct_n(texts, 2, distinct_denominator)
    report.self_bleu_4 = self_bleu(texts, 4)
    report.category_coverage = category_coverage(categories)
    report.column_coverage = (
        sum(coverage) / len(coverage) if coverage else None
    )
    report.execution_faithfulness = (faithful / total) if total else None
    return report
