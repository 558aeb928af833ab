"""Quadratic BLEU, self-BLEU and distinct-n, the test-only reference for loft.metrics.

A direct transcription of the definitions: every reference is tokenized
and counted again for every candidate, and self-BLEU scores each text
against a fresh list of all the others.  loft.metrics computes the same
numbers in one pass; the property tests require them to be equal, not
merely close.
"""

from __future__ import annotations

import math
from collections import Counter

from loft.metrics import ZERO_PRECISION_EPSILON, tokenize


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def sentence_bleu(candidate: str, references: list[str], max_order: int = 4) -> float:
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
            for gram, count in _ngram_counts(ref, n).items():
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


def corpus_bleu(pairs: list[tuple[str, list[str]]], max_order: int = 4) -> float | None:
    if not pairs:
        return None
    scores = [sentence_bleu(c, refs, max_order) for c, refs in pairs]
    return sum(scores) / len(scores)


def self_bleu(texts: list[str], max_order: int = 4) -> float | None:
    if len(texts) < 2:
        return None
    scores = []
    for i, text in enumerate(texts):
        others = texts[:i] + texts[i + 1 :]
        scores.append(sentence_bleu(text, others, max_order))
    return sum(scores) / len(scores)


def distinct_n(texts: list[str], n: int = 2) -> float | None:
    grams = set()
    total_tokens = 0
    for text in texts:
        tokens = tokenize(text)
        total_tokens += len(tokens)
        grams.update(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))
    if total_tokens == 0:
        return None
    return len(grams) / total_tokens
