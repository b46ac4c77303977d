"""ROUGE-1/2/L scoring for rewrite fidelity evaluation.

Scores are computed on lowercased tokens with no stemming and kept in the
0-1 range; the CLI scales to 0-100 for display.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .rewrite_diff import _form_masks, _lcs_rows

__all__ = ["RougeScore", "CorpusRougeReport", "rouge_n", "rouge_l", "corpus_rouge"]

NORMALIZATION = "lowercase, no stemming"


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, match: int, candidate_total: int, reference_total: int) -> RougeScore:
        p = match / candidate_total if candidate_total else 0.0
        r = match / reference_total if reference_total else 0.0
        f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        return cls(p, r, f1)

    @classmethod
    def zero(cls) -> RougeScore:
        return cls(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class CorpusRougeReport:
    r1: RougeScore
    r2: RougeScore
    rl: RougeScore
    pair_count: int


def _normalize(tokens: Sequence[str]) -> list[str]:
    return [t.lower() for t in tokens]


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter[tuple[str, ...]]:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate: Sequence[str], reference: Sequence[str], n: int) -> RougeScore:
    """N-gram overlap score with multiset clipping.

    Recall divides the clipped match count by the reference n-gram count,
    precision by the candidate n-gram count; a side with no n-grams scores 0.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cand = _normalize(candidate)
    ref = _normalize(reference)
    cand_counts = _ngram_counts(cand, n)
    ref_counts = _ngram_counts(ref, n)
    match = sum((cand_counts & ref_counts).values())
    return RougeScore.from_counts(
        match,
        max(len(cand) - n + 1, 0),
        max(len(ref) - n + 1, 0),
    )


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    # Exact token equality on the normalized forms: each token is its only form.
    index = _form_masks((tok,) for tok in reversed(b))
    return len(b) - _lcs_rows([index.get(tok, 0) for tok in a], len(b))[0].bit_count()


def rouge_l(candidate: Sequence[str], reference: Sequence[str]) -> RougeScore:
    """Longest-common-subsequence score: P = lcs/|candidate|, R = lcs/|reference|."""
    cand = _normalize(candidate)
    ref = _normalize(reference)
    return RougeScore.from_counts(_lcs_length(cand, ref), len(cand), len(ref))


def corpus_rouge(
    pairs: Iterable[tuple[Sequence[str], Sequence[str]]],
) -> CorpusRougeReport:
    """Unweighted mean of per-pair scores over (candidate, reference) pairs."""
    scores: list[tuple[RougeScore, RougeScore, RougeScore]] = [
        (rouge_n(cand, ref, 1), rouge_n(cand, ref, 2), rouge_l(cand, ref))
        for cand, ref in pairs
    ]
    if not scores:
        zero = RougeScore.zero()
        return CorpusRougeReport(zero, zero, zero, 0)

    def mean(values: list[RougeScore]) -> RougeScore:
        k = len(values)
        return RougeScore(
            sum(s.precision for s in values) / k,
            sum(s.recall for s in values) / k,
            sum(s.f1 for s in values) / k,
        )

    r1, r2, rl = (mean([row[col] for row in scores]) for col in range(3))
    return CorpusRougeReport(r1, r2, rl, len(scores))
