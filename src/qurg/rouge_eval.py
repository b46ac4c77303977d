"""ROUGE-1/2/L scoring for rewrite fidelity evaluation.

Scores are computed on lowercased tokens with no stemming and kept in the
0-1 range; the CLI scales to 0-100 for display.  ``corpus_rouge``
lowercases each pair once and scores R-1, R-2 and R-L from that one
normalization, through the same helpers as ``rouge_n`` and ``rouge_l``;
each corpus mean keeps the order of addition of its pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .rewrite_diff import MatchPolicy, _lcs_rows

__all__ = ["RougeScore", "CorpusRougeReport", "rouge_n", "rouge_l", "corpus_rouge"]

NORMALIZATION = "lowercase, no stemming"

# Tokens are lowercased before scoring, so R-L matches them exactly: each
# token is its only form.
_EXACT = MatchPolicy(lowercase=False, plural_stem=False)


_Scores = tuple[float, float, float]  # precision, recall, F1


def _scores(match: int, candidate_total: int, reference_total: int) -> _Scores:
    p = match / candidate_total if candidate_total else 0.0
    r = match / reference_total if reference_total else 0.0
    return p, r, 0.0 if p + r == 0 else 2 * p * r / (p + r)


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, match: int, candidate_total: int, reference_total: int) -> RougeScore:
        return cls(*_scores(match, candidate_total, reference_total))

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


def _ngrams(tokens: list[str], n: int) -> Iterable:
    return zip(*[tokens[i:] for i in range(n)]) if n > 1 else tokens


def _rouge_n_scores(cand: list[str], ref: list[str], n: int) -> _Scores:
    """R-n of normalized sides.  Each candidate n-gram matches while the
    reference has an unmatched copy of it left, which clips the match to
    the smaller count of each n-gram.  The counts live in a plain dict:
    ``Counter``'s constructor costs more than counting a question."""
    left: dict = {}
    for gram in _ngrams(ref, n):
        left[gram] = left.get(gram, 0) + 1
    match = 0
    for gram in _ngrams(cand, n):
        k = left.get(gram)
        if k:
            left[gram] = k - 1
            match += 1
    return _scores(match, max(len(cand) - n + 1, 0), max(len(ref) - n + 1, 0))


def _rouge_l_scores(cand: list[str], ref: list[str]) -> _Scores:
    index = _EXACT._form_index(reversed(ref))
    dropped = _lcs_rows([index.get(tok, 0) for tok in cand], len(ref))[0].bit_count()
    return _scores(len(ref) - dropped, len(cand), len(ref))


def rouge_n(candidate: Sequence[str], reference: Sequence[str], n: int) -> RougeScore:
    """N-gram overlap score with multiset clipping.

    Recall divides the clipped match count by the reference n-gram count,
    precision by the candidate n-gram count; a side with no n-grams scores 0.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return RougeScore(*_rouge_n_scores(_normalize(candidate), _normalize(reference), n))


def rouge_l(candidate: Sequence[str], reference: Sequence[str]) -> RougeScore:
    """Longest-common-subsequence score: P = lcs/|candidate|, R = lcs/|reference|."""
    return RougeScore(*_rouge_l_scores(_normalize(candidate), _normalize(reference)))


def corpus_rouge(
    pairs: Iterable[tuple[Sequence[str], Sequence[str]]],
) -> CorpusRougeReport:
    """Unweighted mean of per-pair scores over (candidate, reference) pairs.

    Each pair is normalized once and scored by the helpers of
    :func:`rouge_n` and :func:`rouge_l`.  Each mean adds its pairs' scores
    left to right in pair order, so it equals, bit for bit, the mean of
    those functions' scores taken in that order.
    """
    rows: list[tuple[_Scores, _Scores, _Scores]] = []
    for cand, ref in pairs:
        cand, ref = _normalize(cand), _normalize(ref)
        rows.append(
            (_rouge_n_scores(cand, ref, 1), _rouge_n_scores(cand, ref, 2),
             _rouge_l_scores(cand, ref))
        )
    if not rows:
        zero = RougeScore.zero()
        return CorpusRougeReport(zero, zero, zero, 0)
    k = len(rows)
    r1, r2, rl = (
        RougeScore(*(sum(column) / k for column in zip(*per_pair))) for per_pair in zip(*rows)
    )
    return CorpusRougeReport(r1, r2, rl, k)
