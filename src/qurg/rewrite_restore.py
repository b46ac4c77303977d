"""Reconstruct a rewritten question from its edit matrix.

The matrix stores which context tokens substitute for or insert before
which question tokens; replaying those operations over the original
question recovers the rewrite up to surface-form differences (the matrix
keeps the *context* surface forms, so "city" written by a rewriter may come
back as the context's "cities").
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from .rewrite_diff import (
    EditOp,
    OpKind,
    RewriteEditMatrix,
    RewriteRelation,
    TokenSeq,
)

__all__ = ["MalformedMatrixError", "RestoredQuestion", "recover_ops", "restore"]


class MalformedMatrixError(ValueError):
    """The matrix violates its structural invariants."""


@dataclass(frozen=True)
class RestoredQuestion:
    tokens: TokenSeq
    applied_ops: tuple[EditOp, ...]

    def text(self) -> str:
        return " ".join(self.tokens)


_MIRROR = {
    RewriteRelation.C_Q_SUB: RewriteRelation.Q_C_SUB,
    RewriteRelation.Q_C_SUB: RewriteRelation.C_Q_SUB,
    RewriteRelation.C_Q_INS: RewriteRelation.Q_C_INS,
    RewriteRelation.Q_C_INS: RewriteRelation.C_Q_INS,
}

_CONTEXT_ROW = (RewriteRelation.C_Q_SUB, RewriteRelation.C_Q_INS)


def _validate(matrix: RewriteEditMatrix) -> None:
    n_ctx = matrix.context_size
    for (i, j), rel in matrix.cells.items():
        if rel in _CONTEXT_ROW:
            if not (i < n_ctx <= j):
                raise MalformedMatrixError(
                    f"cell ({i},{j}) carries {rel.value} outside the "
                    "context-row/question-column block"
                )
        else:
            if not (j < n_ctx <= i):
                raise MalformedMatrixError(
                    f"cell ({i},{j}) carries {rel.value} outside the "
                    "question-row/context-column block"
                )
        mirrored = matrix.cells.get((j, i))
        if mirrored is not _MIRROR[rel]:
            raise MalformedMatrixError(
                f"cell ({i},{j})={rel.value} lacks its mirror "
                f"{_MIRROR[rel].value} at ({j},{i})"
            )


def _contiguous_runs(indices: list[int]) -> list[tuple[int, int]]:
    runs: list[tuple[int, int]] = []
    start = prev = indices[0]
    for idx in indices[1:]:
        if idx != prev + 1:
            runs.append((start, prev + 1))
            start = idx
        prev = idx
    runs.append((start, prev + 1))
    return runs


def recover_ops(matrix: RewriteEditMatrix) -> list[EditOp]:
    """Group matrix cells back into edit operations.

    The inverse of matrix construction: contiguous context tokens sharing
    one relation type and one question target are grouped into a single op.
    Raises :class:`MalformedMatrixError` on symmetry or block violations.
    """
    _validate(matrix)
    n_ctx = matrix.context_size
    sub_targets: dict[int, list[int]] = defaultdict(list)
    ins_pairs: dict[int, list[int]] = defaultdict(list)  # anchor -> context indices
    for (i, j), rel in matrix.cells.items():
        if rel is RewriteRelation.C_Q_SUB:
            sub_targets[i].append(j - n_ctx)
        elif rel is RewriteRelation.C_Q_INS:
            ins_pairs[j - n_ctx].append(i)

    ops: list[EditOp] = []
    # Substitutes: runs of consecutive context indices with identical targets.
    # Overlapping substitutes leave a context token targeting a
    # non-contiguous question set; one op is emitted per contiguous segment,
    # which regenerates exactly the same cells.
    grouped: list[tuple[int, tuple[int, ...]]] = sorted(
        (ci, tuple(sorted(targets))) for ci, targets in sub_targets.items()
    )
    idx = 0
    while idx < len(grouped):
        start_ci, targets = grouped[idx]
        end = idx + 1
        while (
            end < len(grouped)
            and grouped[end][0] == grouped[end - 1][0] + 1
            and grouped[end][1] == targets
        ):
            end += 1
        for qs, qe in _contiguous_runs(list(targets)):
            ops.append(
                EditOp(
                    OpKind.SUBSTITUTE,
                    (start_ci, grouped[end - 1][0] + 1),
                    question_anchor=qs,
                    question_range=(qs, qe),
                )
            )
        idx = end
    # Inserts: per anchor, each run of consecutive context indices is one op.
    for anchor in sorted(ins_pairs):
        for cs, ce in _contiguous_runs(sorted(ins_pairs[anchor])):
            ops.append(EditOp(OpKind.INSERT, (cs, ce), question_anchor=anchor))
    ops.sort(key=lambda op: (op.context_range, op.question_anchor, op.kind.value))
    return ops


def restore(
    question: Sequence[str],
    context: Sequence[str],
    matrix: RewriteEditMatrix,
) -> RestoredQuestion:
    """Apply the matrix's recovered operations to the original question.

    Substituted ranges are replaced by their context surface tokens and
    insertions are spliced immediately before their anchor token.  Indices
    refer to the original question throughout, so operations do not shift
    one another; inserts sharing an anchor are applied in context order.
    """
    question, context = tuple(question), tuple(context)
    if question != matrix.question_tokens or context != matrix.context_tokens:
        raise ValueError("matrix token sequences do not match the given inputs")
    ops = recover_ops(matrix)

    inserts_at: dict[int, list[tuple[int, int]]] = defaultdict(list)
    subs_at: dict[int, list[tuple[int, int]]] = defaultdict(list)
    replaced: set[int] = set()
    for op in ops:
        if op.kind is OpKind.INSERT:
            inserts_at[op.question_anchor].append(op.context_range)
        else:
            qs, qe = op.question_range  # type: ignore[misc]
            subs_at[qs].append(op.context_range)
            replaced.update(range(qs, qe))
    for ranges in (*inserts_at.values(), *subs_at.values()):
        ranges.sort()

    out: list[str] = []
    for idx in range(len(question) + 1):
        for cs, ce in inserts_at.get(idx, ()):
            out.extend(context[cs:ce])
        if idx == len(question):
            break
        for cs, ce in subs_at.get(idx, ()):
            out.extend(context[cs:ce])
        if idx not in replaced:
            out.append(question[idx])
    return RestoredQuestion(tuple(out), tuple(ops))
