"""Reconstruct a rewritten question from its edit matrix.

The matrix stores which context tokens substitute for or insert before
which question tokens; reading those cells over the original question
recovers the rewrite up to surface-form differences (the matrix keeps the
*context* surface forms, so "city" written by a rewriter may come back as
the context's "cities").
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from .rewrite_diff import RewriteEditMatrix, RewriteRelation, TokenSeq

__all__ = ["MalformedMatrixError", "RestoredQuestion", "restore"]


class MalformedMatrixError(ValueError):
    """The matrix violates its structural invariants."""


@dataclass(frozen=True)
class RestoredQuestion:
    tokens: TokenSeq

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


def restore(
    question: Sequence[str],
    context: Sequence[str],
    matrix: RewriteEditMatrix,
) -> RestoredQuestion:
    """Apply the matrix's edits to the original question.

    Before each question token come the context tokens inserted before it
    (``C-Q-Ins``), then those substituted at it, then the token itself
    unless a ``C-Q-Sub`` cell replaces it.  A context token substitutes
    once per run of consecutive question tokens it replaces, at the run's
    first token.  Tokens placed at one index keep their context order.
    Raises :class:`MalformedMatrixError` on symmetry or block violations.
    """
    question, context = tuple(question), tuple(context)
    if question != matrix.question_tokens or context != matrix.context_tokens:
        raise ValueError("matrix token sequences do not match the given inputs")
    _validate(matrix)
    n_ctx, cells = matrix.context_size, matrix.cells
    inserts_at: dict[int, list[str]] = defaultdict(list)
    subs_at: dict[int, list[str]] = defaultdict(list)
    replaced: set[int] = set()
    for (i, j), rel in sorted(cells.items()):
        if rel is RewriteRelation.C_Q_INS:
            inserts_at[j - n_ctx].append(context[i])
        elif rel is RewriteRelation.C_Q_SUB:
            replaced.add(j - n_ctx)
            if cells.get((i, j - 1)) is not RewriteRelation.C_Q_SUB:
                subs_at[j - n_ctx].append(context[i])

    out: list[str] = []
    for idx, token in enumerate(question):
        out.extend(inserts_at.get(idx, ()))
        out.extend(subs_at.get(idx, ()))
        if idx not in replaced:
            out.append(token)
    return RestoredQuestion(tuple(out))
