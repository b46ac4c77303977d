"""Reconstruct a rewritten question from its edit matrix.

The matrix stores which context tokens substitute for or insert before
which question tokens, and which are appended after the last one; reading
those cells over the original question recovers the rewrite up to
surface-form differences (the matrix keeps the *context* surface forms, so
"city" written by a rewriter may come back as the context's "cities").
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


# The appends, which hold only in the last question column.
_LAST_COLUMN = frozenset((RewriteRelation.C_Q_APP, RewriteRelation.Q_C_APP,
                          RewriteRelation.C_Q_INS_APP, RewriteRelation.Q_C_INS_APP))


def _validate(matrix: RewriteEditMatrix) -> None:
    n_ctx, last = matrix.context_size, matrix.size - 1
    for (i, j), rel in matrix.cells.items():
        ctx, q = (i, j) if rel.context_row else (j, i)
        if not (ctx < n_ctx <= q):
            block = ("context-row/question-column" if rel.context_row
                     else "question-row/context-column")
            raise MalformedMatrixError(
                f"cell ({i},{j}) carries {rel.value} outside the {block} block"
            )
        if q != last and rel in _LAST_COLUMN:
            raise MalformedMatrixError(
                f"cell ({i},{j}) carries {rel.value} outside the last question column"
            )
        if matrix.cells.get((j, i)) is not rel.mirror:
            raise MalformedMatrixError(
                f"cell ({i},{j})={rel.value} lacks its mirror "
                f"{rel.mirror.value} at ({j},{i})"
            )


def restore(
    question: Sequence[str],
    context: Sequence[str],
    matrix: RewriteEditMatrix,
) -> RestoredQuestion:
    """Apply the matrix's edits to the original question.

    Before each question token come the context tokens inserted before it
    (``C-Q-Ins``, and ``C-Q-Ins-App`` at the last token), then those
    substituted at it, then the token itself unless a ``C-Q-Sub`` cell
    replaces it.  A context token substitutes once per run of consecutive
    question tokens it replaces, at the run's first token.  The appended
    tokens (``C-Q-App``, ``C-Q-Ins-App``) come after everything else.
    Tokens placed at one index keep their context order.  Raises
    :class:`MalformedMatrixError` on symmetry or block violations.
    """
    question, context = tuple(question), tuple(context)
    if question != matrix.question_tokens or context != matrix.context_tokens:
        raise ValueError("matrix token sequences do not match the given inputs")
    _validate(matrix)
    n_ctx, cells = matrix.context_size, matrix.cells
    inserts_at: dict[int, list[str]] = defaultdict(list)
    subs_at: dict[int, list[str]] = defaultdict(list)
    replaced: set[int] = set()
    appended: list[str] = []
    for (i, j), rel in sorted(cells.items()):
        if rel is RewriteRelation.C_Q_INS:
            inserts_at[j - n_ctx].append(context[i])
        elif rel is RewriteRelation.C_Q_SUB:
            replaced.add(j - n_ctx)
            if cells.get((i, j - 1)) is not RewriteRelation.C_Q_SUB:
                subs_at[j - n_ctx].append(context[i])
        elif rel is RewriteRelation.C_Q_APP:
            appended.append(context[i])
        elif rel is RewriteRelation.C_Q_INS_APP:
            inserts_at[j - n_ctx].append(context[i])
            appended.append(context[i])

    out: list[str] = []
    for idx, token in enumerate(question):
        out.extend(inserts_at.get(idx, ()))
        out.extend(subs_at.get(idx, ()))
        if idx not in replaced:
            out.append(token)
    out.extend(appended)
    return RestoredQuestion(tuple(out))
