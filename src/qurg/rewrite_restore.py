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

# ``MalformedMatrixError`` is re-exported: the matrix constructor raises it.
# The cell loop compares each cell with the relation aliases, not with
# members looked up on ``RewriteRelation`` (see ``rewrite_diff``).
from .rewrite_diff import (
    _APP, _INS, _INS_APP, _SUB, MalformedMatrixError, RewriteEditMatrix, TokenSeq,
)

__all__ = ["MalformedMatrixError", "RestoredQuestion", "restore"]


@dataclass(frozen=True)
class RestoredQuestion:
    tokens: TokenSeq

    def text(self) -> str:
        return " ".join(self.tokens)


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
    Tokens placed at one index keep their context order.  The matrix
    checked its cells when it was made, so they are read without checks,
    and only the context rows: the question rows hold their mirrors.
    """
    question, context = tuple(question), tuple(context)
    if question != matrix.question_tokens or context != matrix.context_tokens:
        raise ValueError("matrix token sequences do not match the given inputs")
    n_ctx, cells = matrix.context_size, matrix.cells
    inserts_at: dict[int, list[str]] = defaultdict(list)
    subs_at: dict[int, list[str]] = defaultdict(list)
    replaced: set[int] = set()
    appended: list[str] = []
    for (i, j), rel in sorted([cell for cell in cells.items() if cell[0][0] < n_ctx]):
        if rel is _INS:
            inserts_at[j - n_ctx].append(context[i])
        elif rel is _SUB:
            replaced.add(j - n_ctx)
            if cells.get((i, j - 1)) is not _SUB:
                subs_at[j - n_ctx].append(context[i])
        elif rel is _APP:
            appended.append(context[i])
        elif rel is _INS_APP:
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
