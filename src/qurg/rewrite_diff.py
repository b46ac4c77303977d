"""Bi-directional rewrite edit matrices from (question, context, rewrite) triples.

Given the current question of a conversation turn, the flattened history
context, and a self-contained rewrite of that question, this module aligns
question and rewrite with an LCS, tags the out-of-alignment words as ADD
(rewrite side) or DEL (question side), grounds the ADD spans in the context,
and records the resulting substitute/insert operations as a square relation
matrix over the ``[context; question]`` token positions.  Tagging and
grounding take one walk over the gaps between consecutive alignment pairs;
each gap holds at most one DEL run and one ADD run.

Every operation here is a pure function of its inputs; all produced values
are immutable and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Sequence, TypeVar

TokenSeq = tuple[str, ...]
_T = TypeVar("_T")

__all__ = [
    "TokenSeq",
    "token_seq",
    "MatchPolicy",
    "Interaction",
    "SpanKind",
    "EditSpan",
    "OpKind",
    "EditOp",
    "Relation",
    "RewriteRelation",
    "RewriteEditMatrix",
    "MalformedMatrixError",
    "EditConflictError",
    "lcs",
    "tag_edits",
    "extract_edit_ops",
    "build_rewrite_matrix",
    "build_from_interaction",
]


class EditConflictError(ValueError):
    """Two edit operations assign different relation types to one cell."""


class MalformedMatrixError(ValueError):
    """The matrix violates its structural invariants."""


def token_seq(tokens: Iterable[str]) -> TokenSeq:
    """Validate and freeze a token sequence.

    Tokens must be non-empty strings without internal whitespace.  A bare
    string is rejected rather than split into one-letter tokens.
    """
    if isinstance(tokens, str):
        raise ValueError(f"expected a sequence of tokens, got the string {tokens!r}")
    out = tuple(tokens)
    for tok in out:
        if not isinstance(tok, str) or not tok:
            raise ValueError(f"empty or non-string token: {tok!r}")
        if tok.split() != [tok]:  # the same test as any(ch.isspace() for ch in tok), faster
            raise ValueError(f"token contains whitespace: {tok!r}")
    return out


def _prevalidated(cls: type[_T], **fields: object) -> _T:
    """An instance of the frozen dataclass ``cls`` holding ``fields``, made
    without ``__post_init__``.  Its callers, ``build_from_interaction`` and
    ``build_schema_link_matrix``, validate their tokens and write each cell
    in its block with its mirror.  The check would cost them 15 against 2
    microseconds per short spliced example, and 2.2 ms per turn of the wide
    benchmark schema, which links in 0.6-0.9 ms (2-vCPU Xeon, Python 3.11)."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _is_index(value: object, size: int) -> bool:
    # ``bool`` subclasses ``int``, but true is not index 1.
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < size


@dataclass(frozen=True)
class MatchPolicy:
    """Token-equality policy used for alignment, grounding and schema linking.

    ``lowercase`` folds case before comparing.  ``plural_stem`` additionally
    treats singular/plural surface forms as equal (trailing "s" and the
    "-ies"/"-y" alternation), so e.g. "city" matches "cities".  Tokens match
    when their form sets intersect, which is not transitive: "cities"
    matches "citie" and "city", which do not match each other.
    """

    lowercase: bool = True
    plural_stem: bool = True

    def forms(self, token: str) -> frozenset[str]:
        # "cities" -> {"cities", "citie", "city"}, "flights" -> {"flights", "flight"}
        t = token.lower() if self.lowercase else token
        forms = {t}
        if self.plural_stem and t.endswith("s") and len(t) > 1:
            forms.add(t[:-1])
            if t.endswith("ies") and len(t) > 3:
                forms.add(t[:-3] + "y")
        return frozenset(forms)

    def fold(self, tokens: Iterable[str]) -> tuple[frozenset[str], ...]:
        """Each token's forms, computed once for a whole sequence; folded
        tokens ``x`` and ``y`` match when ``not x.isdisjoint(y)``."""
        return tuple(self.forms(tok) for tok in tokens)

    def matches(self, a: str, b: str) -> bool:
        return not self.forms(a).isdisjoint(self.forms(b))


DEFAULT_POLICY = MatchPolicy()


@dataclass(frozen=True)
class Interaction:
    """One conversation state: history turns plus the current question.

    ``context_turns`` is chronological (first turn first).  ``turn_index``
    is derived: the current question is turn ``len(context_turns) + 1``.
    """

    context_turns: tuple[TokenSeq, ...]
    question: TokenSeq
    gold_rewrite: TokenSeq | None = None
    interaction_id: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "context_turns", tuple(token_seq(t) for t in self.context_turns)
        )
        object.__setattr__(self, "question", token_seq(self.question))
        if self.gold_rewrite is not None:
            object.__setattr__(self, "gold_rewrite", token_seq(self.gold_rewrite))
        if not self.question:
            raise ValueError("interaction question must be non-empty")

    @property
    def turn_index(self) -> int:
        return len(self.context_turns) + 1

    def flat_context(self) -> TokenSeq:
        """Context turns concatenated chronologically, no separators."""
        return tuple(tok for turn in self.context_turns for tok in turn)

    def turn_lengths(self) -> tuple[int, ...]:
        return tuple(len(turn) for turn in self.context_turns)


class SpanKind(Enum):
    ADD = "ADD"
    DEL = "DEL"


@dataclass(frozen=True)
class EditSpan:
    """A maximal run of same-tag tokens on one side of the alignment."""

    kind: SpanKind
    start: int
    end_exclusive: int
    side: str  # "rewrite" for ADD, "question" for DEL

    def __post_init__(self) -> None:
        if self.start >= self.end_exclusive:
            raise ValueError("edit span must be non-empty")
        expected = "rewrite" if self.kind is SpanKind.ADD else "question"
        if self.side != expected:
            raise ValueError(f"{self.kind.value} spans live on the {expected} side")

    def indices(self) -> range:
        return range(self.start, self.end_exclusive)


class OpKind(Enum):
    SUBSTITUTE = "Substitute"
    INSERT = "Insert"


@dataclass(frozen=True)
class EditOp:
    """A grounded edit: a context span substituted for, or inserted before,
    question tokens.

    ``question_anchor`` is the replaced range start for substitutes and the
    insertion point for inserts; an anchor equal to ``len(question)`` means
    a virtual end-of-question insertion point.
    """

    kind: OpKind
    context_range: tuple[int, int]
    question_anchor: int
    question_range: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        cs, ce = self.context_range
        if cs >= ce:
            raise ValueError("context_range must be non-empty")
        if self.kind is OpKind.INSERT:
            if self.question_range is not None:
                raise ValueError("insert ops carry no question_range")
        else:
            if self.question_range is None:
                raise ValueError("substitute ops require a question_range")
            qs, qe = self.question_range
            if qs >= qe:
                raise ValueError("question_range must be non-empty")
            if qs != self.question_anchor:
                raise ValueError("substitute anchor must equal question_range start")


class Relation(Enum):
    """Base of a relation family whose cells come in mirrored pairs.

    A member is declared as ``(file name, mirror, rows, cols)``: the name
    that files carry is its value, ``mirror`` names the member of the
    transposed cell, and ``rows`` and ``cols`` name the regions of the
    matrix layout that the rows and columns of its cells lie in.
    """

    def __new__(cls, value: str, mirror: str, rows: str, cols: str) -> Relation:
        member = object.__new__(cls)
        member._value_ = value
        member._mirror_name = mirror
        member.rows, member.cols = rows, cols
        return member

    @cached_property
    def mirror(self) -> Relation:
        """The relation of the transposed cell, resolved on first use."""
        return type(self)[self._mirror_name]


class RewriteRelation(Relation):
    """Directional relation types between question and context tokens.
    ``-App`` appends the context token after the last question token, and
    ``-Ins-App`` both inserts it before the last token and appends it.
    """

    Q_C_INS = "Q-C-Ins", "C_Q_INS", "question", "context"
    Q_C_SUB = "Q-C-Sub", "C_Q_SUB", "question", "context"
    C_Q_INS = "C-Q-Ins", "Q_C_INS", "context", "question"
    C_Q_SUB = "C-Q-Sub", "Q_C_SUB", "context", "question"
    Q_C_APP = "Q-C-App", "C_Q_APP", "last", "context"
    Q_C_INS_APP = "Q-C-Ins-App", "C_Q_INS_APP", "last", "context"
    C_Q_APP = "C-Q-App", "Q_C_APP", "context", "last"
    C_Q_INS_APP = "C-Q-Ins-App", "Q_C_INS_APP", "context", "last"


class RelationMatrix:
    """Base of the sparse square relation matrices; a missing cell means
    "no relation".  A subclass is a frozen dataclass with ``context_tokens``,
    ``question_tokens``, ``cells``, a ``size``, a relation family
    ``_relations`` and the ``_regions`` of its layout.  The constructor
    checks the tokens, and that each cell has in-range integer indices and
    a relation of the family, lies in that relation's block and, off the
    diagonal, has its mirror at its transpose (a column's foreign key to
    itself keeps one of the pair); it raises :class:`MalformedMatrixError`
    otherwise."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "context_tokens", token_seq(self.context_tokens))
        object.__setattr__(self, "question_tokens", token_seq(self.question_tokens))
        n, regions, cells = self.size, self._regions(), self.cells
        for (i, j), rel in cells.items():
            if not (_is_index(i, n) and _is_index(j, n)):
                raise MalformedMatrixError(f"cell ({i},{j}) out of bounds for size {n}")
            if not isinstance(rel, self._relations):
                raise MalformedMatrixError(f"cell ({i},{j}) carries a non-relation value")
            if i not in regions[rel.rows] or j not in regions[rel.cols]:
                raise MalformedMatrixError(
                    f"cell ({i},{j}) carries {rel.value} outside the "
                    f"{rel.rows}-row/{rel.cols}-column block"
                )
            if i != j and cells.get((j, i)) is not rel.mirror:
                raise MalformedMatrixError(
                    f"cell ({i},{j})={rel.value} lacks its mirror "
                    f"{rel.mirror.value} at ({j},{i})"
                )

    def relation_at(self, i: int, j: int) -> Relation | None:
        return self.cells.get((i, j))

    def sorted_cells(self) -> list[tuple[int, int, Relation]]:
        return [(i, j, rel) for (i, j), rel in sorted(self.cells.items())]


@dataclass(frozen=True)
class RewriteEditMatrix(RelationMatrix):
    """Sparse square relation matrix over the ``[context; question]`` layout.

    Indices ``0..len(context)-1`` are context positions, the rest question
    positions; the appends' region ``last`` is the last question position.
    """

    context_tokens: TokenSeq
    question_tokens: TokenSeq
    cells: dict[tuple[int, int], RewriteRelation] = field(default_factory=dict)

    _relations = RewriteRelation

    def _regions(self) -> dict[str, range]:
        c, n = self.context_size, self.size
        return {"context": range(c), "question": range(c, n), "last": range(max(c, n - 1), n)}

    @property
    def context_size(self) -> int:
        return len(self.context_tokens)

    @property
    def question_size(self) -> int:
        return len(self.question_tokens)

    @property
    def size(self) -> int:
        return self.context_size + self.question_size


def lcs(
    a: Sequence[str], b: Sequence[str], policy: MatchPolicy = DEFAULT_POLICY
) -> tuple[tuple[int, int], ...]:
    """Longest common subsequence alignment between two token sequences.

    Returns index pairs, strictly increasing in both coordinates, whose
    tokens are equal under ``policy``.  Among all maximum-length alignments
    the lexicographically smallest pair list is returned (leftmost
    tie-break), which keeps downstream anchoring deterministic.
    """
    n, m = len(a), len(b)
    b_forms = policy.fold(b)
    eq = [[not x.isdisjoint(y) for y in b_forms] for x in policy.fold(a)]
    # dp[i][j] = LCS length of the suffixes a[i:], b[j:]
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row, below = dp[i], dp[i + 1]
        for j in range(m - 1, -1, -1):
            if eq[i][j]:
                row[j] = below[j + 1] + 1
            else:
                row[j] = below[j] if below[j] >= row[j + 1] else row[j + 1]
    pairs: list[tuple[int, int]] = []
    i = j = 0
    while dp[i][j] > 0:
        target = dp[i][j]
        found = False
        for i2 in range(i, n):
            if dp[i2][j] < target:
                break
            for j2 in range(j, m):
                if dp[i2][j2] < target:
                    break
                if eq[i2][j2] and dp[i2 + 1][j2 + 1] == target - 1:
                    pairs.append((i2, j2))
                    i, j = i2 + 1, j2 + 1
                    found = True
                    break
            if found:
                break
    return tuple(pairs)


def _gaps(
    pairs: Sequence[tuple[int, int]], n_question: int, n_rewrite: int
) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    """The unaligned question run ``(qs, qe)`` and rewrite run ``(rs, re)``
    before each alignment pair and after the last one; either may be empty.
    ``qe`` is the next aligned question index, or ``n_question`` at the end.
    """
    qs = rs = 0
    for qe, re in (*pairs, (n_question, n_rewrite)):
        yield (qs, qe), (rs, re)
        qs, rs = qe + 1, re + 1


def tag_edits(
    question: Sequence[str],
    rewrite: Sequence[str],
    policy: MatchPolicy = DEFAULT_POLICY,
) -> tuple[list[EditSpan], list[EditSpan]]:
    """Tag question/rewrite tokens outside the LCS alignment as DEL/ADD spans.

    Consecutive same-tag tokens are merged into a single span.  Returns
    ``(del_spans, add_spans)``.
    """
    del_spans: list[EditSpan] = []
    add_spans: list[EditSpan] = []
    pairs = lcs(question, rewrite, policy)
    for (qs, qe), (rs, re) in _gaps(pairs, len(question), len(rewrite)):
        if qs < qe:
            del_spans.append(EditSpan(SpanKind.DEL, qs, qe, "question"))
        if rs < re:
            add_spans.append(EditSpan(SpanKind.ADD, rs, re, "rewrite"))
    return del_spans, add_spans


def _find_context_occurrence(
    context: Sequence[frozenset[str]],
    span: Sequence[frozenset[str]],
    occurrence: str,
) -> tuple[int, int] | None:
    """The last or first context range matching the folded ``span``."""
    width = len(span)
    starts = range(len(context) - width + 1)
    for start in reversed(starts) if occurrence == "last" else starts:
        if all(not context[start + k].isdisjoint(span[k]) for k in range(width)):
            return start, start + width
    return None


def extract_edit_ops(
    question: Sequence[str],
    context: Sequence[str],
    rewrite: Sequence[str],
    policy: MatchPolicy = DEFAULT_POLICY,
    occurrence: str = "last",
) -> list[EditOp]:
    """Ground the rewrite's ADD spans in the context as edit operations.

    Between two consecutive LCS pairs there is at most one ADD span and one
    DEL span.  An ADD span that occurs contiguously in the context becomes
    a Substitute over the DEL span between the same pairs, or, when there
    is none, an Insert anchored at the next aligned question index
    (``len(question)`` after the last pair).  ADD spans with no context
    occurrence are dropped.  ``occurrence`` selects the "last" (most recent
    turn) or "first" context occurrence when the span appears more than once.
    """
    if occurrence not in ("last", "first"):
        raise ValueError(f"occurrence must be 'last' or 'first', got {occurrence!r}")
    pairs = lcs(question, rewrite, policy)
    context_forms, rewrite_forms = policy.fold(context), policy.fold(rewrite)
    ops: list[EditOp] = []
    for (qs, qe), (rs, re) in _gaps(pairs, len(question), len(rewrite)):
        if rs == re:
            continue
        ctx_range = _find_context_occurrence(context_forms, rewrite_forms[rs:re], occurrence)
        if ctx_range is None:
            continue
        if qs < qe:
            ops.append(
                EditOp(OpKind.SUBSTITUTE, ctx_range, question_anchor=qs, question_range=(qs, qe))
            )
        else:
            ops.append(EditOp(OpKind.INSERT, ctx_range, question_anchor=qe))
    return ops


def build_rewrite_matrix(
    ops: Iterable[EditOp],
    context: Sequence[str],
    question: Sequence[str],
) -> RewriteEditMatrix:
    """Expand edit operations into the bi-directional sparse relation matrix.

    Each Substitute pairs every context token in its range with every
    question token in its range (C-Q-Sub one way, Q-C-Sub the other); each
    Insert pairs its context tokens with the single anchor question token
    (C-Q-Ins/Q-C-Ins).  An Insert at the virtual end-of-question anchor
    ``len(question)`` is an append, written as C-Q-App/Q-C-App in the last
    question column; a context token both inserted before the last
    question token and appended gets C-Q-Ins-App/Q-C-Ins-App there.
    Raises :class:`EditConflictError` when two ops disagree on one cell.
    """
    return RewriteEditMatrix(context, question, _edit_cells(ops, len(context), len(question)))


def _edit_cells(
    ops: Iterable[EditOp], n_ctx: int, n_q: int
) -> dict[tuple[int, int], RewriteRelation]:
    """The cells of :func:`build_rewrite_matrix`, each op checked against
    the context and question lengths."""
    ops = list(ops)
    if ops and n_q == 0:
        raise ValueError("an empty question cannot host edit operations")
    cells: dict[tuple[int, int], RewriteRelation] = {}

    def put(i: int, j: int, rel: RewriteRelation) -> None:
        # Cells are written in mirrored pairs, so one side tells both.
        existing = cells.get((i, j))
        if existing is not None and existing is not rel:
            if RewriteRelation.C_Q_SUB in (existing, rel):
                raise EditConflictError(
                    f"cell ({i},{j}) assigned both {existing.value} and {rel.value}"
                )
            # An insert before the last question token meets an append.
            rel = RewriteRelation.C_Q_INS_APP
        cells[(i, j)] = rel
        cells[(j, i)] = rel.mirror

    for op in ops:
        cs, ce = op.context_range
        if not (0 <= cs < ce <= n_ctx):
            raise ValueError(f"context_range {op.context_range} out of bounds")
        if op.kind is OpKind.SUBSTITUTE:
            qs, qe = op.question_range  # type: ignore[misc]
            if not (0 <= qs < qe <= n_q):
                raise ValueError(f"question_range {op.question_range} out of bounds")
            for ci in range(cs, ce):
                for qi in range(qs, qe):
                    put(ci, n_ctx + qi, RewriteRelation.C_Q_SUB)
        else:
            if not (0 <= op.question_anchor <= n_q):
                raise ValueError(f"insert anchor {op.question_anchor} out of bounds")
            if op.question_anchor == n_q:
                anchor, rel = n_q - 1, RewriteRelation.C_Q_APP
            else:
                anchor, rel = op.question_anchor, RewriteRelation.C_Q_INS
            for ci in range(cs, ce):
                put(ci, n_ctx + anchor, rel)
    return cells


def build_from_interaction(
    interaction: Interaction,
    rewrite: Sequence[str] | None = None,
    policy: MatchPolicy = DEFAULT_POLICY,
    occurrence: str = "last",
) -> RewriteEditMatrix:
    """Build the edit matrix for an interaction against a rewritten question.

    ``rewrite`` defaults to the interaction's gold rewrite.  The context is
    flattened chronologically with no separator tokens.
    """
    if rewrite is None:
        rewrite = interaction.gold_rewrite
        if rewrite is None:
            raise ValueError("interaction has no gold rewrite and none was given")
    context, question = interaction.flat_context(), interaction.question
    ops = extract_edit_ops(question, context, rewrite, policy, occurrence)
    # The interaction's tokens are validated, and ``_edit_cells`` writes each
    # cell in bounds, in its block and with its mirror.
    return _prevalidated(
        RewriteEditMatrix,
        context_tokens=context,
        question_tokens=question,
        cells=_edit_cells(ops, len(context), len(question)),
    )
