"""Bi-directional rewrite edit matrices from (question, context, rewrite) triples.

Given the current question of a conversation turn, the flattened history
context, and a self-contained rewrite of that question, this module aligns
question and rewrite with an LCS, tags the out-of-alignment words as ADD
(rewrite side) or DEL (question side), grounds the ADD spans in the context,
and records the resulting substitute/insert operations as a square relation
matrix over the ``[context; question]`` token positions.  An operation is
two ranges: the context range that replaces a question range, where an
empty question range ``(a, a)`` inserts before token ``a``.  Tagging and
grounding take one walk over the gaps between consecutive alignment pairs;
each gap holds at most one DEL run and one ADD run.  Alignment and
grounding look tokens up in a form index, one bitmask of positions per
word form, and work on whole rows of positions at once.

Every operation here is a pure function of its inputs; all produced values
are immutable and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain
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


class _Tokens(tuple):
    """A token sequence checked by :func:`token_seq`, or built only from
    checked tokens, which ``token_seq`` hands back unchanged.  It equals,
    hashes, prints and encodes as a tuple; a slice or a sum is a tuple."""

    __slots__ = ()


def token_seq(tokens: Iterable[str]) -> TokenSeq:
    """Validate and freeze a token sequence.

    Tokens must be non-empty strings without internal whitespace.  A bare
    string is rejected rather than split into one-letter tokens.  A
    sequence checked before is returned as it is.
    """
    if type(tokens) is _Tokens:
        return tokens
    if isinstance(tokens, str):
        raise ValueError(f"expected a sequence of tokens, got the string {tokens!r}")
    out = _Tokens(tokens)
    try:
        # One pass in C accepts a valid sequence: joined and split again, it
        # comes back the same only if every token is a non-empty string with
        # no whitespace.  The loop below finds the offending token.
        if " ".join(out).split() == list(out):
            return out
    except TypeError:  # a non-string token
        pass
    for tok in out:
        if not isinstance(tok, str) or not tok:
            raise ValueError(f"empty or non-string token: {tok!r}")
        if tok.split() != [tok]:  # the same test as any(ch.isspace() for ch in tok), faster
            raise ValueError(f"token contains whitespace: {tok!r}")
    return out


def _prevalidated(cls: type[_T], **fields: object) -> _T:
    """An instance of the frozen dataclass ``cls`` holding ``fields``, made
    without ``__post_init__``.  Its only callers, the public builders
    :func:`build_rewrite_matrix` and ``schema_link.build_schema_link_matrix``,
    check their tokens with :func:`token_seq` and write each cell in its
    block with its mirror.  The cell check would cost them 9-18 against
    0.6-1.1 microseconds per short spliced example, and 1.05-1.2 ms per turn
    of the wide benchmark schema, which links in 0.15-0.2 ms (shared 2-vCPU
    Xeon, Python 3.11; the ranges are the host's drift)."""
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
    when they share a form, which is not transitive: "cities" matches
    "citie" and "city", which do not match each other.
    """

    lowercase: bool = True
    plural_stem: bool = True

    def forms(self, token: str) -> tuple[str, ...]:
        # "cities" -> ("cities", "citie", "city"), "flights" -> ("flights", "flight")
        return self.fold((token,))[0]

    def fold(self, tokens: Iterable[str]) -> tuple[tuple[str, ...], ...]:
        """Each token's forms as a tuple with no form twice, for a whole
        sequence; two tokens match when they share a form.  The matchers
        read a sequence's forms this way or as a form index
        (``_form_index``)."""
        folded = map(str.lower, tokens) if self.lowercase else tokens
        if not self.plural_stem:
            return tuple((t,) for t in folded)
        return tuple(_stem_forms(t) if t[-1:] == "s" else (t,) for t in folded)

    def _form_index(self, tokens: Iterable[str]) -> dict[str, int]:
        """The form index of a sequence: each form's bitmask of the
        positions whose token carries it, built in the pass that folds the
        tokens.  A token matches the positions in the OR of its forms' masks
        (:func:`_match_mask`), which is exact under the non-transitive rule,
        because two tokens match when they share a form."""
        masks: dict[str, int] = {}
        get, bit = masks.get, 1
        stem = self.plural_stem
        for t in map(str.lower, tokens) if self.lowercase else tokens:
            if stem and t[-1:] == "s":
                for form in _stem_forms(t):
                    masks[form] = get(form, 0) | bit
            else:
                masks[t] = get(t, 0) | bit
            bit <<= 1
        return masks

    def matches(self, a: str, b: str) -> bool:
        return not set(self.forms(a)).isdisjoint(self.forms(b))


def _stem_forms(t: str) -> tuple[str, ...]:
    """The forms of a folded token ``t`` that ends in "s": itself, without
    the "s", and for "-ies" also "-y"; a lone "s" is only itself."""
    if len(t) < 2:
        return (t,)
    if len(t) > 3 and t.endswith("ies"):
        return (t, t[:-1], t[:-3] + "y")
    return (t, t[:-1])


DEFAULT_POLICY = MatchPolicy()


@dataclass(frozen=True)
class Interaction:
    """One conversation state: history turns plus the current question.

    ``context_turns`` is chronological (first turn first).  ``turn_index``
    is derived: the current question is turn ``len(context_turns) + 1``.
    The question, and the gold rewrite unless it is ``None``, hold tokens.
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
        if self.gold_rewrite == ():
            raise ValueError("interaction gold rewrite must be non-empty")

    @property
    def turn_index(self) -> int:
        return len(self.context_turns) + 1

    def flat_context(self) -> TokenSeq:
        """Context turns concatenated chronologically, no separators."""
        return _Tokens(chain.from_iterable(self.context_turns))

    def turn_lengths(self) -> tuple[int, ...]:
        return tuple(len(turn) for turn in self.context_turns)


class SpanKind(Enum):
    ADD = "ADD"
    DEL = "DEL"


@dataclass(frozen=True)
class EditSpan:
    """A maximal run of same-tag tokens on one side of the alignment: ADD
    spans index the rewrite, DEL spans the question."""

    kind: SpanKind
    start: int
    end_exclusive: int

    def __post_init__(self) -> None:
        if self.start >= self.end_exclusive:
            raise ValueError("edit span must be non-empty")

    @property
    def side(self) -> str:
        return "rewrite" if self.kind is SpanKind.ADD else "question"


class OpKind(Enum):
    SUBSTITUTE = "Substitute"
    INSERT = "Insert"


# Looking a member up on its enum class costs about 0.2 microseconds in
# Python 3.11, several times a module global, so the per-op and per-cell
# code here and in ``rewrite_restore`` reads module aliases of the members.
_SUBSTITUTE, _INSERT = OpKind.SUBSTITUTE, OpKind.INSERT


@dataclass(frozen=True)
class EditOp:
    """A grounded edit: the context range that replaces a question range.

    A non-empty question range ``(qs, qe)`` is a Substitute of those
    question tokens.  An empty range ``(a, a)`` is an Insert before
    question token ``a``; ``a == len(question)`` is the virtual
    end-of-question anchor, an append.
    """

    context_range: tuple[int, int]
    question_range: tuple[int, int]

    def __post_init__(self) -> None:
        if self.context_range[0] >= self.context_range[1]:
            raise ValueError("context_range must be non-empty")
        if self.question_range[0] > self.question_range[1]:
            raise ValueError("question_range must not end before it starts")

    @property
    def kind(self) -> OpKind:
        qs, qe = self.question_range
        return _SUBSTITUTE if qs < qe else _INSERT

    @property
    def question_anchor(self) -> int:
        """The replaced range's start, or the insertion point."""
        return self.question_range[0]


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


_INS, _SUB, _APP, _INS_APP = (
    RewriteRelation.C_Q_INS, RewriteRelation.C_Q_SUB,
    RewriteRelation.C_Q_APP, RewriteRelation.C_Q_INS_APP,
)


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


def _match_mask(forms: Iterable[str], masks: dict[str, int]) -> int:
    mask = 0
    for form in forms:
        mask |= masks.get(form, 0)
    return mask


def _lcs_rows(row_masks: Sequence[int], m: int) -> list[int]:
    """The bit-parallel LCS rows (L. Allison and T. I. Dix, IPL 23, 1986;
    H. Hyyrö, AWOCA 2004) of a sequence ``a`` whose tokens match the
    positions ``row_masks`` of a reversed sequence ``b`` of length ``m``.
    The LCS length of ``a[i:]`` and ``b[j:]`` is ``(m - j)`` minus the
    popcount of the low ``m - j`` bits of ``rows[i]``."""
    full = (1 << m) - 1
    rows = [full] * (len(row_masks) + 1)
    v = full
    for i in range(len(row_masks) - 1, -1, -1):
        u = v & row_masks[i]
        v = rows[i] = ((v + u) | (v - u)) & full
    return rows


def lcs(
    a: Sequence[str], b: Sequence[str], policy: MatchPolicy = DEFAULT_POLICY
) -> tuple[tuple[int, int], ...]:
    """Longest common subsequence alignment between two token sequences.

    Returns index pairs, strictly increasing in both coordinates, whose
    tokens are equal under ``policy``.  Among all maximum-length alignments
    the lexicographically smallest pair list is returned (leftmost
    tie-break), which keeps downstream anchoring deterministic.
    """
    m = len(b)
    # Bit p of a mask or a row stands for b[m - 1 - p].
    index = policy._form_index(reversed(b))
    eq = [_match_mask(forms, index) for forms in policy.fold(a)]
    rows = _lcs_rows(eq, m)

    def dp(i: int, j: int) -> int:  # the LCS length of a[i:] and b[j:]
        return (m - j) - (rows[i] & ((1 << (m - j)) - 1)).bit_count()

    pairs: list[tuple[int, int]] = []
    i = j = 0
    target = dp(0, 0)
    while target:
        # The first row i2 >= i whose leftmost match j2 >= j starts a
        # longest alignment of a[i2:] and b[j2:].  A matching cell has
        # dp(i2, j2) == dp(i2 + 1, j2 + 1) + 1 and dp does not grow with
        # j2, so no later match in that row can.
        low = (1 << (m - j)) - 1
        for i2 in range(i, len(a)):
            later = eq[i2] & low
            if later:
                j2 = m - later.bit_length()
                if dp(i2, j2) == target:
                    break
        pairs.append((i2, j2))
        i, j = i2 + 1, j2 + 1
        target -= 1
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
    ``(del_spans, add_spans)``.  Both sequences are checked with
    :func:`token_seq`, the question first.
    """
    question, rewrite = token_seq(question), token_seq(rewrite)
    del_spans: list[EditSpan] = []
    add_spans: list[EditSpan] = []
    pairs = lcs(question, rewrite, policy)
    for (qs, qe), (rs, re) in _gaps(pairs, len(question), len(rewrite)):
        if qs < qe:
            del_spans.append(EditSpan(SpanKind.DEL, qs, qe))
        if rs < re:
            add_spans.append(EditSpan(SpanKind.ADD, rs, re))
    return del_spans, add_spans


def _find_context_occurrence(
    context: dict[str, int],
    span: Sequence[Iterable[str]],
    occurrence: str,
) -> tuple[int, int] | None:
    """The last or first range of the context, given by its form index,
    that matches the folded ``span``: shift-and search (R. Baeza-Yates and
    G. Gonnet, CACM 35(10), 1992) over the context's start positions."""
    starts = -1
    for k, forms in enumerate(span):
        starts &= _match_mask(forms, context) >> k
        if not starts:
            return None
    start = (starts if occurrence == "last" else starts & -starts).bit_length() - 1
    return start, start + len(span)


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
    one op: its context range replacing the question range of the DEL span
    between the same pairs, a Substitute, or, when there is none, the
    empty range at the next aligned question index (``len(question)``
    after the last pair), an Insert.  ADD spans with no context
    occurrence are dropped.  ``occurrence`` selects the "last" (most recent
    turn) or "first" context occurrence when the span appears more than once.
    The question, context and rewrite are then checked with
    :func:`token_seq`, in that order.
    """
    if occurrence not in ("last", "first"):
        raise ValueError(f"occurrence must be 'last' or 'first', got {occurrence!r}")
    question, context, rewrite = token_seq(question), token_seq(context), token_seq(rewrite)
    pairs = lcs(question, rewrite, policy)
    context_index = policy._form_index(context)
    rewrite_forms = policy.fold(rewrite)
    ops: list[EditOp] = []
    for (qs, qe), (rs, re) in _gaps(pairs, len(question), len(rewrite)):
        if rs == re:
            continue
        ctx_range = _find_context_occurrence(context_index, rewrite_forms[rs:re], occurrence)
        if ctx_range is not None:
            ops.append(EditOp(ctx_range, (qs, qe)))
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
    The context, then the question, is checked with :func:`token_seq`, and
    each op against their lengths; each cell is written in its block with
    its mirror, so the matrix skips the constructor's cell check.
    Raises :class:`EditConflictError` when two ops disagree on one cell.
    """
    context, question = token_seq(context), token_seq(question)
    n_ctx, n_q = len(context), len(question)
    ops = list(ops)
    if ops and n_q == 0:
        raise ValueError("an empty question cannot host edit operations")
    cells: dict[tuple[int, int], RewriteRelation] = {}
    for op in ops:
        (cs, ce), (qs, qe) = op.context_range, op.question_range
        if not (0 <= cs < ce <= n_ctx and 0 <= qs <= qe <= n_q):
            raise ValueError(f"edit op {op.context_range}, {op.question_range} out of bounds")
        # A range refuses a bound that is not an integer (TypeError).
        if qs < qe:
            columns, rel = range(n_ctx + qs, n_ctx + qe), _SUB
        elif qs < n_q:
            columns, rel = range(n_ctx + qs, n_ctx + qs + 1), _INS
        else:
            columns, rel = (n_ctx + n_q - 1,), _APP
        mirror = rel.mirror
        # Cells are written in mirrored pairs, so one side tells both.
        for i in range(cs, ce):
            for j in columns:
                existing = cells.get((i, j))
                if existing is None or existing is rel:
                    cells[(i, j)], cells[(j, i)] = rel, mirror
                elif existing is _SUB or rel is _SUB:
                    raise EditConflictError(
                        f"cell ({i},{j}) assigned both {existing.value} and {rel.value}"
                    )
                else:  # an insert before the last question token meets an append
                    cells[(i, j)], cells[(j, i)] = _INS_APP, _INS_APP.mirror
    return _prevalidated(RewriteEditMatrix, context_tokens=context, question_tokens=question,
                         cells=cells)


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
    return build_rewrite_matrix(ops, context, question)
