"""Independent reference implementations used as test oracles.

Everything here is deliberately written in plain Python (lists, dicts,
math.fsum) with no reuse of the package's code paths, so agreement between
the two is meaningful.  The exceptions are the last two sections: the
op-replay restore that the direct cell reading replaced, and the per-head
numpy layer that the head-batched encoder layer replaced, both kept
unchanged as exact regression references.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from qurg.rat_encoder import (
    LAYER_NORM_EPS,
    AttentionTrace,
    RatLayerParams,
    _check_input,
    _check_relations,
)
from qurg.rewrite_diff import EditOp, OpKind, RewriteEditMatrix, RewriteRelation

Eq = Callable[[str, str], bool]


def _default_eq(a: str, b: str) -> bool:
    return a == b


def enumerate_lcs_length(a: Sequence[str], b: Sequence[str], eq: Eq = _default_eq) -> int:
    """LCS length by exhaustive enumeration of all subsequences of ``a``."""
    best = 0
    for size in range(len(a), best, -1):
        for picks in combinations(range(len(a)), size):
            # greedy order-preserving match of the picked tokens into b
            j = 0
            for idx in picks:
                while j < len(b) and not eq(a[idx], b[j]):
                    j += 1
                if j == len(b):
                    break
                j += 1
            else:
                best = max(best, size)
                break
        if best == size:
            break
    return best


def dp_lcs_length(a: Sequence[str], b: Sequence[str], eq: Eq = _default_eq) -> int:
    prev = [0] * (len(b) + 1)
    for tok in a:
        cur = [0]
        for j, other in enumerate(b):
            if eq(tok, other):
                cur.append(prev[j] + 1)
            else:
                cur.append(max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def all_alignments(a: Sequence[str], b: Sequence[str], eq: Eq = _default_eq) -> set:
    """Every (possibly non-maximal) alignment as a tuple of index pairs.

    Exponential; only for tiny sequences.
    """
    results: set[tuple[tuple[int, int], ...]] = set()

    def rec(i: int, j: int, acc: list[tuple[int, int]]) -> None:
        results.add(tuple(acc))
        for i2 in range(i, len(a)):
            for j2 in range(j, len(b)):
                if eq(a[i2], b[j2]):
                    acc.append((i2, j2))
                    rec(i2 + 1, j2 + 1, acc)
                    acc.pop()

    rec(0, 0, [])
    return results


def leftmost_max_alignment(
    a: Sequence[str], b: Sequence[str], eq: Eq = _default_eq
) -> tuple[tuple[int, int], ...]:
    alignments = all_alignments(a, b, eq)
    best = max(len(al) for al in alignments)
    return min(al for al in alignments if len(al) == best)


def reference_schema_link(question, context, schema, policy) -> dict:
    """Schema-linking cells ``{(i, j): relation name}`` by brute force over
    every (n-gram, element) pair, following the rules stated in the
    ``build_schema_link_matrix`` docstring and using only ``policy.matches``.

    Layout: question, context, tables, columns.  Per element family and
    per utterance segment, every n-gram equal word by word to a whole
    element name is a candidate; candidates are taken longest first, then
    earliest start, then earliest element, skipping any that reuse a token
    already taken.  A token equal to one word of a multi-word name is a
    partial match unless that (token, element) pair is exact.
    """
    n_q, n_c = len(question), len(context)
    n_t = len(schema.tables)
    cells: dict[tuple[int, int], str] = {}

    def pair(i: int, j: int, forward: str, backward: str) -> None:
        cells[(i, j)] = forward
        cells[(j, i)] = backward

    families = [
        ("Table", [list(name) for name in schema.tables], n_q + n_c),
        ("Column", [list(col.name) for col in schema.columns], n_q + n_c + n_t),
    ]
    for family, names, offset in families:
        exact: set[tuple[int, int]] = set()
        for base, tokens in ((0, list(question)), (n_q, list(context))):
            candidates = []
            for elem, name in enumerate(names):
                width = len(name)
                for start in range(len(tokens) - width + 1):
                    if all(policy.matches(tokens[start + k], name[k]) for k in range(width)):
                        candidates.append((-width, start, elem))
            taken: set[int] = set()
            for neg_width, start, elem in sorted(candidates):
                span = set(range(start, start - neg_width))
                if span & taken:
                    continue
                taken |= span
                exact.update((base + pos, elem) for pos in span)
        for pos, elem in exact:
            rel = f"Exact-{family}-Match"
            pair(pos, offset + elem, rel, rel + "-Rev")
        utterance = list(question) + list(context)
        for pos, tok in enumerate(utterance):
            for elem, name in enumerate(names):
                if len(name) < 2 or (pos, elem) in exact:
                    continue
                if any(policy.matches(tok, word) for word in name):
                    rel = f"Partial-{family}-Match"
                    pair(pos, offset + elem, rel, rel + "-Rev")

    col_offset = n_q + n_c + n_t
    for src, dst in sorted(schema.foreign_keys):
        pair(col_offset + src, col_offset + dst, "Foreign-Key-Forward", "Foreign-Key-Backward")
    for idx, col in enumerate(schema.columns):
        if idx in schema.primary_keys:
            owner = ("Primary-Key-Of", "Has-Primary-Key")
        else:
            owner = ("Column-Belongs-To-Table", "Table-Has-Column")
        pair(col_offset + idx, n_q + n_c + col.table, *owner)
    for a, col_a in enumerate(schema.columns):
        for b, col_b in enumerate(schema.columns):
            if a != b and col_a.table == col_b.table:
                cells.setdefault((col_offset + a, col_offset + b), "Same-Table-Columns")
    return cells


def clipped_ngram_match(
    candidate: Sequence[str], reference: Sequence[str], n: int
) -> int:
    """Clipped n-gram multiset intersection, written with bare dict loops."""
    cand: dict[tuple[str, ...], int] = {}
    for i in range(len(candidate) - n + 1):
        gram = tuple(candidate[i : i + n])
        cand[gram] = cand.get(gram, 0) + 1
    ref: dict[tuple[str, ...], int] = {}
    for i in range(len(reference) - n + 1):
        gram = tuple(reference[i : i + n])
        ref[gram] = ref.get(gram, 0) + 1
    total = 0
    for gram, count in cand.items():
        total += min(count, ref.get(gram, 0))
    return total


def reference_layer_outputs(
    x_rows: list[list[float]],
    layer,
    relations: list[list[int]] | None,
) -> list[list[float]]:
    """Step-by-step evaluation of one (relation-aware) transformer layer.

    Follows the layer definition literally: per-head scaled dot-product
    scores with the relation key embedding added to the key, row softmax,
    value sum with the relation value embedding added, head concatenation,
    residual + layer norm, feed-forward, residual + layer norm.
    """
    n = len(x_rows)
    heads = layer.heads
    width = layer.head_width
    d_x = layer.d_x
    scale = math.sqrt(width)
    eps = 1e-6  # must match the library's layer-norm epsilon

    def matvec(row: list[float], table: list[list[float]]) -> list[float]:
        cols = len(table[0])
        return [
            math.fsum(row[i] * table[i][c] for i in range(len(row)))
            for c in range(cols)
        ]

    rel_key = layer.rel_key.tolist()
    rel_value = layer.rel_value.tolist()
    z_rows: list[list[float]] = [[] for _ in range(n)]
    for h in range(heads):
        w_q = layer.w_q[h].tolist()
        w_k = layer.w_k[h].tolist()
        w_v = layer.w_v[h].tolist()
        q = [matvec(row, w_q) for row in x_rows]
        k = [matvec(row, w_k) for row in x_rows]
        v = [matvec(row, w_v) for row in x_rows]
        alpha: list[list[float]] = []
        for i in range(n):
            scores = []
            for j in range(n):
                key = list(k[j])
                if relations is not None:
                    key = [key[c] + rel_key[relations[i][j]][c] for c in range(width)]
                scores.append(
                    math.fsum(q[i][c] * key[c] for c in range(width)) / scale
                )
            top = max(scores)
            exps = [math.exp(s - top) for s in scores]
            denom = math.fsum(exps)
            alpha.append([e / denom for e in exps])
        for i in range(n):
            for c in range(width):
                terms = []
                for j in range(n):
                    value = v[j][c]
                    if relations is not None:
                        value += rel_value[relations[i][j]][c]
                    terms.append(alpha[i][j] * value)
                z_rows[i].append(math.fsum(terms))

    def layer_norm(row: list[float], gain: list[float], bias: list[float]) -> list[float]:
        mu = math.fsum(row) / len(row)
        var = math.fsum((val - mu) ** 2 for val in row) / len(row)
        inv = 1.0 / math.sqrt(var + eps)
        return [(val - mu) * inv * g + b for val, g, b in zip(row, gain, bias)]

    ln1_gain = layer.ln1_gain.tolist()
    ln1_bias = layer.ln1_bias.tolist()
    ln2_gain = layer.ln2_gain.tolist()
    ln2_bias = layer.ln2_bias.tolist()
    ff_w1 = layer.ff_w1.tolist()
    ff_b1 = layer.ff_b1.tolist()

    out: list[list[float]] = []
    for i in range(n):
        mid = layer_norm(
            [x_rows[i][c] + z_rows[i][c] for c in range(d_x)], ln1_gain, ln1_bias
        )
        if layer.single_fc:
            relu = [max(val, 0.0) for val in mid]
            ff = [a + b for a, b in zip(matvec(relu, ff_w1), ff_b1)]
        else:
            hidden = [a + b for a, b in zip(matvec(mid, ff_w1), ff_b1)]
            relu = [max(val, 0.0) for val in hidden]
            ff = [
                a + b
                for a, b in zip(matvec(relu, layer.ff_w2.tolist()), layer.ff_b2.tolist())
            ]
        out.append(
            layer_norm([mid[c] + ff[c] for c in range(d_x)], ln2_gain, ln2_bias)
        )
    return out


# ---------------------------------------------------------------------------
# Restoration as it ran before it read the cells directly, copied from
# ``qurg.rewrite_restore``: group the cells back into edit operations, then
# replay the operations over the question.  ``restore`` must give the same
# tokens on every matrix that passes validation.


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
    """Group matrix cells back into edit operations: contiguous context
    tokens sharing one relation type and one question target set form one
    op, with one substitute per contiguous run of the targets.  An append
    cell is an insert anchored at ``len(question)``; an insert-and-append
    cell is both that and an insert before the last question token."""
    # Rebuilt through the constructor, which checks what restore once did.
    RewriteEditMatrix(matrix.context_tokens, matrix.question_tokens, matrix.cells)
    n_ctx, n_q = matrix.context_size, matrix.question_size
    sub_targets: dict[int, list[int]] = defaultdict(list)
    ins_pairs: dict[int, list[int]] = defaultdict(list)  # anchor -> context indices
    for (i, j), rel in matrix.cells.items():
        if rel is RewriteRelation.C_Q_SUB:
            sub_targets[i].append(j - n_ctx)
        if rel in (RewriteRelation.C_Q_INS, RewriteRelation.C_Q_INS_APP):
            ins_pairs[j - n_ctx].append(i)
        if rel in (RewriteRelation.C_Q_APP, RewriteRelation.C_Q_INS_APP):
            ins_pairs[n_q].append(i)

    ops: list[EditOp] = []
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
    for anchor in sorted(ins_pairs):
        for cs, ce in _contiguous_runs(sorted(ins_pairs[anchor])):
            ops.append(EditOp(OpKind.INSERT, (cs, ce), question_anchor=anchor))
    ops.sort(key=lambda op: (op.context_range, op.question_anchor, op.kind.value))
    return ops


def replay_ops(
    question: Sequence[str], context: Sequence[str], ops: Sequence[EditOp]
) -> tuple[str, ...]:
    """Splice the ops' context ranges into the question: inserts before
    their anchor, then substitutes replacing their range, each group in
    context order; indices refer to the original question throughout."""
    inserts_at: dict[int, list[tuple[int, int]]] = defaultdict(list)
    subs_at: dict[int, list[tuple[int, int]]] = defaultdict(list)
    replaced: set[int] = set()
    for op in ops:
        if op.kind is OpKind.INSERT:
            inserts_at[op.question_anchor].append(op.context_range)
        else:
            qs, qe = op.question_range
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
    return tuple(out)


def reference_restore(
    question: Sequence[str], context: Sequence[str], matrix: RewriteEditMatrix
) -> tuple[str, ...]:
    return replay_ops(question, context, recover_ops(matrix))


# ---------------------------------------------------------------------------
# The relation-aware layer as it ran one head at a time, copied unchanged
# from ``qurg.rat_encoder`` before the heads were batched.  The package's
# layer must match it bit for bit: outputs, every trace array and every
# gradient.


def _matmul_stable(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # (p,q) @ (q,r) without BLAS: per-element reduction trees are identical
    # for every output row, so row results do not depend on row position.
    return (a[:, :, None] * b[None, :, :]).sum(axis=1)

def _sum_positions(terms: np.ndarray) -> np.ndarray:
    # Sum over the last axis (sequence positions) in sorted order: the
    # summation order depends only on the values, not on where they sit, so
    # results are bitwise deterministic and exactly permutation-equivariant.
    return np.sort(terms, axis=-1).sum(axis=-1)

def _with_relations(
    k: np.ndarray, v: np.ndarray, layer: RatLayerParams, relations: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    # One head's keys and values as seen from each query row: (n, n, w) with
    # the relation embeddings of cell (i, j) added, or (1, n, w) without.
    if relations is None:
        return k[None, :, :], v[None, :, :]
    return (
        k[None, :, :] + layer.rel_key[relations],
        v[None, :, :] + layer.rel_value[relations],
    )

def _layer_norm(v: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    mu = v.mean(axis=-1, keepdims=True)
    var = v.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (v - mu) * inv
    return xhat * gain + bias, xhat, inv

def _layer_norm_backward(
    d_out: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gain: np.ndarray
) -> np.ndarray:
    d_xhat = d_out * gain
    return inv * (
        d_xhat
        - d_xhat.mean(axis=-1, keepdims=True)
        - xhat * (d_xhat * xhat).mean(axis=-1, keepdims=True)
    )


def per_head_layer_forward(
    x: np.ndarray, layer: RatLayerParams, relations: np.ndarray | None
) -> tuple[np.ndarray, AttentionTrace]:
    _check_input(x, layer)
    n = x.shape[0]
    heads, width = layer.heads, layer.head_width
    if relations is not None:
        relations = _check_relations(relations, n, layer.relation_count)
    scale = math.sqrt(width)  # the per-head attention width d_z / H

    q = np.stack([_matmul_stable(x, layer.w_q[h]) for h in range(heads)])
    k = np.stack([_matmul_stable(x, layer.w_k[h]) for h in range(heads)])
    v = np.stack([_matmul_stable(x, layer.w_v[h]) for h in range(heads)])

    scores = np.empty((heads, n, n), dtype=x.dtype)
    weights = np.empty((heads, n, n), dtype=x.dtype)
    z_parts = []
    for h in range(heads):
        keyed, valued = _with_relations(k[h], v[h], layer, relations)
        e = (q[h][:, None, :] * keyed).sum(axis=-1) / scale
        ex = np.exp(e - e.max(axis=-1, keepdims=True))
        alpha = ex / _sum_positions(ex)[:, None]
        scores[h] = e
        weights[h] = alpha
        z_parts.append(_sum_positions(alpha[:, None, :] * valued.transpose(0, 2, 1)))
    z = np.concatenate(z_parts, axis=1)

    y_mid, ln1_xhat, ln1_inv = _layer_norm(x + z, layer.ln1_gain, layer.ln1_bias)
    if layer.single_fc:
        ff_hidden = None
        ff_out = _matmul_stable(np.maximum(y_mid, 0.0), layer.ff_w1) + layer.ff_b1
    else:
        ff_hidden = _matmul_stable(y_mid, layer.ff_w1) + layer.ff_b1
        ff_out = _matmul_stable(np.maximum(ff_hidden, 0.0), layer.ff_w2) + layer.ff_b2
    y, ln2_xhat, ln2_inv = _layer_norm(y_mid + ff_out, layer.ln2_gain, layer.ln2_bias)

    trace = AttentionTrace(
        scores=scores,
        weights=weights,
        z=z,
        y=y,
        q=q,
        k=k,
        v=v,
        ln1_xhat=ln1_xhat,
        ln1_inv=ln1_inv,
        y_mid=y_mid,
        ff_hidden=ff_hidden,
        ff_out=ff_out,
        ln2_xhat=ln2_xhat,
        ln2_inv=ln2_inv,
    )
    return y, trace


def per_head_layer_backward(
    grad_y: np.ndarray,
    trace: AttentionTrace,
    x: np.ndarray,
    relations: np.ndarray | None,
    layer: RatLayerParams,
) -> dict[str, np.ndarray]:
    """Analytic gradients of one layer for the input, all weights, and both
    relation tables, given the upstream gradient of the layer output.

    Relation-table gradients accumulate over every cell sharing a relation
    id; ids absent from ``relations`` get zero rows.
    """
    _check_input(x, layer)
    n = x.shape[0]
    heads, width = layer.heads, layer.head_width
    if grad_y.shape != trace.y.shape or trace.y.shape != x.shape:
        raise ValueError("upstream gradient / trace / input shapes disagree")
    if relations is not None:
        relations = _check_relations(relations, n, layer.relation_count)
    scale = math.sqrt(width)

    grads: dict[str, np.ndarray] = {
        "rel_key": np.zeros_like(layer.rel_key),
        "rel_value": np.zeros_like(layer.rel_value),
    }

    # Second layer norm.
    grads["ln2_gain"] = (grad_y * trace.ln2_xhat).sum(axis=0)
    grads["ln2_bias"] = grad_y.sum(axis=0)
    d_u = _layer_norm_backward(grad_y, trace.ln2_xhat, trace.ln2_inv, layer.ln2_gain)
    d_y_mid = d_u.copy()
    d_ff_out = d_u

    # Feed-forward block.
    if layer.single_fc:
        relu_in = trace.y_mid
        relu_out = np.maximum(relu_in, 0.0)
        grads["ff_w1"] = _matmul_stable(relu_out.T, d_ff_out)
        grads["ff_b1"] = d_ff_out.sum(axis=0)
        d_y_mid += _matmul_stable(d_ff_out, layer.ff_w1.T) * (relu_in > 0)
    else:
        hidden = trace.ff_hidden
        relu_out = np.maximum(hidden, 0.0)
        grads["ff_w2"] = _matmul_stable(relu_out.T, d_ff_out)
        grads["ff_b2"] = d_ff_out.sum(axis=0)
        d_hidden = _matmul_stable(d_ff_out, layer.ff_w2.T) * (hidden > 0)
        grads["ff_w1"] = _matmul_stable(trace.y_mid.T, d_hidden)
        grads["ff_b1"] = d_hidden.sum(axis=0)
        d_y_mid += _matmul_stable(d_hidden, layer.ff_w1.T)

    # First layer norm; its input is x + z.
    grads["ln1_gain"] = (d_y_mid * trace.ln1_xhat).sum(axis=0)
    grads["ln1_bias"] = d_y_mid.sum(axis=0)
    d_p = _layer_norm_backward(d_y_mid, trace.ln1_xhat, trace.ln1_inv, layer.ln1_gain)
    d_x = d_p.copy()

    grads["w_q"] = np.zeros_like(layer.w_q)
    grads["w_k"] = np.zeros_like(layer.w_k)
    grads["w_v"] = np.zeros_like(layer.w_v)
    for h in range(heads):
        d_z = d_p[:, h * width : (h + 1) * width]
        alpha = trace.weights[h]
        keyed, valued = _with_relations(trace.k[h], trace.v[h], layer, relations)

        d_alpha = (d_z[:, None, :] * valued).sum(axis=-1)
        d_v = _matmul_stable(alpha.T, d_z)
        if relations is not None:
            np.add.at(grads["rel_value"], relations, alpha[:, :, None] * d_z[:, None, :])

        d_e = alpha * (d_alpha - (alpha * d_alpha).sum(axis=-1, keepdims=True))
        d_s = d_e / scale
        d_q = (d_s[:, :, None] * keyed).sum(axis=1)
        key_terms = d_s[:, :, None] * trace.q[h][:, None, :]
        d_k = key_terms.sum(axis=0)
        if relations is not None:
            np.add.at(grads["rel_key"], relations, key_terms)

        grads["w_q"][h] = _matmul_stable(x.T, d_q)
        grads["w_k"][h] = _matmul_stable(x.T, d_k)
        grads["w_v"][h] = _matmul_stable(x.T, d_v)
        d_x += _matmul_stable(d_q, layer.w_q[h].T)
        d_x += _matmul_stable(d_k, layer.w_k[h].T)
        d_x += _matmul_stable(d_v, layer.w_v[h].T)

    grads["x"] = d_x
    return grads
