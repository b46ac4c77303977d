"""Independent reference implementations used as test oracles.

Everything here is deliberately written in plain Python (lists, dicts,
math.fsum) with no reuse of the package's code paths, so agreement between
the two is meaningful.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Callable, Sequence

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
