"""Relation-aware transformer layers and the two-stream matrix encoder.

A from-scratch, deterministic implementation at toy scale.  One layer maps
input rows ``x_i`` to output rows ``y_i`` through multi-head scaled
dot-product attention, a residual + layer norm, a feed-forward block, and a
second residual + layer norm.  The relation-aware variant adds learnable
per-relation-type embeddings inside the attention scores (key side) and the
value sum, one shared table per layer across heads.

The two-stream encoder runs one relation-aware stack over
``[question; context; schema]`` positions with the schema-linking relations
and a second stack over ``[question; context]`` with the rewrite-edit
relations, then sums the two streams position-wise for utterance rows and
keeps the linking stream's schema rows.

Numerical policy: every sum over positions, the head width or a product's
inner dimension names its order of addition (``_sum_terms``), and the two
attention sums over positions sort their terms first, so forward passes are
bitwise deterministic, use no BLAS, and are exactly equivariant under
position permutations.  A sorted-order sum stays within 1e-12 of the
exactly rounded sum at the sizes the encoder runs.  Backward passes carry
analytic gradients for the inputs, every weight, and both relation tables.

One layer processes all heads together: one projection for every head's
q, k and v, one gather of each relation table, and one pass each for the
scores, the softmax and the value sum.  The layer that runs the heads one
at a time with numpy's own ``.sum`` stays the bitwise reference: each
named order is the one numpy used there, so outputs, traces and gradients
are bit for bit those of the per-head layer.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Iterator, Sequence, get_type_hints

import numpy as np

from .dataset_io import (
    _CANONICAL, FORMAT_VERSION, DatasetError, _check_version, _constructed, _expect, _field,
    _replace, read_json,
)
from .rewrite_diff import (
    DEFAULT_POLICY,
    Interaction,
    MatchPolicy,
    RelationMatrix,
    RewriteEditMatrix,
    RewriteRelation,
    TokenSeq,
    _Tokens,
)
from .schema_link import LinkRelation, Schema, SchemaLinkMatrix, build_schema_link_matrix

__all__ = [
    "LAYER_NORM_EPS",
    "MAX_LAYERS",
    "MAX_ENCODER_BYTES",
    "RW_RELATION_IDS",
    "LINK_RELATION_IDS",
    "EncoderConfig",
    "RatLayerParams",
    "EncoderParams",
    "AttentionTrace",
    "EncodedStates",
    "init_params",
    "parameter_bytes",
    "attention_bytes",
    "trace_bytes",
    "check_fits",
    "embed_inputs",
    "vanilla_layer_forward",
    "rat_layer_forward",
    "two_stream_encode",
    "layer_backward",
    "encode_interaction",
    "encoder_context_tokens",
    "context_reversal_permutation",
    "rewrite_relation_ids",
    "link_relation_ids",
    "gradient_check",
    "random_layer_params",
    "save_params",
    "load_params",
]

LAYER_NORM_EPS = 1e-6

# Relation-type id 0 is reserved for "no relation" in both streams; its
# embedding rows are initialized to zero.  The rewrite stream reads an
# append (``-App``, ``-Ins-App``) as the insert of its block, id 1 or 3.
_RW_EDIT_IDS = {
    RewriteRelation.Q_C_INS: 1, RewriteRelation.Q_C_SUB: 2,
    RewriteRelation.C_Q_INS: 3, RewriteRelation.C_Q_SUB: 4,
}
RW_RELATION_IDS: dict[str, int] = {
    "None": 0,
    **{rel.value: _RW_EDIT_IDS.get(rel, 3 if rel.rows == "context" else 1)
       for rel in RewriteRelation},
}
LINK_RELATION_IDS: dict[str, int] = {
    "None": 0,
    **{rel.value: idx + 1 for idx, rel in enumerate(LinkRelation)},
}

_PRECISIONS = {"double": np.float64, "single": np.float32}

# Most layers per stream: ``init_params`` and every pass loop over them.
MAX_LAYERS = 1024

# Most bytes ``check_fits`` lets the parameters take, and, apart, the
# largest attention buffers of one layer and the kept traces.
MAX_ENCODER_BYTES = 2**30


@dataclass(frozen=True)
class EncoderConfig:
    """Dimensions, depths, and seeding for both encoder streams.

    ``d_x`` must be divisible by ``heads``; ``d_ff`` defaults to ``4 * d_x``.
    ``single_fc_ff`` switches the feed-forward block from the standard
    two-projection form to a literal single fully-connected layer applied
    after the ReLU.  Each stream has at most ``MAX_LAYERS`` layers.  Three
    fields are derived, not set: ``d_z`` (total attention width) is ``d_x``,
    as the residual adds the concatenated heads back onto the input, and
    the relation counts are the sizes of the two relation vocabularies.
    """

    d_x: int = 16
    d_z: int = field(init=False)
    heads: int = 4
    layers_link: int = 8
    layers_rw: int = 4
    d_ff: int | None = None
    link_relation_count: int = field(default=len(LINK_RELATION_IDS), init=False)
    rw_relation_count: int = field(default=len(set(RW_RELATION_IDS.values())), init=False)
    seed: int = 0
    precision: str = "double"
    single_fc_ff: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "d_z", self.d_x)
        if self.d_x < 2:
            raise ValueError(
                "d_x must be at least 2: layer norm over one feature outputs its "
                "bias, so every layer would output ln2_bias whatever its input"
            )
        if self.d_ff is not None and self.d_ff < 1:
            raise ValueError("d_ff must be positive")
        if self.heads < 1 or self.d_x % self.heads != 0:
            raise ValueError("d_x must be a positive multiple of heads")
        if not (1 <= self.layers_link <= MAX_LAYERS and 1 <= self.layers_rw <= MAX_LAYERS):
            raise ValueError(f"each stream needs between 1 and {MAX_LAYERS} layers")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.precision not in _PRECISIONS:
            raise ValueError(f"precision must be one of {sorted(_PRECISIONS)}")

    @property
    def head_width(self) -> int:
        return self.d_z // self.heads

    @property
    def ff_width(self) -> int:
        return self.d_ff if self.d_ff is not None else 4 * self.d_x

    @property
    def np_dtype(self) -> type:
        return _PRECISIONS[self.precision]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: object) -> EncoderConfig:
        """Build a config from a JSON object, checking each field's JSON type
        against its annotation.  A derived field may be given only at the
        value the others give it."""
        where = "encoder config"
        kinds = get_type_hints(cls)
        unknown = set(_expect(payload, dict, where)) - set(kinds)
        if unknown:
            raise DatasetError(f"{where}: unknown fields {sorted(unknown)}")
        given = {name: _field(payload, name, where, kinds[name]) for name in payload}
        config = cls(**{f.name: given[f.name] for f in fields(cls) if f.init and f.name in given})
        # Saved configs carry the derived fields, each only at its one value.
        for f in fields(cls):
            derived = getattr(config, f.name)
            if not f.init and given.get(f.name, derived) != derived:
                raise DatasetError(f"{where}: {f.name} must be {derived}, got {given[f.name]}")
        return config


def _layer_shapes(
    d_x: int, heads: int, d_ff: int, relation_count: int, single_fc: bool
) -> dict[str, tuple[int, ...]]:
    """The shape of each array of one layer, in ``_ARRAY_NAMES`` order.  In
    single-FC mode ``ff_w2``/``ff_b2`` are absent and ``ff_w1`` maps d_x to d_x."""
    width = d_x // heads
    ff = d_x if single_fc else d_ff
    shapes = {
        "w_q": (heads, d_x, width),
        "w_k": (heads, d_x, width),
        "w_v": (heads, d_x, width),
        "ff_w1": (d_x, ff),
        "ff_b1": (ff,),
        "ff_w2": (ff, d_x),
        "ff_b2": (d_x,),
        **{name: (d_x,) for name in ("ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias")},
        "rel_key": (relation_count, width),
        "rel_value": (relation_count, width),
    }
    if single_fc:
        del shapes["ff_w2"], shapes["ff_b2"]
    return shapes


@dataclass(eq=False)
class RatLayerParams:
    """All learnable tensors of one layer.

    ``w_q``/``w_k``/``w_v`` have shape (heads, d_x, head_width); the
    relation tables have one row per relation-type id.  In single-FC mode
    ``ff_w2``/``ff_b2`` are None and ``ff_w1`` maps d_x to d_x.
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    ff_w1: np.ndarray
    ff_b1: np.ndarray
    ff_w2: np.ndarray | None
    ff_b2: np.ndarray | None
    ln1_gain: np.ndarray
    ln1_bias: np.ndarray
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray
    rel_key: np.ndarray
    rel_value: np.ndarray

    @property
    def single_fc(self) -> bool:
        return self.ff_w2 is None

    @property
    def heads(self) -> int:
        return self.w_q.shape[0]

    @property
    def d_x(self) -> int:
        return self.w_q.shape[1]

    @property
    def head_width(self) -> int:
        return self.w_q.shape[2]

    @property
    def relation_count(self) -> int:
        return self.rel_key.shape[0]

    def named_arrays(self) -> Iterator[tuple[str, np.ndarray]]:
        for name in _ARRAY_NAMES:
            arr = getattr(self, name)
            if arr is not None:
                yield name, arr

    def freeze(self) -> RatLayerParams:
        for _, arr in self.named_arrays():
            arr.setflags(write=False)
        return self


_ARRAY_NAMES = tuple(f.name for f in fields(RatLayerParams))


def _layer_of(arrays: dict[str, np.ndarray]) -> RatLayerParams:
    """A layer from its arrays by name; ``ff_w2``/``ff_b2`` may be absent."""
    return RatLayerParams(**{name: arrays.get(name) for name in _ARRAY_NAMES})


@dataclass(eq=False)
class EncoderParams:
    config: EncoderConfig
    link_layers: tuple[RatLayerParams, ...]
    rw_layers: tuple[RatLayerParams, ...]


@dataclass(eq=False)
class AttentionTrace:
    """Per-layer activations: the published score/weight/z/y tensors plus
    the intermediates the backward pass needs."""

    scores: np.ndarray   # (H, n, n) scaled attention scores
    weights: np.ndarray  # (H, n, n) softmax rows
    z: np.ndarray        # (n, d_x) concatenated head outputs
    y: np.ndarray        # (n, d_x) layer output
    q: np.ndarray        # (H, n, head_width)
    k: np.ndarray
    v: np.ndarray
    ln1_xhat: np.ndarray
    ln1_inv: np.ndarray
    y_mid: np.ndarray    # post-first-norm rows feeding the feed-forward
    ff_hidden: np.ndarray | None  # pre-ReLU hidden rows (two-projection mode)
    ff_out: np.ndarray
    ln2_xhat: np.ndarray
    ln2_inv: np.ndarray


@dataclass(eq=False)
class EncodedStates:
    """Stream outputs and their aggregation.

    Utterance rows of ``h_final`` are the element-wise sums of the two
    stream outputs; schema rows equal the linking stream's rows.
    """

    h_link: np.ndarray
    h_rw: np.ndarray
    h_final: np.ndarray
    n_question: int
    n_context: int
    n_schema: int
    link_traces: tuple[AttentionTrace, ...] | None = None
    rw_traces: tuple[AttentionTrace, ...] | None = None


def _sum_terms(term: Callable[[int], np.ndarray], count: int, pairwise: bool) -> np.ndarray:
    # sum(term(c) for c in range(count)) from +0.0, in one of numpy's two
    # orders: pairwise, as .sum adds an axis that is innermost in memory, or
    # one term after another, as it adds any other axis.  Below eight terms
    # the two orders are one: numpy's pairwise base case adds left to right
    # from -0.0, which gives the bits of starting from +0.0 once the final
    # +0.0 is added.  Never writes into the arrays term returns.
    if pairwise and count >= 8:
        total = _pairwise(term, 0, count)
        total += 0.0
        return total
    total = term(0) + 0.0
    for c in range(1, count):
        total += term(c)
    return total


def _pairwise(term: Callable[[int], np.ndarray], start: int, count: int) -> np.ndarray:
    # numpy's pairwise summation of at least eight terms, into a new array:
    # eight interleaved accumulators up to 128 terms, halves (at a multiple
    # of eight, so each has at least 64 terms) above.
    if count <= 128:
        acc = [-0.0 + term(start + r) for r in range(8)]
        stop = start + count - count % 8
        for block in range(start + 8, stop, 8):
            for r in range(8):
                acc[r] += term(block + r)
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for c in range(stop, start + count):
            total += term(c)
        return total
    half = count // 2 - (count // 2) % 8
    return _pairwise(term, start, half) + _pairwise(term, start + half, count - half)


def _product(a: np.ndarray, b: np.ndarray, pairwise: bool) -> np.ndarray:
    # a @ b without BLAS (either may stack matrices), summed over the inner
    # dimension in the named order, the same for every output row.
    return _sum_terms(lambda k: a[..., k, None] * b[..., None, k, :], a.shape[-1], pairwise)


def _relation_tables(
    layer: RatLayerParams, relations: np.ndarray | None
) -> tuple[np.ndarray | None, np.ndarray | None]:
    # Both relation embeddings of every cell, width first: (w, n, n) each.
    if relations is None:
        return None, None
    return (
        np.take(layer.rel_key.T, relations, axis=1),
        np.take(layer.rel_value.T, relations, axis=1),
    )


def _weighted_cells(
    weight: np.ndarray, per_position: np.ndarray, table: np.ndarray | None, c=slice(None)
) -> np.ndarray:
    # Width slice c (every width by default) of the keys or values seen from
    # each query row, times weight, as a new array:
    # weight * (per_position[h, c, j] (+ table[c, i, j])).
    cells = per_position[:, c, None, :]
    if table is None:
        return weight * cells
    cells = cells + table[c]
    cells *= weight
    return cells


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


def _check_input(x: np.ndarray, layer: RatLayerParams) -> None:
    if x.ndim != 2 or x.shape[1] != layer.d_x:
        raise ValueError(f"input must be (n, {layer.d_x}), got {x.shape}")
    if x.shape[0] == 0:
        raise ValueError("input must have at least one row")
    if not np.isfinite(x).all():
        raise ValueError("input contains non-finite values")


def _check_relations(relations: np.ndarray, n: int, vocab: int) -> np.ndarray:
    relations = np.asarray(relations)
    if relations.shape != (n, n):
        raise ValueError(f"relation matrix must be ({n}, {n}), got {relations.shape}")
    if not np.issubdtype(relations.dtype, np.integer):
        raise ValueError("relation matrix must hold integer type ids")
    if relations.min(initial=0) < 0 or relations.max(initial=0) >= vocab:
        raise ValueError(f"relation ids must lie in [0, {vocab})")
    return relations


def _layer_forward(
    x: np.ndarray, layer: RatLayerParams, relations: np.ndarray | None
) -> tuple[np.ndarray, AttentionTrace]:
    _check_input(x, layer)
    n = x.shape[0]
    heads, width = layer.heads, layer.head_width
    if relations is not None:
        relations = _check_relations(relations, n, layer.relation_count)
    scale = math.sqrt(width)  # the per-head attention width d_z / H

    # Products run in order over the inner dimension, except that a product
    # with one column is one dot product per row, which numpy adds pairwise.
    w_qkv = np.concatenate((layer.w_q, layer.w_k, layer.w_v))
    q, k, v = np.split(_product(x, w_qkv, pairwise=width == 1), 3)
    k_t, v_t = k.transpose(0, 2, 1), v.transpose(0, 2, 1)
    rel_key, rel_value = _relation_tables(layer, relations)

    scores = _sum_terms(
        lambda c: _weighted_cells(q[:, :, c, None], k_t, rel_key, c), width, pairwise=True
    )
    scores /= scale
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    # The sorted row is contiguous, so numpy's .sum adds it pairwise.
    weights /= np.sort(weights, axis=-1).sum(axis=-1)[:, :, None]
    # The value terms (H, w, i, j), sorted along j; in order over j, but
    # pairwise at width 1, where the per-head layer had j innermost.
    valued = _weighted_cells(weights[:, None, :, :], v_t, rel_value)
    valued.sort(axis=-1)
    z = _sum_terms(lambda j: valued[..., j], n, pairwise=width == 1)
    z = z.transpose(2, 0, 1).reshape(n, heads * width)

    y_mid, ln1_xhat, ln1_inv = _layer_norm(x + z, layer.ln1_gain, layer.ln1_bias)
    if layer.single_fc:
        ff_hidden = None
        ff_out = _product(np.maximum(y_mid, 0.0), layer.ff_w1, pairwise=False) + layer.ff_b1
    else:
        ff_hidden = _product(y_mid, layer.ff_w1, pairwise=layer.ff_w1.shape[1] == 1) + layer.ff_b1
        relu_out = np.maximum(ff_hidden, 0.0)
        ff_out = _product(relu_out, layer.ff_w2, pairwise=layer.d_x == 1) + layer.ff_b2
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


def vanilla_layer_forward(
    x: np.ndarray, layer: RatLayerParams
) -> tuple[np.ndarray, AttentionTrace]:
    """One plain transformer layer: scaled dot-product attention with
    1/sqrt(head_width) scaling, row softmax, head concatenation, residual +
    layer norm, feed-forward, residual + layer norm."""
    return _layer_forward(x, layer, None)


def rat_layer_forward(
    x: np.ndarray, relations: np.ndarray, layer: RatLayerParams
) -> tuple[np.ndarray, AttentionTrace]:
    """One relation-aware layer: the relation-type embedding of cell (i, j)
    is added to the key inside the score dot product and to the value
    inside the weighted sum.  With all-zero relation tables this reduces
    exactly to the vanilla layer."""
    if relations is None:
        raise ValueError("rat_layer_forward requires a relation matrix")
    return _layer_forward(x, layer, relations)


def layer_backward(
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

    def over_positions(term: Callable[[int], np.ndarray]) -> np.ndarray:
        # One position after another, as numpy adds the leading axis of a
        # row-major array; single-element terms it adds pairwise.
        return _sum_terms(term, n, pairwise=np.size(term(0)) == 1)

    # Second layer norm.
    grads["ln2_gain"] = over_positions(lambda i: grad_y[i] * trace.ln2_xhat[i])
    grads["ln2_bias"] = over_positions(lambda i: grad_y[i])
    d_u = _layer_norm_backward(grad_y, trace.ln2_xhat, trace.ln2_inv, layer.ln2_gain)
    d_y_mid = d_u.copy()
    d_ff_out = d_u

    # Feed-forward block.  Weight gradients are products in order over the
    # positions.  A product with a transposed weight had its inner dimension
    # innermost in the per-head layer, so numpy added it pairwise.
    if layer.single_fc:
        relu_in = trace.y_mid
        relu_out = np.maximum(relu_in, 0.0)
        grads["ff_w1"] = _product(relu_out.T, d_ff_out, pairwise=False)
        grads["ff_b1"] = over_positions(lambda i: d_ff_out[i])
        d_y_mid += _product(d_ff_out, layer.ff_w1.T, pairwise=True) * (relu_in > 0)
    else:
        hidden = trace.ff_hidden
        relu_out = np.maximum(hidden, 0.0)
        grads["ff_w2"] = _product(relu_out.T, d_ff_out, pairwise=False)
        grads["ff_b2"] = over_positions(lambda i: d_ff_out[i])
        d_hidden = _product(d_ff_out, layer.ff_w2.T, pairwise=True) * (hidden > 0)
        grads["ff_w1"] = _product(trace.y_mid.T, d_hidden, pairwise=False)
        grads["ff_b1"] = over_positions(lambda i: d_hidden[i])
        d_y_mid += _product(d_hidden, layer.ff_w1.T, pairwise=True)

    # First layer norm; its input is x + z.
    grads["ln1_gain"] = over_positions(lambda i: d_y_mid[i] * trace.ln1_xhat[i])
    grads["ln1_bias"] = over_positions(lambda i: d_y_mid[i])
    d_p = _layer_norm_backward(d_y_mid, trace.ln1_xhat, trace.ln1_inv, layer.ln1_gain)
    d_x = d_p.copy()

    # Attention, all heads at once, each sum in the order the per-head layer used.
    alpha = trace.weights
    d_z = np.ascontiguousarray(d_p.reshape(n, heads, width).transpose(1, 0, 2))
    k_t, v_t = trace.k.transpose(0, 2, 1), trace.v.transpose(0, 2, 1)
    rel_key, rel_value = _relation_tables(layer, relations)

    d_alpha = _sum_terms(
        lambda c: _weighted_cells(d_z[:, :, c, None], v_t, rel_value, c), width, pairwise=True
    )
    value_terms = alpha[:, :, :, None] * d_z[:, :, None, :]
    d_v = over_positions(lambda i: value_terms[:, i])

    weighted = alpha * d_alpha
    d_e = alpha * (d_alpha - _sum_terms(lambda j: weighted[..., j, None], n, pairwise=True))
    d_s = d_e / scale
    keyed = _weighted_cells(d_s[:, None, :, :], k_t, rel_key)
    d_q = _sum_terms(lambda j: keyed[..., j], n, pairwise=width == 1).transpose(0, 2, 1)
    key_terms = d_s[:, :, :, None] * trace.q[:, :, None, :]
    d_k = over_positions(lambda i: key_terms[:, i])
    if relations is not None:
        # Head-major, as the per-head loop added them.
        cells = np.broadcast_to(relations, (heads, n, n))
        np.add.at(grads["rel_value"], cells, value_terms)
        np.add.at(grads["rel_key"], cells, key_terms)

    # The q/k/v gradients, stacked head-major like the forward projection.
    d_qkv = np.concatenate((d_q, d_k, d_v))
    grads["w_q"], grads["w_k"], grads["w_v"] = np.split(_product(x.T, d_qkv, pairwise=False), 3)
    w_qkv = np.concatenate((layer.w_q, layer.w_k, layer.w_v))
    d_x_terms = _product(d_qkv, w_qkv.transpose(0, 2, 1), pairwise=True)
    for h in range(heads):
        for term in d_x_terms[h :: heads]:  # q, k, v of head h, as the per-head loop
            d_x += term

    grads["x"] = d_x
    return grads


_WEIGHT_NAMES = frozenset(("w_q", "w_k", "w_v", "ff_w1", "ff_w2", "rel_key", "rel_value"))


def _uniform_weight(rng: np.random.Generator, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Symmetric uniform scaled by 1/sqrt(fan-in); the fan-in of a relation
    table row is the head width."""
    bound = 1.0 / math.sqrt(shape[-1] if name.startswith("rel_") else shape[-2])
    return rng.uniform(-bound, bound, size=shape)


def _init_layer(
    rng: np.random.Generator, config: EncoderConfig, relation_count: int
) -> RatLayerParams:
    dtype = config.np_dtype
    shapes = _layer_shapes(
        config.d_x, config.heads, config.ff_width, relation_count, config.single_fc_ff
    )
    arrays = {}
    for name, shape in shapes.items():
        if name in _WEIGHT_NAMES:
            arrays[name] = _uniform_weight(rng, name, shape).astype(dtype)
        else:
            arrays[name] = (np.ones if name.endswith("_gain") else np.zeros)(shape, dtype=dtype)
    arrays["rel_key"][0] = 0.0
    arrays["rel_value"][0] = 0.0
    return _layer_of(arrays).freeze()


def init_params(config: EncoderConfig) -> EncoderParams:
    """Seeded parameter initialization for both streams.

    Weights are symmetric-uniform scaled by 1/sqrt(fan-in); layer-norm
    gains start at one, all biases at zero; the no-relation embedding row
    is the zero vector.  Identical seeds give bitwise-identical parameters.
    """
    rng = np.random.default_rng(config.seed)
    link_layers = tuple(
        _init_layer(rng, config, config.link_relation_count)
        for _ in range(config.layers_link)
    )
    rw_layers = tuple(
        _init_layer(rng, config, config.rw_relation_count)
        for _ in range(config.layers_rw)
    )
    return EncoderParams(config, link_layers, rw_layers)


def parameter_bytes(config: EncoderConfig) -> int:
    """The bytes of the arrays ``init_params(config)`` allocates."""
    values = 0
    for layers, relation_count in (
        (config.layers_link, config.link_relation_count),
        (config.layers_rw, config.rw_relation_count),
    ):
        shapes = _layer_shapes(
            config.d_x, config.heads, config.ff_width, relation_count, config.single_fc_ff
        )
        values += layers * sum(math.prod(shape) for shape in shapes.values())
    return values * np.dtype(config.np_dtype).itemsize


def attention_bytes(config: EncoderConfig, n: int) -> int:
    """The bytes of a layer's largest attention buffers over ``n``
    positions: the ``(heads, width, n, n)`` value cells and the two
    ``(width, n, n)`` relation gathers."""
    return (config.heads + 2) * config.head_width * n * n * np.dtype(config.np_dtype).itemsize


def trace_bytes(config: EncoderConfig, n_link: int, n_rw: int) -> int:
    """The bytes of the traces that ``keep_traces`` keeps: per layer, the
    ``(heads, n, n)`` scores and weights and the per-position arrays of an
    :class:`AttentionTrace`, for the link stream over ``n_link`` positions
    and the rewrite stream over ``n_rw``."""
    hidden = 0 if config.single_fc_ff else config.ff_width

    def layer(n: int) -> int:
        # scores and weights; q, k, v, z, y, y_mid, ff_out and the two
        # normalized rows, each d_x wide; the two norms' inverse deviations.
        return 2 * config.heads * n * n + (9 * config.d_x + 2 + hidden) * n

    values = config.layers_link * layer(n_link) + config.layers_rw * layer(n_rw)
    return values * np.dtype(config.np_dtype).itemsize


def check_fits(config: EncoderConfig, n: int, *, traced_rw: int | None = None) -> None:
    """Refuse, before anything is allocated, a config whose parameters or
    whose attention buffers over ``n`` positions would take more than
    ``MAX_ENCODER_BYTES``: a process that asks for more than the machine
    holds may be killed with no error at all.  When traces are kept,
    ``traced_rw`` is the rewrite stream's positions, and the traces of
    both streams (:func:`trace_bytes`, the link stream over ``n``) must fit
    the bound together."""
    sizes = [
        ("its parameters", parameter_bytes(config)),
        (f"one layer's attention over {n:,} positions", attention_bytes(config, n)),
    ]
    if traced_rw is not None:
        sizes.append((f"the traces over {n:,} and {traced_rw:,} positions",
                      trace_bytes(config, n, traced_rw)))
    for what, size in sizes:
        if size > MAX_ENCODER_BYTES:
            raise ValueError(
                f"encoder config needs {size:,} bytes for {what}, "
                f"more than the bound of {MAX_ENCODER_BYTES:,}"
            )


def _word_vector(word: str, d_x: int, seed: int, dtype: type) -> np.ndarray:
    digest = hashlib.blake2b(
        f"{seed}\x1f{word}".encode("utf-8"), digest_size=8
    ).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "little"))
    return (rng.uniform(-1.0, 1.0, size=d_x) / math.sqrt(d_x)).astype(dtype)


def encoder_context_tokens(interaction: Interaction) -> TokenSeq:
    """Context tokens in encoder order: most recent turn first, token order
    preserved inside each turn."""
    context = interaction.flat_context()
    return _Tokens(context[p] for p in context_reversal_permutation(interaction.turn_lengths()))


def context_reversal_permutation(turn_lengths: Sequence[int]) -> tuple[int, ...]:
    """Map encoder context positions (recent-first) to chronological
    flat-context positions."""
    turns = list(itertools.pairwise(itertools.accumulate(turn_lengths, initial=0)))
    return tuple(p for start, end in reversed(turns) for p in range(start, end))


def embed_inputs(
    interaction: Interaction, schema: Schema, params: EncoderParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded hash-based word embeddings for question, context, and schema.

    Context rows follow encoder order (most recent turn first).  Each
    schema element contributes one row: the arithmetic mean of its name
    words' embedding rows.  The same word always maps to the same row.
    """
    config = params.config
    cache: dict[str, np.ndarray] = {}

    def vec(word: str) -> np.ndarray:
        if word not in cache:
            cache[word] = _word_vector(word, config.d_x, config.seed, config.np_dtype)
        return cache[word]

    def rows(tokens: Sequence[str]) -> np.ndarray:
        if not tokens:
            return np.zeros((0, config.d_x), dtype=config.np_dtype)
        return np.stack([vec(tok) for tok in tokens])

    x_question = rows(interaction.question)
    x_context = rows(encoder_context_tokens(interaction))
    element_names = [*schema.tables, *(col.name for col in schema.columns)]
    if element_names:
        x_schema = np.stack([rows(name).mean(axis=0) for name in element_names])
    else:
        x_schema = np.zeros((0, config.d_x), dtype=config.np_dtype)
    return x_question, x_context, x_schema


def _relation_ids(matrix: RelationMatrix, ids_of: dict[str, int]) -> np.ndarray:
    # The dense relation-id matrix in the matrix's stored layout.
    ids = np.zeros((matrix.size, matrix.size), dtype=np.int64)
    for (i, j), rel in matrix.cells.items():
        ids[i, j] = ids_of[rel.value]
    return ids


def link_relation_ids(matrix: SchemaLinkMatrix) -> np.ndarray:
    """Dense relation-id matrix over the linking layout (already
    ``[question; context; tables; columns]``)."""
    return _relation_ids(matrix, LINK_RELATION_IDS)


def rewrite_relation_ids(
    matrix: RewriteEditMatrix,
    context_permutation: Sequence[int] | None = None,
) -> np.ndarray:
    """Dense relation-id matrix re-indexed from the stored
    ``[context; question]`` layout to the encoder's ``[question; context]``.

    ``context_permutation`` maps encoder context positions to stored
    (chronological) context positions; identity when omitted.
    """
    n_ctx, n_q = matrix.context_size, matrix.question_size
    if context_permutation is None:
        context_permutation = range(n_ctx)
    if sorted(context_permutation) != list(range(n_ctx)):
        raise ValueError("context_permutation must permute the context positions")
    # The stored position of each encoder position.
    order = [*range(n_ctx, n_ctx + n_q), *context_permutation]
    return _relation_ids(matrix, RW_RELATION_IDS)[np.ix_(order, order)]


def two_stream_encode(
    x_question: np.ndarray,
    x_context: np.ndarray,
    x_schema: np.ndarray,
    link_matrix: SchemaLinkMatrix,
    rewrite_matrix: RewriteEditMatrix,
    params: EncoderParams,
    *,
    context_permutation: Sequence[int] | None = None,
    keep_traces: bool = False,
) -> EncodedStates:
    """Run both relation-matrix streams and aggregate.

    The linking stream stacks ``layers_link`` relation-aware layers over
    ``[question; context; schema]``; the rewriting stream stacks
    ``layers_rw`` layers over ``[question; context]``.  Question and
    context rows of the result are the element-wise sums of the two stream
    outputs; schema rows come from the linking stream alone.
    """
    n_q, n_c, n_s = len(x_question), len(x_context), len(x_schema)
    if link_matrix.n_question != n_q or link_matrix.n_context != n_c:
        raise ValueError("linking matrix layout does not match the embeddings")
    if link_matrix.n_tables + link_matrix.n_columns != n_s:
        raise ValueError("linking matrix schema size does not match the embeddings")
    if rewrite_matrix.question_size != n_q or rewrite_matrix.context_size != n_c:
        raise ValueError("rewrite matrix layout does not match the embeddings")

    x_utterance = np.concatenate([x_question, x_context], axis=0)
    streams = (
        (np.concatenate([x_utterance, x_schema]), link_relation_ids(link_matrix),
         params.link_layers),
        (x_utterance, rewrite_relation_ids(rewrite_matrix, context_permutation),
         params.rw_layers),
    )
    outputs, traces = [], []
    for h, ids, layers in streams:
        kept = []
        for layer in layers:
            h, trace = rat_layer_forward(h, ids, layer)
            if keep_traces:
                kept.append(trace)
        outputs.append(h)
        traces.append(tuple(kept) if keep_traces else None)
    h_link, h_rw = outputs

    h_final = np.concatenate([h_link[: n_q + n_c] + h_rw, h_link[n_q + n_c :]], axis=0)
    return EncodedStates(
        h_link, h_rw, h_final, n_q, n_c, n_s, link_traces=traces[0], rw_traces=traces[1]
    )


def encode_interaction(
    interaction: Interaction,
    schema: Schema,
    rewrite_matrix: RewriteEditMatrix,
    params: EncoderParams,
    policy: MatchPolicy = DEFAULT_POLICY,
    *,
    keep_traces: bool = False,
) -> tuple[EncodedStates, SchemaLinkMatrix]:
    """Embed one interaction, build its schema-linking matrix in encoder
    order, reconcile the rewrite matrix's index order, and encode."""
    if rewrite_matrix.question_tokens != interaction.question:
        raise ValueError("rewrite matrix question does not match the interaction")
    if rewrite_matrix.context_tokens != interaction.flat_context():
        raise ValueError("rewrite matrix context does not match the interaction")
    x_question, x_context, x_schema = embed_inputs(interaction, schema, params)
    link_matrix = build_schema_link_matrix(
        interaction.question, encoder_context_tokens(interaction), schema, policy
    )
    states = two_stream_encode(
        x_question,
        x_context,
        x_schema,
        link_matrix,
        rewrite_matrix,
        params,
        context_permutation=context_reversal_permutation(interaction.turn_lengths()),
        keep_traces=keep_traces,
    )
    return states, link_matrix


def random_layer_params(
    rng: np.random.Generator,
    d_x: int,
    heads: int,
    d_ff: int,
    relation_count: int,
    single_fc: bool = False,
) -> RatLayerParams:
    """A generic random parameter point for gradient checking.

    Unlike :func:`init_params` this also randomizes layer-norm gains/biases
    and relation rows (including the no-relation row): at the init point
    (gain 1, bias 0) the sum-of-squares loss of a norm-final layer is almost
    invariant to upstream parameters and finite differences lose signal.
    """
    if heads < 1 or d_x % heads != 0:
        raise ValueError("d_x must be a positive multiple of heads")
    arrays = {}
    for name, shape in _layer_shapes(d_x, heads, d_ff, relation_count, single_fc).items():
        if name in _WEIGHT_NAMES:
            arrays[name] = _uniform_weight(rng, name, shape)
        elif name.endswith("_gain"):
            arrays[name] = rng.uniform(0.5, 1.5, shape)
        else:
            bound = 0.3 if name.startswith("ff_") else 0.5
            arrays[name] = rng.uniform(-bound, bound, shape)
    return _layer_of(arrays)


def _perturbed(layer: RatLayerParams, name: str, flat_index: int, delta: float) -> RatLayerParams:
    arr = getattr(layer, name).copy()
    arr.flat[flat_index] += delta
    return replace(layer, **{name: arr})


def gradient_check(
    layer: RatLayerParams,
    x: np.ndarray,
    relations: np.ndarray | None,
    step: float = 1e-5,
) -> float:
    """Compare analytic gradients with central finite differences of the
    scalar loss sum(y**2); returns the largest per-block relative error
    (infinity norms)."""

    def loss_of(layer_variant: RatLayerParams, x_variant: np.ndarray) -> float:
        y, _ = _layer_forward(x_variant, layer_variant, relations)
        return float((y ** 2).sum())

    y, trace = _layer_forward(x, layer, relations)
    grads = layer_backward(2.0 * y, trace, x, relations, layer)

    worst = 0.0
    for name, analytic in grads.items():
        numeric = np.zeros_like(analytic)
        for flat in range(analytic.size):
            if name == "x":
                x_plus, x_minus = x.copy(), x.copy()
                x_plus.flat[flat] += step
                x_minus.flat[flat] -= step
                hi, lo = loss_of(layer, x_plus), loss_of(layer, x_minus)
            else:
                hi = loss_of(_perturbed(layer, name, flat, step), x)
                lo = loss_of(_perturbed(layer, name, flat, -step), x)
            numeric.flat[flat] = (hi - lo) / (2.0 * step)
        denom = max(
            float(np.abs(numeric).max(initial=0.0)),
            float(np.abs(analytic).max(initial=0.0)),
            1e-8,
        )
        worst = max(worst, float(np.abs(numeric - analytic).max(initial=0.0)) / denom)
    return worst


def _layer_from_payload(
    payload: dict, config: EncoderConfig, relation_count: int, where: str
) -> RatLayerParams:
    """One layer from its JSON object.  Every array is required, with the
    shape ``_layer_shapes`` gives for ``config``, except that
    ``ff_w2``/``ff_b2`` are absent exactly when ``single_fc`` is true, which
    it must be exactly when the config's ``single_fc_ff`` is."""
    _expect(payload, dict, where)
    single_fc = _expect(payload.get("single_fc", False), bool, f"{where}: single_fc")
    shapes = _layer_shapes(config.d_x, config.heads, config.ff_width, relation_count, single_fc)
    for name in _ARRAY_NAMES:
        if name not in shapes and name in payload:
            raise ValueError(f"{where}: field {name!r} must be absent when single_fc is true")
    if single_fc != config.single_fc_ff:
        raise ValueError(f"{where}: single_fc is {single_fc}, but single_fc_ff is not")
    arrays = {
        name: _parameter_array(_field(payload, name, where), shape, config.np_dtype,
                               f"{where}: field {name!r}")
        for name, shape in shapes.items()
    }
    return _layer_of(arrays).freeze()


def _parameter_array(
    value: object, shape: tuple[int, ...], dtype: type, where: str
) -> np.ndarray:
    """``value``, nested JSON arrays of finite numbers, as an array of
    ``shape``."""
    try:
        with np.errstate(over="ignore"):  # a float past single precision becomes inf
            array = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError):
        raise ValueError(f"{where} is not a numeric array") from None
    except OverflowError:  # an integer too large for a float
        raise ValueError(f"{where} holds a value that is not a finite number") from None
    if array.shape != shape:
        raise ValueError(f"{where} has shape {array.shape}, expected {shape}")
    # The conversion also reads numeric strings, true and false, and null as NaN.
    leaves = np.asarray(value, dtype=object).flat
    if not (np.isfinite(array).all() and all(type(v) in (int, float) for v in leaves)):
        raise ValueError(f"{where} holds a value that is not a finite number")
    return array


_PARAMS_KIND = "qurg-encoder-params"


# The most array values that one chunk of ``_json_chunks`` holds: a few
# rows of a small trace per encoder call, while the dump's Python peak on
# the smallest traced encodes stays where one row per chunk left it.
_CHUNK_VALUES = 64


def _json_chunks(value: object, end: str = "\n") -> Iterator[str]:
    """``dataset_io.dump_canonical(value)`` in chunks, with ``end`` for its
    final newline, where ``value``'s leaves may be numpy arrays.  Each chunk
    of an array is a run of its items, encoded at once, that holds at most
    ``_CHUNK_VALUES`` values; an item that holds more is split in turn.  So
    a dump written through ``dataset_io._replace`` holds no more than
    ``_CHUNK_VALUES`` values as Python numbers and text at a time."""
    if isinstance(value, dict):
        yield "{"
        for k, (key, item) in enumerate(value.items()):
            yield f"{',' if k else ''}{_CANONICAL.encode(key)}:"
            yield from _json_chunks(item, "")
        yield "}" + end
    elif isinstance(value, list) or (
        isinstance(value, np.ndarray) and value.ndim > 1
        and value.size > _CHUNK_VALUES * len(value)
    ):
        yield "["
        for k, item in enumerate(value):
            yield "," if k else ""
            yield from _json_chunks(item, "")
        yield "]" + end
    elif isinstance(value, np.ndarray) and value.size > _CHUNK_VALUES:
        step = _CHUNK_VALUES * len(value) // value.size
        for k in range(0, len(value), step):
            # The run's text without its brackets, after the one before.
            yield ("," if k else "[") + _CANONICAL.encode(value[k:k + step].tolist())[1:-1]
        yield "]" + end
    else:
        yield _CANONICAL.encode(value.tolist() if isinstance(value, np.ndarray) else value) + end


def save_params(path, params: EncoderParams) -> None:
    """Serialize a parameter set (versioned JSON, exact float round-trip)."""
    payload: dict = {
        "qurg_fmt": FORMAT_VERSION,
        "kind": _PARAMS_KIND,
        "config": params.config.to_dict(),
    }
    for key, layers in (("link_layers", params.link_layers), ("rw_layers", params.rw_layers)):
        payload[key] = [
            {**dict(layer.named_arrays()), "single_fc": layer.single_fc} for layer in layers
        ]
    _replace(path, _json_chunks(payload))


def load_params(path) -> EncoderParams:
    """Load a parameter set written by :func:`save_params`.  The layer counts
    and every array shape must agree with the file's config, and every
    array value must be a finite JSON number."""
    payload = read_json(path)
    _check_version(payload, path)
    if _field(payload, "kind", str(path)) != _PARAMS_KIND:
        raise DatasetError(f"{path}: not an encoder parameter file")
    config = _constructed(path, EncoderConfig.from_dict, _field(payload, "config", str(path)))

    def layers(key: str, count_field: str, relation_count: int) -> tuple[RatLayerParams, ...]:
        entries = _field(payload, key, str(path), list)
        parsed = tuple(
            _layer_from_payload(p, config, relation_count, f"{path}: {key}[{k}]")
            for k, p in enumerate(entries)
        )
        count = getattr(config, count_field)
        if len(parsed) != count:
            raise ValueError(
                f"{path}: {key} holds {len(parsed)} layers, but {count_field} is {count}"
            )
        return parsed

    return EncoderParams(
        config,
        layers("link_layers", "layers_link", config.link_relation_count),
        layers("rw_layers", "layers_rw", config.rw_relation_count),
    )
