from __future__ import annotations

import dataclasses
import itertools
import json
import random
import re

import numpy as np
import pytest

import generators
import oracles
from qurg.dataset_io import DatasetError
from qurg.rewrite_diff import Interaction, RewriteEditMatrix, build_from_interaction
from qurg.schema_link import Column, Schema, build_schema_link_matrix
from qurg.rat_encoder import (
    LINK_RELATION_IDS,
    RW_RELATION_IDS,
    EncoderConfig,
    context_reversal_permutation,
    embed_inputs,
    encode_interaction,
    encoder_context_tokens,
    gradient_check,
    init_params,
    layer_backward,
    link_relation_ids,
    load_params,
    random_layer_params,
    rat_layer_forward,
    rewrite_relation_ids,
    save_params,
    two_stream_encode,
    vanilla_layer_forward,
)
from qurg.rat_encoder import _sum_terms

TINY = EncoderConfig(d_x=8, d_z=8, heads=2, layers_link=1, layers_rw=1, d_ff=12, seed=5)


def edited_layer(payload, stream, drop=(), **fields):
    """``payload`` with its first ``stream`` layer's ``drop`` fields removed
    and ``fields`` set."""
    layer = {k: v for k, v in payload[stream][0].items() if k not in drop}
    return {**payload, stream: [{**layer, **fields}, *payload[stream][1:]]}


def zeroed_relations(layer):
    return dataclasses.replace(
        layer,
        rel_key=np.zeros_like(layer.rel_key),
        rel_value=np.zeros_like(layer.rel_value),
    )


class TestConfig:
    def test_defaults_match_stated_depths(self):
        config = EncoderConfig()
        assert config.layers_link == 8
        assert config.layers_rw == 4
        assert config.ff_width == 4 * config.d_x

    def test_d_z_divisibility(self):
        with pytest.raises(ValueError):
            EncoderConfig(d_x=9, d_z=9, heads=2)

    def test_d_z_must_equal_d_x(self):
        with pytest.raises(ValueError):
            EncoderConfig(d_x=8, d_z=16, heads=2)

    @pytest.mark.parametrize("d_x", [1, 0, -1])
    def test_width_below_two_rejected(self, d_x):
        # At width 1 layer norm sees one feature, so every layer outputs ln2_bias.
        with pytest.raises(ValueError, match="^d_x must be at least 2: layer norm"):
            EncoderConfig.from_dict({"d_x": d_x, "d_z": d_x, "heads": 1})

    def test_round_trips_through_dict(self):
        config = EncoderConfig(d_x=8, d_z=8, heads=2, seed=3)
        assert EncoderConfig.from_dict(config.to_dict()) == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            EncoderConfig.from_dict({"d_q": 4})


class TestInitParams:
    def test_deterministic(self):
        a, b = init_params(TINY), init_params(TINY)
        for la, lb in zip(a.link_layers + a.rw_layers, b.link_layers + b.rw_layers):
            for (name, arr_a), (_, arr_b) in zip(la.named_arrays(), lb.named_arrays()):
                assert np.array_equal(arr_a, arr_b), name

    def test_none_relation_row_is_zero(self):
        params = init_params(TINY)
        for layer in params.link_layers + params.rw_layers:
            assert np.all(layer.rel_key[0] == 0.0)
            assert np.all(layer.rel_value[0] == 0.0)

    def test_different_seeds_differ(self):
        a = init_params(TINY)
        b = init_params(dataclasses.replace(TINY, seed=6))
        assert not np.array_equal(a.link_layers[0].w_q, b.link_layers[0].w_q)

    def test_parameters_frozen(self):
        params = init_params(TINY)
        with pytest.raises(ValueError):
            params.link_layers[0].w_q[0, 0, 0] = 1.0

    def test_save_load_roundtrip(self, tmp_path):
        params = init_params(TINY)
        path = tmp_path / "params.json"
        save_params(path, params)
        loaded = load_params(path)
        assert loaded.config == params.config
        for la, lb in zip(params.link_layers, loaded.link_layers):
            for (name, arr_a), (_, arr_b) in zip(la.named_arrays(), lb.named_arrays()):
                assert np.array_equal(arr_a, arr_b), name

    def test_single_fc_roundtrip(self, tmp_path):
        params = init_params(dataclasses.replace(TINY, single_fc_ff=True))
        path = tmp_path / "params.json"
        save_params(path, params)
        loaded = load_params(path)
        assert loaded.link_layers[0].single_fc and loaded.link_layers[0].ff_w2 is None
        assert np.array_equal(loaded.rw_layers[0].ff_w1, params.rw_layers[0].ff_w1)

    @pytest.mark.parametrize(
        "stream, change, field",
        [
            ("link_layers", lambda layer: layer.clear(), "w_q"),
            ("rw_layers", lambda layer: layer.pop("rel_value"), "rel_value"),
            ("link_layers", lambda layer: layer.pop("ff_b2"), "ff_b2"),
            ("link_layers", lambda layer: layer.update(single_fc=True), "ff_w2"),
            ("rw_layers", lambda layer: layer.update(single_fc="yes"), "single_fc"),
        ],
        ids=["empty", "no-rel_value", "no-ff_b2", "single_fc-with-ff_w2", "single_fc-not-bool"],
    )
    def test_incomplete_layer_rejected(self, tmp_path, stream, change, field):
        path = tmp_path / "params.json"
        save_params(path, init_params(TINY))
        payload = json.loads(path.read_text())
        change(payload[stream][0])
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=rf"{stream}\[0\]: .*{field}"):
            load_params(path)

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda p: [p], "not a version-1"),
            (lambda p: {k: v for k, v in p.items() if k != "config"}, "config must be"),
            (lambda p: {**p, "link_layers": 5}, "link_layers must be an array"),
            (lambda p: {**p, "rw_layers": p["rw_layers"] + [7]}, r"rw_layers\[1\]: expected an"),
            (lambda p: {**p, "link_layers": [{**p["link_layers"][0], "w_q": {"a": 1}}]},
             "'w_q' is not a numeric array"),
            (lambda p: {**p, "link_layers": [{**p["link_layers"][0], "w_k": [[1.0], [1.0, 2.0]]}]},
             "'w_k' is not a numeric array"),
            (lambda p: {**p, "link_layers": p["link_layers"] * 2},
             "link_layers holds 2 layers, but layers_link is 1"),
            (lambda p: edited_layer({**p, "config": {**p["config"], "layers_link": 2}},
                                    "link_layers", w_q=1.0),
             r"link_layers\[0\]: field 'w_q' has shape \(\), expected \(2, 8, 4\)"),
            (lambda p: edited_layer(p, "rw_layers", rel_key=p["rw_layers"][0]["rel_key"][:-1]),
             r"rw_layers\[0\]: field 'rel_key' has shape \(4, 4\), expected \(5, 4\)"),
            (lambda p: edited_layer(p, "link_layers", drop=("ff_w2", "ff_b2"), single_fc=True),
             r"link_layers\[0\]: single_fc is True, but single_fc_ff is not"),
            (lambda p: edited_layer({**p, "config": {**p["config"], "single_fc_ff": True}},
                                    "link_layers", drop=("ff_w2", "ff_b2"), single_fc=True),
             r"link_layers\[0\]: field 'ff_w1' has shape \(8, 12\), expected \(8, 8\)"),
        ],
        ids=["list", "no-config", "layers-not-array", "layer-not-object", "array-object",
             "array-ragged", "layer-count", "scalar-w_q", "rel_key-rows", "single_fc-mismatch",
             "single_fc-ff_w1"],
    )
    def test_malformed_params_file_rejected(self, tmp_path, change, message):
        path = tmp_path / "params.json"
        save_params(path, init_params(TINY))
        path.write_text(json.dumps(change(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=message):
            load_params(path)

    def test_bad_params_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"qurg_fmt": 2}))
        with pytest.raises(ValueError):
            load_params(path)

    def test_malformed_json_names_the_file(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text('{"qurg_fmt": 1,')
        with pytest.raises(DatasetError, match=re.escape(f"{path}: malformed JSON")):
            load_params(path)

    @pytest.mark.parametrize(
        "config",
        [TINY, dataclasses.replace(TINY, single_fc_ff=True),
         dataclasses.replace(TINY, precision="single")],
        ids=["tiny", "single_fc", "single-precision"],
    )
    def test_save_load_save_is_byte_identical(self, tmp_path, config):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_params(first, init_params(config))
        save_params(second, load_params(first))
        assert first.read_bytes() == second.read_bytes()


class TestEmbedInputs:
    def test_single_word_table_equals_word_row(self, toy_schema):
        params = init_params(TINY)
        inter = Interaction((("city",),), ("city", "?"))
        x_q, x_ctx, x_sc = embed_inputs(inter, toy_schema, params)
        # table 0 is named "city"; its row must equal the word's row.
        assert np.array_equal(x_sc[0], x_q[0])

    def test_two_word_column_is_mean(self, toy_schema):
        params = init_params(TINY)
        inter = Interaction((), ("arriving", "flights"))
        x_q, _, x_sc = embed_inputs(inter, toy_schema, params)
        col_row = x_sc[len(toy_schema.tables) + 4]  # column "arriving flights"
        assert np.allclose(col_row, (x_q[0] + x_q[1]) / 2.0, atol=0, rtol=0)

    def test_shared_word_rows_identical(self, toy_schema):
        params = init_params(TINY)
        inter = Interaction((("most", "cities"),), ("most", "?"))
        x_q, x_ctx, _ = embed_inputs(inter, toy_schema, params)
        assert np.array_equal(x_q[0], x_ctx[0])

    def test_context_rows_most_recent_turn_first(self, toy_schema):
        params = init_params(TINY)
        inter = Interaction((("a",), ("b",)), ("q",))
        _, x_ctx, _ = embed_inputs(inter, toy_schema, params)
        solo_b = embed_inputs(Interaction((("b",),), ("q",)), toy_schema, params)[1]
        assert np.array_equal(x_ctx[0], solo_b[0])
        assert encoder_context_tokens(inter) == ("b", "a")


class TestVanillaLayer:
    def test_single_position_alpha_is_one(self):
        params = init_params(TINY)
        x = np.random.default_rng(0).standard_normal((1, 8))
        _, trace = vanilla_layer_forward(x, params.rw_layers[0])
        assert np.array_equal(trace.weights, np.ones((2, 1, 1)))

    def test_rows_sum_to_one(self):
        params = init_params(TINY)
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            x = rng.standard_normal((n, 8))
            relations = rng.integers(0, 5, size=(n, n))
            for _, trace in (
                vanilla_layer_forward(x, params.rw_layers[0]),
                rat_layer_forward(x, relations, params.rw_layers[0]),
            ):
                sums = trace.weights.sum(axis=-1)
                assert np.all(np.abs(sums - 1.0) < 1e-6)
                assert trace.weights.min() >= 0.0 and trace.weights.max() <= 1.0

    def test_matches_scripted_oracle_two_positions(self):
        rng = np.random.default_rng(2)
        layer = random_layer_params(rng, d_x=2, heads=1, d_ff=3, relation_count=2)
        x = rng.standard_normal((2, 2))
        y, _ = vanilla_layer_forward(x, layer)
        expected = oracles.reference_layer_outputs(x.tolist(), layer, None)
        assert np.abs(y - np.asarray(expected)).max() < 1e-12

    def test_non_finite_rejected(self):
        params = init_params(TINY)
        x = np.full((2, 8), np.nan)
        with pytest.raises(ValueError):
            vanilla_layer_forward(x, params.rw_layers[0])

    def test_empty_input_rejected(self):
        params = init_params(TINY)
        with pytest.raises(ValueError, match="^input must have at least one row$"):
            vanilla_layer_forward(np.zeros((0, 8)), params.rw_layers[0])


class TestRatLayer:
    def test_zero_tables_degenerate_to_vanilla(self):
        rng = np.random.default_rng(3)
        params = init_params(TINY)
        layer = params.rw_layers[0]
        for _ in range(10):
            n = int(rng.integers(2, 8))
            x = rng.standard_normal((n, 8))
            relations = rng.integers(0, layer.relation_count, size=(n, n))
            y_vanilla, _ = vanilla_layer_forward(x, layer)
            y_rat, _ = rat_layer_forward(x, relations, zeroed_relations(layer))
            assert np.abs(y_vanilla - y_rat).max() < 1e-12

    def test_matches_scripted_oracle_with_relations(self):
        rng = np.random.default_rng(4)
        layer = random_layer_params(rng, d_x=2, heads=1, d_ff=3, relation_count=3)
        cases = [(layer, rng.standard_normal((2, 2)), np.array([[0, 2], [1, 0]]))]
        # Sizes past numpy's 8-term unrolled summation loop, at the default width.
        wide = random_layer_params(
            rng, d_x=16, heads=4, d_ff=64, relation_count=len(LINK_RELATION_IDS)
        )
        for n in (33, 64):
            relations = rng.integers(0, wide.relation_count, size=(n, n))
            cases.append((wide, rng.standard_normal((n, 16)), relations))
        for layer, x, relations in cases:
            y, _ = rat_layer_forward(x, relations, layer)
            expected = oracles.reference_layer_outputs(x.tolist(), layer, relations.tolist())
            assert np.abs(y - np.asarray(expected)).max() < 1e-12

    def test_permutation_equivariance_exact(self):
        rng = np.random.default_rng(5)
        small = init_params(TINY).link_layers[0]
        wide = init_params(EncoderConfig()).link_layers[0]
        cases = [(small, int(n)) for n in rng.integers(2, 7, size=15)]
        for layer, n in cases + [(wide, 33), (wide, 64)]:
            x = rng.standard_normal((n, layer.d_x))
            relations = rng.integers(0, layer.relation_count, size=(n, n))
            perm = rng.permutation(n)
            y, _ = rat_layer_forward(x, relations, layer)
            y_perm, _ = rat_layer_forward(
                x[perm], relations[np.ix_(perm, perm)], layer
            )
            assert np.array_equal(y_perm, y[perm])

    def test_relation_id_out_of_vocabulary_rejected(self):
        params = init_params(TINY)
        x = np.zeros((2, 8))
        relations = np.full((2, 2), 99)
        with pytest.raises(ValueError):
            rat_layer_forward(x, relations, params.rw_layers[0])

    def test_empty_input_rejected(self):
        params = init_params(TINY)
        relations = np.zeros((0, 0), dtype=int)
        with pytest.raises(ValueError, match="^input must have at least one row$"):
            rat_layer_forward(np.zeros((0, 8)), relations, params.rw_layers[0])

    def test_relation_shape_mismatch_rejected(self):
        params = init_params(TINY)
        x = np.zeros((3, 8))
        with pytest.raises(ValueError):
            rat_layer_forward(x, np.zeros((2, 2), dtype=int), params.rw_layers[0])

    def test_single_fc_mode(self):
        rng = np.random.default_rng(6)
        layer = random_layer_params(rng, d_x=4, heads=2, d_ff=8, relation_count=3,
                                    single_fc=True)
        x = rng.standard_normal((3, 4))
        relations = rng.integers(0, 3, size=(3, 3))
        y, _ = rat_layer_forward(x, relations, layer)
        expected = oracles.reference_layer_outputs(x.tolist(), layer, relations.tolist())
        assert np.abs(y - np.asarray(expected)).max() < 1e-12
        assert gradient_check(layer, x, relations) < 1e-4


class TestLayerBackward:
    def test_zero_upstream_gives_zero_grads(self):
        params = init_params(TINY)
        layer = params.rw_layers[0]
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 8))
        relations = rng.integers(0, layer.relation_count, size=(4, 4))
        y, trace = rat_layer_forward(x, relations, layer)
        grads = layer_backward(np.zeros_like(y), trace, x, relations, layer)
        for name, grad in grads.items():
            assert np.all(grad == 0.0), name

    def test_absent_relation_gets_zero_rows(self):
        params = init_params(TINY)
        layer = params.rw_layers[0]
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 8))
        relations = np.zeros((4, 4), dtype=int)
        relations[0, 1] = 2
        y, trace = rat_layer_forward(x, relations, layer)
        grads = layer_backward(2.0 * y, trace, x, relations, layer)
        for rel_id in range(layer.relation_count):
            if rel_id in (0, 2):
                continue
            assert np.all(grads["rel_key"][rel_id] == 0.0)
            assert np.all(grads["rel_value"][rel_id] == 0.0)

    def test_gradient_check_generic_point(self):
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(3):
            layer = random_layer_params(rng, d_x=8, heads=2, d_ff=12, relation_count=5)
            n = int(rng.integers(3, 6))
            x = rng.standard_normal((n, 8))
            relations = rng.integers(0, 5, size=(n, n))
            worst = max(worst, gradient_check(layer, x, relations))
        assert worst < 1e-4

    def test_vanilla_gradient_check(self):
        rng = np.random.default_rng(10)
        layer = random_layer_params(rng, d_x=8, heads=2, d_ff=12, relation_count=5)
        x = rng.standard_normal((4, 8))
        assert gradient_check(layer, x, None) < 1e-4

    def test_shape_mismatch_rejected(self):
        params = init_params(TINY)
        layer = params.rw_layers[0]
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 8))
        relations = rng.integers(0, layer.relation_count, size=(4, 4))
        y, trace = rat_layer_forward(x, relations, layer)
        with pytest.raises(ValueError):
            layer_backward(np.zeros((2, 8)), trace, x, relations, layer)


def assert_bitwise(actual, expected, what):
    if expected is None:
        assert actual is None, what
        return
    assert actual.dtype == expected.dtype and actual.shape == expected.shape, what
    assert np.array_equal(actual, expected), what
    assert actual.tobytes() == expected.tobytes(), f"{what}: signed zeros differ"


def assert_matches_per_head(x, relations, layer, grad_y, case):
    if relations is None:
        y, trace = vanilla_layer_forward(x, layer)
    else:
        y, trace = rat_layer_forward(x, relations, layer)
    y_ref, trace_ref = oracles.per_head_layer_forward(x, layer, relations)
    assert_bitwise(y, y_ref, f"{case}: y")
    for field in dataclasses.fields(trace):
        name = field.name
        assert_bitwise(getattr(trace, name), getattr(trace_ref, name), f"{case}: trace.{name}")
    grads = layer_backward(grad_y, trace, x, relations, layer)
    grads_ref = oracles.per_head_layer_backward(grad_y, trace_ref, x, relations, layer)
    assert grads.keys() == grads_ref.keys(), case
    for name in grads_ref:
        assert_bitwise(grads[name], grads_ref[name], f"{case}: grad {name}")


class TestSumTerms:
    """``_sum_terms`` adds in numpy's two orders: pairwise as ``.sum`` adds a
    contiguous axis, one term after another as it adds a strided one."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_numpy(self, dtype):
        rng = np.random.default_rng(13)
        orders_differ = 0
        for count in range(1, 301):
            # Magnitudes over 16 decades, so that the order of addition shows.
            values = rng.standard_normal((3, count)) * 10.0 ** rng.integers(-8, 8, (3, count))
            for terms in (values.astype(dtype), np.full((3, count), -0.0, dtype)):
                pairwise = _sum_terms(lambda c: terms[:, c], count, pairwise=True)
                assert_bitwise(pairwise, terms.sum(-1), f"pairwise, {count} terms")
                rows = np.ascontiguousarray(terms.T)
                in_order = _sum_terms(lambda c: rows[c], count, pairwise=False)
                assert_bitwise(in_order, rows.sum(0), f"in order, {count} terms")
                orders_differ += not np.array_equal(pairwise, in_order)
        assert orders_differ > 100

    def test_never_writes_into_the_terms(self):
        terms = np.arange(300.0).reshape(3, 100)
        for pairwise in (False, True):
            _sum_terms(lambda c: terms[:, c], 100, pairwise)
            assert np.array_equal(terms, np.arange(300.0).reshape(3, 100))


class TestHeadBatchedMatchesPerHead:
    """The layer processes all heads together; it must reproduce the layer
    that ran one head at a time bit for bit, so that a change of memory
    layout or summation order fails here instead of drifting by one ulp."""

    @pytest.mark.parametrize("n", [1, 2, 7, 33, 64, 123])
    @pytest.mark.parametrize("heads", [1, 2, 4, 16])  # head widths 16, 8, 4 and 1
    def test_outputs_traces_and_gradients(self, n, heads):
        rng = np.random.default_rng(1000 * n + heads)
        for with_relations, dtype, single_fc in itertools.product(
            (False, True), (np.float64, np.float32), (False, True)
        ):
            layer = random_layer_params(
                rng, d_x=16, heads=heads, d_ff=24, relation_count=7, single_fc=single_fc
            )
            layer = dataclasses.replace(
                layer, **{name: arr.astype(dtype) for name, arr in layer.named_arrays()}
            )
            x = rng.standard_normal((n, 16)).astype(dtype)
            relations = rng.integers(0, 7, size=(n, n)) if with_relations else None
            grad_y = rng.standard_normal((n, 16)).astype(dtype)
            case = f"relations={with_relations} {np.dtype(dtype)} single_fc={single_fc}"
            assert_matches_per_head(x, relations, layer, grad_y, case)

    @pytest.mark.parametrize(
        ("d_x", "heads", "d_ff"), [(16, 4, 200), (16, 16, 129), (16, 4, 1), (1, 1, 9)]
    )
    def test_feed_forward_widths(self, d_x, heads, d_ff):
        # d_ff above 128, or 130 positions at width 1, reach the halving step
        # of the pairwise sum; a product with one column (d_ff 1, or d_x 1)
        # and a sum over positions of one-element rows (d_x 1) are pairwise.
        rng = np.random.default_rng(d_x + heads + d_ff)
        for with_relations, dtype in itertools.product((False, True), (np.float64, np.float32)):
            layer = random_layer_params(rng, d_x=d_x, heads=heads, d_ff=d_ff, relation_count=7)
            layer = dataclasses.replace(
                layer, **{name: arr.astype(dtype) for name, arr in layer.named_arrays()}
            )
            x = rng.standard_normal((130, d_x)).astype(dtype)
            relations = rng.integers(0, 7, size=(130, 130)) if with_relations else None
            grad_y = rng.standard_normal((130, d_x)).astype(dtype)
            case = f"relations={with_relations} {np.dtype(dtype)}"
            assert_matches_per_head(x, relations, layer, grad_y, case)

    @pytest.mark.parametrize("heads", [1, 2, 4, 16])
    def test_signed_zeros(self, heads):
        # Zero input rows give zero queries, so whole score sums consist of
        # -0.0 terms; numpy's reductions start from +0.0, and so must the
        # batched ones.
        rng = np.random.default_rng(heads)
        for with_relations in (False, True):
            layer = random_layer_params(rng, d_x=16, heads=heads, d_ff=9, relation_count=4)
            x = rng.standard_normal((12, 16))
            x[::3] = 0.0
            x[1::4] = -0.0
            relations = rng.integers(0, 4, size=(12, 12)) if with_relations else None
            grad_y = np.zeros((12, 16))
            grad_y[::2] = rng.standard_normal((6, 16))
            assert_matches_per_head(x, relations, layer, grad_y, f"relations={with_relations}")


def tiny_encode_case(seed: int):
    rng = random.Random(seed)
    inter, rewrite = generators.random_triple(rng)
    schema = Schema(
        tables=(("city",), ("flight",)),
        columns=(Column(("city", "name"), 0), Column(("flight", "id"), 1)),
        primary_keys=frozenset({1}),
    )
    matrix = build_from_interaction(inter, rewrite)
    return inter, schema, matrix


class TestTwoStreamEncode:
    def test_hand_composed_single_layer(self, toy_schema):
        params = init_params(TINY)
        inter, schema, matrix = tiny_encode_case(100)
        states, link_matrix = encode_interaction(inter, schema, matrix, params)

        x_q, x_c, x_s = embed_inputs(inter, schema, params)
        link_ids = link_relation_ids(link_matrix)
        rw_ids = rewrite_relation_ids(
            matrix, context_reversal_permutation(inter.turn_lengths())
        )
        h_link, _ = rat_layer_forward(
            np.concatenate([x_q, x_c, x_s]), link_ids, params.link_layers[0]
        )
        h_rw, _ = rat_layer_forward(
            np.concatenate([x_q, x_c]), rw_ids, params.rw_layers[0]
        )
        m = len(x_q) + len(x_c)
        assert np.array_equal(states.h_link, h_link)
        assert np.array_equal(states.h_rw, h_rw)
        assert np.array_equal(states.h_final[:m], h_link[:m] + h_rw)
        assert np.array_equal(states.h_final[m:], h_link[m:])

    def test_all_none_rewrite_matrix_equals_vanilla_stack(self):
        params = init_params(TINY)
        inter = Interaction((("show", "cities"),), ("how", "many", "?"))
        schema = Schema((("city",),), (Column(("city", "name"), 0),))
        empty = RewriteEditMatrix(inter.flat_context(), inter.question, {})
        states, _ = encode_interaction(inter, schema, empty, params)
        x_q, x_c, _ = embed_inputs(inter, schema, params)
        expected = np.concatenate([x_q, x_c])
        for layer in params.rw_layers:
            expected, _ = vanilla_layer_forward(expected, layer)
        assert np.abs(states.h_rw - expected).max() < 1e-12

    def test_aggregation_identity(self):
        params = init_params(TINY)
        for seed in range(5):
            inter, schema, matrix = tiny_encode_case(200 + seed)
            states, _ = encode_interaction(inter, schema, matrix, params)
            m = states.n_question + states.n_context
            assert np.abs(
                (states.h_final[:m] - states.h_rw) - states.h_link[:m]
            ).max() < 1e-12
            assert np.array_equal(states.h_final[m:], states.h_link[m:])

    def test_layout_mismatch_rejected(self, toy_schema):
        params = init_params(TINY)
        inter, schema, matrix = tiny_encode_case(300)
        x_q, x_c, x_s = embed_inputs(inter, schema, params)
        link_matrix = build_schema_link_matrix(
            inter.question, encoder_context_tokens(inter), schema
        )
        wrong = RewriteEditMatrix(("zz",), ("qq",), {})
        with pytest.raises(ValueError):
            two_stream_encode(x_q, x_c, x_s, link_matrix, wrong, params)

    def test_mismatched_interaction_rejected(self):
        params = init_params(TINY)
        inter, schema, matrix = tiny_encode_case(400)
        other = Interaction((("different", "turn"),), inter.question)
        with pytest.raises(ValueError):
            encode_interaction(other, schema, matrix, params)

    def test_deterministic_across_runs(self):
        params_a = init_params(TINY)
        params_b = init_params(TINY)
        inter, schema, matrix = tiny_encode_case(500)
        first, _ = encode_interaction(inter, schema, matrix, params_a)
        second, _ = encode_interaction(inter, schema, matrix, params_b)
        assert np.array_equal(first.h_final, second.h_final)

    def test_keep_traces(self):
        params = init_params(TINY)
        inter, schema, matrix = tiny_encode_case(600)
        states, _ = encode_interaction(inter, schema, matrix, params, keep_traces=True)
        assert states.link_traces is not None
        assert len(states.link_traces) == TINY.layers_link
        assert len(states.rw_traces) == TINY.layers_rw

    def test_first_turn_has_empty_context(self):
        params = init_params(TINY)
        inter = Interaction((), ("show", "all", "flights", "?"))
        schema = Schema((("flight",),), (Column(("flight", "id"), 0, "number"),))
        matrix = build_from_interaction(inter, inter.question)
        states, _ = encode_interaction(inter, schema, matrix, params)
        assert states.n_context == 0
        assert states.h_final.shape == (4 + 0 + 2, TINY.d_x)


class TestRelationIdMatrices:
    def test_rewrite_ids_block_swap(self):
        # context (a b), question (q): stored layout [a b | q], encoder [q | a b]
        from qurg.rewrite_diff import RewriteRelation

        cells = {
            (0, 2): RewriteRelation.C_Q_INS,
            (2, 0): RewriteRelation.Q_C_INS,
        }
        matrix = RewriteEditMatrix(("a", "b"), ("q",), cells)
        ids = rewrite_relation_ids(matrix)
        assert ids[1, 0] == RW_RELATION_IDS["C-Q-Ins"]
        assert ids[0, 1] == RW_RELATION_IDS["Q-C-Ins"]

    def test_rewrite_ids_with_turn_reversal(self):
        from qurg.rewrite_diff import RewriteRelation

        # turns (a b) then (c); encoder order is c a b.
        cells = {
            (2, 3): RewriteRelation.C_Q_SUB,  # "c" -> question
            (3, 2): RewriteRelation.Q_C_SUB,
        }
        matrix = RewriteEditMatrix(("a", "b", "c"), ("q",), cells)
        perm = context_reversal_permutation((2, 1))
        assert perm == (2, 0, 1)
        ids = rewrite_relation_ids(matrix, perm)
        assert ids[1, 0] == RW_RELATION_IDS["C-Q-Sub"]  # "c" now first ctx row
        assert ids[0, 1] == RW_RELATION_IDS["Q-C-Sub"]

    def test_appends_reach_the_stream_as_inserts(self):
        from qurg.rewrite_diff import RewriteRelation

        # (a, q1) appends, (b, q1) inserts before q1 and appends.
        cells = {
            (0, 3): RewriteRelation.C_Q_APP,
            (3, 0): RewriteRelation.Q_C_APP,
            (1, 3): RewriteRelation.C_Q_INS_APP,
            (3, 1): RewriteRelation.Q_C_INS_APP,
        }
        ids = rewrite_relation_ids(RewriteEditMatrix(("a", "b"), ("q0", "q1"), cells))
        assert ids[2, 1] == ids[3, 1] == RW_RELATION_IDS["C-Q-Ins"]
        assert ids[1, 2] == ids[1, 3] == RW_RELATION_IDS["Q-C-Ins"]
        assert EncoderConfig().rw_relation_count == len(set(RW_RELATION_IDS.values())) == 5

    def test_bad_permutation_rejected(self):
        matrix = RewriteEditMatrix(("a", "b"), ("q",), {})
        with pytest.raises(ValueError):
            rewrite_relation_ids(matrix, (0, 0))

    def test_link_ids_match_cells(self, toy_schema):
        from conftest import FLIGHTS_CONTEXT, FLIGHTS_QUESTION

        matrix = build_schema_link_matrix(FLIGHTS_QUESTION, FLIGHTS_CONTEXT, toy_schema)
        ids = link_relation_ids(matrix)
        assert (ids > 0).sum() == len(matrix.cells)
        for (i, j), rel in matrix.cells.items():
            assert ids[i, j] == LINK_RELATION_IDS[rel.value]


class TestPrecisionModes:
    def test_single_precision_runs(self):
        config = dataclasses.replace(TINY, precision="single")
        params = init_params(config)
        assert params.rw_layers[0].w_q.dtype == np.float32
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 8)).astype(np.float32)
        relations = rng.integers(0, 5, size=(3, 3))
        y, _ = rat_layer_forward(x, relations, params.rw_layers[0])
        assert y.dtype == np.float32
