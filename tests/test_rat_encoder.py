from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import random
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import generators
import json_strategies
import oracles
from qurg.dataset_io import DatasetError, FormatVersionError, dump_canonical
from qurg.rewrite_diff import Interaction, RewriteEditMatrix, build_from_interaction
from qurg.schema_link import Column, Schema, build_schema_link_matrix
from qurg.rat_encoder import (
    LINK_RELATION_IDS,
    MAX_ENCODER_BYTES,
    MAX_LAYERS,
    RW_RELATION_IDS,
    EncoderConfig,
    attention_bytes,
    check_fits,
    context_reversal_permutation,
    embed_inputs,
    encode_interaction,
    encoder_context_tokens,
    gradient_check,
    init_params,
    layer_backward,
    link_relation_ids,
    load_params,
    parameter_bytes,
    random_layer_params,
    rat_layer_forward,
    rewrite_relation_ids,
    save_params,
    trace_bytes,
    two_stream_encode,
    vanilla_layer_forward,
)
from qurg.rat_encoder import _json_chunks, _relation_tables, _sum_terms, _weighted_cells

TINY = EncoderConfig(d_x=8, heads=2, layers_link=1, layers_rw=1, d_ff=12, seed=5)


@functools.cache
def tiny_params_payload() -> dict:
    """The parameter file of ``init_params(TINY)``, as a JSON value."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "params.json"
        save_params(path, init_params(TINY))
        return json.loads(path.read_text())


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
            EncoderConfig(d_x=9, heads=2)

    def test_d_z_must_equal_d_x(self):
        with pytest.raises(DatasetError, match="^encoder config: d_z must be 8, got 16$"):
            EncoderConfig.from_dict({"d_x": 8, "d_z": 16, "heads": 2})

    @pytest.mark.parametrize("d_x", [1, 0, -1])
    def test_width_below_two_rejected(self, d_x):
        # At width 1 layer norm sees one feature, so every layer outputs ln2_bias.
        with pytest.raises(ValueError, match="^d_x must be at least 2: layer norm"):
            EncoderConfig.from_dict({"d_x": d_x, "d_z": d_x, "heads": 1})

    def test_round_trips_through_dict(self):
        config = EncoderConfig(d_x=8, heads=2, seed=3)
        assert EncoderConfig.from_dict(config.to_dict()) == config

    def test_derived_fields_are_not_settable(self):
        settable = [f.name for f in dataclasses.fields(EncoderConfig) if f.init]
        assert settable == [
            "d_x", "heads", "layers_link", "layers_rw", "d_ff", "seed", "precision",
            "single_fc_ff",
        ]
        assert list(EncoderConfig().to_dict()) == [
            "d_x", "d_z", "heads", "layers_link", "layers_rw", "d_ff", "link_relation_count",
            "rw_relation_count", "seed", "precision", "single_fc_ff",
        ]
        with pytest.raises(TypeError):
            EncoderConfig(d_x=8, d_z=8, heads=2)

    def test_derived_fields_follow_d_x_and_the_vocabularies(self):
        for config in (EncoderConfig(d_x=8, heads=2),
                       EncoderConfig.from_dict({"d_x": 8, "heads": 2})):
            assert (config.d_z, config.head_width) == (8, 4)
            assert config.link_relation_count == len(LINK_RELATION_IDS) == 16
            assert config.rw_relation_count == 5
        assert dataclasses.replace(TINY, d_x=6).d_z == 6

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"link_relation_count": 3}, "link_relation_count must be 16, got 3"),
            ({"rw_relation_count": 9}, "rw_relation_count must be 5, got 9"),
            ({"d_x": 8, "heads": 2, "d_z": 16, "link_relation_count": 3},
             "d_z must be 8, got 16"),
            ({"d_z": 16.0}, "d_z: expected an integer, got 16.0"),
        ],
        ids=["link-count", "rw-count", "first-in-field-order", "d_z-float"],
    )
    def test_derived_field_off_its_value_rejected(self, payload, message):
        with pytest.raises(DatasetError, match=f"^encoder config: {re.escape(message)}$"):
            EncoderConfig.from_dict(payload)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            EncoderConfig.from_dict({"d_q": 4})

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"seed": "1"}, "seed: expected an integer, got '1'"),
            ({"d_ff": 2.5}, "d_ff: expected an integer or null, got 2.5"),
            ({"single_fc_ff": 1}, "single_fc_ff: expected a boolean, got 1"),
            ({"heads": True}, "heads: expected an integer, got True"),
        ],
        ids=["seed-string", "d_ff-float", "single_fc_ff-integer", "heads-boolean"],
    )
    def test_type_error_names_the_field(self, payload, message):
        with pytest.raises(DatasetError, match=f"^encoder config: {re.escape(message)}$"):
            EncoderConfig.from_dict(payload)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            EncoderConfig(seed=-1)

    @pytest.mark.parametrize(
        "fields, message",
        [({"d_ff": 0}, "d_ff must be positive"),
         ({"precision": "half"}, "precision must be one of ['double', 'single']")],
        ids=["d_ff-zero", "precision-unknown"],
    )
    def test_value_out_of_range_rejected(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EncoderConfig(**fields)

    @pytest.mark.parametrize(
        "depths", [{"layers_link": 10**9}, {"layers_rw": MAX_LAYERS + 1}], ids=repr
    )
    def test_depth_past_the_bound_rejected(self, depths):
        # The constructor refuses at once; ``init_params`` would loop over every layer.
        with pytest.raises(ValueError, match=f"between 1 and {MAX_LAYERS} layers"):
            EncoderConfig(**depths)

    def test_depth_at_the_bound_accepted(self):
        assert EncoderConfig(layers_link=MAX_LAYERS, layers_rw=MAX_LAYERS).layers_rw == MAX_LAYERS

    @settings(max_examples=50, deadline=None)
    @given(
        payload=json_strategies.json_files(TINY.to_dict())
        | st.dictionaries(
            st.sampled_from(sorted(TINY.to_dict())), json_strategies.json_values, max_size=6
        )
    )
    def test_any_json_gives_a_config_or_a_value_error(self, payload):
        try:
            EncoderConfig.from_dict(payload)
        except ValueError:
            pass


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
            (lambda p: [p], "missing qurg_fmt version field"),
            (lambda p: {k: v for k, v in p.items() if k != "config"},
             "missing required field 'config'"),
            (lambda p: {**p, "link_layers": 5}, "link_layers: expected an array, got 5"),
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

    @pytest.mark.parametrize(
        "value",
        ["2.5", True, None, float("nan"), float("inf"), 10**400],
        ids=["string", "boolean", "null", "NaN", "Infinity", "huge-integer"],
    )
    def test_array_value_not_a_finite_number_rejected(self, tmp_path, value):
        payload = tiny_params_payload()
        w_q = json.loads(json.dumps(payload["link_layers"][0]["w_q"]))
        w_q[1][2][3] = value
        path = tmp_path / "params.json"
        path.write_text(json.dumps(edited_layer(payload, "link_layers", w_q=w_q)))
        message = r"link_layers\[0\]: field 'w_q' holds a value that is not a finite number$"
        with pytest.raises(ValueError, match=message):
            load_params(path)

    def test_version_true_rejected(self, tmp_path):
        # JSON true is not the version number 1, although ``True == 1``.
        path = tmp_path / "params.json"
        path.write_text(json.dumps({**tiny_params_payload(), "qurg_fmt": True}))
        with pytest.raises(FormatVersionError, match="unsupported format version True"):
            load_params(path)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_any_json_loads_or_fails_with_a_value_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "params.json"
        path.write_text(json.dumps(data.draw(json_strategies.json_files(tiny_params_payload()))))
        try:
            load_params(path)
        except ValueError:
            pass

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

    def test_chunks_are_the_canonical_text_of_the_listed_arrays(self):
        rng = np.random.default_rng(3)
        arrays = [rng.standard_normal(shape) for shape in [(), (3,), (0, 2), (2, 0), (2, 3, 4)]]
        arrays += [rng.standard_normal((2, 3)).astype(np.float32),
                   np.array([[np.nan, np.inf], [-0.0, 1e-300]])]
        payload = {"ké": [{"a": arr, "b": [arr, None, True, "ü"]} for arr in arrays], "e": {}}
        assert "".join(_json_chunks(payload)) == dump_canonical(
            {"ké": [{"a": arr.tolist(), "b": [arr.tolist(), None, True, "ü"]} for arr in arrays],
             "e": {}}
        )
        # One chunk per innermost row, never the whole array.
        assert max(map(len, _json_chunks(arrays[4]))) < len(dump_canonical(arrays[4][0].tolist()))


class TestSizeBound:
    """``check_fits`` refuses a config whose parameters, whose attention
    buffers of one layer, or whose kept traces pass ``MAX_ENCODER_BYTES``.
    The refusals are arithmetic only: no test here allocates what it
    refuses."""

    SMALL = [
        TINY,
        EncoderConfig(),
        EncoderConfig(d_x=6, heads=3, layers_link=2, layers_rw=3, single_fc_ff=True),
        EncoderConfig(d_x=4, heads=1, d_ff=3, precision="single"),
    ]

    @pytest.mark.parametrize("config", SMALL, ids=repr)
    def test_parameter_estimate_is_what_init_params_allocates(self, config):
        params = init_params(config)
        assert parameter_bytes(config) == sum(
            array.nbytes
            for layer in params.link_layers + params.rw_layers
            for _, array in layer.named_arrays()
        )

    @pytest.mark.parametrize("config", SMALL, ids=repr)
    def test_attention_estimate_is_what_a_layer_allocates(self, config):
        n, dtype = 7, config.np_dtype
        layer = init_params(config).link_layers[0]
        relations = np.random.default_rng(0).integers(0, layer.relation_count, size=(n, n))
        rel_key, rel_value = _relation_tables(layer, relations)
        valued = _weighted_cells(
            np.ones((layer.heads, 1, n, n), dtype),
            np.ones((layer.heads, layer.head_width, n), dtype),
            rel_value,
        )
        assert valued.shape == (layer.heads, layer.head_width, n, n)
        assert attention_bytes(config, n) == rel_key.nbytes + rel_value.nbytes + valued.nbytes

    @pytest.mark.parametrize("config", SMALL, ids=repr)
    def test_trace_estimate_is_what_an_encode_keeps(self, config):
        inter, schema, matrix = tiny_encode_case(602)
        states, link_matrix = encode_interaction(
            inter, schema, matrix, init_params(config), keep_traces=True
        )
        kept = sum(
            getattr(trace, f.name).nbytes
            for trace in states.link_traces + states.rw_traces
            for f in dataclasses.fields(trace) if getattr(trace, f.name) is not None
        )
        assert trace_bytes(config, link_matrix.size, matrix.size) == kept

    def test_traces_refused(self):
        # At the default config one layer's attention over 2,000 positions
        # takes 768,000,000 bytes, under the bound; the 8 link layers' scores
        # and weights over them take 2,048,000,000.
        config = EncoderConfig()
        check_fits(config, 2000)
        with pytest.raises(ValueError, match="over 2,000 and 10 positions, "):
            check_fits(config, 2000, traced_rw=10)
        # Only the arrays count: beside 10 positions of the other stream, a
        # link stream of 1,435 positions fits (1,073,702,400 bytes) and one
        # of 1,436 does not; a rewrite stream of 2,034 fits and one of 2,035
        # does not.
        assert trace_bytes(config, 0, 2000) == 1_037_440_000
        assert trace_bytes(config, 1435, 10) == 1_073_702_400
        check_fits(config, 1435, traced_rw=10)
        with pytest.raises(ValueError, match="over 1,436 and 10 positions, "):
            check_fits(config, 1436, traced_rw=10)
        check_fits(config, 10, traced_rw=2034)
        with pytest.raises(ValueError, match="over 10 and 2,035 positions, "):
            check_fits(config, 10, traced_rw=2035)

    @pytest.mark.parametrize("config", SMALL, ids=repr)
    def test_streamed_dump_stays_below_the_trace_arrays(self, config, tmp_path, monkeypatch):
        from qurg import cli, dataset_io, rat_encoder

        inter, schema, matrix = tiny_encode_case(602)
        files = {"--interactions": tmp_path / "i.json", "--schema": tmp_path / "s.json",
                 "--matrix": tmp_path / "m.json", "--config": tmp_path / "c.json"}
        dataset_io.save_interactions(files["--interactions"], [inter])
        dataset_io.save_schema(files["--schema"], schema)
        dataset_io.save_matrix(files["--matrix"], matrix)
        dataset_io.write_json(files["--config"], config.to_dict())
        kept, encode = [], rat_encoder.encode_interaction

        def encode_then_trace(*args, **kwargs):
            states, link_matrix = encode(*args, **kwargs)
            kept.append(sum(array.nbytes for trace in states.link_traces + states.rw_traces
                            for array in vars(trace).values() if array is not None))
            tracemalloc.start()  # counts only what the dump allocates
            return states, link_matrix

        monkeypatch.setattr(rat_encoder, "encode_interaction", encode_then_trace)
        argv = ["encode", *(str(arg) for item in files.items() for arg in item),
                "--traces", "--out", str(tmp_path / "out.json")]
        try:
            assert cli.main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < kept[0]

    @pytest.mark.parametrize(
        "config", [EncoderConfig(), EncoderConfig(precision="single", single_fc_ff=True)],
        ids=repr,
    )
    def test_streamed_parameters_stay_below_the_parameter_arrays(self, config, tmp_path):
        params = init_params(config)
        tracemalloc.start()
        try:
            save_params(tmp_path / "params.json", params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < parameter_bytes(config)

    def test_attention_bound_is_inclusive(self):
        # (4 heads + 2 gathers) x width 4 x 8 bytes per cell: 2,364 positions
        # fit under 2**30 bytes and 2,365 do not.
        assert attention_bytes(EncoderConfig(), 2364) <= MAX_ENCODER_BYTES
        check_fits(EncoderConfig(), 2364)
        with pytest.raises(ValueError, match="attention over 2,365 positions"):
            check_fits(EncoderConfig(), 2365)
        check_fits(EncoderConfig(precision="single"), 2365)

    @pytest.mark.parametrize(
        "config, n, what",
        [
            # d_ff defaults to 16,384: about 18 GB over 12 layers.
            (EncoderConfig(d_x=4096, heads=1), 4, "its parameters"),
            (EncoderConfig(d_x=10**7, heads=1), 4, "its parameters"),
            (EncoderConfig(layers_link=MAX_LAYERS, d_x=512, heads=8), 4, "its parameters"),
            (EncoderConfig(), 10**6, "one layer's attention over 1,000,000 positions"),
        ],
        ids=["d_x-4096", "d_x-1e7", "deep-wide", "long"],
    )
    def test_refused(self, config, n, what):
        message = (
            f"^encoder config needs [0-9,]+ bytes for {re.escape(what)}, "
            f"more than the bound of 1,073,741,824$"
        )
        with pytest.raises(ValueError, match=message):
            check_fits(config, n)


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

    @pytest.mark.parametrize(
        "x_shape, relations, message",
        [((2, 7), np.zeros((2, 2), dtype=int), "input must be (n, 8), got (2, 7)"),
         ((2, 8), np.zeros((2, 2)), "relation matrix must hold integer type ids"),
         ((2, 8), None, "rat_layer_forward requires a relation matrix")],
        ids=["input-width", "float-relations", "no-relations"],
    )
    def test_bad_arguments_rejected(self, x_shape, relations, message):
        layer = init_params(TINY).rw_layers[0]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            rat_layer_forward(np.zeros(x_shape), relations, layer)

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

    def test_single_fc_is_read_from_the_arrays(self):
        rng = np.random.default_rng(6)
        layers = [random_layer_params(rng, d_x=4, heads=2, d_ff=8, relation_count=3,
                                      single_fc=single_fc) for single_fc in (False, True)]
        assert [layer.single_fc for layer in layers] == [False, True]
        # No flag of its own, so no layer can claim a mode its arrays lack.
        with pytest.raises(TypeError):
            dataclasses.replace(layers[0], single_fc=True)


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

    @pytest.mark.parametrize("heads", [0, -2, 3])
    def test_random_layer_needs_a_positive_divisor_of_d_x(self, heads):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError, match="^d_x must be a positive multiple of heads$"):
            random_layer_params(rng, d_x=8, heads=heads, d_ff=12, relation_count=5)
        assert random_layer_params(rng, d_x=1, heads=1, d_ff=9, relation_count=7).d_x == 1

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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_short_sums_take_one_order(self, dtype):
        # Below eight terms numpy's pairwise sum is its in-order loop; signed
        # zeros, infinities and subnormals show any difference in the bits.
        tiny = np.finfo(dtype).smallest_subnormal
        pool = np.array([0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 3 * tiny, 1.0], dtype)
        rng = np.random.default_rng(14)
        for count in range(1, 8):
            terms = rng.choice(pool, size=(200, count))
            with np.errstate(invalid="ignore"):  # inf + -inf
                pairwise = _sum_terms(lambda c: terms[:, c], count, pairwise=True)
                in_order = _sum_terms(lambda c: terms[:, c], count, pairwise=False)
                expected = terms.sum(-1)
            # Bytes, not values: inf + -inf gives a NaN, which equals nothing.
            assert pairwise.dtype == in_order.dtype == expected.dtype
            assert pairwise.tobytes() == in_order.tobytes() == expected.tobytes(), count

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

    @pytest.mark.parametrize(
        "extra_token, extra_table, message",
        [(("zz",), (), "linking matrix layout does not match the embeddings"),
         ((), (("zz",),), "linking matrix schema size does not match the embeddings")],
        ids=["layout", "schema-size"],
    )
    def test_linking_matrix_mismatch_rejected(self, extra_token, extra_table, message):
        params = init_params(TINY)
        inter, schema, matrix = tiny_encode_case(300)
        x_q, x_c, x_s = embed_inputs(inter, schema, params)
        link_matrix = build_schema_link_matrix(
            inter.question + extra_token, encoder_context_tokens(inter),
            Schema(schema.tables + extra_table, schema.columns),
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            two_stream_encode(x_q, x_c, x_s, link_matrix, matrix, params)

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

    def test_traces_follow_their_stream(self):
        params = init_params(dataclasses.replace(TINY, layers_link=3, layers_rw=2))
        inter, schema, matrix = tiny_encode_case(601)
        states, _ = encode_interaction(inter, schema, matrix, params, keep_traces=True)
        n_link, n_rw = len(states.h_link), len(states.h_rw)
        assert [t.y.shape[0] for t in states.link_traces] == [n_link] * 3
        assert [t.y.shape[0] for t in states.rw_traces] == [n_rw] * 2
        assert np.array_equal(states.link_traces[-1].y, states.h_link)
        assert np.array_equal(states.rw_traces[-1].y, states.h_rw)
        plain, _ = encode_interaction(inter, schema, matrix, params)
        assert plain.link_traces is None and plain.rw_traces is None
        assert np.array_equal(plain.h_final, states.h_final)

    def test_first_turn_has_empty_context(self):
        params = init_params(TINY)
        inter = Interaction((), ("show", "all", "flights", "?"))
        schema = Schema((("flight",),), (Column(("flight", "id"), 0, "number"),))
        matrix = build_from_interaction(inter, inter.question)
        states, _ = encode_interaction(inter, schema, matrix, params)
        assert states.n_context == 0
        assert states.h_final.shape == (4 + 0 + 2, TINY.d_x)

    def test_schema_without_elements(self):
        params = init_params(TINY)
        inter = Interaction((("show", "flights"),), ("how", "many", "?"))
        matrix = build_from_interaction(inter, inter.question)
        states, _ = encode_interaction(inter, Schema((), ()), matrix, params)
        assert states.n_schema == 0
        assert states.h_final.shape == (3 + 2, TINY.d_x)
        assert np.array_equal(states.h_final, states.h_link + states.h_rw)


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
        assert RW_RELATION_IDS == {
            "None": 0, "Q-C-Ins": 1, "Q-C-Sub": 2, "C-Q-Ins": 3, "C-Q-Sub": 4,
            "Q-C-App": 1, "Q-C-Ins-App": 1, "C-Q-App": 3, "C-Q-Ins-App": 3,
        }

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), empty_at=st.lists(st.integers(0, 4), max_size=3))
    def test_encoder_order_matches_a_remap_by_stored_position(self, seed, empty_at):
        inter, rewrite = generators.random_triple(random.Random(seed))
        turns = list(inter.context_turns)
        for k in empty_at:
            turns.insert(min(k, len(turns)), ())
        inter = Interaction(tuple(turns), inter.question)
        matrix = build_from_interaction(inter, rewrite)
        n_ctx, n_q = matrix.context_size, matrix.question_size
        # Stored context position -> encoder position, turn by turn.
        encoder_pos: dict[int, int] = {}
        stored = 0
        for t, turn in enumerate(inter.context_turns):
            later = sum(len(u) for u in inter.context_turns[t + 1 :])
            for k in range(len(turn)):
                encoder_pos[stored] = n_q + later + k
                stored += 1
        encoder_pos.update({n_ctx + i: i for i in range(n_q)})
        expected = np.zeros((n_q + n_ctx, n_q + n_ctx), dtype=np.int64)
        for (i, j), rel in matrix.cells.items():
            expected[encoder_pos[i], encoder_pos[j]] = RW_RELATION_IDS[rel.value]

        perm = context_reversal_permutation(inter.turn_lengths())
        assert np.array_equal(rewrite_relation_ids(matrix, perm), expected)
        context = inter.flat_context()
        assert encoder_context_tokens(inter) == tuple(context[p] for p in perm)

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
