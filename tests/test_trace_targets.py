"""The benchmark's tracer finds every function it wraps.

``perfbench/tracing.py`` replaces module attributes by name and reads the
wrapped functions' arguments by parameter name.  A rename in the package
would otherwise show up only in the ``missing`` list of a trace file.
"""

from __future__ import annotations

import importlib
import inspect
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# Parameters ``Tracer._count`` and ``Tracer._span_name`` read, per function.
COUNTED_PARAMETERS = {
    "lcs": ("a", "b"),
    "extract_edit_ops": ("question", "rewrite", "policy"),
    "save_matrix": ("path",),
    "rat_layer_forward": ("x", "layer"),
}


def _load_tracing() -> types.ModuleType:
    # Executed from source, so no bytecode is written beside the benchmark.
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_target_resolves():
    tracing = _load_tracing()
    for module_name, attr, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr)), attr
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_traced_functions_keep_counted_parameters():
    tracing = _load_tracing()
    traced = {attr for _, attr, _ in tracing.TARGETS}
    assert set(COUNTED_PARAMETERS) <= traced
    for module_name, attr, _ in tracing.TARGETS:
        if attr not in COUNTED_PARAMETERS:
            continue
        fn = getattr(importlib.import_module(module_name), attr)
        parameters = list(inspect.signature(fn).parameters)
        for name in COUNTED_PARAMETERS[attr]:
            assert name in parameters, f"{module_name}.{attr} lost parameter {name!r}"
    # The tracer re-runs ``tag_edits`` to count dropped ADD spans.
    tag_edits = importlib.import_module("qurg.rewrite_diff").tag_edits
    assert "policy" in inspect.signature(tag_edits).parameters
    # The layer span name reads ``layer`` as the third positional argument.
    layer_forward = importlib.import_module("qurg.rat_encoder").rat_layer_forward
    assert list(inspect.signature(layer_forward).parameters).index("layer") == 2


def _traced_op(run):
    """Run ``run()`` as one op under an installed tracer; return the tracer,
    ``run``'s result and the op's counts."""
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        result = run()
        _, counts = tracer.end_op()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    return tracer, result, counts


def test_roundtrip_command_goes_through_the_rewrite_builder(tmp_path):
    from conftest import FIXTURES
    from qurg import cli, dataset_io, rewrite_diff

    corpus = FIXTURES / "corpus_small.jsonl"
    examples = dataset_io.load_rewrite_corpus(corpus)
    cells = sum(len(rewrite_diff.build_from_interaction(ex).cells) for ex in examples)
    argv = ["roundtrip", "--corpus", str(corpus), "--report", str(tmp_path / "report.json")]
    tracer, code, counts = _traced_op(lambda: cli.main(argv))
    assert code == 0
    assert cells > 0 and counts["rewrite_diff.cells"] == cells
    assert tracer.calls["rewrite_diff.build_rewrite_matrix"] == len(examples)


def test_encoder_links_through_the_traced_builder():
    from conftest import FIXTURES
    from qurg import dataset_io, rat_encoder, rewrite_diff

    interaction = dataset_io.load_interactions(FIXTURES / "interactions_flights.json")[0]
    schema = dataset_io.load_schema(FIXTURES / "schema_flights.json")
    matrix = rewrite_diff.build_from_interaction(interaction)
    params = rat_encoder.init_params(
        rat_encoder.EncoderConfig(d_x=8, heads=2, layers_link=1, layers_rw=1, d_ff=12)
    )
    tracer, (_, link), counts = _traced_op(
        lambda: rat_encoder.encode_interaction(interaction, schema, matrix, params)
    )
    names = [span[1] for span in tracer.spans]
    assert names.count("schema_link.build_schema_link_matrix") == 1
    assert counts["schema_link.cells"] == len(link.cells) > 0
