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
