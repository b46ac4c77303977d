"""The ``qurg`` package namespace, and which commands load numpy.

Only the encoder needs numpy.  ``qurg`` resolves the encoder's names on
first use, and the CLI imports the encoder only for ``encode``, so the
other commands never pay for importing numpy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qurg
from conftest import FIXTURES

SRC = Path(__file__).resolve().parent.parent / "src"

# Every public name of the package, as ``dir(qurg)`` listed them when the
# encoder was still imported eagerly: the six submodules and their exports.
PUBLIC_NAMES = {
    "dataset_io", "rat_encoder", "rewrite_diff", "rewrite_restore", "rouge_eval", "schema_link",
    "EditConflictError", "EditOp", "EditSpan", "Interaction", "MatchPolicy", "OpKind",
    "RewriteEditMatrix", "RewriteRelation", "SpanKind", "TokenSeq", "build_from_interaction",
    "build_rewrite_matrix", "extract_edit_ops", "lcs", "tag_edits", "token_seq",
    "MalformedMatrixError", "RestoredQuestion", "restore",
    "CorpusRougeReport", "RougeScore", "corpus_rouge", "rouge_l", "rouge_n",
    "Column", "LinkRelation", "Schema", "SchemaError", "SchemaLinkMatrix",
    "build_schema_link_matrix", "link_stats",
    "DatasetError", "FormatVersionError", "RewriteExample", "load_interactions", "load_matrix",
    "load_rewrite_corpus", "load_schema", "save_matrix", "tokenize",
    "EncodedStates", "EncoderConfig", "EncoderParams", "RatLayerParams", "embed_inputs",
    "encode_interaction", "init_params", "layer_backward", "rat_layer_forward",
    "two_stream_encode", "vanilla_layer_forward",
}


class TestNamespace:
    def test_all_lists_the_public_names(self):
        assert len(qurg.__all__) == len(set(qurg.__all__))
        assert set(qurg.__all__) == PUBLIC_NAMES

    def test_dir_lists_every_public_name(self):
        # Submodules imported elsewhere, such as ``cli``, are listed too.
        assert PUBLIC_NAMES <= set(dir(qurg))

    def test_each_name_resolves(self):
        from qurg import rat_encoder

        for name in PUBLIC_NAMES:
            assert getattr(qurg, name) is not None, name
        assert qurg.init_params is rat_encoder.init_params
        assert qurg.EncoderConfig is rat_encoder.EncoderConfig

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from qurg import *", namespace)
        assert {name for name in namespace if name != "__builtins__"} == PUBLIC_NAMES
        assert namespace["encode_interaction"] is qurg.rat_encoder.encode_interaction

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError) as info:
            qurg.nonexistent  # noqa: B018
        assert str(info.value) == "module 'qurg' has no attribute 'nonexistent'"
        assert not hasattr(qurg, "nonexistent")


# Runs in a fresh interpreter: argv[1] is the fixtures directory, argv[2] a
# scratch directory.  Prints, as JSON, whether numpy was loaded after each
# step.
_HYGIENE_SCRIPT = """
import contextlib, io, json, sys
fixtures, work = sys.argv[1], sys.argv[2]
steps = []

def mark(step):
    steps.append([step, "numpy" in sys.modules])

import qurg
mark("import qurg")
import qurg.cli
mark("import qurg.cli")
commands = [
    ("build-matrix", ["build-matrix", "which one has the most ?",
                      "--context", "how many arriving flights are there in each of the cities ?",
                      "--rewrite", "which city has the most arriving flights ?",
                      "--out", work + "/m.json"]),
    ("build-matrix --corpus", ["build-matrix", "--corpus", fixtures + "/corpus_small.jsonl",
                               "--out-dir", work + "/matrices"]),
    ("restore", ["restore", "--matrix", work + "/m.json", "--out", work + "/r.json"]),
    ("roundtrip", ["roundtrip", "--corpus", fixtures + "/corpus_small.jsonl",
                   "--report", work + "/report.json"]),
    ("rouge", ["rouge", "--cand", fixtures + "/cand.txt", "--ref", fixtures + "/ref.txt"]),
    ("schema-link", ["schema-link", "--interactions", fixtures + "/interactions_flights.json",
                     "--schema", fixtures + "/schema_flights.json",
                     "--out", work + "/link.json"]),
    ("stats", ["stats", "--corpus", fixtures + "/corpus_small.jsonl",
               "--matrix", work + "/m.json", "--link-matrix", work + "/link.json"]),
    ("encode", ["encode", "--interactions", fixtures + "/interactions_flights.json",
                "--schema", fixtures + "/schema_flights.json", "--matrix", work + "/m.json",
                "--config", work + "/config.json", "--out", work + "/states.json"]),
]
for step, argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        code = qurg.cli.main(argv)
    assert code == 0, (step, code)
    mark(step)
print(json.dumps(steps))
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


class TestImportHygiene:
    def test_only_encode_loads_numpy(self, tmp_path):
        config = {"d_x": 8, "d_z": 8, "heads": 2, "layers_link": 1, "layers_rw": 1, "d_ff": 8}
        (tmp_path / "config.json").write_text(json.dumps(config))
        steps = json.loads(_python("-c", _HYGIENE_SCRIPT, str(FIXTURES), str(tmp_path)).stdout)
        assert steps == [
            ["import qurg", False],
            ["import qurg.cli", False],
            ["build-matrix", False],
            ["build-matrix --corpus", False],
            ["restore", False],
            ["roundtrip", False],
            ["rouge", False],
            ["schema-link", False],
            ["stats", False],
            ["encode", True],
        ]

    def test_dir_lists_encoder_names_before_loading_them(self):
        script = "import qurg, sys\nprint(set(qurg.__all__) <= set(dir(qurg)), 'numpy' in sys.modules)"
        assert _python("-c", script).stdout.split() == ["True", "False"]

    @pytest.mark.parametrize(
        "statement",
        [
            "from qurg import rat_encoder",
            "import qurg.rat_encoder as rat_encoder",
            "import qurg; rat_encoder = qurg.rat_encoder",
            "from qurg import init_params; import qurg.rat_encoder as rat_encoder",
        ],
    )
    def test_encoder_imports_still_work(self, statement):
        script = f"{statement}\nimport sys\nprint(rat_encoder.__name__, 'numpy' in sys.modules)"
        assert _python("-c", script).stdout.split() == ["qurg.rat_encoder", "True"]
