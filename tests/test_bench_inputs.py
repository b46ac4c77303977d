"""The benchmark's corpus inputs stay the same bytes.

``perfbench/inputs.py`` builds the ``roundtrip-short`` shards with
``generators.make_splice_example``, so a change to the test generators, or
to what they import from the package, could change the benchmark's inputs
without touching the benchmark.  Each digest hashes, shard by shard in name
order, the shard's file name and then its bytes.
"""

from __future__ import annotations

import hashlib
import sys
import types
from pathlib import Path

import pytest

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"

# The first 16 hex digits of each workload's digest at seed 1, quick sizes.
SHARD_DIGESTS = {
    "roundtrip-short": "c087872dd7fbe926",
    "build-matrix-longturn": "f69ab55bbada51e4",
}


def _load_inputs() -> types.ModuleType:
    # Executed from source, so no bytecode is written beside the benchmark.
    module = types.ModuleType("perfbench_inputs")
    module.__file__ = str(INPUTS)
    exec(compile(INPUTS.read_text(encoding="utf-8"), str(INPUTS), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("workload", sorted(SHARD_DIGESTS))
def test_corpus_shards_unchanged(tmp_path, monkeypatch, workload):
    # The generator puts ``src`` and ``tests`` in front of ``sys.path``.
    monkeypatch.setattr(sys, "path", list(sys.path))
    _load_inputs().write_inputs(workload, 1, tmp_path, True)
    digest = hashlib.sha256()
    for shard in sorted(tmp_path.glob("*.jsonl")):
        digest.update(shard.name.encode())
        digest.update(shard.read_bytes())
    assert digest.hexdigest()[:16] == SHARD_DIGESTS[workload]
