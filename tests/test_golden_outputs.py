"""Every output of the corpus commands stays the same bytes (C10), and
every linking matrix built from the benchmark's inputs reloads.

``build-matrix --corpus`` and ``roundtrip`` run through ``cli.main`` on the
benchmark's corpus inputs for seeds 1-3, on ``corpus_small.jsonl`` and on
a seeded corpus rich in folding collisions and repeated tokens.  Each
digest hashes, file by file in name order, the output file's name and the
sha256 of its bytes, then the command's standard error (one line per
failed example).  The digests were recorded with the table-filling LCS and
grounding matchers, before the bitmask form index replaced them.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

import generators
from qurg import cli
from qurg.dataset_io import load_interactions, load_link_matrix, load_schema, save_link_matrix
from qurg.schema_link import build_schema_link_matrix
from test_bench_inputs import _load_inputs

FIXTURE_CORPUS = Path(__file__).resolve().parent / "fixtures" / "corpus_small.jsonl"

# The first 16 hex digits of each run's digest, by (workload, seed); the
# benchmark inputs are written at their full sizes.
BENCH_DIGESTS = {
    ("build-matrix-longturn", 1): "2e16b9f78b67cab1",
    ("build-matrix-longturn", 2): "78f62b701315e096",
    ("build-matrix-longturn", 3): "9d91d949ccad9c0c",
    # Every example of these shards restores exactly, so each report holds
    # the same scores.
    ("roundtrip-short", 1): "10d825801bcf225c",
    ("roundtrip-short", 2): "10d825801bcf225c",
    ("roundtrip-short", 3): "10d825801bcf225c",
}

POLICY_FLAGS = {
    "default": (),
    "cased": ("--no-lowercase",),
    "unstemmed": ("--no-plural-stem",),
    "exact": ("--no-lowercase", "--no-plural-stem"),
}

# By (corpus, command, policy, context occurrence).
CORPUS_DIGESTS = {
    ("fixture", "build-matrix", "default", "last"): "d6e4442ac736a75d",
    ("fixture", "build-matrix", "cased", "last"): "d6e4442ac736a75d",
    ("fixture", "build-matrix", "unstemmed", "last"): "699c476c33c63333",
    ("fixture", "build-matrix", "exact", "last"): "699c476c33c63333",
    ("fixture", "roundtrip", "default", "last"): "f53d596b61fa6b06",
    ("fixture", "roundtrip", "exact", "last"): "f53d596b61fa6b06",
    ("collisions", "build-matrix", "default", "last"): "31b225a31ec18ecb",
    ("collisions", "build-matrix", "default", "first"): "bdcfb25692b3afa7",
    ("collisions", "build-matrix", "cased", "last"): "4c8835bba005a46f",
    ("collisions", "build-matrix", "cased", "first"): "466ba0d4f40654cf",
    ("collisions", "build-matrix", "unstemmed", "last"): "d4ae434a1db54c80",
    ("collisions", "build-matrix", "unstemmed", "first"): "ec51d2670c024712",
    ("collisions", "build-matrix", "exact", "last"): "4aac127285f29365",
    ("collisions", "build-matrix", "exact", "first"): "ea4f109e1761ba20",
    ("collisions", "roundtrip", "default", "last"): "b00b9f744b6f2a41",
    ("collisions", "roundtrip", "default", "first"): "80c73c5b1ac09d4a",
    ("collisions", "roundtrip", "cased", "last"): "6e8210f8eeb9f005",
    ("collisions", "roundtrip", "cased", "first"): "6f38fb8c8a64d770",
    ("collisions", "roundtrip", "unstemmed", "last"): "5a6e6f63eec16fa1",
    ("collisions", "roundtrip", "unstemmed", "first"): "5a6e6f63eec16fa1",
    ("collisions", "roundtrip", "exact", "last"): "1b1d6f4369ab575a",
    ("collisions", "roundtrip", "exact", "first"): "1b1d6f4369ab575a",
}

COLLISION_WORDS = ("city", "cities", "citie", "City", "Cities", "s", "ies",
                   "flight", "flights", "Flight", "the", "a", "?", ",")


def _collision_corpus(path: Path) -> Path:
    """200 examples over a small vocabulary of folding collisions, with the
    rewrite drawn from the question's and the context's tokens."""
    rng = random.Random("golden/collisions")
    lines = []
    for idx in range(200):
        history = [[rng.choice(COLLISION_WORDS) for _ in range(rng.randint(2, 10))]
                   for _ in range(rng.randint(1, 3))]
        question = [rng.choice(COLLISION_WORDS) for _ in range(rng.randint(1, 10))]
        pool = question + [tok for turn in history for tok in turn]
        rewrite = [rng.choice(pool) for _ in range(rng.randint(1, 14))]
        record = {"history": [" ".join(turn) for turn in history],
                  "question": " ".join(question), "rewrite": " ".join(rewrite),
                  "id": f"x{idx:03d}"}
        lines.append(json.dumps(record) + "\n")
    path.write_text("".join(lines), encoding="utf-8")
    return path


def _run(capsys, command: str, corpora: list[Path], out: Path, flags=()) -> str:
    out.mkdir()
    errors = []
    for corpus in corpora:
        if command == "build-matrix":
            argv = ["build-matrix", "--corpus", str(corpus), "--out-dir", str(out)]
        else:
            argv = ["roundtrip", "--corpus", str(corpus),
                    "--report", str(out / f"{corpus.stem}.report.json")]
        cli.main([*argv, *flags])
        errors.append(capsys.readouterr().err)
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode())
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    digest.update("".join(errors).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("workload, seed", sorted(BENCH_DIGESTS))
def test_benchmark_outputs_unchanged(tmp_path, monkeypatch, capsys, workload, seed):
    # The generator puts ``src`` and ``tests`` in front of ``sys.path``.
    monkeypatch.setattr(sys, "path", list(sys.path))
    _load_inputs().write_inputs(workload, seed, tmp_path / "in", False)
    corpora = sorted((tmp_path / "in").glob("*.jsonl"))
    command = "build-matrix" if workload == "build-matrix-longturn" else "roundtrip"
    assert _run(capsys, command, corpora, tmp_path / "out") == BENCH_DIGESTS[workload, seed]


@pytest.mark.parametrize("corpus, command, policy, occurrence", sorted(CORPUS_DIGESTS))
def test_corpus_outputs_unchanged(tmp_path, capsys, corpus, command, policy, occurrence):
    if corpus == "collisions":
        path = _collision_corpus(tmp_path / "collisions.jsonl")
    else:
        path = FIXTURE_CORPUS
    flags = (*POLICY_FLAGS[policy], "--context-occurrence", occurrence)
    digest = _run(capsys, command, [path], tmp_path / "out", flags)
    assert digest == CORPUS_DIGESTS[corpus, command, policy, occurrence]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["encode-turns", "schema-link-wide"])
def test_benchmark_link_matrices_reload(tmp_path, monkeypatch, workload, seed):
    monkeypatch.setattr(sys, "path", list(sys.path))
    _load_inputs().write_inputs(workload, seed, tmp_path, True)
    schema = load_schema(tmp_path / "schema.json")
    for interaction in load_interactions(tmp_path / "interactions.json"):
        for policy in generators.POLICIES:
            matrix = build_schema_link_matrix(
                interaction.question, interaction.flat_context(), schema, policy
            )
            save_link_matrix(tmp_path / "link.json", matrix)
            assert load_link_matrix(tmp_path / "link.json") == matrix
