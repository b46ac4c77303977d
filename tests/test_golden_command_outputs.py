"""Every output file of the single-output commands stays the same bytes
(C10): ``restore --out``, ``rouge --out``, ``schema-link --out`` (native
and SParC input), ``stats --out`` and ``encode --out`` with and without
``--traces`` and ``--save-params``.

Each command runs through ``cli.main`` on the fixtures.  A digest hashes,
file by file in name order, the output file's name and the sha256 of its
bytes.  The digests were recorded while only some of these files were
replaced through a temporary file, before every file but the matrix files
came to be written by one writer.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from conftest import FIXTURES
from qurg import cli

# The first 16 hex digits of each case's digest.
DIGESTS = {
    "restore": "f84b9e1657a3793e",
    "rouge": "4f2fa23954930daa",
    "schema-link-native": "d630d84b04cf5aca",
    "schema-link-sparc": "fca152ef377d88ec",
    "stats": "5528ff64dc196f3d",
    ("encode", "default", "out"): "b17b78da42b9f124",
    ("encode", "default", "traces"): "5c112c9de18e622a",
    ("encode", "single-fc-single", "out"): "c568be1aede3f23a",
    ("encode", "single-fc-single", "traces"): "174e9875c70f02f5",
}

ENCODER_CONFIGS = {
    "default": None,
    "single-fc-single": {"single_fc_ff": True, "precision": "single", "seed": 5},
}

FLIGHTS = {
    "question": "which one has the most ?",
    "context": "how many arriving flights are there in each of the cities ?",
    "rewrite": "which city has the most arriving flights ?",
}


def _main(*argv: str) -> None:
    assert cli.main(list(argv)) == 0


def _digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode())
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()[:16]


def _flights_matrix(path: Path) -> Path:
    _main("build-matrix", FLIGHTS["question"], "--context", FLIGHTS["context"],
          "--rewrite", FLIGHTS["rewrite"], "--out", str(path))
    return path


def _link_args(fmt: str, index: int, out: Path) -> list[str]:
    interactions = "interactions_flights.json" if fmt == "native" else "sparc_sample.json"
    return ["schema-link", "--interactions", str(FIXTURES / interactions), "--index", str(index),
            "--schema", str(FIXTURES / "schema_flights.json"), "--out", str(out)]


def test_restore(tmp_path):
    matrices, out = tmp_path / "matrices", tmp_path / "out"
    out.mkdir()
    _main("build-matrix", "--corpus", str(FIXTURES / "corpus_small.jsonl"),
          "--out-dir", str(matrices))
    for path in sorted(matrices.glob("*.matrix.json")):
        _main("restore", "--matrix", str(path), "--out", str(out / path.name))
    assert _digest(out) == DIGESTS["restore"]


def test_rouge(tmp_path):
    _main("rouge", "--cand", str(FIXTURES / "cand.txt"), "--ref", str(FIXTURES / "ref.txt"),
          "--out", str(tmp_path / "report.json"))
    assert _digest(tmp_path) == DIGESTS["rouge"]


@pytest.mark.parametrize("fmt, turns", [("native", 1), ("sparc", 2)])
def test_schema_link(tmp_path, fmt, turns):
    for index in range(turns):
        for flags in ((), ("--no-lowercase",), ("--no-plural-stem",)):
            name = f"{index}{''.join(flags)}.json"
            _main(*_link_args(fmt, index, tmp_path / name), *flags)
    assert _digest(tmp_path) == DIGESTS[f"schema-link-{fmt}"]


def test_stats(tmp_path):
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    matrix = _flights_matrix(inputs / "flights.matrix.json")
    _main(*_link_args("native", 0, inputs / "link.json"))
    corpus = str(FIXTURES / "corpus_small.jsonl")
    _main("stats", "--corpus", corpus, "--out", str(out / "corpus.json"))
    _main("stats", "--corpus", corpus, "--matrix", str(matrix),
          "--link-matrix", str(inputs / "link.json"), "--out", str(out / "all.json"))
    assert _digest(out) == DIGESTS["stats"]


@pytest.mark.parametrize("dumps", ["out", "traces"])
@pytest.mark.parametrize("config", sorted(ENCODER_CONFIGS))
def test_encode(tmp_path, config, dumps):
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    argv = ["encode", "--interactions", str(FIXTURES / "interactions_flights.json"),
            "--schema", str(FIXTURES / "schema_flights.json"),
            "--matrix", str(_flights_matrix(inputs / "flights.matrix.json")),
            "--out", str(out / "states.json")]
    if ENCODER_CONFIGS[config] is not None:
        (inputs / "config.json").write_text(json.dumps(ENCODER_CONFIGS[config]))
        argv += ["--config", str(inputs / "config.json")]
    if dumps == "traces":
        argv += ["--traces", "--save-params", str(out / "params.json")]
    _main(*argv)
    assert _digest(out) == DIGESTS["encode", config, dumps]
