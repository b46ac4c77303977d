"""Output checks for every workload.

Each check tests a property the method must have, or compares against a
computation made here, apart from the program.  None compares against a
stored copy of earlier output.  A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


class CheckFailed(Exception):
    """The program's output breaks a property the method must have."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- corpus workloads ------------------------------------------------------

REWRITE_MIRROR = {
    "C-Q-Sub": "Q-C-Sub",
    "Q-C-Sub": "C-Q-Sub",
    "C-Q-Ins": "Q-C-Ins",
    "Q-C-Ins": "C-Q-Ins",
}


# Slack for the filesystem's coarse clock against ``time.time_ns``.  The
# previous round wrote the same files seconds earlier.
MTIME_SLACK_NS = 50_000_000


def written_since(path: Path, since_ns: int) -> None:
    require(path.stat().st_mtime_ns >= since_ns - MTIME_SLACK_NS, f"{path.name} was not rewritten")


def roundtrip_report(path: Path, examples: int, since_ns: int) -> None:
    """The op wrote the report.  Spliced examples restore exactly, so every
    F1 is 1 and every example is scored."""
    written_since(path, since_ns)
    report = json.loads(path.read_text(encoding="utf-8"))
    for key in ("r1", "r2", "rl"):
        require(report[key]["f1"] == 1.0, f"{path.name}: {key} F1 {report[key]['f1']} != 1")
    require(report["pairs"] == examples, f"{path.name}: {report['pairs']} pairs, expected {examples}")


def matrix_dir(
    out_dir: Path, rewrites: dict[str, list[str]], load_matrix, restore, since_ns: int
) -> None:
    """Every example has a matrix file in ``index.json``, written by the op;
    every file has all its cells mirrored, loads back through
    ``load_matrix`` and restores to the example's rewrite."""
    written_since(out_dir / "index.json", since_ns)
    index = json.loads((out_dir / "index.json").read_text(encoding="utf-8"))
    entries = index["examples"]
    require(
        sorted(e["id"] for e in entries) == sorted(rewrites),
        f"{out_dir.name}: index lists {len(entries)} of {len(rewrites)} examples",
    )
    for entry in entries:
        path = out_dir / entry["file"]
        written_since(path, since_ns)
        raw = json.loads(path.read_text(encoding="utf-8"))
        cells = {(c["i"], c["j"]): c["rel"] for c in raw["cells"]}
        require(len(cells) == entry["cells"], f"{path.name}: index cell count differs")
        for (i, j), rel in cells.items():
            require(
                cells.get((j, i)) == REWRITE_MIRROR[rel],
                f"{path.name}: cell ({i},{j}) {rel} lacks its mirror",
            )
        matrix = load_matrix(path)
        restored = restore(matrix.question_tokens, matrix.context_tokens, matrix)
        require(
            list(restored.tokens) == rewrites[entry["id"]],
            f"{path.name}: restores to {' '.join(restored.tokens)!r}",
        )


# -- schema linking --------------------------------------------------------

MATCH_RELATIONS = (
    "Exact-Table-Match",
    "Partial-Table-Match",
    "Exact-Column-Match",
    "Partial-Column-Match",
)
OWNERSHIP = ("Column-Belongs-To-Table", "Primary-Key-Of")


def _forms(word: str) -> set[str]:
    """Case and plural folding: "Cities" -> {"cities", "citie", "city"}."""
    word = word.lower()
    forms = {word}
    if word.endswith("s") and len(word) > 1:
        forms.add(word[:-1])
    if word.endswith("ies") and len(word) > 3:
        forms.add(word[:-3] + "y")
    return forms


def same_word(a: str, b: str) -> bool:
    return not _forms(a).isdisjoint(_forms(b))


def _runs(positions: list[int], boundary: int) -> list[list[int]]:
    """Maximal runs of consecutive positions, split at the question/context
    boundary because n-grams never cross it."""
    runs: list[list[int]] = []
    for pos in positions:
        if runs and pos == runs[-1][-1] + 1 and pos != boundary:
            runs[-1].append(pos)
        else:
            runs.append([pos])
    return runs


def link_matrix(matrix, question, context, schema) -> None:
    """Match cells come in (forward, reverse) pairs, every column owns
    exactly one cell to its own table, and every exact-match n-gram equals
    its element's name under case and plural folding."""
    cells = {key: rel.value for key, rel in matrix.cells.items()}
    n_utt = len(question) + len(context)
    tables = list(schema.tables)
    columns = list(schema.columns)
    table_pos = {n_utt + t: t for t in range(len(tables))}
    column_pos = {n_utt + len(tables) + c: c for c in range(len(columns))}
    for (i, j), rel in cells.items():
        base = rel[: -len("-Rev")] if rel.endswith("-Rev") else rel
        if base in MATCH_RELATIONS:
            reverse = base if rel.endswith("-Rev") else base + "-Rev"
            require(cells.get((j, i)) == reverse, f"match cell ({i},{j}) {rel} lacks {reverse}")
    owned: dict[int, list[tuple[int, str]]] = {c: [] for c in column_pos.values()}
    for (i, j), rel in cells.items():
        if i in column_pos and j in table_pos:
            owned[column_pos[i]].append((table_pos[j], rel))
    for c, links in owned.items():
        require(len(links) == 1, f"column {c} has {len(links)} cells to tables")
        table, rel = links[0]
        require(
            table == columns[c].table and rel in OWNERSHIP,
            f"column {c} points at table {table} with {rel}",
        )
    tokens = list(question) + list(context)
    exact: dict[tuple[str, int], list[int]] = {}
    for (i, j), rel in cells.items():
        if rel == "Exact-Table-Match":
            exact.setdefault(("table", table_pos[j]), []).append(i)
        elif rel == "Exact-Column-Match":
            exact.setdefault(("column", column_pos[j]), []).append(i)
    for (family, elem), positions in exact.items():
        name = tables[elem] if family == "table" else columns[elem].name
        for run in _runs(sorted(positions), len(question)):
            require(len(run) % len(name) == 0, f"{family} {elem}: n-gram width {len(run)}")
            for start in range(0, len(run), len(name)):
                gram = [tokens[p] for p in run[start : start + len(name)]]
                require(
                    all(same_word(a, b) for a, b in zip(gram, name)),
                    f"{family} {elem}: n-gram {gram} does not match {list(name)}",
                )


# -- encoder ---------------------------------------------------------------

def encoded_states(states, n_question: int, n_context: int, n_schema: int) -> None:
    """Aggregation identity, exactly; unit-normalized rows at init."""
    u = n_question + n_context
    require(states.h_link.shape[0] == u + n_schema, "link stream length")
    require(states.h_rw.shape[0] == u, "rewrite stream length")
    require(
        np.array_equal(states.h_final[:u], states.h_link[:u] + states.h_rw),
        "utterance rows are not h_link + h_rw",
    )
    require(np.array_equal(states.h_final[u:], states.h_link[u:]), "schema rows are not h_link")
    for label, rows in (("h_link", states.h_link), ("h_rw", states.h_rw)):
        require(np.abs(rows.mean(axis=1)).max() < 1e-9, f"{label} row mean not 0")
        require(np.abs(rows.var(axis=1) - 1.0).max() < 1e-4, f"{label} row variance not 1")


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def init_layer_norms(params) -> None:
    """The unit-row check above holds only at init: gain 1, bias 0."""
    for layer in (*params.link_layers, *params.rw_layers):
        require(
            np.all(layer.ln2_gain == 1.0) and np.all(layer.ln2_bias == 0.0),
            "final layer norm is not at init",
        )


def layer_against_oracle(rat_encoder, seed: int) -> None:
    """One small relation-aware layer against the step-by-step oracle in
    ``tests/oracles.py`` (1e-12), and exact permutation equivariance."""
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles

    rng = np.random.default_rng(seed)
    n, vocab = 6, 5
    layer = rat_encoder.random_layer_params(rng, d_x=8, heads=2, d_ff=12, relation_count=vocab)
    x = rng.standard_normal((n, 8))
    relations = rng.integers(0, vocab, size=(n, n))
    y, _ = rat_encoder.rat_layer_forward(x, relations, layer)
    expected = np.array(oracles.reference_layer_outputs(x.tolist(), layer, relations.tolist()))
    require(np.abs(y - expected).max() <= 1e-12, "layer differs from the oracle by more than 1e-12")
    perm = rng.permutation(n)
    y_perm, _ = rat_encoder.rat_layer_forward(x[perm], relations[np.ix_(perm, perm)], layer)
    require(np.array_equal(y_perm, y[perm]), "layer is not exactly permutation-equivariant")
