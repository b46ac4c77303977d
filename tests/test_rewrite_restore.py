from __future__ import annotations

import random
from collections import Counter, defaultdict

import pytest

import generators
import oracles
from conftest import FLIGHTS_CONTEXT, FLIGHTS_QUESTION
from qurg.rewrite_diff import (
    RewriteEditMatrix,
    RewriteRelation,
    build_from_interaction,
    build_rewrite_matrix,
    extract_edit_ops,
)
from qurg.rewrite_restore import MalformedMatrixError, restore


def _restore(matrix: RewriteEditMatrix) -> tuple[str, ...]:
    return restore(matrix.question_tokens, matrix.context_tokens, matrix).tokens


def random_edit_matrix(rng: random.Random) -> RewriteEditMatrix:
    """A valid hand-built matrix.  Each context row substitutes for a random
    subset of the question, often non-contiguous and overlapping other
    rows', or repeats the target set of the row above, and inserts before
    a few random anchors, which rows share."""
    n_ctx, n_q = rng.randint(1, 7), rng.randint(1, 7)
    context = tuple(f"c{i}" for i in range(n_ctx))
    question = tuple(f"q{j}" for j in range(n_q))
    cells: dict[tuple[int, int], RewriteRelation] = {}
    targets: set[int] = set()
    for i in range(n_ctx):
        roll = rng.random()
        if roll < 0.3:
            targets = {j for j in range(n_q) if rng.random() < 0.5}
        elif roll < 0.5:
            targets = set()
        # otherwise the row above's target set is repeated
        anchors = {rng.randrange(n_q) for _ in range(rng.randint(0, 2))} - targets
        for j in targets:
            cells[(i, n_ctx + j)] = RewriteRelation.C_Q_SUB
            cells[(n_ctx + j, i)] = RewriteRelation.Q_C_SUB
        for j in anchors:
            cells[(i, n_ctx + j)] = RewriteRelation.C_Q_INS
            cells[(n_ctx + j, i)] = RewriteRelation.Q_C_INS
    return RewriteEditMatrix(context, question, cells)


class TestRecoverOps:
    """Reading edit operations back out of a matrix."""

    def test_roundtrip_identity_on_canonical_ops(self):
        rng = random.Random(5)
        for idx in range(60):
            ex = generators.make_splice_example(rng, idx)
            inter = ex.as_interaction()
            context = inter.flat_context()
            ops = extract_edit_ops(inter.question, context, ex.rewrite)
            matrix = build_rewrite_matrix(ops, context, inter.question)
            assert _restore(matrix) == oracles.replay_ops(inter.question, context, ops)

    def test_symmetry_violation_detected(self):
        cells = {(0, 2): RewriteRelation.C_Q_SUB}  # mirror missing
        matrix = RewriteEditMatrix(("a", "b"), ("q",), cells)
        with pytest.raises(MalformedMatrixError):
            _restore(matrix)

    def test_mismatched_mirror_type_detected(self):
        cells = {
            (0, 2): RewriteRelation.C_Q_SUB,
            (2, 0): RewriteRelation.Q_C_INS,
        }
        matrix = RewriteEditMatrix(("a", "b"), ("q",), cells)
        with pytest.raises(MalformedMatrixError):
            _restore(matrix)

    def test_block_violation_detected(self):
        # a context-row relation placed inside the context block
        cells = {
            (0, 1): RewriteRelation.C_Q_SUB,
            (1, 0): RewriteRelation.Q_C_SUB,
        }
        matrix = RewriteEditMatrix(("a", "b"), ("q",), cells)
        with pytest.raises(MalformedMatrixError):
            _restore(matrix)


class TestRestore:
    def test_flights_example(self, flights_interaction):
        matrix = build_from_interaction(flights_interaction)
        restored = restore(FLIGHTS_QUESTION, FLIGHTS_CONTEXT, matrix)
        # Context surface form "cities" comes back, not the rewrite's "city":
        # restoration is bounded by what the matrix stores.
        assert restored.tokens == tuple(
            "which cities has the most arriving flights ?".split()
        )
        assert restored.text() == "which cities has the most arriving flights ?"

    def test_all_none_is_identity(self):
        matrix = RewriteEditMatrix(("a", "b"), ("q", "r"), {})
        assert restore(("q", "r"), ("a", "b"), matrix).tokens == ("q", "r")

    def test_exact_roundtrip_on_splice_corpus(self):
        rng = random.Random(9)
        for idx in range(60):
            ex = generators.make_splice_example(rng, idx)
            inter = ex.as_interaction()
            matrix = build_from_interaction(inter, ex.rewrite)
            restored = restore(inter.question, inter.flat_context(), matrix)
            assert restored.tokens == ex.rewrite

    def test_conservation(self):
        rng = random.Random(13)
        for _ in range(80):
            inter, rewrite = generators.random_triple(rng)
            matrix = build_from_interaction(inter, rewrite)
            restored = restore(inter.question, inter.flat_context(), matrix)
            allowed = set(inter.question) | set(inter.flat_context())
            assert set(restored.tokens) <= allowed
            assert restored.tokens  # question is non-empty, so is the result

    def test_inserts_at_shared_anchor_in_context_order(self):
        context = ("u", "v", "x", "y")
        question = ("q0", "q1")
        cells = {}
        for ci in (0, 2):  # two one-token inserts before q1, non-adjacent in context
            cells[(ci, 4 + 1)] = RewriteRelation.C_Q_INS
            cells[(4 + 1, ci)] = RewriteRelation.Q_C_INS
        matrix = RewriteEditMatrix(context, question, cells)
        restored = restore(question, context, matrix)
        assert restored.tokens == ("q0", "u", "x", "q1")

    def test_token_mismatch_rejected(self):
        matrix = RewriteEditMatrix(("a",), ("q",), {})
        with pytest.raises(ValueError):
            restore(("other",), ("a",), matrix)

    def test_substitute_before_insert_at_same_index(self):
        # Hand-built matrix: substitute q0 and insert before q0.
        context = ("s", "i")
        question = ("q0", "q1")
        cells = {
            (0, 2): RewriteRelation.C_Q_SUB,
            (2, 0): RewriteRelation.Q_C_SUB,
            (1, 2): RewriteRelation.C_Q_INS,
            (2, 1): RewriteRelation.Q_C_INS,
        }
        matrix = RewriteEditMatrix(context, question, cells)
        restored = restore(question, context, matrix)
        assert restored.tokens == ("i", "s", "q1")

    def test_matches_op_replay_on_random_matrices(self):
        rng = random.Random(17)
        seen = dict.fromkeys(
            ("non-contiguous", "overlapping", "equal adjacent rows", "shared anchor"), 0
        )
        for _ in range(2000):
            matrix = random_edit_matrix(rng)
            question, context = matrix.question_tokens, matrix.context_tokens
            assert _restore(matrix) == oracles.reference_restore(question, context, matrix)
            rows: dict[int, set[int]] = defaultdict(set)  # row -> C-Q-Sub columns
            anchors: Counter[int] = Counter()
            for (i, j), rel in matrix.cells.items():
                if rel is RewriteRelation.C_Q_SUB:
                    rows[i].add(j)
                elif rel is RewriteRelation.C_Q_INS:
                    anchors[j] += 1
            seen["non-contiguous"] += any(max(t) - min(t) >= len(t) for t in rows.values())
            seen["overlapping"] += sum(map(len, rows.values())) > len(set().union(*rows.values()))
            seen["equal adjacent rows"] += any(rows.get(i - 1) == t for i, t in rows.items())
            seen["shared anchor"] += any(count > 1 for count in anchors.values())
        assert min(seen.values()) >= 100, seen
