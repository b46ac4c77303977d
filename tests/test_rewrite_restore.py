from __future__ import annotations

import random
from collections import Counter, defaultdict

import pytest

import generators
import oracles
from conftest import FLIGHTS_CONTEXT, FLIGHTS_QUESTION
from qurg.rewrite_diff import (
    Interaction,
    OpKind,
    RewriteEditMatrix,
    RewriteRelation,
    build_from_interaction,
    build_rewrite_matrix,
    extract_edit_ops,
)
from qurg.rewrite_diff import MalformedMatrixError
from qurg.rewrite_restore import restore


def _restore(matrix: RewriteEditMatrix) -> tuple[str, ...]:
    return restore(matrix.question_tokens, matrix.context_tokens, matrix).tokens


def random_edit_matrix(rng: random.Random) -> RewriteEditMatrix:
    """A valid hand-built matrix.  Each context row substitutes for a random
    subset of the question, often non-contiguous and overlapping other
    rows', or repeats the target set of the row above, inserts before a
    few random anchors, which rows share, and may append after the last
    question token, also when it inserts before that token."""
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
        if n_q - 1 not in targets and rng.random() < 0.3:
            last = n_ctx + n_q - 1
            if n_q - 1 in anchors:
                cells[(i, last)] = RewriteRelation.C_Q_INS_APP
                cells[(last, i)] = RewriteRelation.Q_C_INS_APP
            else:
                cells[(i, last)] = RewriteRelation.C_Q_APP
                cells[(last, i)] = RewriteRelation.Q_C_APP
    return RewriteEditMatrix(context, question, cells)


class TestRecoverOps:
    """Reading edit operations back out of a matrix, and the matrices the
    constructor refuses to make."""

    def test_roundtrip_identity_on_canonical_ops(self):
        rng = random.Random(5)
        for idx in range(60):
            ex = generators.make_splice_example(rng, idx)
            inter = ex.interaction()
            context = inter.flat_context()
            ops = extract_edit_ops(inter.question, context, ex.rewrite)
            matrix = build_rewrite_matrix(ops, context, inter.question)
            assert _restore(matrix) == oracles.replay_ops(inter.question, context, ops)

    def test_symmetry_violation_detected(self):
        cells = {(0, 2): RewriteRelation.C_Q_SUB}  # mirror missing
        with pytest.raises(MalformedMatrixError):
            RewriteEditMatrix(("a", "b"), ("q",), cells)

    def test_mismatched_mirror_type_detected(self):
        cells = {
            (0, 2): RewriteRelation.C_Q_SUB,
            (2, 0): RewriteRelation.Q_C_INS,
        }
        with pytest.raises(MalformedMatrixError):
            RewriteEditMatrix(("a", "b"), ("q",), cells)

    def test_block_violation_detected(self):
        # a context-row relation placed inside the context block
        cells = {
            (0, 1): RewriteRelation.C_Q_SUB,
            (1, 0): RewriteRelation.Q_C_SUB,
        }
        with pytest.raises(MalformedMatrixError):
            RewriteEditMatrix(("a", "b"), ("q",), cells)

    @pytest.mark.parametrize(
        "rel", [RewriteRelation.C_Q_APP, RewriteRelation.C_Q_INS_APP]
    )
    def test_append_outside_last_column_detected(self, rel):
        cells = {(0, 1): rel, (1, 0): rel.mirror}
        with pytest.raises(MalformedMatrixError, match="outside the last question column"):
            RewriteEditMatrix(("a",), ("q", "r"), cells)

    @pytest.mark.parametrize(
        "rel", [RewriteRelation.C_Q_APP, RewriteRelation.C_Q_INS_APP]
    )
    def test_append_with_insert_mirror_detected(self, rel):
        cells = {(0, 2): rel, (2, 0): RewriteRelation.Q_C_INS}
        with pytest.raises(MalformedMatrixError, match="lacks its mirror"):
            RewriteEditMatrix(("a",), ("q", "r"), cells)


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
            inter = ex.interaction()
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

    def test_append_after_last_token(self):
        inter = Interaction((("from", "boston"),), ("show", "the", "flights"))
        rewrite = ("show", "the", "flights", "from", "boston")
        matrix = build_from_interaction(inter, rewrite)
        assert restore(inter.question, inter.flat_context(), matrix).tokens == rewrite

    def test_insert_before_last_token_and_append_keep_both_copies(self):
        inter = Interaction((("boston",),), ("flights",))
        rewrite = ("boston", "flights", "boston")
        matrix = build_from_interaction(inter, rewrite)
        assert matrix.cells == {
            (0, 1): RewriteRelation.C_Q_INS_APP,
            (1, 0): RewriteRelation.Q_C_INS_APP,
        }
        assert restore(inter.question, inter.flat_context(), matrix).tokens == rewrite

    def test_appends_after_substitute_at_last_token(self):
        # "a" substitutes for q1, "b" is inserted before it, "c" and "d"
        # are appended; "d" is also inserted before q1.
        context = ("a", "b", "c", "d")
        question = ("q0", "q1")
        cells = {
            (0, 5): RewriteRelation.C_Q_SUB,
            (1, 5): RewriteRelation.C_Q_INS,
            (2, 5): RewriteRelation.C_Q_APP,
            (3, 5): RewriteRelation.C_Q_INS_APP,
        }
        cells.update({(j, i): rel.mirror for (i, j), rel in list(cells.items())})
        matrix = RewriteEditMatrix(context, question, cells)
        assert restore(question, context, matrix).tokens == ("q0", "b", "d", "a", "c", "d")

    def test_matches_op_replay_on_random_triples(self):
        # Appends come from the triples whose rewrite ends in context words.
        rng = random.Random(7)
        appends = 0
        for _ in range(3000):
            inter, rewrite = generators.random_triple(rng)
            context = inter.flat_context()
            ops = extract_edit_ops(inter.question, context, rewrite)
            matrix = build_rewrite_matrix(ops, context, inter.question)
            assert restore(inter.question, context, matrix).tokens == oracles.replay_ops(
                inter.question, context, ops
            ), (inter, rewrite)
            appends += any(op.question_anchor == len(inter.question) for op in ops
                           if op.kind is OpKind.INSERT)
        assert appends >= 300

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
            (
                "non-contiguous", "overlapping", "equal adjacent rows", "shared anchor",
                "append", "insert and append",
            ),
            0,
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
            relations = set(matrix.cells.values())
            seen["append"] += RewriteRelation.C_Q_APP in relations
            seen["insert and append"] += RewriteRelation.C_Q_INS_APP in relations
        assert min(seen.values()) >= 100, seen
