from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import generators
import oracles
from conftest import FLIGHTS_CONTEXT, FLIGHTS_QUESTION, FLIGHTS_REWRITE
from qurg.rewrite_diff import (
    DEFAULT_POLICY,
    EditConflictError,
    EditOp,
    EditSpan,
    Interaction,
    MatchPolicy,
    OpKind,
    RewriteRelation,
    SpanKind,
    build_from_interaction,
    build_rewrite_matrix,
    extract_edit_ops,
    lcs,
    tag_edits,
    token_seq,
)


def span_tokens(spans: list[EditSpan], seq: tuple[str, ...]) -> list[list[str]]:
    return [list(seq[s.start : s.end_exclusive]) for s in spans]


class TestMatchPolicy:
    def test_plural_matches(self):
        policy = MatchPolicy()
        assert policy.matches("city", "cities")
        assert policy.matches("cities", "city")
        assert policy.matches("flight", "flights")
        assert policy.matches("movie", "movies")
        assert policy.matches("Which", "which")
        assert not policy.matches("city", "flight")
        # Not transitive: "cities" matches both, "citie" and "city" do not match.
        assert policy.matches("cities", "citie") and policy.matches("cities", "city")
        assert not policy.matches("citie", "city")

    def test_switches(self):
        assert not MatchPolicy(plural_stem=False).matches("city", "cities")
        assert not MatchPolicy(lowercase=False).matches("Which", "which")
        assert MatchPolicy(lowercase=False).matches("which", "which")

    def test_degenerate_tokens(self):
        policy = MatchPolicy()
        assert policy.matches("s", "s")
        assert not policy.matches("s", "x")


class TestTokenSeq:
    def test_rejects_empty_token(self):
        with pytest.raises(ValueError):
            token_seq(["ok", ""])

    def test_rejects_whitespace(self):
        with pytest.raises(ValueError):
            token_seq(["two words"])

    def test_rejects_bare_string(self):
        # A string is iterable, but its characters are not its tokens.
        with pytest.raises(ValueError, match="got the string 'name'"):
            token_seq("name")

    def test_whitespace_test_agrees_with_isspace_on_every_code_point(self):
        # token_seq tests ``tok.split() != [tok]``; it must reject exactly the
        # tokens holding a character for which str.isspace() is true.
        for cp in range(0x110000):
            ch = chr(cp)
            for tok in (ch, f"a{ch}b"):
                has_space = any(c.isspace() for c in tok)
                assert (tok.split() != [tok]) == has_space, hex(cp)
        for tok in ("\u00a0", "x\u3000", "\x1c"):
            with pytest.raises(ValueError, match="^token contains whitespace: "):
                token_seq([tok])
        assert token_seq(["\u200b", "x\ufeff"]) == ("\u200b", "x\ufeff")


class TestLcs:
    def test_paper_example(self):
        pairs = lcs(FLIGHTS_QUESTION, FLIGHTS_REWRITE)
        aligned = [FLIGHTS_QUESTION[i] for i, _ in pairs]
        assert aligned == ["which", "has", "the", "most", "?"]
        assert pairs == ((0, 0), (2, 2), (3, 3), (4, 4), (5, 7))

    def test_identity(self):
        assert lcs(("x", "y"), ("x", "y")) == ((0, 0), (1, 1))

    def test_disjoint(self):
        assert lcs(("a", "b"), ("c", "d")) == ()

    def test_empty_inputs(self):
        assert lcs((), ("a",)) == ()
        assert lcs((), ()) == ()

    def test_matches_bruteforce_and_dp(self):
        rng = random.Random(202)
        alphabet = ["a", "b", "c", "d"]
        for _ in range(60):
            a = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
            b = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
            got = len(lcs(a, b))
            assert got == oracles.dp_lcs_length(a, b)
            assert got == oracles.enumerate_lcs_length(a, b)

    def test_leftmost_tiebreak(self):
        rng = random.Random(7)
        alphabet = ["a", "b"]
        for _ in range(80):
            a = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
            b = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
            assert lcs(a, b) == oracles.leftmost_max_alignment(a, b)
        # Case and plural variants, where matching is not transitive.
        for policy in generators.POLICIES:
            for _ in range(40):
                a = generators.random_tokens(rng, 0, 6, generators.VARIANT_VOCAB)
                b = generators.random_tokens(rng, 0, 6, generators.VARIANT_VOCAB)
                expected = oracles.leftmost_max_alignment(a, b, policy.matches)
                assert lcs(a, b, policy) == expected

    def test_strictly_increasing_and_policy_equal(self):
        rng = random.Random(11)
        for _ in range(50):
            inter, rewrite = generators.random_triple(rng)
            pairs = lcs(inter.question, rewrite)
            for (i1, j1), (i2, j2) in zip(pairs, pairs[1:]):
                assert i1 < i2 and j1 < j2
            for i, j in pairs:
                assert DEFAULT_POLICY.matches(inter.question[i], rewrite[j])


class TestTagEdits:
    def test_paper_example(self):
        del_spans, add_spans = tag_edits(FLIGHTS_QUESTION, FLIGHTS_REWRITE)
        assert span_tokens(del_spans, FLIGHTS_QUESTION) == [["one"]]
        assert span_tokens(add_spans, FLIGHTS_REWRITE) == [["city"], ["arriving", "flights"]]

    def test_identical(self):
        del_spans, add_spans = tag_edits(("a", "b"), ("a", "b"))
        assert del_spans == [] and add_spans == []

    def test_disjoint_merge(self):
        del_spans, add_spans = tag_edits(("a",), ("b", "c"))
        assert span_tokens(del_spans, ("a",)) == [["a"]]
        assert span_tokens(add_spans, ("b", "c")) == [["b", "c"]]

    def test_span_kinds_and_sides(self):
        del_spans, add_spans = tag_edits(FLIGHTS_QUESTION, FLIGHTS_REWRITE)
        assert all(s.kind is SpanKind.DEL and s.side == "question" for s in del_spans)
        assert all(s.kind is SpanKind.ADD and s.side == "rewrite" for s in add_spans)


class TestExtractEditOps:
    def test_paper_example(self):
        ops = extract_edit_ops(FLIGHTS_QUESTION, FLIGHTS_CONTEXT, FLIGHTS_REWRITE)
        assert [op.kind for op in ops] == [OpKind.SUBSTITUTE, OpKind.INSERT]
        sub, ins = ops
        assert FLIGHTS_CONTEXT[sub.context_range[0] : sub.context_range[1]] == ("cities",)
        assert sub.question_range == (1, 2)
        assert FLIGHTS_CONTEXT[ins.context_range[0] : ins.context_range[1]] == (
            "arriving",
            "flights",
        )
        assert ins.question_anchor == 5  # before "?"

    def test_no_edits(self):
        assert extract_edit_ops(FLIGHTS_QUESTION, FLIGHTS_CONTEXT, FLIGHTS_QUESTION) == []

    def test_absent_span_dropped(self):
        rewrite = ("which", "purple", "unicorn", "has", "the", "most", "?")
        ops = extract_edit_ops(FLIGHTS_QUESTION, FLIGHTS_CONTEXT, rewrite)
        assert ops == []

    def test_occurrence_choice(self):
        context = ("find", "cities", "then", "cities", "again")
        question = ("which", "one", "?")
        rewrite = ("which", "city", "?")
        last = extract_edit_ops(question, context, rewrite, occurrence="last")
        first = extract_edit_ops(question, context, rewrite, occurrence="first")
        assert last[0].context_range == (3, 4)
        assert first[0].context_range == (1, 2)

    def test_append_at_end_uses_virtual_anchor(self):
        question = ("show", "names")
        context = ("of", "all", "cities")
        rewrite = ("show", "names", "of", "all", "cities")
        ops = extract_edit_ops(question, context, rewrite)
        assert len(ops) == 1
        assert ops[0].kind is OpKind.INSERT
        assert ops[0].question_anchor == len(question)

    def test_bad_occurrence_rejected(self):
        with pytest.raises(ValueError):
            extract_edit_ops(("a",), ("b",), ("c",), occurrence="middle")


class TestBuildRewriteMatrix:
    def test_empty_ops(self):
        matrix = build_rewrite_matrix([], ("a", "b", "c", "d", "e"), ("x", "y", "z"))
        assert matrix.size == 8
        assert matrix.cells == {}

    def test_two_op_cell_pattern(self):
        # Context x1..x5, question x6..x8: one substitute pair mirrored once,
        # one two-token insert mirrored twice.
        context = ("x1", "x2", "x3", "x4", "x5")
        question = ("x6", "x7", "x8")
        ops = [
            EditOp(OpKind.SUBSTITUTE, (1, 2), question_anchor=1, question_range=(1, 2)),
            EditOp(OpKind.INSERT, (3, 5), question_anchor=2),
        ]
        matrix = build_rewrite_matrix(ops, context, question)
        assert matrix.cells == {
            (1, 6): RewriteRelation.C_Q_SUB,
            (6, 1): RewriteRelation.Q_C_SUB,
            (3, 7): RewriteRelation.C_Q_INS,
            (7, 3): RewriteRelation.Q_C_INS,
            (4, 7): RewriteRelation.C_Q_INS,
            (7, 4): RewriteRelation.Q_C_INS,
        }

    def test_single_pair_substitute(self):
        ops = [EditOp(OpKind.SUBSTITUTE, (0, 1), question_anchor=0, question_range=(0, 1))]
        matrix = build_rewrite_matrix(ops, ("c",), ("q",))
        assert len(matrix.cells) == 2

    def test_conflicting_ops_rejected(self):
        ops = [
            EditOp(OpKind.SUBSTITUTE, (0, 1), question_anchor=0, question_range=(0, 1)),
            EditOp(OpKind.INSERT, (0, 1), question_anchor=0),
        ]
        with pytest.raises(EditConflictError):
            build_rewrite_matrix(ops, ("c",), ("q", "r"))

    def test_out_of_bounds_rejected(self):
        ops = [EditOp(OpKind.INSERT, (0, 4), question_anchor=0)]
        with pytest.raises(ValueError):
            build_rewrite_matrix(ops, ("c",), ("q",))

    def test_end_anchor_appends_in_last_column(self):
        ops = [EditOp(OpKind.INSERT, (0, 1), question_anchor=2)]
        matrix = build_rewrite_matrix(ops, ("c",), ("q", "r"))
        assert matrix.cells == {
            (0, 1 + 1): RewriteRelation.C_Q_APP,
            (1 + 1, 0): RewriteRelation.Q_C_APP,
        }

    @pytest.mark.parametrize("anchors", [(1, 2), (2, 1), (1, 2, 1), (2, 1, 2)])
    def test_insert_before_last_and_append_share_a_cell(self, anchors):
        ops = [EditOp(OpKind.INSERT, (0, 1), question_anchor=a) for a in anchors]
        matrix = build_rewrite_matrix(ops, ("c",), ("q", "r"))
        assert matrix.cells == {
            (0, 1 + 1): RewriteRelation.C_Q_INS_APP,
            (1 + 1, 0): RewriteRelation.Q_C_INS_APP,
        }

    def test_substitute_and_append_conflict(self):
        ops = [
            EditOp(OpKind.SUBSTITUTE, (0, 1), question_anchor=1, question_range=(1, 2)),
            EditOp(OpKind.INSERT, (0, 1), question_anchor=2),
        ]
        with pytest.raises(EditConflictError, match=r"cell \(0,2\) assigned both C-Q-Sub and C-Q-App"):
            build_rewrite_matrix(ops, ("c",), ("q", "r"))


class TestBuildFromInteraction:
    def test_flights_golden(self, flights_interaction):
        matrix = build_from_interaction(flights_interaction)
        n_ctx = len(FLIGHTS_CONTEXT)
        assert len(matrix.cells) == 6
        assert matrix.relation_at(10, n_ctx + 1) is RewriteRelation.C_Q_SUB
        assert matrix.relation_at(n_ctx + 1, 10) is RewriteRelation.Q_C_SUB
        for ctx_idx in (2, 3):
            assert matrix.relation_at(ctx_idx, n_ctx + 5) is RewriteRelation.C_Q_INS
            assert matrix.relation_at(n_ctx + 5, ctx_idx) is RewriteRelation.Q_C_INS

    def test_identity_rewrite_all_none(self, flights_interaction):
        matrix = build_from_interaction(flights_interaction, flights_interaction.question)
        assert matrix.cells == {}

    def test_equals_manual_composition(self):
        rng = random.Random(23)
        for _ in range(40):
            inter, rewrite = generators.random_triple(rng)
            manual_ops = extract_edit_ops(inter.question, inter.flat_context(), rewrite)
            manual = build_rewrite_matrix(manual_ops, inter.flat_context(), inter.question)
            assert build_from_interaction(inter, rewrite) == manual

    def test_requires_some_rewrite(self):
        inter = Interaction((), ("q",))
        with pytest.raises(ValueError):
            build_from_interaction(inter)


def assert_matrix_invariants(matrix) -> None:
    n_ctx = matrix.context_size
    mirror = {
        RewriteRelation.C_Q_SUB: RewriteRelation.Q_C_SUB,
        RewriteRelation.Q_C_SUB: RewriteRelation.C_Q_SUB,
        RewriteRelation.C_Q_INS: RewriteRelation.Q_C_INS,
        RewriteRelation.Q_C_INS: RewriteRelation.C_Q_INS,
        RewriteRelation.C_Q_APP: RewriteRelation.Q_C_APP,
        RewriteRelation.Q_C_APP: RewriteRelation.C_Q_APP,
        RewriteRelation.C_Q_INS_APP: RewriteRelation.Q_C_INS_APP,
        RewriteRelation.Q_C_INS_APP: RewriteRelation.C_Q_INS_APP,
    }
    context_row = (
        RewriteRelation.C_Q_SUB, RewriteRelation.C_Q_INS,
        RewriteRelation.C_Q_APP, RewriteRelation.C_Q_INS_APP,
    )
    last_column = (
        RewriteRelation.C_Q_APP, RewriteRelation.Q_C_APP,
        RewriteRelation.C_Q_INS_APP, RewriteRelation.Q_C_INS_APP,
    )
    for (i, j), rel in matrix.cells.items():
        in_context = (i < n_ctx, j < n_ctx)
        assert in_context in ((True, False), (False, True)), "block purity violated"
        if rel in context_row:
            assert i < n_ctx <= j
        else:
            assert j < n_ctx <= i
        if rel in last_column:
            assert max(i, j) == matrix.size - 1, "append outside the last column"
        assert matrix.cells.get((j, i)) is mirror[rel], "mirror cell missing"


class TestInvariants:
    def test_symmetry_and_purity_random(self):
        rng = random.Random(31)
        for _ in range(150):
            inter, rewrite = generators.random_triple(rng)
            assert_matrix_invariants(build_from_interaction(inter, rewrite))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_symmetry_and_purity_hypothesis(self, data):
        words = st.sampled_from(generators.VOCAB)
        seqs = st.lists(words, min_size=1, max_size=6).map(tuple)
        turns = data.draw(st.lists(seqs, min_size=1, max_size=2).map(tuple))
        question = data.draw(seqs)
        rewrite = data.draw(seqs)
        matrix = build_from_interaction(Interaction(turns, question), rewrite)
        assert_matrix_invariants(matrix)

    def test_idempotence(self):
        rng = random.Random(37)
        for _ in range(50):
            inter, _ = generators.random_triple(rng)
            matrix = build_from_interaction(inter, inter.question)
            assert matrix.cells == {}


class TestInteraction:
    def test_turn_index(self, flights_interaction):
        assert flights_interaction.turn_index == 2

    def test_question_required(self):
        with pytest.raises(ValueError):
            Interaction((), ())

    def test_flat_context_order(self):
        inter = Interaction((("a", "b"), ("c",)), ("q",))
        assert inter.flat_context() == ("a", "b", "c")
        assert inter.turn_lengths() == (2, 1)
