from __future__ import annotations

import copy
import json
import pickle
import random
import re

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
    RewriteEditMatrix,
    RewriteRelation,
    SpanKind,
    _find_context_occurrence,
    _Tokens,
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

    @pytest.mark.parametrize(
        "tokens",
        ["name", "", ["a", 5], [None], ("a", b"b"), ["a", ""], [""], ["a", "b c"], ["a\tb"],
         ["a", "\x1c"], ["x\u3000"], [" a"], ["a "], ["a", "b", "c d", ""], ("a b",)],
        ids=repr,
    )
    def test_errors_name_the_first_bad_token_as_before(self, tokens):
        with pytest.raises(ValueError) as expected:
            oracles.reference_token_seq(tokens)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            token_seq(tokens)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(alphabet="ab \t\x1c\u3000\u0130", max_size=3)
                    | st.integers() | st.none(), max_size=6))
    def test_agrees_with_the_token_loop(self, tokens):
        try:
            expected = oracles.reference_token_seq(tokens)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                token_seq(tokens)
        else:
            checked = token_seq(tokens)
            assert checked == expected
            assert token_seq(checked) is checked

    def test_checked_sequence_is_a_tuple_to_its_readers(self):
        checked = token_seq(["which", "one", "?"])
        plain = ("which", "one", "?")
        assert type(checked) is _Tokens
        assert checked == plain and hash(checked) == hash(plain)
        assert repr(checked) == repr(plain)
        assert json.dumps({"t": checked}) == '{"t": ["which", "one", "?"]}'
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(checked, protocol))
            assert type(again) is _Tokens and again == plain
        for again in (copy.copy(checked), copy.deepcopy(checked)):
            assert type(again) is _Tokens and again == plain
        # A slice or a sum is a plain tuple, so it is checked when it is used.
        assert type(checked[1:]) is tuple and type(checked + checked) is tuple
        with pytest.raises(ValueError, match="^token contains whitespace: 'one two'$"):
            token_seq((*checked[:1], "one two"))


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


# Folding collisions ("cities" matches "citie" and "city", which do not
# match each other), case variants and one-letter tokens; in sequences of up
# to 24 tokens from 13 words, repeated tokens are the rule.
collision_words = st.sampled_from(
    ["city", "cities", "citie", "City", "CITIES", "s", "S", "ies", "y", "ys", "bus", "buss", "a"]
)
policies = st.sampled_from(generators.POLICIES)


# The collision words and the folding edge cases: the empty token, a lone
# "s", a bare "ies", letters whose lower case is longer ("\u0130") or
# depends on position ("\u03a3").
form_words = collision_words | st.sampled_from(
    ["", "s", "ies", "IES", "\u0130", "\u0130S", "\u03a3\u03a3"]
)


class TestFormIndex:
    """The bitmask matchers against the table-filling ones they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(collision_words, max_size=24), st.lists(collision_words, max_size=24),
           policies)
    def test_lcs_matches_table_oracle(self, a, b, policy):
        assert lcs(a, b, policy) == oracles.reference_lcs(a, b, policy)

    def test_lcs_matches_table_oracle_on_long_pairs(self):
        rng = random.Random(16)
        for policy in generators.POLICIES:
            for _ in range(10):
                a = generators.random_tokens(rng, 60, 90, generators.VARIANT_VOCAB)
                b = generators.random_tokens(rng, 60, 90, generators.VARIANT_VOCAB)
                assert lcs(a, b, policy) == oracles.reference_lcs(a, b, policy)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(collision_words, max_size=24), st.lists(collision_words, min_size=1,
           max_size=4), policies, st.sampled_from(["last", "first"]))
    def test_grounding_matches_scan_oracle(self, context, span, policy, occurrence):
        got = _find_context_occurrence(
            policy._form_index(context), policy.fold(span), occurrence
        )
        expected = oracles.reference_ground(
            oracles.reference_fold(policy, context), oracles.reference_fold(policy, span),
            occurrence,
        )
        assert got == expected

    @staticmethod
    def _assert_folds_as_reference(policy, tokens, folded):
        assert tuple(map(frozenset, folded)) == oracles.reference_fold(policy, tokens)
        assert all(len(set(forms)) == len(forms) for forms in folded)

    @settings(max_examples=300, deadline=None)
    @given(collision_words | st.text(alphabet="sSiIeEyY\u0130\u03a3", min_size=1, max_size=6)
           | st.text(min_size=1, max_size=6), policies)
    def test_forms_match_set_building_oracle(self, token, policy):
        self._assert_folds_as_reference(policy, [token], [policy.forms(token)])

    @pytest.mark.parametrize("policy", generators.POLICIES, ids=repr)
    def test_fold_edge_tokens(self, policy):
        # "\u0130" lowercases to two characters; "" must fold, not raise.
        tokens = ["", "s", "ies", "IES", "\u0130", "\u0130S", "Cities"]
        assert policy.fold(tokens) == tuple(map(policy.forms, tokens))
        self._assert_folds_as_reference(policy, tokens, policy.fold(tokens))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(form_words | st.text(max_size=5), max_size=24), policies)
    def test_fold_is_each_tokens_forms(self, tokens, policy):
        assert policy.fold(tokens) == tuple(map(policy.forms, tokens))
        self._assert_folds_as_reference(policy, tokens, policy.fold(tokens))
        assert policy.fold(iter(tokens)) == policy.fold(tokens)


class TestFormRepresentation:
    """The matchers read each sequence's forms from ``fold`` or as a form
    index, which must agree with the folded forms; each sequence is folded
    once, and a reused schema's names not at all."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(form_words, max_size=24), policies)
    def test_form_index_is_the_folded_masks(self, tokens, policy):
        expected = oracles.reference_form_masks(oracles.reference_fold(policy, tokens))
        assert policy._form_index(tokens) == expected
        assert policy._form_index(iter(tokens)) == policy._form_index(tokens)

    @staticmethod
    def _count_fold(monkeypatch) -> list:
        calls, fold = [], MatchPolicy.fold

        def counting(self, tokens):
            calls.append(tokens)
            return fold(self, tokens)

        monkeypatch.setattr(MatchPolicy, "fold", counting)
        return calls

    def test_build_from_interaction_folds_question_and_rewrite(self, monkeypatch):
        calls = self._count_fold(monkeypatch)
        rng = random.Random(24)
        for policy in generators.POLICIES:
            for _ in range(20):
                inter, rewrite = generators.random_triple(rng)
                calls.clear()
                build_from_interaction(inter, rewrite, policy)
                assert calls == [inter.question, rewrite]

    def test_schema_linking_on_a_reused_schema_folds_no_name(self, monkeypatch, toy_schema):
        from qurg.schema_link import build_schema_link_matrix

        calls = self._count_fold(monkeypatch)
        names = [*toy_schema.tables, *(col.name for col in toy_schema.columns)]
        for policy in generators.POLICIES:
            calls.clear()
            build_schema_link_matrix((), (), toy_schema, policy)
            # The first call under each policy folds each name once for its plan.
            assert calls == [(), (), *names]
        for policy in generators.POLICIES:
            calls.clear()
            build_schema_link_matrix(FLIGHTS_QUESTION, FLIGHTS_CONTEXT, toy_schema, policy)
            assert calls == [FLIGHTS_QUESTION, FLIGHTS_CONTEXT]


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

    @pytest.mark.parametrize(
        "question, rewrite, message",
        [
            ("which cities", ("which",), "got the string 'which cities'"),
            (("which",), ("which", "big city"), "token contains whitespace: 'big city'"),
            (("which", ""), ("which", "a b"), "empty or non-string token: ''"),
        ],
        ids=["bare-string", "whitespace", "question-first"],
    )
    def test_refuses_what_is_not_a_token_sequence(self, question, rewrite, message):
        with pytest.raises(ValueError, match=message):
            tag_edits(question, rewrite)


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

    @pytest.mark.parametrize(
        "question, context, rewrite, message",
        [
            ("which cities", ("cities",), ("which",), "got the string 'which cities'"),
            (("a", "b"), ("c",), "a c", "got the string 'a c'"),
            (("which",), ("big city",), ("which",), "token contains whitespace: 'big city'"),
            (("a", 1), ("",), ("a",), "empty or non-string token: 1"),
            (("a",), ("",), ("a", "b c"), "empty or non-string token: ''"),
        ],
        ids=["question", "rewrite", "context", "question-first", "context-before-rewrite"],
    )
    def test_refuses_what_is_not_a_token_sequence(self, question, context, rewrite, message):
        with pytest.raises(ValueError, match=message):
            extract_edit_ops(question, context, rewrite)
        # The occurrence is checked before the tokens.
        with pytest.raises(ValueError, match="occurrence must be"):
            extract_edit_ops(question, context, rewrite, occurrence="middle")


class TestEditModel:
    @pytest.mark.parametrize(
        "question_range, kind, anchor",
        [((1, 3), OpKind.SUBSTITUTE, 1), ((1, 1), OpKind.INSERT, 1), ((4, 4), OpKind.INSERT, 4)],
        ids=["substitute", "insert", "append-anchor"],
    )
    def test_op_derives_kind_and_anchor(self, question_range, kind, anchor):
        op = EditOp((0, 2), question_range)
        assert (op.kind, op.question_anchor) == (kind, anchor)

    @pytest.mark.parametrize(
        "context_range, question_range", [((2, 2), (0, 1)), ((3, 2), (0, 1)), ((0, 1), (2, 1))]
    )
    def test_op_refuses_empty_context_and_reversed_question_range(
        self, context_range, question_range
    ):
        with pytest.raises(ValueError):
            EditOp(context_range, question_range)

    def test_span_side_follows_kind(self):
        assert EditSpan(SpanKind.ADD, 0, 1).side == "rewrite"
        assert EditSpan(SpanKind.DEL, 0, 1).side == "question"

    @pytest.mark.parametrize("start, end", [(1, 1), (2, 1)])
    def test_empty_span_rejected(self, start, end):
        with pytest.raises(ValueError, match="^edit span must be non-empty$"):
            EditSpan(SpanKind.ADD, start, end)


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
            EditOp((1, 2), (1, 2)),
            EditOp((3, 5), (2, 2)),
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
        ops = [EditOp((0, 1), (0, 1))]
        matrix = build_rewrite_matrix(ops, ("c",), ("q",))
        assert len(matrix.cells) == 2

    def test_conflicting_ops_rejected(self):
        ops = [
            EditOp((0, 1), (0, 1)),
            EditOp((0, 1), (0, 0)),
        ]
        with pytest.raises(EditConflictError):
            build_rewrite_matrix(ops, ("c",), ("q", "r"))

    @pytest.mark.parametrize(
        "context_range, question_range",
        [((-1, 1), (0, 0)), ((0, 4), (0, 0)), ((0, 1), (-1, 1)), ((0, 1), (0, 2))],
        ids=["context-start", "context-end", "question-start", "question-end"],
    )
    def test_out_of_bounds_rejected(self, context_range, question_range):
        ops = [EditOp(context_range, question_range)]
        with pytest.raises(ValueError, match="out of bounds"):
            build_rewrite_matrix(ops, ("c",), ("q",))

    def test_token_is_checked_before_the_ops(self):
        ops = [EditOp((0, 9), (0, 0))]
        with pytest.raises(ValueError, match="^token contains whitespace: 'q r'$"):
            build_rewrite_matrix(ops, ("c",), ("q r",))

    @pytest.mark.parametrize(
        "context_range, question_range",
        [((0, 1), (0.0, 0.0)), ((0, 1), (0, 0.5)), ((0.0, 1), (0, 0))],
        ids=["insert", "substitute", "context"],
    )
    def test_bound_that_is_not_an_integer_rejected(self, context_range, question_range):
        with pytest.raises(TypeError):
            build_rewrite_matrix([EditOp(context_range, question_range)], ("c",), ("q", "r"))

    def test_ops_on_an_empty_question_rejected(self):
        with pytest.raises(ValueError, match="^an empty question cannot host edit operations$"):
            build_rewrite_matrix([EditOp((0, 1), (0, 0))], ("c",), ())

    def test_end_anchor_appends_in_last_column(self):
        ops = [EditOp((0, 1), (2, 2))]
        matrix = build_rewrite_matrix(ops, ("c",), ("q", "r"))
        assert matrix.cells == {
            (0, 1 + 1): RewriteRelation.C_Q_APP,
            (1 + 1, 0): RewriteRelation.Q_C_APP,
        }

    @pytest.mark.parametrize("anchors", [(1, 2), (2, 1), (1, 2, 1), (2, 1, 2)])
    def test_insert_before_last_and_append_share_a_cell(self, anchors):
        ops = [EditOp((0, 1), (a, a)) for a in anchors]
        matrix = build_rewrite_matrix(ops, ("c",), ("q", "r"))
        assert matrix.cells == {
            (0, 1 + 1): RewriteRelation.C_Q_INS_APP,
            (1 + 1, 0): RewriteRelation.Q_C_INS_APP,
        }

    def test_substitute_and_append_conflict(self):
        ops = [
            EditOp((0, 1), (1, 2)),
            EditOp((0, 1), (2, 2)),
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

    @pytest.mark.parametrize(
        "rewrite",
        ["which cities", ("which", "big city"), ("which", "", "cities")],
        ids=["bare-string", "whitespace", "empty-token"],
    )
    def test_rewrite_is_refused_as_a_gold_rewrite_is(self, flights_interaction, rewrite):
        with pytest.raises(ValueError) as given:
            build_from_interaction(flights_interaction, rewrite)
        with pytest.raises(ValueError) as gold:
            Interaction(flights_interaction.context_turns, flights_interaction.question, rewrite)
        assert str(given.value) == str(gold.value)


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
    # The builders skip the constructor's cell check, which must accept them.
    assert RewriteEditMatrix(matrix.context_tokens, matrix.question_tokens, matrix.cells) == matrix


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
