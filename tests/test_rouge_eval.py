from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qurg.rewrite_diff import MatchPolicy, lcs
from qurg.rouge_eval import RougeScore, corpus_rouge, rouge_l, rouge_n

EXACT = MatchPolicy(lowercase=True, plural_stem=False)

token_lists = st.lists(
    st.sampled_from(["a", "b", "c", "d", "e"]), min_size=0, max_size=8
).map(tuple)
# Repeated tokens, case variants, empty and one-token sides, and sides
# with no bigram in common.
messy_sides = st.lists(
    st.sampled_from(["a", "A", "b", "B", "ab", "aB", "c", "\u0130", "i\u0307"]), max_size=9
).map(tuple)
cased_lists = st.lists(
    st.sampled_from(["a", "A", "b", "B", "c", "ab", "Ab"]), min_size=0, max_size=24
).map(tuple)


class TestRougeN:
    def test_identity(self):
        score = rouge_n(("a", "b", "c"), ("a", "b", "c"), 1)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_half_overlap(self):
        score = rouge_n(("a", "b"), ("a", "c"), 1)
        assert (score.precision, score.recall, score.f1) == (0.5, 0.5, 0.5)

    def test_disjoint_bigrams(self):
        score = rouge_n(("a", "b"), ("c", "d"), 2)
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_too_short_for_ngrams(self):
        score = rouge_n(("a",), ("a", "b"), 2)
        assert score.precision == 0.0 and score.recall == 0.0 and score.f1 == 0.0

    def test_clipping(self):
        # "a" appears twice in the candidate but once in the reference.
        score = rouge_n(("a", "a"), ("a", "b"), 1)
        assert score.precision == 0.5
        assert score.recall == 0.5

    def test_lowercased(self):
        assert rouge_n(("City",), ("city",), 1).f1 == 1.0

    def test_no_stemming(self):
        assert rouge_n(("city",), ("cities",), 1).f1 == 0.0

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            rouge_n(("a",), ("a",), 0)

    def test_matches_bruteforce(self):
        rng = random.Random(17)
        vocab = ["a", "b", "c", "d"]
        for _ in range(200):
            cand = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
            ref = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
            for n in (1, 2):
                match = oracles.clipped_ngram_match(cand, ref, n)
                score = rouge_n(cand, ref, n)
                cand_total = max(len(cand) - n + 1, 0)
                ref_total = max(len(ref) - n + 1, 0)
                assert score.precision == (match / cand_total if cand_total else 0.0)
                assert score.recall == (match / ref_total if ref_total else 0.0)


class TestRougeL:
    def test_identity(self):
        score = rouge_l(("x", "y"), ("x", "y"))
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_two_of_three(self):
        score = rouge_l(("a", "b", "c"), ("a", "c", "b"))
        assert score.precision == pytest.approx(2 / 3)
        assert score.recall == pytest.approx(2 / 3)
        assert score.f1 == pytest.approx(2 / 3)

    def test_empty_candidate(self):
        score = rouge_l((), ("a", "b"))
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_length_matches_alignment_module(self):
        # The scoring LCS must agree with the alignment module's LCS length
        # (both checked against enumeration elsewhere).
        rng = random.Random(19)
        vocab = ["a", "b", "c", "d"]
        for _ in range(150):
            cand = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 9)))
            ref = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 9)))
            length = len(lcs(cand, ref, EXACT))
            score = rouge_l(cand, ref)
            if cand:
                assert score.precision == length / len(cand)
            if ref:
                assert score.recall == length / len(ref)


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(token_lists, token_lists)
    def test_swap_symmetry(self, cand, ref):
        for n in (1, 2):
            forward = rouge_n(cand, ref, n)
            backward = rouge_n(ref, cand, n)
            assert forward.precision == backward.recall
            assert forward.recall == backward.precision
            assert forward.f1 == pytest.approx(backward.f1, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(token_lists.filter(lambda t: len(t) >= 2))
    def test_monotone_identity(self, tokens):
        assert rouge_n(tokens, tokens, 1).f1 == 1.0
        assert rouge_n(tokens, tokens, 2).f1 == 1.0
        assert rouge_l(tokens, tokens).f1 == 1.0

    @settings(max_examples=300, deadline=None)
    @given(cased_lists, cased_lists)
    def test_rouge_l_matches_table_oracle(self, cand, ref):
        length = oracles.reference_lcs_length(
            [t.lower() for t in cand], [t.lower() for t in ref]
        )
        assert rouge_l(cand, ref) == RougeScore.from_counts(length, len(cand), len(ref))

    @settings(max_examples=100, deadline=None)
    @given(token_lists, token_lists)
    def test_bounds(self, cand, ref):
        for score in (rouge_n(cand, ref, 1), rouge_n(cand, ref, 2), rouge_l(cand, ref)):
            assert 0.0 <= score.precision <= 1.0
            assert 0.0 <= score.recall <= 1.0
            assert 0.0 <= score.f1 <= 1.0


class TestCorpusRouge:
    def test_identical_pairs(self):
        pairs = [(("a", "b"), ("a", "b")), (("c", "d"), ("c", "d"))]
        report = corpus_rouge(pairs)
        assert report.pair_count == 2
        for score in (report.r1, report.r2, report.rl):
            assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_empty(self):
        report = corpus_rouge([])
        assert report.pair_count == 0
        assert report.r1.f1 == 0.0 and report.rl.recall == 0.0

    def test_mixed_mean(self):
        pairs = [
            (("a", "b"), ("a", "b")),  # r1 f1 = 1.0
            (("a", "b"), ("a", "c")),  # r1 f1 = 0.5
        ]
        report = corpus_rouge(pairs)
        assert report.r1.f1 == pytest.approx((1.0 + 0.5) / 2)
        assert report.r1.precision == pytest.approx(0.75)

    def test_order_independent(self):
        pairs = [(("a", "b"), ("a", "c")), (("x", "y"), ("x", "y"))]
        fwd = corpus_rouge(pairs)
        rev = corpus_rouge(list(reversed(pairs)))
        assert fwd.r1.f1 == rev.r1.f1
        assert fwd.rl.precision == rev.rl.precision

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(messy_sides, messy_sides), max_size=12))
    @example([((), ()), ((), ("a",)), (("A",), ()), (("a",), ("A",)), (("a", "b"), ("b", "a"))])
    @example([(("a", "A", "a"), ("A", "a")), (("x",), ("x", "x", "X"))])
    def test_same_bits_as_the_mean_of_the_pair_functions(self, pairs):
        # Each mean adds the pairs' scores left to right, in pair order.
        columns = [
            [(rouge_n(c, r, 1), rouge_n(c, r, 2), rouge_l(c, r))[col] for c, r in pairs]
            for col in range(3)
        ]

        def mean(scores: list[RougeScore]) -> RougeScore:
            totals = [0.0, 0.0, 0.0]
            for score in scores:
                totals[0] += score.precision
                totals[1] += score.recall
                totals[2] += score.f1
            return RougeScore(*(total / len(scores) for total in totals))

        report = corpus_rouge(pairs)
        assert report.pair_count == len(pairs)
        if pairs:
            assert repr((report.r1, report.r2, report.rl)) == repr(tuple(map(mean, columns)))
