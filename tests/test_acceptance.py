"""Acceptance criteria, one test per criterion.

Each test prints one `[acceptance] ... PASS/FAIL` line (run with `-s` to see
them live) and enforces both the correctness condition and its time budget.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time

import numpy as np

import generators
import oracles
from conftest import FLIGHTS_CONTEXT, FLIGHTS_QUESTION, FLIGHTS_REWRITE
from qurg.cli import main
from qurg.dataset_io import load_rouge_report, save_rewrite_corpus
from qurg.rewrite_diff import (
    Interaction,
    OpKind,
    RewriteRelation,
    build_from_interaction,
    extract_edit_ops,
    lcs,
    MatchPolicy,
)
from qurg.rewrite_restore import restore
from qurg.rouge_eval import rouge_l, rouge_n
from qurg.schema_link import Column, Schema
from qurg.rat_encoder import (
    encode_interaction,
    init_params,
    layer_backward,
    random_layer_params,
    rat_layer_forward,
    vanilla_layer_forward,
    EncoderConfig,
    _layer_forward,
)


class Criterion:
    def __init__(self, name: str, limit_seconds: float):
        self.name = name
        self.limit = limit_seconds
        self.start = time.perf_counter()

    def finish(self, ok: bool) -> None:
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok and elapsed < self.limit else "FAIL"
        print(
            f"[acceptance] {self.name}: {status} "
            f"({elapsed:.2f}s, limit {self.limit:.0f}s)"
        )
        assert ok, self.name
        assert elapsed < self.limit, f"{self.name} exceeded {self.limit}s"


def test_c01_worked_example_golden(flights_interaction):
    crit = Criterion("C1 worked-example golden edit extraction", 1.0)
    ops = extract_edit_ops(FLIGHTS_QUESTION, FLIGHTS_CONTEXT, FLIGHTS_REWRITE)
    ok = (
        len(ops) == 2
        and ops[0].kind is OpKind.SUBSTITUTE
        and FLIGHTS_CONTEXT[ops[0].context_range[0] : ops[0].context_range[1]]
        == ("cities",)
        and FLIGHTS_QUESTION[ops[0].question_range[0] : ops[0].question_range[1]]
        == ("one",)
        and ops[1].kind is OpKind.INSERT
        and FLIGHTS_CONTEXT[ops[1].context_range[0] : ops[1].context_range[1]]
        == ("arriving", "flights")
        and FLIGHTS_QUESTION[ops[1].question_anchor] == "?"
    )
    matrix = build_from_interaction(flights_interaction)
    ok = ok and len(matrix.cells) == 6
    crit.finish(ok)


def test_c02_lcs_exhaustive_oracle():
    crit = Criterion("C2 LCS vs exhaustive enumeration (200 pairs)", 10.0)
    rng = random.Random(1201)
    alphabet = ["a", "b", "c", "d"]
    agree = 0
    for _ in range(200):
        a = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
        b = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
        if len(lcs(a, b)) == oracles.enumerate_lcs_length(a, b):
            agree += 1
    crit.finish(agree == 200)


def test_c03_symmetry_and_block_purity():
    crit = Criterion("C3 bidirectional symmetry + block purity (1000 triples)", 30.0)
    rng = random.Random(1301)
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
    ok = True
    for _ in range(1000):
        interaction, rewrite = generators.random_triple(rng)
        matrix = build_from_interaction(interaction, rewrite)
        n_ctx = matrix.context_size
        for (i, j), rel in matrix.cells.items():
            if rel in context_row:
                ok = ok and i < n_ctx <= j
            else:
                ok = ok and j < n_ctx <= i
            if rel in last_column:
                ok = ok and max(i, j) == matrix.size - 1
            ok = ok and matrix.cells.get((j, i)) is mirror[rel]
        if not ok:
            break
    crit.finish(ok)


def test_c04_exact_roundtrip_corpus(tmp_path):
    crit = Criterion("C4 exact roundtrip on 500 spliced examples", 30.0)
    rng = random.Random(1401)
    examples = [generators.make_splice_example(rng, idx).interaction() for idx in range(500)]
    ok = True
    for ex in examples:
        matrix = build_from_interaction(ex)
        restored = restore(ex.question, ex.flat_context(), matrix)
        if restored.tokens != ex.gold_rewrite:
            ok = False
            break
    corpus_path = tmp_path / "splice.jsonl"
    report_path = tmp_path / "report.json"
    save_rewrite_corpus(corpus_path, examples)
    ok = ok and main(
        ["roundtrip", "--corpus", str(corpus_path), "--report", str(report_path)]
    ) == 0
    report = load_rouge_report(report_path)
    ok = ok and report.pair_count == 500
    for score in (report.r1, report.r2, report.rl):
        ok = ok and score.precision == 1.0 and score.recall == 1.0 and score.f1 == 1.0
    crit.finish(ok)


def test_c05_rouge_oracles():
    crit = Criterion("C5 ROUGE counts vs brute force (500 pairs)", 10.0)
    rng = random.Random(1501)
    vocab = ["a", "b", "c", "d", "e"]
    exact = MatchPolicy(lowercase=True, plural_stem=False)
    ok = True
    for _ in range(500):
        cand = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 9)))
        ref = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 9)))
        for n in (1, 2):
            match = oracles.clipped_ngram_match(cand, ref, n)
            score = rouge_n(cand, ref, n)
            cand_total = max(len(cand) - n + 1, 0)
            ref_total = max(len(ref) - n + 1, 0)
            ok = ok and score.precision == (match / cand_total if cand_total else 0.0)
            ok = ok and score.recall == (match / ref_total if ref_total else 0.0)
        length = len(lcs(cand, ref, exact))
        score = rouge_l(cand, ref)
        if cand:
            ok = ok and score.precision == length / len(cand)
        if ref:
            ok = ok and score.recall == length / len(ref)
        if not ok:
            break
    crit.finish(ok)


def test_c06_zero_relation_degeneracy():
    crit = Criterion("C6 zero-relation degeneracy (50 instances)", 10.0)
    rng = np.random.default_rng(1601)
    ok = True
    for trial in range(50):
        heads = int(rng.choice([1, 2, 4]))
        n = int(rng.integers(1, 9))
        layer = random_layer_params(
            np.random.default_rng(1700 + trial), d_x=8, heads=heads, d_ff=12,
            relation_count=5,
        )
        zeroed = dataclasses.replace(
            layer,
            rel_key=np.zeros_like(layer.rel_key),
            rel_value=np.zeros_like(layer.rel_value),
        )
        x = rng.standard_normal((n, 8))
        relations = rng.integers(0, 5, size=(n, n))
        y_vanilla, _ = vanilla_layer_forward(x, layer)
        y_rat, _ = rat_layer_forward(x, relations, zeroed)
        ok = ok and float(np.abs(y_vanilla - y_rat).max()) < 1e-12
    crit.finish(ok)


def test_c07_gradient_check_finite_differences():
    crit = Criterion("C7 analytic gradients vs central differences (20 instances)", 60.0)
    step = 1e-5
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(1800 + trial)
        layer = random_layer_params(rng, d_x=8, heads=2, d_ff=12, relation_count=5)
        n = int(rng.integers(3, 7))
        x = rng.standard_normal((n, 8))
        relations = rng.integers(0, 5, size=(n, n))

        def loss(layer_variant, x_variant) -> float:
            y, _ = _layer_forward(x_variant, layer_variant, relations)
            return float((y ** 2).sum())

        y, trace = rat_layer_forward(x, relations, layer)
        grads = layer_backward(2.0 * y, trace, x, relations, layer)
        # independent central-difference loop over every parameter block
        for name, analytic in grads.items():
            numeric = np.zeros_like(analytic)
            for flat in range(analytic.size):
                if name == "x":
                    x_hi, x_lo = x.copy(), x.copy()
                    x_hi.flat[flat] += step
                    x_lo.flat[flat] -= step
                    hi, lo = loss(layer, x_hi), loss(layer, x_lo)
                else:
                    base = getattr(layer, name)
                    arr_hi, arr_lo = base.copy(), base.copy()
                    arr_hi.flat[flat] += step
                    arr_lo.flat[flat] -= step
                    hi = loss(dataclasses.replace(layer, **{name: arr_hi}), x)
                    lo = loss(dataclasses.replace(layer, **{name: arr_lo}), x)
                numeric.flat[flat] = (hi - lo) / (2.0 * step)
            denom = max(
                float(np.abs(numeric).max(initial=0.0)),
                float(np.abs(analytic).max(initial=0.0)),
                1e-8,
            )
            worst = max(
                worst, float(np.abs(numeric - analytic).max(initial=0.0)) / denom
            )
    print(f"[acceptance]   C7 max relative error: {worst:.3e}")
    crit.finish(worst < 1e-4)


def _random_encode_case(seed: int):
    rng = random.Random(seed)
    interaction, rewrite = generators.random_triple(rng)
    schema = Schema(
        tables=(("city",), ("flight",)),
        columns=(
            Column(("city", "name"), 0),
            Column(("flight", "id"), 1),
            Column(("origin", "city"), 1),
        ),
        primary_keys=frozenset({1}),
        foreign_keys=frozenset({(2, 0)}),
    )
    matrix = build_from_interaction(interaction, rewrite)
    return interaction, schema, matrix


def test_c08_aggregation_identity():
    crit = Criterion("C8 two-stream aggregation identity (50 encodes)", 30.0)
    config = EncoderConfig(d_x=8, d_z=8, heads=2, layers_link=1, layers_rw=1,
                           d_ff=12, seed=42)
    params = init_params(config)
    ok = True
    for seed in range(50):
        interaction, schema, matrix = _random_encode_case(2000 + seed)
        states, _ = encode_interaction(interaction, schema, matrix, params)
        m = states.n_question + states.n_context
        diff = np.abs((states.h_final[:m] - states.h_rw) - states.h_link[:m]).max()
        ok = ok and float(diff) < 1e-12
        ok = ok and np.array_equal(states.h_final[m:], states.h_link[m:])
    crit.finish(ok)


def test_c09_permutation_equivariance():
    crit = Criterion("C9 exact permutation equivariance (50 instances)", 10.0)
    ok = True
    for trial in range(50):
        rng = np.random.default_rng(2100 + trial)
        heads = int(rng.choice([1, 2]))
        layer = random_layer_params(rng, d_x=8, heads=heads, d_ff=12, relation_count=5)
        n = int(rng.integers(2, 7))
        x = rng.standard_normal((n, 8))
        relations = rng.integers(0, 5, size=(n, n))
        perm = rng.permutation(n)
        y, _ = rat_layer_forward(x, relations, layer)
        y_perm, _ = rat_layer_forward(x[perm], relations[np.ix_(perm, perm)], layer)
        ok = ok and np.array_equal(y_perm, y[perm])
    crit.finish(ok)


def test_c10_cli_determinism(tmp_path, fixtures_dir):
    crit = Criterion("C10 byte-identical CLI outputs (reruns and thread counts)", 30.0)
    matrix_path = tmp_path / "flights.matrix.json"
    ok = main([
        "build-matrix",
        "which one has the most ?",
        "--context", "how many arriving flights are there in each of the cities ?",
        "--rewrite", "which city has the most arriving flights ?",
        "--out", str(matrix_path),
    ]) == 0
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        {"d_x": 8, "d_z": 8, "heads": 2, "layers_link": 2, "layers_rw": 1,
         "d_ff": 16, "seed": 9}
    ))
    dumps = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        ok = ok and main([
            "encode",
            "--interactions", str(fixtures_dir / "interactions_flights.json"),
            "--schema", str(fixtures_dir / "schema_flights.json"),
            "--matrix", str(matrix_path),
            "--config", str(config_path),
            "--out", str(out),
        ]) == 0
        dumps.append(out.read_bytes())
    ok = ok and dumps[0] == dumps[1]

    rng = random.Random(2200)
    examples = [generators.make_splice_example(rng, idx).interaction() for idx in range(40)]
    corpus_path = tmp_path / "corpus.jsonl"
    save_rewrite_corpus(corpus_path, examples)
    reports = []
    for jobs in ("1", "4"):
        report_path = tmp_path / f"report{jobs}.json"
        ok = ok and main([
            "roundtrip", "--corpus", str(corpus_path),
            "--report", str(report_path), "--jobs", jobs,
        ]) == 0
        reports.append(report_path.read_bytes())
    ok = ok and reports[0] == reports[1]

    out_dirs = []
    for jobs in ("1", "4"):
        out_dir = tmp_path / f"matrices{jobs}"
        ok = ok and main([
            "build-matrix", "--corpus", str(corpus_path),
            "--out-dir", str(out_dir), "--jobs", jobs,
        ]) == 0
        out_dirs.append(out_dir)
    for path in sorted(out_dirs[0].iterdir()):
        ok = ok and path.read_bytes() == (out_dirs[1] / path.name).read_bytes()
    crit.finish(ok)
