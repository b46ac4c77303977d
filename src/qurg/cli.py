"""Command-line surface for the pipeline.

Subcommands: build-matrix, restore, roundtrip, rouge, schema-link, encode,
stats.  Human-readable summaries go to stdout, machine-readable payloads to
JSON files.  Exit codes: 0 success, 1 operation error, 2 usage error.
Set QURG_LOG=debug|info for verbose logging (off by default).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import dataset_io, rat_encoder, rewrite_restore, rouge_eval
from .dataset_io import DatasetError
from .rewrite_diff import (
    EditConflictError,
    Interaction,
    MatchPolicy,
    build_from_interaction,
)
from .rewrite_restore import MalformedMatrixError
from .schema_link import SchemaError, build_schema_link_matrix, link_stats

logger = logging.getLogger(__name__)

_OPERATION_ERRORS = (
    DatasetError,
    SchemaError,
    MalformedMatrixError,
    EditConflictError,
    ValueError,
    OSError,
)


@dataclasses.dataclass
class CommandResult:
    exit_code: int
    summary: str
    payload_path: str | None = None


def _policy_from(args: argparse.Namespace) -> MatchPolicy:
    return MatchPolicy(
        lowercase=not args.no_lowercase, plural_stem=not args.no_plural_stem
    )


def _add_policy_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-lowercase", action="store_true", help="match tokens case-sensitively"
    )
    parser.add_argument(
        "--no-plural-stem",
        action="store_true",
        help="disable singular/plural token matching",
    )


def _pct(value: float) -> str:
    return f"{100.0 * value:.1f}"


def _parallel_map(items, fn: Callable, jobs: int) -> list:
    """Apply ``fn`` over items, optionally in a thread pool; the result list
    preserves input order, so outputs are identical to a sequential run."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _matrix_file_name(example_id: str) -> str:
    # Example ids name output files, so they must not leave the output directory.
    if example_id in (".", "..") or "/" in example_id or "\\" in example_id:
        raise DatasetError(f"id {example_id!r} is not a plain file name")
    return f"{example_id}.matrix.json"


def cmd_build_matrix(args: argparse.Namespace, parser: argparse.ArgumentParser) -> CommandResult:
    policy = _policy_from(args)
    if args.corpus:
        if not args.out_dir:
            parser.error("--corpus mode requires --out-dir")
        examples = dataset_io.load_rewrite_corpus(args.corpus)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

        def build_one(ex: dataset_io.RewriteExample):
            try:
                name = _matrix_file_name(ex.example_id)
                matrix = build_from_interaction(
                    ex.as_interaction(), ex.rewrite, policy, args.context_occurrence
                )
                dataset_io.save_matrix(out_dir / name, matrix)
                return ex.example_id, name, len(matrix.cells), None
            except _OPERATION_ERRORS as exc:
                return ex.example_id, None, 0, str(exc)

        rows = _parallel_map(examples, build_one, args.jobs)
        rows.sort(key=lambda row: row[0])
        index = {
            "qurg_fmt": dataset_io.FORMAT_VERSION,
            "examples": [
                {"id": ex_id, "file": name, "cells": cells}
                for ex_id, name, cells, err in rows
                if err is None
            ],
        }
        index_path = out_dir / "index.json"
        index_path.write_text(
            json.dumps(index, ensure_ascii=False, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )
        failures = [(ex_id, err) for ex_id, _, _, err in rows if err is not None]
        for ex_id, err in failures:
            print(f"error: example {ex_id}: {err}", file=sys.stderr)
        summary = f"built {len(rows) - len(failures)}/{len(rows)} matrices -> {out_dir}"
        return CommandResult(1 if failures else 0, summary, str(index_path))

    if args.question is None:
        parser.error("either a question argument or --corpus is required")
    if args.rewrite is None:
        parser.error("--rewrite is required when building a single matrix")
    if not args.out:
        parser.error("--out is required when building a single matrix")
    question = dataset_io.tokenize(args.question)
    turns = tuple(dataset_io.tokenize(turn) for turn in args.context or ())
    rewrite = dataset_io.tokenize(args.rewrite)
    interaction = Interaction(turns, question)
    matrix = build_from_interaction(interaction, rewrite, policy, args.context_occurrence)
    dataset_io.save_matrix(args.out, matrix)
    return CommandResult(
        0, f"wrote matrix with {len(matrix.cells)} cells -> {args.out}", args.out
    )


def cmd_restore(args: argparse.Namespace, parser: argparse.ArgumentParser) -> CommandResult:
    matrix = dataset_io.load_matrix(args.matrix)
    restored = rewrite_restore.restore(
        matrix.question_tokens, matrix.context_tokens, matrix
    )
    if args.out:
        payload = {
            "qurg_fmt": dataset_io.FORMAT_VERSION,
            "tokens": list(restored.tokens),
        }
        Path(args.out).write_text(
            json.dumps(payload, ensure_ascii=False, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )
    return CommandResult(0, restored.text(), args.out)


def cmd_roundtrip(args: argparse.Namespace, parser: argparse.ArgumentParser) -> CommandResult:
    policy = _policy_from(args)
    examples = dataset_io.load_rewrite_corpus(args.corpus)

    def roundtrip_one(ex: dataset_io.RewriteExample):
        try:
            interaction = ex.as_interaction()
            matrix = build_from_interaction(
                interaction, ex.rewrite, policy, args.context_occurrence
            )
            restored = rewrite_restore.restore(
                interaction.question, interaction.flat_context(), matrix
            )
            return ex.example_id, (restored.tokens, ex.rewrite), None
        except _OPERATION_ERRORS as exc:
            return ex.example_id, None, str(exc)

    rows = _parallel_map(examples, roundtrip_one, args.jobs)
    rows.sort(key=lambda row: row[0])
    pairs = [pair for _, pair, err in rows if err is None]
    failures = [(ex_id, err) for ex_id, _, err in rows if err is not None]
    report = rouge_eval.corpus_rouge(pairs)
    dataset_io.save_rouge_report(args.report, report)
    for ex_id, err in failures:
        print(f"error: example {ex_id}: {err}", file=sys.stderr)
    summary = (
        f"roundtrip over {report.pair_count} examples: "
        f"R1 {_pct(report.r1.f1)} / R2 {_pct(report.r2.f1)} / RL {_pct(report.rl.f1)}"
        f" -> {args.report}"
    )
    return CommandResult(1 if failures else 0, summary, args.report)


def _read_utterance_lines(path: str) -> list[tuple[str, ...]]:
    text = Path(path).read_text(encoding="utf-8")
    return [tuple(line.split()) for line in text.splitlines()]


def cmd_rouge(args: argparse.Namespace, parser: argparse.ArgumentParser) -> CommandResult:
    cand = _read_utterance_lines(args.cand)
    ref = _read_utterance_lines(args.ref)
    if len(cand) != len(ref):
        raise DatasetError(
            f"candidate has {len(cand)} lines but reference has {len(ref)}"
        )
    report = rouge_eval.corpus_rouge(list(zip(cand, ref)))
    if args.out:
        dataset_io.save_rouge_report(args.out, report)
    summary = (
        f"{report.pair_count} pairs: "
        f"R1 {_pct(report.r1.f1)} / R2 {_pct(report.r2.f1)} / RL {_pct(report.rl.f1)}"
    )
    return CommandResult(0, summary, args.out)


def _pick_interaction(args: argparse.Namespace) -> Interaction:
    interactions = dataset_io.load_interactions(
        args.interactions, format=args.interactions_format
    )
    if not interactions:
        raise DatasetError(f"{args.interactions}: no interactions")
    if not (0 <= args.index < len(interactions)):
        raise DatasetError(
            f"interaction index {args.index} out of range "
            f"(file has {len(interactions)})"
        )
    return interactions[args.index]


def cmd_schema_link(args: argparse.Namespace, parser: argparse.ArgumentParser) -> CommandResult:
    interaction = _pick_interaction(args)
    schema = dataset_io.load_schema(args.schema)
    matrix = build_schema_link_matrix(
        interaction.question, interaction.flat_context(), schema, _policy_from(args)
    )
    dataset_io.save_link_matrix(args.out, matrix)
    counts = link_stats(matrix)
    return CommandResult(
        0,
        f"wrote linking matrix with {sum(counts.values())} cells -> {args.out}",
        args.out,
    )


def cmd_encode(args: argparse.Namespace, parser: argparse.ArgumentParser) -> CommandResult:
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            config = rat_encoder.EncoderConfig.from_dict(json.load(handle))
    else:
        config = rat_encoder.EncoderConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)

    if args.check_gradients:
        rng = np.random.default_rng(config.seed)
        worst = 0.0
        for vocab in (config.link_relation_count, config.rw_relation_count):
            layer = rat_encoder.random_layer_params(
                rng,
                config.d_x,
                config.heads,
                config.ff_width,
                vocab,
                config.single_fc_ff,
            )
            n = 4
            x = rng.standard_normal((n, config.d_x))
            relations = rng.integers(0, vocab, size=(n, n))
            worst = max(worst, rat_encoder.gradient_check(layer, x, relations))
        ok = worst < 1e-4
        summary = f"gradient check: max relative error {worst:.3e} ({'ok' if ok else 'FAILED'})"
        if not (args.interactions and args.schema and args.matrix):
            return CommandResult(0 if ok else 1, summary)
        print(summary)
        if not ok:
            return CommandResult(1, "gradient check failed")

    if not (args.interactions and args.schema and args.matrix):
        parser.error("encode requires --interactions, --schema and --matrix")
    if not args.out:
        parser.error("encode requires --out for the state dump")
    interaction = _pick_interaction(args)
    schema = dataset_io.load_schema(args.schema)
    matrix = dataset_io.load_matrix(args.matrix)
    params = rat_encoder.init_params(config)
    if args.save_params:
        rat_encoder.save_params(args.save_params, params)
    states, link_matrix = rat_encoder.encode_interaction(
        interaction, schema, matrix, params, keep_traces=args.traces
    )
    payload: dict = {
        "qurg_fmt": dataset_io.FORMAT_VERSION,
        "config": config.to_dict(),
        "layout": {
            "question": states.n_question,
            "context": states.n_context,
            "schema": states.n_schema,
        },
        "h_final": states.h_final.tolist(),
    }
    if args.traces:
        payload["link_traces"] = [
            {"scores": t.scores.tolist(), "weights": t.weights.tolist()}
            for t in states.link_traces or ()
        ]
        payload["rw_traces"] = [
            {"scores": t.scores.tolist(), "weights": t.weights.tolist()}
            for t in states.rw_traces or ()
        ]
    Path(args.out).write_text(
        json.dumps(payload, ensure_ascii=False, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    return CommandResult(
        0,
        f"encoded {states.n_question}+{states.n_context}+{states.n_schema} "
        f"positions -> {args.out}",
        args.out,
    )


def cmd_stats(args: argparse.Namespace, parser: argparse.ArgumentParser) -> CommandResult:
    if not (args.corpus or args.matrix or args.link_matrix):
        parser.error("stats requires --corpus, --matrix, or --link-matrix")
    payload: dict = {"qurg_fmt": dataset_io.FORMAT_VERSION}
    if args.corpus:
        examples = dataset_io.load_rewrite_corpus(args.corpus)
        turn_counts = [len(ex.history) + 1 for ex in examples]
        payload["corpus"] = {
            "examples": len(examples),
            "question_tokens": sum(len(ex.question) for ex in examples),
            "rewrite_tokens": sum(len(ex.rewrite) for ex in examples),
            "average_turn": (
                round(sum(turn_counts) / len(turn_counts), 3) if turn_counts else 0.0
            ),
        }
    if args.matrix:
        matrix = dataset_io.load_matrix(args.matrix)
        counts: dict[str, int] = {}
        for _, _, rel in matrix.sorted_cells():
            counts[rel.value] = counts.get(rel.value, 0) + 1
        payload["matrix"] = {
            "size": matrix.size,
            "cells": len(matrix.cells),
            "relations": dict(sorted(counts.items())),
        }
    if args.link_matrix:
        link_matrix = dataset_io.load_link_matrix(args.link_matrix)
        payload["link_matrix"] = {
            "size": link_matrix.size,
            "cells": len(link_matrix.cells),
            "relations": link_stats(link_matrix),
        }
    text = json.dumps(payload, ensure_ascii=False, separators=(",", ":"))
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return CommandResult(0, text, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qurg",
        description="Rewrite edit matrices, schema linking, restoration, "
        "ROUGE scoring, and two-stream encoding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-matrix", help="build rewrite edit matrices")
    p.add_argument("question", nargs="?", help="current question text (single mode)")
    p.add_argument("--context", action="append", help="one history turn (repeatable)")
    p.add_argument("--rewrite", help="rewritten question text (single mode)")
    p.add_argument("--corpus", help="rewrite corpus (JSON lines) for batch mode")
    p.add_argument("--out", help="matrix output path (single mode)")
    p.add_argument("--out-dir", help="output directory (corpus mode)")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers (corpus mode)")
    p.add_argument(
        "--context-occurrence",
        choices=("last", "first"),
        default="last",
        help="which context occurrence grounds a span appearing twice",
    )
    _add_policy_flags(p)
    p.set_defaults(func=cmd_build_matrix)

    p = sub.add_parser("restore", help="restore a question from a matrix file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out", help="write restored tokens as JSON")
    p.set_defaults(func=cmd_restore)

    p = sub.add_parser(
        "roundtrip", help="build + restore a corpus and score against its rewrites"
    )
    p.add_argument("--corpus", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument(
        "--context-occurrence", choices=("last", "first"), default="last"
    )
    _add_policy_flags(p)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("rouge", help="score line-aligned candidate/reference files")
    p.add_argument("--cand", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_rouge)

    p = sub.add_parser("schema-link", help="build a schema linking matrix")
    p.add_argument("--interactions", required=True)
    p.add_argument("--interactions-format", choices=("native", "sparc"), default="native")
    p.add_argument("--index", type=int, default=0, help="interaction index in the file")
    p.add_argument("--schema", required=True)
    p.add_argument("--out", required=True)
    _add_policy_flags(p)
    p.set_defaults(func=cmd_schema_link)

    p = sub.add_parser("encode", help="run the two-stream encoder")
    p.add_argument("--interactions")
    p.add_argument("--interactions-format", choices=("native", "sparc"), default="native")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--schema")
    p.add_argument("--matrix", help="rewrite edit matrix file")
    p.add_argument("--config", help="encoder config JSON file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="write the encoded states here")
    p.add_argument("--save-params", help="also write the initialized parameters")
    p.add_argument("--traces", action="store_true", help="include per-layer traces")
    p.add_argument(
        "--check-gradients",
        action="store_true",
        help="verify analytic gradients against finite differences",
    )
    _add_policy_flags(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("stats", help="summarize corpora and matrices")
    p.add_argument("--corpus")
    p.add_argument("--matrix")
    p.add_argument("--link-matrix")
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    level = os.environ.get("QURG_LOG", "").upper()
    if level in ("DEBUG", "INFO", "WARNING", "ERROR"):
        logging.basicConfig(level=getattr(logging, level))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args, parser)
    except _OPERATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if result.summary:
        print(result.summary)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
