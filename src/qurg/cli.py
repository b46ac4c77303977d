"""Command-line surface for the pipeline.

Subcommands: build-matrix, restore, roundtrip, rouge, schema-link, encode,
stats.  Human-readable summaries go to stdout, machine-readable payloads to
canonical JSON files.  Exit codes: 0 success, 1 operation error, 2 usage
error.  The corpus commands (``build-matrix --corpus``, ``roundtrip``) run
their examples one after another in id order; an example that fails is
reported as ``error: example <id>: ...`` on stderr (the id as a Python
literal if it holds a character that does not print, such as a newline) and
makes the exit code 1, without stopping the others.  Every file a command
writes goes to a temporary file that then replaces the target, so a run
that fails or is interrupted never leaves a half-written one; a symbolic
link's target is replaced and the link kept.  The matrix files are written
in place, the text encoded first, and so are devices and the file that
standard output has open.  The summary files of the corpus
commands (``index.json``, the ``roundtrip`` report) are written last, and a
corpus run removes an old ``index.json`` first, so one that exists was
written by the run that wrote its matrices, and that run finished.  Nothing
is synced to disk, so this does not hold across a power loss or a kernel
crash.  ``encode --check-gradients`` refuses any flag but ``--config`` and
``--seed`` away from its default.  Only ``encode`` imports the encoder and
numpy; the other commands never load them.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

from . import dataset_io, rewrite_restore, rouge_eval
from .dataset_io import DatasetError
from .rewrite_diff import Interaction, MatchPolicy, build_from_interaction
from .schema_link import build_schema_link_matrix, link_stats

# What an operation raises on bad input: the package's own errors
# (DatasetError, SchemaError, MalformedMatrixError, EditConflictError) are
# all ValueErrors.
_OPERATION_ERRORS = (ValueError, OSError)


@dataclasses.dataclass
class CommandResult:
    exit_code: int
    summary: str
    # (example id, message) per failed corpus example; any makes the exit code 1.
    failures: Sequence[tuple[str, str]] = ()


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


def _add_corpus_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted for compatibility; examples always run sequentially",
    )
    parser.add_argument(
        "--context-occurrence",
        choices=("last", "first"),
        default="last",
        help="which context occurrence grounds a span appearing twice",
    )


def _f1_summary(report: rouge_eval.CorpusRougeReport) -> str:
    scores = (("R1", report.r1), ("R2", report.r2), ("RL", report.rl))
    return " / ".join(f"{name} {100.0 * score.f1:.1f}" for name, score in scores)


def _run_examples(
    examples: Sequence[Interaction], fn: Callable
) -> tuple[list, list[tuple[str, str]]]:
    """Run ``fn`` over the examples in id order.  Returns the results of the
    examples that succeeded and ``(id, message)`` for each one that raised
    an operation error."""
    results, failures = [], []
    for ex in sorted(examples, key=lambda ex: ex.interaction_id):
        try:
            results.append(fn(ex))
        except _OPERATION_ERRORS as exc:
            failures.append((ex.interaction_id, str(exc)))
    return results, failures


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
        # An old index would name this run's matrices, so it goes before the first.
        (out_dir / "index.json").unlink(missing_ok=True)
        # Matrix paths are joined as strings: a Path per example costs more
        # than the join.
        out_prefix = str(out_dir)

        def build_one(ex: Interaction) -> dict:
            name = _matrix_file_name(ex.interaction_id)
            matrix = build_from_interaction(ex, ex.gold_rewrite, policy, args.context_occurrence)
            dataset_io.save_matrix(os.path.join(out_prefix, name), matrix)
            return {"id": ex.interaction_id, "file": name, "cells": len(matrix.cells)}

        entries, failures = _run_examples(examples, build_one)
        # The index is written last: it is the record that the run
        # finished, and it names only matrices that were written.
        dataset_io.write_json(
            out_dir / "index.json", {"qurg_fmt": dataset_io.FORMAT_VERSION, "examples": entries}
        )
        summary = f"built {len(entries)}/{len(examples)} matrices -> {out_dir}"
        return CommandResult(0, summary, failures)

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
    return CommandResult(0, f"wrote matrix with {len(matrix.cells)} cells -> {args.out}")


def cmd_restore(args: argparse.Namespace, parser: argparse.ArgumentParser) -> CommandResult:
    matrix = dataset_io.load_matrix(args.matrix)
    restored = rewrite_restore.restore(
        matrix.question_tokens, matrix.context_tokens, matrix
    )
    if args.out:
        dataset_io.write_json(
            args.out, {"qurg_fmt": dataset_io.FORMAT_VERSION, "tokens": list(restored.tokens)}
        )
    return CommandResult(0, restored.text())


def cmd_roundtrip(args: argparse.Namespace, parser: argparse.ArgumentParser) -> CommandResult:
    policy = _policy_from(args)
    examples = dataset_io.load_rewrite_corpus(args.corpus)

    def roundtrip_one(ex: Interaction) -> tuple:
        matrix = build_from_interaction(ex, ex.gold_rewrite, policy, args.context_occurrence)
        restored = rewrite_restore.restore(ex.question, matrix.context_tokens, matrix)
        return restored.tokens, ex.gold_rewrite

    pairs, failures = _run_examples(examples, roundtrip_one)
    report = rouge_eval.corpus_rouge(pairs)
    dataset_io.save_rouge_report(args.report, report)
    summary = (
        f"roundtrip over {report.pair_count} examples: {_f1_summary(report)} -> {args.report}"
    )
    return CommandResult(0, summary, failures)


def _read_utterance_lines(path: str) -> list[tuple[str, ...]]:
    # Lines end at newlines only: ``splitlines`` would also end one at the
    # separators U+2028, U+0085 and the like, which split tokens, not lines.
    lines = dataset_io.read_text(path).split("\n")
    if lines[-1] == "":
        lines.pop()
    return [tuple(line.split()) for line in lines]


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
    return CommandResult(0, f"{report.pair_count} pairs: {_f1_summary(report)}")


def _pick_interaction(args: argparse.Namespace) -> Interaction:
    interactions = dataset_io.load_interactions(args.interactions)
    if not (0 <= args.index < len(interactions)):
        raise DatasetError(
            f"{args.interactions}: interaction index {args.index} out of range "
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
    return CommandResult(0, f"wrote linking matrix with {len(matrix.cells)} cells -> {args.out}")


def cmd_encode(args: argparse.Namespace, parser: argparse.ArgumentParser) -> CommandResult:
    if args.check_gradients:
        # The check reads only --config and --seed; any other flag set is refused.
        defaults = vars(parser.parse_args(["encode", "--check-gradients"]))
        given = [f"--{name.replace('_', '-')}" for name, value in vars(args).items()
                 if name not in ("config", "seed") and value != defaults[name]]
        if given:
            parser.error(f"--check-gradients runs alone; drop {', '.join(given)}")
    import numpy as np

    from . import rat_encoder

    if args.config:
        config = dataset_io._constructed(
            args.config, rat_encoder.EncoderConfig.from_dict, dataset_io.read_json(args.config)
        )
    else:
        config = rat_encoder.EncoderConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)

    if args.check_gradients:
        n = 4
        rat_encoder.check_fits(config, n)
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
            x = rng.standard_normal((n, config.d_x))
            relations = rng.integers(0, vocab, size=(n, n))
            worst = max(worst, rat_encoder.gradient_check(layer, x, relations))
        ok = worst < 1e-4
        summary = f"gradient check: max relative error {worst:.3e} ({'ok' if ok else 'FAILED'})"
        return CommandResult(0 if ok else 1, summary)

    if not (args.interactions and args.schema and args.matrix):
        parser.error("encode requires --interactions, --schema and --matrix")
    if not args.out:
        parser.error("encode requires --out for the state dump")
    interaction = _pick_interaction(args)
    schema = dataset_io.load_schema(args.schema)
    matrix = dataset_io.load_matrix(args.matrix)
    rat_encoder.check_fits(
        config,
        matrix.question_size + matrix.context_size + len(schema.tables) + len(schema.columns),
        traced_rw=matrix.size if args.traces else None,
    )
    params = rat_encoder.init_params(config)
    states, _ = rat_encoder.encode_interaction(
        interaction, schema, matrix, params, _policy_from(args), keep_traces=args.traces
    )
    # Saved only once the inputs fit together; encoding left the read-only arrays as made.
    if args.save_params:
        rat_encoder.save_params(args.save_params, params)
    payload: dict = {
        "qurg_fmt": dataset_io.FORMAT_VERSION,
        "config": config.to_dict(),
        "layout": {
            "question": states.n_question,
            "context": states.n_context,
            "schema": states.n_schema,
        },
        "h_final": states.h_final,
    }
    if args.traces:
        for key, traces in (("link_traces", states.link_traces), ("rw_traces", states.rw_traces)):
            payload[key] = [{"scores": t.scores, "weights": t.weights} for t in traces]
    dataset_io._replace(args.out, rat_encoder._json_chunks(payload))
    return CommandResult(
        0,
        f"encoded {states.n_question}+{states.n_context}+{states.n_schema} "
        f"positions -> {args.out}",
    )


def cmd_stats(args: argparse.Namespace, parser: argparse.ArgumentParser) -> CommandResult:
    if not (args.corpus or args.matrix or args.link_matrix):
        parser.error("stats requires --corpus, --matrix, or --link-matrix")
    payload: dict = {"qurg_fmt": dataset_io.FORMAT_VERSION}
    if args.corpus:
        examples = dataset_io.load_rewrite_corpus(args.corpus)
        turn_counts = [ex.turn_index for ex in examples]
        payload["corpus"] = {
            "examples": len(examples),
            "question_tokens": sum(len(ex.question) for ex in examples),
            "rewrite_tokens": sum(len(ex.gold_rewrite) for ex in examples),
            "average_turn": (
                round(sum(turn_counts) / len(turn_counts), 3) if turn_counts else 0.0
            ),
        }
    for key, path, load in (("matrix", args.matrix, dataset_io.load_matrix),
                            ("link_matrix", args.link_matrix, dataset_io.load_link_matrix)):
        if path:
            matrix = load(path)
            payload[key] = {
                "size": matrix.size,
                "cells": len(matrix.cells),
                "relations": link_stats(matrix),
            }
    if args.out:
        dataset_io.write_json(args.out, payload)
    return CommandResult(0, dataset_io.dump_canonical(payload).rstrip("\n"))


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
    _add_corpus_flags(p)
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
    _add_corpus_flags(p)
    _add_policy_flags(p)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("rouge", help="score line-aligned candidate/reference files")
    p.add_argument("--cand", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_rouge)

    p = sub.add_parser("schema-link", help="build a schema linking matrix")
    p.add_argument("--interactions", required=True)
    p.add_argument("--index", type=int, default=0, help="interaction index in the file")
    p.add_argument("--schema", required=True)
    p.add_argument("--out", required=True)
    _add_policy_flags(p)
    p.set_defaults(func=cmd_schema_link)

    p = sub.add_parser("encode", help="run the two-stream encoder")
    p.add_argument("--interactions")
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
        help="only verify analytic gradients against finite differences",
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args, parser)
        for example_id, message in result.failures:
            # Each error is one line, whatever the id holds.
            shown = example_id if example_id.isprintable() else repr(example_id)
            print(f"error: example {shown}: {message}", file=sys.stderr)
        # A summary can hold tokens that standard output cannot encode, such
        # as a lone surrogate read from a JSON escape.
        if result.summary:
            print(result.summary)
    except _OPERATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # Sizes come from input files, and an encoder config can ask for
        # more than any machine holds; numpy's message names the allocation.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return 1 if result.failures else result.exit_code


if __name__ == "__main__":
    sys.exit(main())
