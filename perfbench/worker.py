"""One benchmark process: the program's set-up, then a closed loop of ops.

``run.py`` starts this in a fresh interpreter with ``PYTHONPATH=src`` and
numpy pinned to one thread.  One op runs at a time; its wall time and CPU
time are read around the call, from outside the program.  CPU time counts
every thread of this process and every child process the op starts and
reaps, so work moved into a worker pool still shows.  Every op's output is
checked outside its timed region.  Results go to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks
from hostspeed import REFERENCE_MS, calibration_ms
from program_setup import program_setup
from tracing import SPAN_FIELDS, TARGETS, Tracer

# The calibration loop that does the same kind of work as the workload.
CALIBRATION = {"encode-turns": "numpy"}
END_TO_END_UNITS = {"examples_per_s": "1/s", "cpu_ms_per_example": "ms", "peak_rss_mb": "MB"}
# Per-layer metrics: self CPU time of each span in ms per example, and
# counts per round (units below).
SPAN_CPU_METRICS = (
    "dataset_io.load_rewrite_corpus",
    "dataset_io.save_matrix",
    "rewrite_diff.lcs",
    "rewrite_diff.ground",
    "rewrite_diff.build_rewrite_matrix",
    "rewrite_restore.restore",
    "rouge_eval.corpus_rouge",
    "schema_link.build_schema_link_matrix",
    "rat_encoder.embed_inputs",
    "rat_encoder.link_layer",
    "rat_encoder.rw_layer",
)
COUNT_METRICS = {
    "dataset_io.bytes_written": "B",
    "rewrite_diff.lcs.calls": "count",
    "rewrite_diff.lcs.pairs_compared": "count",
    "rewrite_diff.ops_substitute": "count",
    "rewrite_diff.ops_insert": "count",
    "rewrite_diff.cells": "count",
    "rewrite_diff.add_spans_dropped": "count",
    "schema_link.cells": "count",
    "rat_encoder.link_positions": "count",
    "rat_encoder.rw_positions": "count",
    "rat_encoder.attention_madds": "count",
}


class OpFailed(Exception):
    """The program reported failure for an op (non-zero exit code)."""


@dataclass
class Op:
    examples: int
    run: Callable[[], object]
    check: Callable[[object], None]


def cpu_now() -> float:
    """CPU seconds of this process (all threads) plus its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


# -- workloads -------------------------------------------------------------

def _run_cli(cli, argv: list[str]) -> int:
    """Run one qurg command; return the wall-clock time it started, so that
    the check can tell files written by this op from older ones."""
    started_ns = time.time_ns()
    code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"qurg {argv[0]} exited with {code}")
    return started_ns


def corpus_ops(workload: str, inputs: Path, manifest: dict, work: Path) -> list[Op]:
    from qurg import cli, load_matrix, restore

    # Every round overwrites the same output files.  Deleting thousands of
    # small files made later file creation in the same filesystem cost up
    # to ten times more system time, and that cost grew from run to run;
    # overwriting kept it steady.
    ops = []
    for k, shard in enumerate(manifest["shards"]):
        corpus = str(inputs / shard["corpus"])
        examples = shard["examples"]
        if workload == "roundtrip-short":
            report = work / f"report{k:02d}.json"
            argv = ["roundtrip", "--corpus", corpus, "--report", str(report), "--jobs", "1"]
            check = partial(checks.roundtrip_report, report, examples)
        else:
            out_dir = work / f"matrices{k:02d}"
            argv = ["build-matrix", "--corpus", corpus, "--out-dir", str(out_dir), "--jobs", "1"]
            check = partial(checks.matrix_dir, out_dir, shard["rewrites"], load_matrix, restore)
        ops.append(Op(examples, partial(_run_cli, cli, argv), check))
    return ops


def turn_ops(workload: str, inputs: Path, manifest: dict, params, schema, seed: int) -> list[Op]:
    from qurg import build_from_interaction, dataset_io, rat_encoder, schema_link

    interactions = dataset_io.load_interactions(inputs / manifest["interactions"])
    n_schema = len(schema.tables) + len(schema.columns)
    first_results: dict[int, str] = {}

    def same_as_first_round(k: int, digest: str) -> None:
        checks.require(first_results.setdefault(k, digest) == digest, f"turn {k} changed on repeat")

    ops = []
    if workload == "encode-turns":
        checks.init_layer_norms(params)
        checks.layer_against_oracle(rat_encoder, seed)
        for k, inter in enumerate(interactions):
            matrix = build_from_interaction(inter)
            context = rat_encoder.encoder_context_tokens(inter)

            def run(inter=inter, matrix=matrix):
                return rat_encoder.encode_interaction(inter, schema, matrix, params)

            def check(result, k=k, inter=inter, context=context):
                states, link = result
                checks.encoded_states(states, len(inter.question), len(context), n_schema)
                checks.link_matrix(link, inter.question, context, schema)
                same_as_first_round(k, checks.digest(states.h_link, states.h_rw, states.h_final))

            ops.append(Op(1, run, check))
    else:
        for k, inter in enumerate(interactions):
            context = inter.flat_context()

            def run(inter=inter, context=context):
                return schema_link.build_schema_link_matrix(inter.question, context, schema)

            def check(link, k=k, inter=inter, context=context):
                checks.link_matrix(link, inter.question, context, schema)
                same_as_first_round(k, repr(sorted((k2, rel.value) for k2, rel in link.cells.items())))

            ops.append(Op(1, run, check))
    return ops


# -- the loop --------------------------------------------------------------

@dataclass
class Record:
    round: int
    traced: bool
    examples: int
    wall: float
    cpu: float
    speed: float  # host speed factor around the op (see hostspeed)
    span_cpu: float = 0.0  # CPU the op's outermost spans cover (traced ops)
    self_cpu: Counter | None = None  # per span name (traced ops)
    self_wall: Counter | None = None


def measure(ops: list[Op], seconds: float, trace: bool, quick: bool, tracer: Tracer,
            calibration: str):
    """Whole rounds of every op until ``seconds`` have passed.  A first
    warm-up round is run and checked but not timed, so that caches are
    filled and output files exist.  Traced mode then alternates untraced
    and traced rounds, so both see the same machine.  Returns the timed
    records, the failures and the number of ops attempted."""
    records: list[Record] = []
    failures: list[str] = []
    round_counts: list[Counter] = []
    attempted = 0
    start = time.perf_counter()
    rnd = 0 if quick else -1
    calibration_before = calibration_ms(calibration)
    while True:
        traced = trace and rnd % 2 == 1
        if traced:
            tracer.install()
        counts: Counter = Counter()
        for k, op in enumerate(ops):
            attempted += 1
            if traced:
                tracer.begin_op(attempted)
            error = None
            wall0, cpu0 = time.perf_counter(), cpu_now()
            try:
                result = op.run()
            except Exception as exc:  # any exception out of the program fails the op
                error = f"round {rnd} op {k}: {exc!r}"
            cpu1, wall1 = cpu_now(), time.perf_counter()
            # The host speed during the op: the mean of the calibrations on
            # either side of it.
            calibration_after = calibration_ms(calibration)
            speed = REFERENCE_MS * 2 / (calibration_before + calibration_after)
            calibration_before = calibration_after
            record = Record(rnd, traced, op.examples, wall1 - wall0, cpu1 - cpu0, speed)
            if traced:
                record.span_cpu, op_counts = tracer.end_op()
                record.self_cpu, record.self_wall = tracer.self_cpu, tracer.self_wall
                counts.update(op_counts)
            if error:
                failures.append(error)
                continue
            op.check(result)
            if rnd >= 0:
                records.append(record)
        if traced:
            tracer.uninstall()
            round_counts.append(counts)
        rnd += 1
        if rnd == 0 or (trace and rnd % 2):
            continue
        if quick or time.perf_counter() - start >= seconds:
            return records, failures, round_counts, attempted


def _quantile_summary(values: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    out = {"samples": len(values), "p50": statistics.median(values)}
    for cuts, name in ((1000, "p99.9"), (100, "p99"), (10, "p90")):
        if len(values) / cuts >= 10:
            out[name] = statistics.quantiles(values, n=cuts)[-1]
            break
    return out


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def _rates(records: list[Record], scaled: bool) -> dict:
    """Examples per wall second and median CPU ms per example, at reference
    host speed when ``scaled``."""
    speed = [r.speed if scaled else 1.0 for r in records]
    return {
        "examples_per_s": sum(r.examples for r in records)
        / sum(r.wall * f for r, f in zip(records, speed)),
        "cpu_ms_per_example": 1000
        * statistics.median(r.cpu * f / r.examples for r, f in zip(records, speed)),
    }


def end_to_end(records: list[Record]) -> dict:
    values = _rates(records, scaled=True)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return with_units(values, END_TO_END_UNITS)


def per_layer(records: list[Record], round_counts: list[Counter]) -> dict:
    """Self times in ms per example at reference host speed, summed over the
    traced ops; counts per round."""
    traced = [r for r in records if r.traced]
    ms = 1000 / sum(r.examples for r in traced)

    def total(value) -> float:
        return sum(value(r) * r.speed for r in traced) * ms

    metrics = {
        f"{name}.cpu_ms": total(lambda r, name=name: r.self_cpu[name])
        for name in SPAN_CPU_METRICS
    }
    save = "dataset_io.save_matrix"
    metrics[f"{save}.wait_ms"] = total(lambda r: r.self_wall[save] - r.self_cpu[save])
    metrics["cli.self.cpu_ms"] = total(lambda r: r.cpu - r.span_cpu)
    metrics["op.wait_ms"] = total(lambda r: r.wall - r.cpu)
    units = dict.fromkeys(metrics, "ms")
    for name, unit in COUNT_METRICS.items():
        metrics[name] = round_counts[0][name]
        units[name] = unit
    return with_units(metrics, units)


def trace_report(records: list[Record], tracer: Tracer, round_counts, args) -> dict:
    """Reference figures and raw spans for the trace file.  Times here are
    as measured, not scaled to reference host speed."""

    def per_op(traced: bool) -> dict:
        chosen = [r for r in records if r.traced == traced]
        return {
            "cpu_ms_per_op": _quantile_summary([1000 * r.cpu for r in chosen]),
            "wall_ms_per_op": _quantile_summary([1000 * r.wall for r in chosen]),
            "as_measured": _rates(chosen, scaled=False),
            "at_reference_speed": _rates(chosen, scaled=True),
        }

    traced = [r for r in records if r.traced]
    self_cpu: Counter = Counter()
    self_wall: Counter = Counter()
    for r in traced:
        self_cpu.update(r.self_cpu)
        self_wall.update(r.self_wall)
    untraced_ops, traced_ops = per_op(False), per_op(True)
    before = untraced_ops["at_reference_speed"]["cpu_ms_per_example"]
    after = traced_ops["at_reference_speed"]["cpu_ms_per_example"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "missing": tracer.missing,
        "layers": {
            name: {
                "calls": tracer.calls[name],
                "self_cpu_ms": 1000 * self_cpu[name],
                "self_wall_ms": 1000 * self_wall[name],
            }
            for name in sorted(tracer.calls)
        },
        "counts_per_round": dict(sorted(round_counts[0].items())),
        "accounting": {
            "op_cpu_ms": 1000 * sum(r.cpu for r in traced),
            "span_self_cpu_ms": 1000 * sum(self_cpu.values()),
            "uncovered_cpu_ms": 1000 * sum(r.cpu - r.span_cpu for r in traced),
            "min_op_uncovered_cpu_ms": 1000 * min(r.cpu - r.span_cpu for r in traced),
        },
        "host_speed_factor": _quantile_summary([r.speed for r in records]),
        "per_op": {"untraced": untraced_ops, "traced": traced_ops},
        "tracing_overhead": {
            "cpu_ms_per_example": after - before,
            "share": (after - before) / before,
        },
        "span_fields": SPAN_FIELDS,
        "spans": tracer.spans,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--extra-target", nargs=3, action="append", default=[],
                        metavar=("MODULE", "ATTR", "SPAN"),
                        help="trace one more function (used to test missing names)")
    args = parser.parse_args()

    manifest = json.loads((args.inputs / "manifest.json").read_text(encoding="utf-8"))
    schema_path = args.inputs / manifest["schema"] if "schema" in manifest else None
    params, schema = program_setup(args.workload, schema_path)

    work = args.inputs / "out"
    work.mkdir(exist_ok=True)
    if "shards" in manifest:
        ops = corpus_ops(args.workload, args.inputs, manifest, work)
    else:
        ops = turn_ops(args.workload, args.inputs, manifest, params, schema, args.seed)

    tracer = Tracer((*TARGETS, *map(tuple, args.extra_target)))
    result: dict = {"ops_per_round": len(ops)}
    try:
        records, failures, round_counts, attempted = measure(
            ops, args.seconds, bool(args.trace), args.quick, tracer,
            CALIBRATION.get(args.workload, "python"),
        )
    except checks.CheckFailed as exc:
        result.update(correct=False, error=str(exc), attempted=1, failed=0, failures=[],
                      metrics={})
        args.result.write_text(json.dumps(result), encoding="utf-8")
        return
    if not records:
        result.update(correct=False, error="no op succeeded", attempted=attempted,
                      failed=len(failures), failures=failures[:20], metrics={})
        args.result.write_text(json.dumps(result), encoding="utf-8")
        return
    result.update(
        correct=True,
        attempted=attempted,
        failed=len(failures),
        failures=failures[:20],
        rounds=records[-1].round + 1,
    )
    if args.trace:
        if any(counts != round_counts[0] for counts in round_counts):
            result.update(correct=False, error="behaviour counts differ between rounds")
        if any(r.cpu - r.span_cpu < -1e-9 for r in records if r.traced):
            result.update(correct=False, error="spans cover more CPU than their op")
        result["metrics"] = per_layer(records, round_counts)
        report = trace_report(records, tracer, round_counts, args)
        args.trace_out.write_text(json.dumps(report), encoding="utf-8")
        result["missing"] = tracer.missing
        result["tracing_overhead"] = report["tracing_overhead"]
    else:
        result["metrics"] = end_to_end(records)
    args.result.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
