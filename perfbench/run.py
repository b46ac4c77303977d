"""Benchmark for qurg: four seeded closed-loop workloads, one per layer.

Run from the repository root (the package need not be installed):

    python3 perfbench/run.py --workload roundtrip-short --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --quick

A run generates its inputs from ``--seed``, times the program's set-up in
several fresh interpreters, then runs one worker process that loops over
the workload's ops for ``--seconds`` and checks every output.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics from a traced run with ``--trace 1``).  A traced run
also writes ``perfbench/out/trace-<workload>.json``.

``--quick`` runs every workload once at small size, traced and untraced,
with every check on, and exits non-zero if anything fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import inputs as input_gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
OUT = HERE / "out"
# All bytecode goes to one cache inside the benchmark's directory, written
# even where the environment says not to write it: without a cache, every
# fresh interpreter compiles numpy and qurg again, and set-up would time
# the compiler.
sys.pycache_prefix = str(WORK / "pycache")
sys.dont_write_bytecode = False

WORKLOADS = ("roundtrip-short", "build-matrix-longturn", "encode-turns", "schema-link-wide")
# Fresh interpreters timed for setup_s.
SETUP_PROBES = 12
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env


def setup_probes(workload: str, schema: Path | None, count: int) -> list[float]:
    """CPU seconds of the program's set-up in ``count`` fresh interpreters,
    each scaled to reference host speed (see ``hostspeed``)."""
    argv = [sys.executable, str(HERE / "program_setup.py"), workload]
    if schema is not None:
        argv.append(str(schema))
    samples = []
    for _ in range(count):
        done = subprocess.run(
            argv, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        )
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append(sample["setup_s"] * sample["speed"])
    return samples


def run_worker(workload, inputs, seed, seconds, trace, quick, extra_targets=()) -> dict:
    result_path = inputs / "result.json"
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--inputs", str(inputs), "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--result", str(result_path),
    ]
    if quick:
        argv.append("--quick")
    if trace:
        OUT.mkdir(exist_ok=True)
        argv += ["--trace-out", str(OUT / f"trace-{workload}.json")]
    for target in extra_targets:
        argv += ["--extra-target", *target]
    done = subprocess.run(
        argv, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=seconds + CHILD_TIMEOUT_S,
    )
    if done.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"worker for {workload} failed:\n{done.stderr}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def bench(workload: str, seed: int, seconds: float, trace: int, quick=False, extra_targets=()):
    """Generate inputs, time set-up, run the worker; return the result line."""
    inputs = WORK / f"{workload}.{os.getpid()}"
    shutil.rmtree(inputs, ignore_errors=True)
    try:
        manifest = input_gen.write_inputs(workload, seed, inputs, quick)
        schema = inputs / manifest["schema"] if "schema" in manifest else None
        # Untimed: fill the bytecode cache with the worker's and the
        # program's modules, so that the first run in a fresh checkout does
        # not compile them while it is measured.
        subprocess.run([sys.executable, str(HERE / "worker.py"), "--help"], env=child_env(),
                       capture_output=True, timeout=CHILD_TIMEOUT_S, check=True)
        setup_probes(workload, schema, 1)
        if not trace:
            # Half the probes run before the worker and half after, so that
            # they see the host at two moments.
            setup = setup_probes(workload, schema, SETUP_PROBES // 2)
        result = run_worker(workload, inputs, seed, seconds, trace, quick, extra_targets)
        if not trace and result["correct"]:
            setup += setup_probes(workload, schema, SETUP_PROBES - SETUP_PROBES // 2)
            result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    return line, result


def quick() -> int:
    """Every workload once at small size, untraced and traced, all checks on."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared_e2e = {m["name"] for m in declared["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    missing_target = ("qurg.rewrite_diff", "no_such_function", "quick.missing")
    ok = True
    for workload in WORKLOADS:
        line, untraced = bench(workload, 1, 0, 0, quick=True)
        traced_line, traced = bench(workload, 1, 0, 1, quick=True, extra_targets=[missing_target])
        problems = [
            f"{label}: {result.get('error', '')} {result['failures']}"
            for label, result in (("untraced", untraced), ("traced", traced))
            if not result["correct"] or result["failed"]
        ]
        if not problems:
            if set(line["metrics"]) != declared_e2e:
                problems.append("end-to-end metric names differ from BENCHMARK.json")
            layer_units = {n: m["unit"] for n, m in traced_line["metrics"].items()}
            if layer_units != declared_layer:
                problems.append("per-layer metric names or units differ from BENCHMARK.json")
            if traced["missing"] != ["qurg.rewrite_diff.no_such_function"]:
                problems.append(f"trace should miss exactly one name: {traced['missing']}")
        ok = ok and not problems
        print(f"{workload}: {'ok' if not problems else '; '.join(problems)}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small self-test of every workload")
    args = parser.parse_args()
    for needed in (ROOT / "src" / "qurg" / "__init__.py", ROOT / "tests" / "generators.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a qurg checkout",
                  file=sys.stderr)
            return 2
    if args.quick:
        return quick()
    if args.workload is None:
        parser.error("--workload is required unless --quick is given")
    try:
        line, result = bench(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"{args.workload} seed {args.seed}: {result.get('rounds', 0)} timed rounds of "
        f"{result['ops_per_round']} ops after one warm-up round, "
        f"{result['attempted']} attempted, {result['failed']} failed"
    )
    if args.trace:
        print(f"tracing overhead: {json.dumps(result.get('tracing_overhead'))}; "
              f"trace written to {OUT.relative_to(ROOT)}/trace-{args.workload}.json")
    if not result["correct"]:
        print(f"error: {result.get('error')}", file=sys.stderr)
    for failure in result.get("failures", []):
        print(f"failed op: {failure}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
