"""Benchmark of fairline's three heavy paths: the SP audit, the sweep command, the worst-case search.

Run from the repository root:

    python3 bench/run.py                      # every workload, timed then traced
    python3 bench/run.py --workload sweep --seed 3 --seconds 20 --trace 0

A run starts the workload in its own single-threaded Python process, which
does a fixed list of operations generated from `--seed` (its length is
`--seconds` times the workload's nominal rate; no clock cuts it short). This
process then checks every output against `reference.py`, and prints every
metric by name and unit. Its last line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.

`throughput_ops_s` and `latency_p50_ms` come from the operations' times at
the reference speed (`speed.py`): each step's wall time scaled by how fast
the machine ran a fixed kernel around it. `setup_s` is the median over
SETUP_SAMPLES process starts of the wall time from spawning the workload
process to its first operation (interpreter start, `import fairline`,
building the inputs).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

SETUP_SAMPLES = 7
# Workload processes must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170
END_TO_END = (
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The workload process could not run; no result is printed."""


def _spawn(workload: str, seed: int, seconds: int, trace: int, setup_only: bool):
    """Run one workload process.

    Returns the seconds from spawn to its `ready` line, its summary and the
    per-operation records (both None with `setup_only`).
    """
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **SINGLE_THREAD_ENV}
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} process ran past {CHILD_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload} process exited with {proc.returncode} before reporting")
    if setup_only:
        return setup_s, None, None
    lines = rest.splitlines()
    report = json.loads(lines[-1])
    operations = [json.loads(line) for line in lines[:-1]]
    if len(operations) != report["operations"]:
        raise BenchError(f"{workload} process reported {len(operations)} of {report['operations']} operations")
    return setup_s, report, operations


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One measured run; returns (the result object, the raw worker report)."""
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            setups.append(_spawn(workload, seed, seconds, 0, setup_only=True)[0])
    _, report, operations = _spawn(workload, seed, seconds, trace, setup_only=False)
    wall_ms, scaled_ms = speed.op_times(report)
    if not wall_ms:
        raise BenchError(f"no {workload} operation succeeded")
    report["wall_s"] = sum(wall_ms) / 1e3

    check = checks.CHECKS[workload]
    failed = 0
    problems: list[str] = []
    for i, op in enumerate(operations):
        if op["error"] is not None:
            failed += 1
            print(f"operation {i} failed:\n{op['error']}", file=sys.stderr)
            continue
        try:
            found = check(seed, i, op["output"])
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            found = [f"malformed output ({exc!r})"]
        problems.extend(f"operation {i}: {p}" for p in found)
    for p in problems[:20]:
        print(f"CHECK FAILED {workload} {p}", file=sys.stderr)

    if trace:
        metrics = {name: {"value": report["layers"][name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    else:
        values = {
            "throughput_ops_s": len(scaled_ms) / (sum(scaled_ms) / 1e3),
            "latency_p50_ms": statistics.median(scaled_ms),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        report["wall"] = {
            "throughput_ops_s": len(wall_ms) / report["wall_s"],
            "latency_p50_ms": statistics.median(wall_ms),
            "speed_ms": statistics.median(report["speed_ms"]),
        }
    result = {"correct": not problems, "attempted": report["operations"], "failed": failed, "metrics": metrics}
    return result, report


def _print_table(workload: str, result: dict, report: dict, trace: int) -> None:
    kind = "traced" if trace else "timed"
    print(f"== {workload} ({kind}): {result['attempted']} operations attempted, {result['failed']} failed, "
          f"outputs {'correct' if result['correct'] else 'WRONG'}, list wall time {report['wall_s']:.3f} s")
    for name, metric in result["metrics"].items():
        print(f"   {name:<38} {metric['value']:>14.6g} {metric['unit']}")
    if not trace:
        wall = report["wall"]
        print(f"   unscaled wall times: {wall['throughput_ops_s']:.6g} ops/s, p50 {wall['latency_p50_ms']:.6g} ms; "
              f"speed kernel median {wall['speed_ms']:.4g} ms (reference {speed.REFERENCE_MS} ms)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("all", *W.WORKLOADS), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25, help="nominal measured seconds of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced run reporting per-layer metrics (ignored with --workload all)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "fairline" / "__init__.py").is_file():
        print(f"error: no fairline sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    try:
        if args.workload != "all":
            result, report = run_workload(args.workload, args.seed, args.seconds, args.trace)
            _print_table(args.workload, result, report, args.trace)
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        summary = {}
        for workload in W.WORKLOADS:
            timed, timed_report = run_workload(workload, args.seed, args.seconds, 0)
            _print_table(workload, timed, timed_report, 0)
            traced, traced_report = run_workload(workload, args.seed, args.seconds, 1)
            _print_table(workload, traced, traced_report, 1)
            overhead = traced_report["wall_s"] / timed_report["wall_s"] - 1.0
            print(f"   tracing overhead (traced list wall time over timed, minus 1): {overhead:+.1%}")
            summary[workload] = {"timed": timed, "traced": traced, "tracing_overhead": overhead}
        print(json.dumps(summary))
        return 0 if all(s["timed"]["correct"] and s["traced"]["correct"] for s in summary.values()) else 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
