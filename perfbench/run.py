"""Benchmark entry point.

Usage::

    python3 perfbench/run.py --workload {grid_sweep,serve_mix}
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

One workload prints each metric by name, unit and sample count, then a
last line of JSON: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run. ``--workload all`` runs every
workload in turn and exits 1 if any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from typing import List

import inputs
from cli_workloads import WORKLOADS as CLI_WORKLOADS
from common import (
    PER_LAYER, REFERENCE_TICK_S, SPEC, WORK, BenchError, Outcome, Tamper,
    median, require_program, run_dir, stop_clocks,
)
from serve_workload import ServeMix, stop_all

WORKLOADS = {**CLI_WORKLOADS, ServeMix.name: ServeMix}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tamper: Tamper = None) -> Outcome:
    out = Outcome(name)
    workload = WORKLOADS[name](out, seed, tamper)
    workdir = run_dir(name)
    try:
        if trace:
            per_layer, cycles = workload.run_traced(seconds, workdir)
            for metric in PER_LAYER:
                out.set(metric, per_layer[metric], cycles,
                        "median over traced cycles")
        else:
            workload.run(seconds, workdir)
    finally:
        stop_all()
        stop_clocks()
        for path in WORK.glob(f"{os.getpid()}-*"):
            shutil.rmtree(path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    return out


def describe(out: Outcome, seed: int, seconds: float, trace: bool) -> List[str]:
    lines = [
        f"workload={out.workload} seed={seed} seconds={seconds:g} "
        f"trace={int(trace)} nproc={os.cpu_count()} "
        f"python={platform.python_version()}",
    ]
    for name, metric in out.metrics.items():
        lines.append(
            f"  {name:26s} {metric.value:14.4f} {metric.unit:6s} "
            f"n={metric.samples:<5d} {metric.note}"
        )
    lines.append(
        f"  {'error_rate':26s} {out.error_rate:14.4f} {'':6s} "
        f"{out.failed}/{out.attempted} operations failed"
    )
    if out.ticks:
        lines.append(
            f"  times are reference seconds; host meter tick median "
            f"{median([took for _, took in out.ticks]) * 1e6:.0f} us "
            f"(reference {REFERENCE_TICK_S * 1e6:.0f} us), "
            f"n={len(out.ticks)}"
        )
    lines += [f"  FAILED: {problem}" for problem in out.problems]
    return lines


def result_line(out: Outcome) -> str:
    return json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": metric.value, "unit": metric.unit}
            for name, metric in out.metrics.items()
        },
    })


def run_all(args: argparse.Namespace) -> int:
    """Every workload as its own benchmark process, one after another."""
    wrong = False
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"  {name}: no result (exit {proc.returncode}): "
                  f"{proc.stderr.strip()[-500:]}")
            wrong = True
            continue
        wrong = wrong or not result["correct"]
    return 1 if wrong else 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_program()
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        out = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    print("\n".join(describe(out, args.seed, args.seconds, bool(args.trace))))
    print(result_line(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
