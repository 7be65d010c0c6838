"""Self-tests of the benchmark: seeds, tracing, metrics and output checks.

    python3 perfbench/selftest.py

Takes about half a minute: the output-check tests run each workload
briefly with one output corrupted and expect ``error_rate`` > 0.
"""

from __future__ import annotations

import itertools
import sys
import threading
from typing import Callable, List

import inputs
import layers
import tracing
from common import END_TO_END, SPEC, require_program
from run import run_workload


class Failure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Failure(message)


def test_seeds() -> None:
    """One seed gives identical inputs; another seed does not."""
    seed, other = inputs.DEFAULT_SEED, inputs.HELD_OUT_SEED
    expect(seed != other, "held-out seed equals the default seed")
    degrees = inputs.grid_degrees(seed)
    expect(degrees == inputs.grid_degrees(seed), "grid degrees not repeatable")
    expect(degrees != inputs.grid_degrees(other), "grid degrees ignore seed")
    expect(set(inputs.FIXED_DEGREES) <= set(degrees), "fixed degrees missing")
    expect(45 <= len(degrees) <= 60, f"{len(degrees)} grid degrees")
    expect(inputs.grid_sizes(seed) == inputs.grid_sizes(seed),
           "grid sizes not repeatable")

    def mix(value: int) -> List[inputs.Request]:
        schedule = inputs.ServeMix(value)
        requests = schedule.warmup()
        for pair in itertools.islice(schedule.rounds(), 100):
            requests.extend(pair)
        return requests

    expect(mix(seed) == mix(seed), "request mix not repeatable")
    expect(mix(seed) != mix(other), "request mix ignores seed")
    kinds = {request.kind for request in mix(seed)}
    expect({"artifact", "sweep_cold", "sweep_warm", "coalesce",
            "invalid"} <= kinds, f"request kinds {sorted(kinds)}")


def test_tracing_threads() -> None:
    """Spans recorded by racing threads keep their own counts."""
    recorder = tracing.Recorder()
    counted = recorder.wrap("counted", lambda: None,
                            count=lambda args, kwargs, result, state: {"n": 1})
    plain = recorder.wrap("plain", lambda: None)
    calls = 2000

    def work() -> None:
        for _ in range(calls):
            counted()
            plain()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    expect(not any(thread.is_alive() for thread in threads),
           "tracing threads did not finish")
    names = list(recorder.layers)
    rows = recorder.rows()
    expect(len(rows) == 2 * 4 * calls, f"{len(rows)} spans recorded")
    for row in rows:
        wanted = {"n": 1} if names[row[0]] == "counted" else None
        expect(row[-1] == wanted, f"{names[row[0]]} span carries {row[-1]}")


def test_importtime() -> None:
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        30 |        180 | repro.sparsity",
        "import time:        20 |        200 | repro",
    ])
    parsed = layers.parse_importtime(stderr)
    expect(parsed["startup.import_ms"] == 0.2, f"{parsed}")
    expect(parsed["startup.numpy_ms"] == 0.15, f"{parsed}")
    expect(parsed["startup.repro_ms"] == 0.05, f"{parsed}")
    expect(parsed["startup.asyncio_ms"] == 0.0, f"{parsed}")


def corrupt_once(kind: str) -> Callable[[str, str], str]:
    """A tamper hook flipping one character of the first ``kind`` output."""
    state = {"done": False}

    def tamper(output_kind: str, text: str) -> str:
        if state["done"] or output_kind != kind or not text:
            return text
        state["done"] = True
        middle = len(text) // 2
        flipped = "0" if text[middle] != "0" else "1"
        return text[:middle] + flipped + text[middle + 1:]

    return tamper


#: Workload -> the kind of output the self-test corrupts.
CORRUPTED = {"grid_sweep": "warm", "serve_mix": "artifact"}


def test_corrupted_outputs() -> None:
    """Every workload BENCHMARK.json names reports every end-to-end
    metric, and counts one corrupted output as a failure."""
    for workload in (w["name"] for w in SPEC["workloads"]):
        kind = CORRUPTED[workload]
        clean = run_workload(workload, inputs.DEFAULT_SEED, 0.1, False)
        expect(clean.correct, f"{workload}: clean run failed: "
               f"{clean.problems}")
        expect(set(clean.metrics) == set(END_TO_END),
               f"{workload}: reports {sorted(clean.metrics)}")
        out = run_workload(workload, inputs.DEFAULT_SEED, 0.1, False,
                           corrupt_once(kind))
        expect(out.failed == 1 and out.error_rate > 0 and not out.correct,
               f"{workload}: corrupted {kind} output gave "
               f"{out.failed}/{out.attempted} failed")


def main() -> int:
    require_program()
    failed = 0
    for test in (test_seeds, test_tracing_threads, test_importtime,
                 test_corrupted_outputs):
        try:
            test()
        except Failure as error:
            failed += 1
            print(f"FAIL {test.__name__}: {error}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
