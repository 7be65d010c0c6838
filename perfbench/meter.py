"""Host speed meter: a child process timing a fixed tick of pure Python.

Usage::

    python -I perfbench/meter.py

Every :data:`PERIOD_S` it runs :func:`tick` and prints one line,
``<start> <duration>``, both in ``time.perf_counter()`` seconds (the
monotonic clock every process on the host shares). It stops when its
stdin closes or on SIGTERM. At about 0.3 ms of work per 20 ms it keeps
roughly 2% of one core busy, so it mostly reads the speed of the core
the measured program does not use.
"""

from __future__ import annotations

import signal
import sys
import threading
import time

PERIOD_S = 0.02
TICK_ITERATIONS = 4000


def tick() -> float:
    """Seconds taken by a fixed dict-store loop."""
    start = time.perf_counter()
    table = {}
    for i in range(TICK_ITERATIONS):
        table[i & 511] = i
    return time.perf_counter() - start


def main() -> int:
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    # The parent closes our stdin to stop us, and never writes to it.
    threading.Thread(target=lambda: (sys.stdin.read(), stop.set()),
                     daemon=True).start()
    due = time.perf_counter()
    while not stop.is_set():
        start = time.perf_counter()
        took = tick()
        try:
            print(f"{start:.6f} {took:.7f}", flush=True)
        except (BrokenPipeError, ValueError):
            break
        # After a stall, resume the period from now rather than catch up.
        due = max(due + PERIOD_S, time.perf_counter())
        stop.wait(due - time.perf_counter())
    return 0


if __name__ == "__main__":
    sys.exit(main())
