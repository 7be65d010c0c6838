"""Traced launcher: ``repro`` with spans around each layer.

Usage::

    python perfbench/trace_entry.py TRACE.json -- <repro arguments>

Imports the program from ``PYTHONPATH``, wraps each layer's entry
points (see :mod:`tracing`), runs ``repro.cli.main`` with the given
arguments and writes the recorded spans to ``TRACE.json`` when ``main``
returns, including after a served process drains on SIGTERM.
"""

from __future__ import annotations

import sys

import tracing


def main(argv: list) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace_entry.py TRACE.json -- ARGS...", file=sys.stderr)
        return 2
    out, args = argv[0], argv[2:]
    import repro.cli

    recorder = tracing.Recorder()
    missing = tracing.install(recorder)
    if missing:
        print("perfbench: not traced: " + ", ".join(missing),
              file=sys.stderr)
    code: object = 0
    try:
        code = repro.cli.main(args)
    except SystemExit as error:
        code = error.code
    finally:
        recorder.write(out, args)
    return code if isinstance(code, int) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
