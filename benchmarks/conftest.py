"""Shared fixtures for the benchmark harness.

Each ``bench_*`` module times one layer of the evaluation stack (cache
backend, codec, linter, network sweep, service, event stream). The
paper's claims are checked by the tier-1 suite, not here.
"""

import pytest

from repro.energy import Estimator


@pytest.fixture(scope="session")
def estimator():
    return Estimator()


def emit(title: str, body: str) -> None:
    """Print a labelled experiment artifact under ``-s``/captured logs."""
    banner = "=" * len(title)
    print(f"\n{title}\n{banner}\n{body}\n")
