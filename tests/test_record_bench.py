"""The ``--compare`` gate of ``benchmarks/record_bench.py``."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "record_bench.py"


@pytest.fixture(scope="module")
def record_bench():
    spec = importlib.util.spec_from_file_location("record_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASELINE = {
    "schema_version": 4,
    "fig13_grid": {"cold_ms": 10.0, "warm_ms": 2.0},
}


def test_within_tolerance_passes(record_bench):
    payload = {"fig13_grid": {"cold_ms": 12.0, "warm_ms": 2.4}}
    assert record_bench.compare(payload, BASELINE, 0.25) == []


def test_regression_fails(record_bench):
    payload = {"fig13_grid": {"cold_ms": 13.0, "warm_ms": 2.0}}
    assert record_bench.compare(payload, BASELINE, 0.25) == [
        ("fig13_grid.cold_ms", 10.0, 13.0)
    ]


def test_gated_key_missing_from_baseline_fails(record_bench):
    payload = {
        "fig13_grid": {"cold_ms": 10.0, "warm_ms": 2.0},
        "repro_all_jobs1": {"cold_ms": 30.0, "warm_ms": 12.0},
    }
    assert record_bench.compare(payload, BASELINE, 0.25) == [
        ("repro_all_jobs1.cold_ms", None, 30.0),
        ("repro_all_jobs1.warm_ms", None, 12.0),
    ]
    renamed = {"fig13_grid": {"cold_batch_ms": 10.0, "warm_ms": 2.0}}
    assert record_bench.compare(payload, renamed, 0.25)[0] == (
        "fig13_grid.cold_ms", None, 10.0
    )
