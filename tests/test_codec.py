"""The packed metrics codec (`repro.eval.codec`).

The codec's contract is *exactness*: a decode returns the same floats
that were encoded (raw IEEE-754, no text round-trip) and preserves
energy-breakdown key order, so every equality here is ``==``.
Structural corruption — and the retired v1 form, a JSON TEXT row —
must surface as :class:`~repro.errors.CacheError`, never a silent
wrong answer.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.accelerators  # noqa: F401 - populates the registry
from repro.accelerators.registry import REGISTRY
from repro.energy.estimator import Estimator
from repro.errors import CacheError
from repro.eval import codec
from repro.model.metrics import Metrics
from repro.model.workload import synthetic_workload
from repro.serialization import metrics_to_dict


@pytest.fixture(scope="module")
def estimator():
    return Estimator()


@pytest.fixture(scope="module")
def metrics(estimator):
    design = REGISTRY.shared("HighLight")
    workload = synthetic_workload(0.5, 0.25, size=128)
    return design.evaluate(workload, estimator)


def _assert_exact(a: Metrics, b: Metrics) -> None:
    assert a == b
    # Dict equality is order-insensitive; the render/serialize paths
    # are not, so key order is part of the contract.
    assert list(a.energy_breakdown_pj) == list(b.energy_breakdown_pj)
    assert a.energy_pj == b.energy_pj
    assert a.edp == b.edp


class TestBlobRoundTrip:
    def test_decode_is_bit_exact(self, metrics):
        _assert_exact(codec.decode_blob(codec.encode_metrics(metrics)), metrics)

    def test_flags_round_trip(self, metrics):
        for supported, swapped in (
            (True, True), (True, False), (False, True), (False, False)
        ):
            variant = dataclasses.replace(
                metrics, supported=supported, swapped=swapped
            )
            decoded = codec.decode_blob(codec.encode_metrics(variant))
            assert decoded.supported is supported
            assert decoded.swapped is swapped

    def test_non_ascii_strings_round_trip(self, metrics):
        variant = dataclasses.replace(
            metrics, design="TensorCore-µ", workload="résumé 128³"
        )
        decoded = codec.decode_blob(codec.encode_metrics(variant))
        assert decoded.design == variant.design
        assert decoded.workload == variant.workload


class TestBlobCorruption:
    def test_unknown_version_refused(self, metrics):
        blob = bytearray(codec.encode_metrics(metrics))
        blob[0] = 9
        with pytest.raises(CacheError, match="codec version 9"):
            codec.decode_blob(bytes(blob))

    def test_truncated_blob_refused(self, metrics):
        blob = codec.encode_metrics(metrics)
        with pytest.raises(CacheError, match="corrupt metrics blob"):
            codec.decode_blob(blob[: len(blob) - 3])

    def test_name_count_mismatch_refused(self, metrics):
        blob = bytearray(codec.encode_metrics(metrics))
        # Corrupt the names block: NUL out a separator-adjacent byte so
        # the split yields a different name count than the header's n.
        names = "\0".join(metrics.energy_breakdown_pj).encode()
        start = bytes(blob).index(names)
        blob[start] = 0
        with pytest.raises(CacheError, match="names"):
            codec.decode_blob(bytes(blob))

    def test_v1_text_row_refused(self, metrics):
        """Older versions stored JSON TEXT rows; they are not read."""
        with pytest.raises(CacheError, match="corrupt metrics blob"):
            codec.decode_blob(json.dumps(metrics_to_dict(metrics)))
