"""Probe-set bit-exactness of the cost models.

Every registered design is evaluated on a fixed probe set of operand
pairs at a square and a skinny shape. The energy fold prices events
through the estimator's per-architecture event table; here each blob is
checked against a reference fold that looks every event's component up
with ``arch.component()`` and prices it with the plug-in directly. Both
routes run in the same process, so the comparison holds on any Python
version (float summation in ``sum`` differs between 3.11 and 3.12, but
never within one interpreter).
"""

import hashlib
from typing import Dict, Iterator, List, Optional, Tuple

import pytest

from repro.accelerators import REGISTRY
from repro.accelerators.realization import CANONICAL_HSS, g8_operand
from repro.arch.spec import ArchitectureSpec
from repro.energy import Estimator
from repro.energy.plugins import default_plugins, iter_supported
from repro.eval.codec import encode_metrics
from repro.eval.engine import evaluate_workload
from repro.model.activity import ActivityCounts
from repro.model.workload import (
    MatmulWorkload,
    OperandSparsity,
    dense_operand,
    hss_operand,
    unstructured_operand,
)

#: Dense, canonical HSS at each canonical degree, one G:8 pattern and
#: unstructured: every operand flavor some design natively supports.
PROBE_OPERANDS: Dict[str, OperandSparsity] = {
    "dense": dense_operand(),
    "hss0.5": hss_operand(CANONICAL_HSS[0.5]),
    "hss0.625": hss_operand(CANONICAL_HSS[0.625]),
    "hss0.75": hss_operand(CANONICAL_HSS[0.75]),
    "g8": g8_operand(0.625),
    "unstructured": unstructured_operand(0.6),
}

#: (M, K, N): a square GEMM and a skinny, batch-like one.
PROBE_SHAPES: Tuple[Tuple[int, int, int], ...] = (
    (256, 256, 256),
    (1024, 512, 16),
)


def probe_workloads() -> Iterator[Tuple[str, MatmulWorkload]]:
    """Every (A, B) probe operand pair at every probe shape."""
    for m, k, n in PROBE_SHAPES:
        for a_name, a in PROBE_OPERANDS.items():
            for b_name, b in PROBE_OPERANDS.items():
                yield (
                    f"{m}x{k}x{n}/A={a_name}/B={b_name}",
                    MatmulWorkload(m=m, k=k, n=n, a=a, b=b),
                )


def probe_blobs(estimator: Estimator) -> List[Tuple[str, Optional[bytes]]]:
    """(probe id, v2 blob or ``None`` when unsupported), in a fixed
    order: every registered design on every probe workload."""
    out: List[Tuple[str, Optional[bytes]]] = []
    for design_name in REGISTRY.names():
        design = REGISTRY.shared(design_name)
        for probe_id, workload in probe_workloads():
            metrics = evaluate_workload(design, workload, estimator)
            out.append((
                f"{design_name}/{probe_id}",
                None if metrics is None else encode_metrics(metrics),
            ))
    return out


def probe_digest(blobs: List[Tuple[str, Optional[bytes]]]) -> str:
    """sha256 over the probe blobs in order (``None`` hashes as an
    empty blob; every real blob is longer than its length prefix)."""
    digest = hashlib.sha256()
    for _, blob in blobs:
        blob = blob or b""
        digest.update(len(blob).to_bytes(4, "little"))
        digest.update(blob)
    return digest.hexdigest()


def reference_fold(
    self: ActivityCounts, arch: ArchitectureSpec, estimator: Estimator
) -> Dict[str, float]:
    """The per-component energy fold priced without any memo: each
    event's component through ``arch.component()``, its per-action
    energy from the first plug-in supporting the component's class."""
    plugins = default_plugins(estimator.table)
    energy: Dict[str, float] = {}
    for (name, action), count in self.counts.items():
        component = arch.component(name)
        plugin = next(iter_supported(plugins, component.component_class))
        per_action = plugin.energy_pj(component, action)
        energy[name] = energy.get(name, 0.0) + per_action * count
    return energy


@pytest.fixture(scope="module")
def blob_pairs():
    """(fast-path blobs, reference-fold blobs), each from a fresh
    estimator."""
    fast = probe_blobs(Estimator())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ActivityCounts, "energy_pj", reference_fold)
        reference = probe_blobs(Estimator())
    return fast, reference


def test_probe_set_covers_every_design_and_both_outcomes(blob_pairs):
    fast, _ = blob_pairs
    designs = {probe_id.split("/")[0] for probe_id, _ in fast}
    assert designs == set(REGISTRY.names())
    assert len(fast) == (
        len(REGISTRY.names()) * len(PROBE_SHAPES) * len(PROBE_OPERANDS) ** 2
    )
    supported = sum(blob is not None for _, blob in fast)
    assert 0 < supported < len(fast)


def test_blobs_equal_the_reference_fold(blob_pairs):
    fast, reference = blob_pairs
    mismatched = [
        probe_id
        for (probe_id, blob), (_, expected) in zip(fast, reference)
        if blob != expected
    ]
    assert not mismatched, mismatched
    assert probe_digest(fast) == probe_digest(reference)


def test_unsupported_pairs_stay_none(blob_pairs):
    fast, _ = blob_pairs
    outcomes = dict(fast)
    for design_name in REGISTRY.names():
        design = REGISTRY.shared(design_name)
        for probe_id, workload in probe_workloads():
            blob = outcomes[f"{design_name}/{probe_id}"]
            assert (blob is None) == (not design.supports(workload))


def test_a_warm_estimator_gives_the_same_blobs(blob_pairs):
    """A second pass over the probe set, now served entirely from the
    warm event tables, reproduces the first pass."""
    estimator = Estimator()
    first = probe_blobs(estimator)
    assert probe_blobs(estimator) == first == blob_pairs[0]
