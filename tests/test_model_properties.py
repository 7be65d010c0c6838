"""Property-based tests on the analytical model's invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerators import DSTC, TC
from repro.energy import Estimator
from repro.eval.engine import Cell, SweepEngine
from repro.model.workload import (
    MatmulWorkload,
    dense_operand,
    unstructured_operand,
)

ESTIMATOR = Estimator()
ENGINE = SweepEngine(ESTIMATOR)
A_DEGREES = st.sampled_from([0.0, 0.5, 0.625, 0.75])
B_DEGREES = st.floats(min_value=0.0, max_value=0.9)
SIZES = st.sampled_from([128, 256, 512, 1024])


def best(design, sparsity_a, sparsity_b, size):
    """The cell's best-EDP metrics (Sec. 7.1.1) on a square shape."""
    (metrics,) = ENGINE.evaluate_cells(
        [Cell(design, sparsity_a, sparsity_b, size, size, size)]
    )
    return metrics


@settings(max_examples=40, deadline=None)
@given(A_DEGREES, B_DEGREES, SIZES)
def test_metrics_well_formed(sparsity_a, sparsity_b, size):
    for design in ("TC", "STC", "DSTC", "HighLight"):
        metrics = best(design, sparsity_a, sparsity_b, size)
        assert metrics is not None
        assert metrics.energy_pj > 0
        assert metrics.cycles > 0
        assert math.isclose(
            metrics.edp, metrics.energy_pj * metrics.cycles
        )
        assert 0 < metrics.utilization <= 1.0


@settings(max_examples=40, deadline=None)
@given(A_DEGREES, B_DEGREES, SIZES)
def test_highlight_never_slower_than_dense(sparsity_a, sparsity_b, size):
    dense = best("TC", sparsity_a, sparsity_b, size)
    ours = best("HighLight", sparsity_a, sparsity_b, size)
    assert ours.cycles <= dense.cycles * (1 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(A_DEGREES, B_DEGREES, SIZES)
def test_stc_speedup_capped(sparsity_a, sparsity_b, size):
    dense = best("TC", sparsity_a, sparsity_b, size)
    stc = best("STC", sparsity_a, sparsity_b, size)
    assert stc.cycles >= dense.cycles * 0.5 - 1e-9


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=0.9),
    st.floats(min_value=0.0, max_value=0.9),
)
def test_dstc_energy_monotone_in_density(sparsity_a, sparsity_b):
    """Sparser operands never cost DSTC more energy."""
    size = 512
    base = DSTC().evaluate(
        MatmulWorkload(
            m=size, k=size, n=size,
            a=unstructured_operand(sparsity_a),
            b=unstructured_operand(sparsity_b),
        ),
        ESTIMATOR,
    )
    sparser = DSTC().evaluate(
        MatmulWorkload(
            m=size, k=size, n=size,
            a=unstructured_operand(min(0.95, sparsity_a + 0.05)),
            b=unstructured_operand(sparsity_b),
        ),
        ESTIMATOR,
    )
    assert sparser.energy_pj <= base.energy_pj * (1 + 1e-9)


@settings(max_examples=30, deadline=None)
@given(SIZES)
def test_tc_scale_free_normalization(size):
    """TC's EDP scales as size^5 (E ~ size^3 compute + size^2 traffic,
    D ~ size^3): the dense baseline is sane across sizes."""
    small = TC().evaluate(
        MatmulWorkload(m=size, k=size, n=size, a=dense_operand(),
                       b=dense_operand()),
        ESTIMATOR,
    )
    double = TC().evaluate(
        MatmulWorkload(m=2 * size, k=size, n=size, a=dense_operand(),
                       b=dense_operand()),
        ESTIMATOR,
    )
    assert double.cycles == 2 * small.cycles
    assert double.energy_pj > small.energy_pj
