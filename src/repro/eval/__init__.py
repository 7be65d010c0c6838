"""Experiment harness: realizations, sweeps, Pareto, reporting.

:mod:`repro.eval.harness` applies the paper's evaluation rules (each
design gets each sparsity *degree* realized in the structure flavor it
supports, and operands may be swapped — Sec. 7.1);
:mod:`repro.eval.engine` turns declared (design, workload, sparsity)
grids into memoized cell evaluations; the experiment functions in
:mod:`repro.eval.experiments` regenerate every figure and table of the
evaluation section on top of it;
:mod:`repro.eval.reporting` prints them in the same rows/series the
paper reports, and :mod:`repro.eval.runs` snapshots whole sweep
invocations as JSON run records.

Names load on first access, so importing one submodule (``repro
list`` reads only :mod:`repro.eval.artifacts`' registry) does not
import the rest.
"""

from typing import TYPE_CHECKING

from repro.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.eval.harness import (
        best_metrics,
        evaluate_cell,
        evaluate_workload,
        realize_workloads,
        workload_for_layer,
    )
    from repro.eval.cache import PersistentCache, estimator_fingerprint
    from repro.eval.engine import Cell, SweepEngine, SweepResult, grid_cells
    from repro.eval.pareto import pareto_frontier, is_on_frontier
    from repro.eval.runs import (
        RunRecord,
        load_record,
        record_from_model_sweep,
        record_from_sweep,
    )
    from repro.eval import experiments, reporting

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "harness": (
            "best_metrics", "evaluate_cell", "evaluate_workload",
            "realize_workloads", "workload_for_layer",
        ),
        "cache": ("PersistentCache", "estimator_fingerprint"),
        "engine": ("Cell", "SweepEngine", "SweepResult", "grid_cells"),
        "pareto": ("pareto_frontier", "is_on_frontier"),
        "runs": (
            "RunRecord", "load_record", "record_from_model_sweep",
            "record_from_sweep",
        ),
    },
    submodules=("experiments", "reporting"),
)

__all__ = [
    "best_metrics",
    "evaluate_cell",
    "evaluate_workload",
    "realize_workloads",
    "workload_for_layer",
    "PersistentCache",
    "estimator_fingerprint",
    "Cell",
    "SweepEngine",
    "SweepResult",
    "grid_cells",
    "pareto_frontier",
    "is_on_frontier",
    "RunRecord",
    "load_record",
    "record_from_model_sweep",
    "record_from_sweep",
    "experiments",
    "reporting",
]
