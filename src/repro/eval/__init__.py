"""The evaluation stack: sweeps, Pareto, reporting.

:mod:`repro.eval.engine` turns declared (design, sparsity, shape)
cells into memoized evaluations under the paper's rule (each design
realizes each sparsity *degree* in the structure flavor it supports,
may swap operands, and the lowest-EDP candidate wins — Sec. 7.1.1);
the experiment functions in :mod:`repro.eval.experiments` regenerate
every figure and table of the evaluation section on top of it;
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
    from repro.eval.cache import PersistentCache, estimator_fingerprint
    from repro.eval.engine import (
        Cell,
        SweepEngine,
        SweepResult,
        best_metrics,
        evaluate_workload,
        grid_cells,
    )
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
        "cache": ("PersistentCache", "estimator_fingerprint"),
        "engine": (
            "Cell", "SweepEngine", "SweepResult", "best_metrics",
            "evaluate_workload", "grid_cells",
        ),
        "pareto": ("pareto_frontier", "is_on_frontier"),
        "runs": (
            "RunRecord", "load_record", "record_from_model_sweep",
            "record_from_sweep",
        ),
    },
    submodules=("experiments", "reporting"),
)

__all__ = [
    "PersistentCache",
    "estimator_fingerprint",
    "Cell",
    "SweepEngine",
    "SweepResult",
    "best_metrics",
    "evaluate_workload",
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
