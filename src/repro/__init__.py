"""repro: a reproduction of HighLight (MICRO 2023).

Hierarchical structured sparsity (HSS) and a flexible, efficient sparse
DNN accelerator model, including the fibertree sparsity specification,
HSS sparsification, compression formats, an Accelergy-style energy/area
estimator, a Sparseloop-style analytical performance model, the five
evaluated accelerator designs (TC, STC, S2TA, DSTC, HighLight) plus the
dual-side DSSO variant, a functional micro-architecture simulator, DNN
workload tables, a pruning/fine-tuning pipeline, and the experiment
harness that regenerates every figure and table in the paper.
"""

from typing import TYPE_CHECKING

from repro.lazy import lazy_exports

__version__ = "1.0.0"

if TYPE_CHECKING:
    from repro.sparsity import (
        GH,
        GHRange,
        HSSPattern,
        SparsitySpec,
        parse_spec,
        sparsify,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "sparsity": (
        "GH", "GHRange", "HSSPattern", "SparsitySpec", "parse_spec",
        "sparsify",
    ),
})

__all__ = [
    "GH",
    "GHRange",
    "HSSPattern",
    "SparsitySpec",
    "parse_spec",
    "sparsify",
    "__version__",
]
