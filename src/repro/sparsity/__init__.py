"""Hierarchical structured sparsity (HSS): the paper's core contribution.

Public surface:

* :class:`GH` / :class:`GHRange` / :class:`Unconstrained` — per-rank
  pruning rules (paper Sec. 3.2).
* :class:`RankSpec` / :class:`SparsitySpec` — the precise fibertree-based
  sparsity specification of Table 2, with a parser for strings like
  ``"RS->C1(3:4)->C0(2:4)"``.
* :class:`HSSPattern` — an N-rank HSS instance: per-rank G:H patterns,
  density-degree composition (Fig. 1), overall sparsity (Sec. 4.1.2).
* :func:`supported_degrees` / :func:`mux_cost` — the design-space
  analyses behind Fig. 6.
* :func:`sparsify` — rank-by-rank magnitude HSS sparsification of numpy
  matrices (Sec. 4.2), plus unstructured pruning for baselines.
* :func:`conforms` / :func:`measure_sparsity` — conformance checking.
"""

from typing import TYPE_CHECKING

from repro.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sparsity.pattern import GH, GHRange, Unconstrained, Dense
    from repro.sparsity.spec import RankSpec, SparsitySpec, parse_spec
    from repro.sparsity.hss import (
        HSSPattern,
        compose_densities,
        mux_cost,
        supported_degrees,
    )
    from repro.sparsity.sparsify import (
        random_hss_matrix,
        scaled_l2_norm,
        sparsify,
        sparsify_unstructured,
    )
    from repro.sparsity.analyze import (
        conforms,
        conformance_report,
        measure_sparsity,
    )
    from repro.sparsity.apply import apply_spec
    from repro.sparsity import library

# numpy loads with sparsify, analyze and apply; the cost models reach
# pattern and hss, and the spec parser reaches spec, without it.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "pattern": ("GH", "GHRange", "Unconstrained", "Dense"),
        "spec": ("RankSpec", "SparsitySpec", "parse_spec"),
        "hss": (
            "HSSPattern", "compose_densities", "mux_cost",
            "supported_degrees",
        ),
        "sparsify": (
            "random_hss_matrix", "scaled_l2_norm", "sparsify",
            "sparsify_unstructured",
        ),
        "analyze": ("conforms", "conformance_report", "measure_sparsity"),
        "apply": ("apply_spec",),
    },
    submodules=("library",),
)

__all__ = [
    "GH",
    "GHRange",
    "Unconstrained",
    "Dense",
    "RankSpec",
    "SparsitySpec",
    "parse_spec",
    "HSSPattern",
    "compose_densities",
    "mux_cost",
    "supported_degrees",
    "sparsify",
    "sparsify_unstructured",
    "random_hss_matrix",
    "scaled_l2_norm",
    "conforms",
    "conformance_report",
    "measure_sparsity",
    "apply_spec",
    "library",
]
