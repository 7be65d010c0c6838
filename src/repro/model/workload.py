"""Workload descriptions: matrix multiplications with sparse operands.

All DNN layers are processed as matrix multiplications (paper Sec. 6.1):
fully-connected/attention layers natively, convolutions after Toeplitz
expansion (:mod:`repro.dnn.toeplitz`). A workload therefore is an
(M, K, N) GEMM plus, for each operand, a density and a *structure*
describing how the zeros are arranged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Tuple

from repro.errors import WorkloadError
from repro.sparsity.hss import HSSPattern

#: Decimal places sparsity degrees/densities are quantized to for
#: content keys and canonical-pattern lookups. Grid arithmetic produces
#: float noise well below 1e-9; distinct degrees in any realistic sweep
#: differ by far more.
DEGREE_DECIMALS = 9

#: Entries each realization memo keeps: the interned operand
#: constructors below, the operand rules built on them
#: (:mod:`repro.accelerators.realization`) and the cache's per-operand
#: digest text. Bounded so a long-lived ``repro serve`` cannot grow
#: them without limit.
MEMO_SIZE = 4096


def quantize_degree(degree: float) -> float:
    """The canonical quantization of a sparsity degree (or density).

    Every cache key and canonical-pattern lookup in the code base must
    go through this one helper, so 0.5 and 0.5000000001 — float noise
    from grid arithmetic — always land on the same key.
    """
    return round(degree, DEGREE_DECIMALS)


#: A hashable, content-based operand key (structure + quantized density
#: + serialized HSS ranks).
OperandKey = Tuple[object, ...]

#: A hashable, content-based workload key: (m, k, n, A key, B key).
#: The display ``name`` is deliberately excluded — two workloads with
#: identical numerics share one key regardless of labeling.
WorkloadKey = Tuple[object, ...]


class Structure(enum.Enum):
    """How an operand's zeros are distributed."""

    DENSE = "dense"
    HSS = "hss"
    UNSTRUCTURED = "unstructured"


@dataclass(frozen=True)
class OperandSparsity:
    """Density plus structure of one GEMM operand.

    ``density`` is the fraction of nonzeros (1.0 for dense). For HSS
    operands ``pattern`` carries the concrete per-rank G:H rules.
    """

    density: float
    structure: Structure
    pattern: Optional[HSSPattern] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.density <= 1.0:
            raise WorkloadError(
                f"density must be in (0, 1], got {self.density}"
            )
        if self.structure is Structure.HSS and self.pattern is None:
            raise WorkloadError("HSS operands need a pattern")
        if self.structure is not Structure.HSS and self.pattern is not None:
            raise WorkloadError(
                f"{self.structure.value} operands must not carry a pattern"
            )
        if self.pattern is not None:
            expected = self.pattern.density
            if abs(expected - self.density) > 1e-9:
                raise WorkloadError(
                    f"pattern density {expected} != declared {self.density}"
                )
        ranks: Tuple[Tuple[int, int], ...] = ()
        if self.pattern is not None:
            ranks = tuple((rank.g, rank.h) for rank in self.pattern.ranks)
        # Set once, at construction: sweeps ask for keys constantly, and
        # a lazy cached_property takes a class-wide lock on first access.
        object.__setattr__(
            self, "_content_key",
            (self.structure.value, quantize_degree(self.density), ranks),
        )

    @property
    def sparsity(self) -> float:
        return 1.0 - self.density

    @property
    def is_dense(self) -> bool:
        return self.structure is Structure.DENSE

    def key(self) -> OperandKey:
        """Canonical content key: structure, quantized density, and —
        for HSS operands — the concrete per-rank G:H rules (lowest rank
        first), so patterns with equal density but different block
        hierarchies stay distinct. Computed once, at construction."""
        return self._content_key

    def describe(self) -> str:
        """Display form, computed once per (frozen) instance — pattern
        formatting is the expensive half and sweeps re-describe the
        same long-lived operands constantly."""
        return self._described

    @cached_property
    def _described(self) -> str:
        if self.is_dense:
            return "dense"
        if self.structure is Structure.HSS:
            return str(self.pattern)
        return f"unstructured({self.sparsity:.0%})"


# The operand constructors are interned: operands are frozen, so equal
# arguments can share one instance. A sweep grid names only a few dozen
# distinct operands per flavor, and building one validates its HSS
# pattern density with exact Fraction arithmetic, which is too slow to
# repeat for every cell. Memos key on the exact (typed) arguments, so
# every caller sees the bit-identical density it passed in.


@lru_cache(maxsize=MEMO_SIZE)
def dense_operand() -> OperandSparsity:
    """A fully dense operand."""
    return OperandSparsity(1.0, Structure.DENSE)


@lru_cache(maxsize=MEMO_SIZE)
def hss_operand(pattern: HSSPattern) -> OperandSparsity:
    """An operand carrying a concrete HSS pattern."""
    return OperandSparsity(pattern.density, Structure.HSS, pattern)


@lru_cache(maxsize=MEMO_SIZE, typed=True)
def structured_operand(g: int, h: int) -> OperandSparsity:
    """Shorthand for a one-rank G:H structured operand."""
    return hss_operand(HSSPattern.from_ratios((g, h)))


@lru_cache(maxsize=MEMO_SIZE, typed=True)
def unstructured_operand(sparsity: float) -> OperandSparsity:
    """An unstructured-sparse operand with the given sparsity degree."""
    if not 0.0 <= sparsity < 1.0:
        raise WorkloadError(f"sparsity must be in [0, 1), got {sparsity}")
    if sparsity == 0.0:
        return dense_operand()
    return OperandSparsity(1.0 - sparsity, Structure.UNSTRUCTURED)


@dataclass(frozen=True)
class MatmulWorkload:
    """An (M, K, N) matrix multiplication: ``Z[m, n] += A[m, k] B[k, n]``.

    Operand A holds weights (dense or HSS in HighLight's usage), operand
    B holds input activations (dense or unstructured sparse); designs
    that process matrix multiplications may swap operands and the
    harness reports the better orientation (Sec. 7.1.1).
    """

    m: int
    k: int
    n: int
    a: OperandSparsity
    b: OperandSparsity
    name: str = ""

    def __post_init__(self) -> None:
        m, k, n = self.m, self.k, self.n
        if m <= 0 or k <= 0 or n <= 0:
            for dim_name, value in (("m", m), ("k", k), ("n", n)):
                if value <= 0:
                    raise WorkloadError(
                        f"{dim_name} must be positive, got {value}"
                    )
        object.__setattr__(
            self, "_content_key", (m, k, n, self.a.key(), self.b.key())
        )

    @property
    def dense_products(self) -> int:
        """Total MAC count a dense accelerator performs."""
        return self.m * self.k * self.n

    @property
    def effectual_products(self) -> float:
        """Expected products with both operands nonzero."""
        return self.dense_products * self.a.density * self.b.density

    def key(self) -> WorkloadKey:
        """Canonical content key: shape plus both operand keys.

        The ``name`` label is excluded on purpose: it is display-only,
        and memoization must treat identically shaped/sparse workloads
        as one unit of work no matter how a caller labeled them (the
        same dense layer appears under many labels across a network
        sweep's degrees and designs). Computed once, at construction.
        """
        return self._content_key

    @cached_property
    def stripped(self) -> "MatmulWorkload":
        """This workload without its display label (``self`` when it
        has none). Evaluation caches key on content, so the engine
        evaluates and stores the stripped form; computing it once per
        (frozen, memoized) instance keeps that off the sweep hot path.
        """
        if not self.name:
            return self
        return MatmulWorkload(m=self.m, k=self.k, n=self.n,
                              a=self.a, b=self.b)

    def swapped(self) -> "MatmulWorkload":
        """The transposed-operand workload (Z^T = B^T A^T)."""
        return MatmulWorkload(
            m=self.n,
            k=self.k,
            n=self.m,
            a=self.b,
            b=self.a,
            name=f"{self.name}^T" if self.name else "",
        )

    def describe(self) -> str:
        """Display form, computed once per (frozen) instance. Network
        sweeps memoize their realized workload instances, so this turns
        repeated describes across sweeps/batches into one dict hit."""
        return self._described

    @cached_property
    def _described(self) -> str:
        label = self.name or f"{self.m}x{self.k}x{self.n}"
        return (
            f"{label}: A={self.a.describe()}, B={self.b.describe()}"
        )


#: The HighLight-supported HSS pattern :func:`synthetic_workload` gives
#: operand A, per quantized sparsity degree (``None`` means dense).
SYNTHETIC_HSS = {
    0.0: None,
    0.5: HSSPattern.from_ratios((2, 4), (4, 4)),
    0.75: HSSPattern.from_ratios((2, 4), (4, 8)),
    0.875: HSSPattern.from_ratios((2, 4), (2, 8)),
}


def synthetic_workload(
    a_sparsity: float,
    b_sparsity: float,
    size: int = 1024,
) -> MatmulWorkload:
    """A Fig. 13-style synthetic workload: size^3 GEMM.

    Operand A is HSS-structured at the requested sparsity (the paper
    evaluates A at 0%/50%/75%, all expressible with HighLight-supported
    patterns); operand B is unstructured at the requested sparsity.
    """
    pattern = _hss_for_sparsity(a_sparsity)
    a = hss_operand(pattern) if pattern else dense_operand()
    b = unstructured_operand(b_sparsity)
    return MatmulWorkload(
        m=size, k=size, n=size, a=a, b=b,
        name=f"A{a_sparsity:.0%}/B{b_sparsity:.0%}",
    )


def _hss_for_sparsity(sparsity: float) -> Optional[HSSPattern]:
    """An HSS pattern (within HighLight's supported family) for common
    sparsity degrees; ``None`` means dense."""
    key = quantize_degree(sparsity)
    if key not in SYNTHETIC_HSS:
        raise WorkloadError(
            f"no canonical HSS pattern for sparsity {sparsity}; "
            f"supported: {sorted(SYNTHETIC_HSS)}"
        )
    return SYNTHETIC_HSS[key]
