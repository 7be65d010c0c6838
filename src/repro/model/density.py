"""Density models: what fraction of work each design can actually skip,
and how well it balances that work across parallel units.

This is the module the paper's "we added a new density model to
Sparseloop to capture the characteristics of HSS" refers to: structured
patterns give *statically known* occupancies (perfect balance, exact
speedup), while unstructured sparsity gives only expected occupancies
with quantization and imbalance losses.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.errors import ModelError
from repro.model.workload import OperandSparsity, Structure
from repro.sparsity.hss import HSSPattern
from repro.sparsity.pattern import GHRange

#: HighLight's supported operand-A family (Table 3):
#: C1(4:{4<=H<=8}) -> C0(2:{2<=H<=4}).
HIGHLIGHT_RANK0 = GHRange(2, 2, 4)
HIGHLIGHT_RANK1 = GHRange(4, 4, 8)


@lru_cache(maxsize=1)
def _highlight_supported_densities() -> Tuple[float, ...]:
    densities = {
        float(
            Fraction(HIGHLIGHT_RANK0.g, h0)
            * Fraction(HIGHLIGHT_RANK1.g, h1)
        )
        for h0 in range(HIGHLIGHT_RANK0.h_min, HIGHLIGHT_RANK0.h_max + 1)
        for h1 in range(HIGHLIGHT_RANK1.h_min, HIGHLIGHT_RANK1.h_max + 1)
    }
    return tuple(sorted(densities, reverse=True))


def highlight_supported_densities() -> List[float]:
    """All operand-A densities HighLight's SAFs can exploit, descending
    (the exact-Fraction enumeration runs once; sweeps ask per operand)."""
    return list(_highlight_supported_densities())


def highlight_supported_density(operand: OperandSparsity) -> float:
    """The density HighLight schedules for an HSS/dense operand A.

    The hardware skips down to the nearest *supported* density at or
    above the operand's density; a dense operand runs at density 1.0
    (EDP parity with a dense accelerator — the schedule carries no tax).
    """
    if operand.is_dense:
        return 1.0
    if operand.structure is not Structure.HSS:
        raise ModelError(
            "HighLight operand A must be dense or HSS-structured, got "
            f"{operand.structure.value}"
        )
    supported = _highlight_supported_densities()
    candidates = [d for d in supported if d >= operand.density - 1e-12]
    if not candidates:
        # Sparser than the sparsest supported degree: run at the maximum
        # skip rate (under-full blocks still process correctly).
        return supported[-1]
    return min(candidates)


def fits_2_of_4(pattern: Optional[HSSPattern]) -> bool:
    """Whether an HSS pattern's nonzeros also satisfy plain 2:4.

    STC can exploit an operand exactly when every aligned window of 4
    values holds at most 2 nonzeros:

    * rank-0 rules ``g:h`` with ``h`` a multiple of 4 and ``g <= 2``
      qualify (the g nonzeros may cluster in one window, but g <= 2);
    * rules with ``h`` dividing 4 qualify when ``g * (4 // h) <= 2``.

    Upper HSS ranks only remove more values, so they never break 2:4.
    """
    if pattern is None:
        return False
    rank0 = pattern.rank(0)
    if rank0.h % 4 == 0:
        return rank0.g <= 2
    if 4 % rank0.h == 0:
        return rank0.g * (4 // rank0.h) <= 2
    return False


def stc_effective_density(operand: OperandSparsity) -> Tuple[float, bool]:
    """(scheduled density, sparse-mode?) for an STC-like design.

    STC supports dense and ``{G<=2}:4`` operand A only: a structured
    operand whose pattern also satisfies 2:4 runs at density 0.5 (the
    2x speedup cap); everything else runs in dense mode.
    """
    if operand.is_dense:
        return 1.0, False
    if operand.structure is Structure.HSS and fits_2_of_4(operand.pattern):
        return 0.5, True
    return 1.0, False


def s2ta_quantized_density(operand: OperandSparsity) -> float:
    """S2TA schedules operands at G:8 granularity.

    The smallest multiple of 1/8 at or above the operand density (a
    62.5%-sparse operand runs as 3:8).
    """
    return math.ceil(operand.density * 8 - 1e-9) / 8.0


#: Imbalance coefficient for random (unstructured) nonzero locations.
RANDOM_IMBALANCE_BETA = 0.47


def random_balance_utilization(
    density: float, beta: float = RANDOM_IMBALANCE_BETA
) -> float:
    """Per-operand utilization under *random* nonzero locations.

    With unstructured sparsity the per-lane occupancy is binomial; its
    coefficient of variation is ``sqrt((1-d)/d)`` (up to the lane-size
    constant folded into ``beta``), and the time is set by the most
    loaded lane, so utilization degrades as

    ``u(d) = 1 / (1 + beta * sqrt((1-d)/d))``

    Dense operands balance perfectly (u = 1); the sparser the operand,
    the worse the balance — the paper's "not all compute units are
    active" observation for DSTC, and the reason structured designs
    keep their full theoretical speedup while unstructured ones do not.
    """
    if not 0.0 < density <= 1.0:
        raise ModelError(f"density must be in (0, 1], got {density}")
    return 1.0 / (1.0 + beta * math.sqrt((1.0 - density) / density))


def balance_efficiency(nonzeros_per_slice: float, lanes: int) -> float:
    """Utilization lost to occupancy quantization (DSTC-style).

    When a slice with ``nonzeros_per_slice`` expected nonzeros is
    processed by ``lanes`` parallel units, the final partially-filled
    group wastes on average half a group's slots; perfect balance needs
    the occupancy to be a multiple of the lane count — the paper's DSTC
    example with columns of 32 compute units.
    """
    if lanes <= 0:
        raise ModelError(f"lanes must be positive, got {lanes}")
    if nonzeros_per_slice <= 0:
        return 1.0
    groups = nonzeros_per_slice / lanes
    return groups / (groups + 0.5)
