"""Calibrated accuracy-loss model for the paper-scale DNNs.

This reproduction does not fine-tune the paper-scale networks
(ResNet50/DeiT/Transformer-Big on ImageNet/WMT16), so the accuracy axis
of Figs. 2 and 15 is this parametric model, calibrated to the
qualitative anchor points the paper (and its cited pruning literature)
reports:

* accuracy loss is ~0 below a network-specific "free" sparsity and
  grows super-linearly beyond it;
* large over-parameterized models (ResNet50) can reach ~80% sparsity
  within ~0.5% loss; compact models (DeiT-small) cannot be pruned as
  aggressively (Sec. 1);
* more rigid patterns lose more accuracy at the same degree
  (unstructured < HSS < one-rank G:H < channel), which is what each
  scheme's ``granularity_factor`` encodes.

The model is monotone in sparsity and in granularity — the properties
Fig. 15's Pareto-frontier conclusions actually rest on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.dnn.models import DnnModel
from repro.errors import PruningError


@dataclass(frozen=True)
class AccuracyModel:
    """Parametric accuracy-loss curve for one network.

    ``loss_pct(s, granularity)`` returns the top-1 accuracy loss in
    percentage points after prune + fine-tune at overall weight
    sparsity ``s`` with a scheme of the given granularity factor.
    """

    #: Sparsity below which fine-tuning fully recovers accuracy.
    free_sparsity: float
    #: Curve steepness beyond the free region.
    steepness: float
    #: Scale (pct points) of the loss at (free + 1/steepness).
    scale: float

    def loss_pct(self, sparsity: float, granularity: float = 1.0) -> float:
        """Accuracy loss (percentage points) at a sparsity degree."""
        if not 0.0 <= sparsity < 1.0:
            raise PruningError(f"sparsity must be in [0, 1), got {sparsity}")
        if granularity < 1.0:
            raise PruningError(
                f"granularity factor must be >= 1, got {granularity}"
            )
        effective = sparsity * granularity
        overshoot = max(0.0, effective - self.free_sparsity)
        if overshoot == 0.0:
            return 0.0
        return self.scale * (math.exp(self.steepness * overshoot) - 1.0)

    @classmethod
    def for_model(cls, model: DnnModel) -> "AccuracyModel":
        """Calibrate from the network's prunability.

        Anchors: at sparsity == prunability with unstructured pruning
        the loss is ~0.4 pct points (the "still maintains accuracy"
        operating point); the free region covers roughly the first
        60% of the prunable range.
        """
        free = 0.6 * model.prunability
        steepness = 6.0
        overshoot_at_limit = model.prunability - free
        target_loss_at_limit = 0.4
        scale = target_loss_at_limit / (
            math.exp(steepness * overshoot_at_limit) - 1.0
        )
        return cls(
            free_sparsity=free, steepness=steepness, scale=scale
        )


def accuracy_loss_pct(
    model: DnnModel, sparsity: float, granularity: float = 1.0
) -> float:
    """Convenience wrapper: loss for ``model`` at ``sparsity``."""
    return AccuracyModel.for_model(model).loss_pct(sparsity, granularity)
