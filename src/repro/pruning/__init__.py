"""Pruning pipeline: schemes, masked fine-tuning, accuracy modeling.

The paper (Sec. 7.1.3) uses Condensa [24] with the sparse-tensor-core
pruning algorithm [32]: statically mask a pre-trained dense model to
the target sparsity pattern, then fine-tune with gradients masked.

This package provides:

* :mod:`repro.pruning.schemes` — composable pruning schemes
  (unstructured, G:H, HSS, channel), Condensa-style;
* :mod:`repro.pruning.masks` — mask construction for each scheme;
* :mod:`repro.pruning.finetune` — a real (numpy, manual-backprop) MLP
  with masked-gradient fine-tuning, demonstrating accuracy recovery
  end-to-end on synthetic data;
* :mod:`repro.pruning.accuracy` — the calibrated accuracy-loss model
  used for the paper-scale networks, which are not fine-tuned here:
  Fig. 15's accuracy axis is this parametric model.
"""

from typing import TYPE_CHECKING

from repro.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.pruning.schemes import (
        ChannelScheme,
        HSSScheme,
        PruningScheme,
        StructuredGHScheme,
        UnstructuredScheme,
    )
    from repro.pruning.masks import mask_for, apply_mask
    from repro.pruning.finetune import (
        MaskedMLP,
        TrainConfig,
        make_blobs,
        prune_and_finetune,
        train_dense,
    )
    from repro.pruning.accuracy import AccuracyModel, accuracy_loss_pct

# accuracy is the numpy-free model the experiments use; schemes,
# masks and finetune load numpy.
__getattr__, __dir__ = lazy_exports(__name__, {
    "schemes": (
        "ChannelScheme", "HSSScheme", "PruningScheme",
        "StructuredGHScheme", "UnstructuredScheme",
    ),
    "masks": ("mask_for", "apply_mask"),
    "finetune": (
        "MaskedMLP", "TrainConfig", "make_blobs", "prune_and_finetune",
        "train_dense",
    ),
    "accuracy": ("AccuracyModel", "accuracy_loss_pct"),
})

__all__ = [
    "PruningScheme",
    "UnstructuredScheme",
    "StructuredGHScheme",
    "HSSScheme",
    "ChannelScheme",
    "mask_for",
    "apply_mask",
    "MaskedMLP",
    "TrainConfig",
    "make_blobs",
    "train_dense",
    "prune_and_finetune",
    "AccuracyModel",
    "accuracy_loss_pct",
]
