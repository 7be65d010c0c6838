"""DNN workloads: layer shapes, model tables, Toeplitz expansion.

The paper evaluates three representative DNNs (Sec. 7.1.2): the
convolutional ResNet50, the attention-based DeiT-small (both ImageNet),
and Transformer-Big (WMT16 EN-DE). All layers are processed as matrix
multiplications: convolutions are flattened via Toeplitz (im2col)
expansion (Fig. 8(a)).
"""

from typing import TYPE_CHECKING

from repro.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.dnn.layers import ConvLayer, LinearLayer, Layer
    from repro.dnn.models import (
        DnnModel,
        deit_small,
        efficientnet_b0,
        get_model,
        model_names,
        resnet50,
        transformer_big,
        all_models,
    )
    from repro.dnn.inference import (
        SimulatedConvLayer,
        SimulatedNetwork,
        random_network,
    )
    from repro.dnn.toeplitz import toeplitz_expand, conv_output_size
    from repro.dnn.reference import (
        conv2d_reference,
        linear_reference,
        matmul,
    )

# The layer tables (layers, models) are numpy-free; inference,
# toeplitz and reference load numpy.
__getattr__, __dir__ = lazy_exports(__name__, {
    "layers": ("ConvLayer", "LinearLayer", "Layer"),
    "models": (
        "DnnModel", "deit_small", "efficientnet_b0", "get_model",
        "model_names", "resnet50", "transformer_big", "all_models",
    ),
    "inference": (
        "SimulatedConvLayer", "SimulatedNetwork", "random_network",
    ),
    "toeplitz": ("toeplitz_expand", "conv_output_size"),
    "reference": ("conv2d_reference", "linear_reference", "matmul"),
})

__all__ = [
    "ConvLayer",
    "LinearLayer",
    "Layer",
    "DnnModel",
    "resnet50",
    "deit_small",
    "efficientnet_b0",
    "transformer_big",
    "all_models",
    "get_model",
    "model_names",
    "SimulatedConvLayer",
    "SimulatedNetwork",
    "random_network",
    "toeplitz_expand",
    "conv_output_size",
    "conv2d_reference",
    "linear_reference",
    "matmul",
]
