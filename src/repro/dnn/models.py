"""Layer tables for the three evaluated DNNs (paper Sec. 7.1.2).

Shapes follow the published architectures:

* **ResNet50** [16]: the standard ImageNet model; distinct conv shapes
  listed once with repeat counts. All convolutional and FC layers are
  pruned (Sec. 7.3).
* **DeiT-small** [47]: 12 transformer blocks, d=384, 6 heads, MLP 4x,
  197 tokens. Only the feed-forward blocks and output projections are
  pruned (its parameter count is already small).
* **Transformer-Big** [50]: 6+6 encoder/decoder blocks, d=1024,
  d_ff=4096. Feed-forward blocks and all projections are pruned.

``prunable`` marks the layers the paper sparsifies; activation sparsity
(operand B) is a per-model property: ReLU-based ResNet50 has ~60% sparse
activations, the GELU/softmax transformers are nearly dense (<10%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Tuple

from functools import lru_cache

from repro.dnn.layers import ConvLayer, Layer, LinearLayer
from repro.errors import WorkloadError


@dataclass(frozen=True)
class DnnModel:
    """A network: named layers plus sparsity-relevant properties."""

    name: str
    layers: Tuple[Layer, ...]
    #: Names of layers that weight pruning applies to.
    prunable: Tuple[str, ...]
    #: Average input-activation sparsity (operand B) across layers.
    activation_sparsity: float
    #: How amenable the network is to pruning: the weight sparsity it
    #: tolerates with <0.5% accuracy loss under unstructured pruning
    #: (ResNet50 ~0.8; compact models much less — Sec. 1).
    prunability: float

    def prunable_layers(self) -> List[Layer]:
        return [layer for layer in self.layers if layer.name in self.prunable]

    @property
    def total_macs(self) -> int:
        return sum(layer.macs * layer.repeats for layer in self.layers)

    @property
    def total_weights(self) -> int:
        return sum(
            layer.weight_count * layer.repeats for layer in self.layers
        )


# Built-in constructors are memoized: DnnModel is frozen, so the
# shared instance cannot go stale, and identity-keyed sweep memos
# (realized layer pairs) then hit across repeated constructions.
@lru_cache(maxsize=1)
def resnet50() -> DnnModel:
    """ResNet50 at 224x224: distinct conv/FC shapes with repeats."""
    layers: List[Layer] = [
        ConvLayer("conv1", 3, 64, 7, 224, stride=2, padding=3),
        # conv2_x: 3 bottlenecks at 56x56.
        ConvLayer("conv2_reduce", 64, 64, 1, 56),
        ConvLayer("conv2_3x3", 64, 64, 3, 56, padding=1, repeats=3),
        ConvLayer("conv2_expand", 64, 256, 1, 56, repeats=3),
        ConvLayer("conv2_in256", 256, 64, 1, 56, repeats=2),
        ConvLayer("conv2_proj", 64, 256, 1, 56),
        # conv3_x: 4 bottlenecks at 28x28.
        ConvLayer("conv3_reduce", 256, 128, 1, 56, stride=2),
        ConvLayer("conv3_3x3", 128, 128, 3, 28, padding=1, repeats=4),
        ConvLayer("conv3_expand", 128, 512, 1, 28, repeats=4),
        ConvLayer("conv3_in512", 512, 128, 1, 28, repeats=3),
        ConvLayer("conv3_proj", 256, 512, 1, 56, stride=2),
        # conv4_x: 6 bottlenecks at 14x14.
        ConvLayer("conv4_reduce", 512, 256, 1, 28, stride=2),
        ConvLayer("conv4_3x3", 256, 256, 3, 14, padding=1, repeats=6),
        ConvLayer("conv4_expand", 256, 1024, 1, 14, repeats=6),
        ConvLayer("conv4_in1024", 1024, 256, 1, 14, repeats=5),
        ConvLayer("conv4_proj", 512, 1024, 1, 28, stride=2),
        # conv5_x: 3 bottlenecks at 7x7.
        ConvLayer("conv5_reduce", 1024, 512, 1, 14, stride=2),
        ConvLayer("conv5_3x3", 512, 512, 3, 7, padding=1, repeats=3),
        ConvLayer("conv5_expand", 512, 2048, 1, 7, repeats=3),
        ConvLayer("conv5_in2048", 2048, 512, 1, 7, repeats=2),
        ConvLayer("conv5_proj", 1024, 2048, 1, 14, stride=2),
        LinearLayer("fc", 2048, 1000),
    ]
    # "For ResNet50, we prune all convolutional and fully-connected
    # layers" (Sec. 7.3).
    prunable = tuple(layer.name for layer in layers)
    return DnnModel(
        name="ResNet50",
        layers=tuple(layers),
        prunable=prunable,
        activation_sparsity=0.60,  # ReLU activations (Sec. 2.2.3)
        prunability=0.80,
    )


def _transformer_layers(
    prefix: str, d_model: int, d_ff: int, tokens: int, blocks: int
) -> List[Layer]:
    return [
        LinearLayer(f"{prefix}_q_proj", d_model, d_model, tokens, blocks),
        LinearLayer(f"{prefix}_k_proj", d_model, d_model, tokens, blocks),
        LinearLayer(f"{prefix}_v_proj", d_model, d_model, tokens, blocks),
        LinearLayer(f"{prefix}_out_proj", d_model, d_model, tokens, blocks),
        LinearLayer(f"{prefix}_ff1", d_model, d_ff, tokens, blocks),
        LinearLayer(f"{prefix}_ff2", d_ff, d_model, tokens, blocks),
    ]


@lru_cache(maxsize=1)
def transformer_big() -> DnnModel:
    """Transformer-Big for WMT16 EN-DE: 6+6 blocks, d=1024, ff=4096."""
    tokens = 128
    layers: List[Layer] = []
    layers += _transformer_layers("enc", 1024, 4096, tokens, 6)
    layers += _transformer_layers("dec", 1024, 4096, tokens, 6)
    # Decoder cross-attention key/value projection of the encoder
    # memory: kept dense (not among "the feed-forward block and all
    # projection weights" the paper prunes).
    layers += [
        LinearLayer("dec_xattn_kv", 1024, 2048, tokens, 6),
    ]
    prunable = tuple(
        layer.name for layer in layers if layer.name != "dec_xattn_kv"
    )
    return DnnModel(
        name="Transformer-Big",
        layers=tuple(layers),
        prunable=prunable,
        activation_sparsity=0.10,  # <10% average (Sec. 2.2.3)
        prunability=0.70,
    )


@lru_cache(maxsize=1)
def deit_small() -> DnnModel:
    """DeiT-small: 12 blocks, d=384, MLP ratio 4, 197 tokens."""
    tokens = 197
    d_model, d_ff, blocks = 384, 1536, 12
    layers: List[Layer] = [
        ConvLayer("patch_embed", 3, 384, 16, 224, stride=16),
        LinearLayer("qkv_proj", d_model, 3 * d_model, tokens, blocks),
        LinearLayer("out_proj", d_model, d_model, tokens, blocks),
        LinearLayer("ff1", d_model, d_ff, tokens, blocks),
        LinearLayer("ff2", d_ff, d_model, tokens, blocks),
        LinearLayer("head", d_model, 1000),
    ]
    # Only the feed-forward blocks and output projections are pruned
    # (Sec. 7.3: fewer layers pruned due to the small parameter count).
    prunable = ("out_proj", "ff1", "ff2")
    return DnnModel(
        name="DeiT-small",
        layers=tuple(layers),
        prunable=prunable,
        activation_sparsity=0.10,
        prunability=0.50,
    )


def _mbconv(
    prefix: str,
    in_channels: int,
    out_channels: int,
    kernel: int,
    input_size: int,
    stride: int,
    expand: int,
    repeats: int,
) -> List[Layer]:
    """One MBConv block shape (expand 1x1, depthwise kxk, project 1x1)."""
    mid = in_channels * expand
    layers: List[Layer] = []
    if expand > 1:
        layers.append(
            ConvLayer(f"{prefix}_expand", in_channels, mid, 1,
                      input_size, repeats=repeats)
        )
    layers.append(
        ConvLayer(
            f"{prefix}_dw", mid, mid, kernel, input_size,
            stride=stride, padding=kernel // 2, groups=mid,
            repeats=repeats,
        )
    )
    out_size = (input_size + 2 * (kernel // 2) - kernel) // stride + 1
    layers.append(
        ConvLayer(f"{prefix}_project", mid, out_channels, 1, out_size,
                  repeats=repeats)
    )
    return layers


@lru_cache(maxsize=1)
def efficientnet_b0() -> DnnModel:
    """EfficientNet-B0: the paper's Sec. 1 example of a compact model
    that "cannot be pruned as aggressively" — an extension experiment
    beyond the three evaluated networks.

    Depthwise layers (tiny per-group GEMMs) and the stem are kept
    dense; the pointwise expand/project convolutions and the head are
    prunable. Swish activations are nearly dense.
    """
    layers: List[Layer] = [
        ConvLayer("stem", 3, 32, 3, 224, stride=2, padding=1),
    ]
    layers += _mbconv("mb1", 32, 16, 3, 112, 1, 1, 1)
    layers += _mbconv("mb2a", 16, 24, 3, 112, 2, 6, 1)
    layers += _mbconv("mb2b", 24, 24, 3, 56, 1, 6, 1)
    layers += _mbconv("mb3a", 24, 40, 5, 56, 2, 6, 1)
    layers += _mbconv("mb3b", 40, 40, 5, 28, 1, 6, 1)
    layers += _mbconv("mb4a", 40, 80, 3, 28, 2, 6, 1)
    layers += _mbconv("mb4b", 80, 80, 3, 14, 1, 6, 2)
    layers += _mbconv("mb5a", 80, 112, 5, 14, 1, 6, 1)
    layers += _mbconv("mb5b", 112, 112, 5, 14, 1, 6, 2)
    layers += _mbconv("mb6a", 112, 192, 5, 14, 2, 6, 1)
    layers += _mbconv("mb6b", 192, 192, 5, 7, 1, 6, 3)
    layers += _mbconv("mb7", 192, 320, 3, 7, 1, 6, 1)
    layers += [
        ConvLayer("head_conv", 320, 1280, 1, 7),
        LinearLayer("classifier", 1280, 1000),
    ]
    prunable = tuple(
        layer.name
        for layer in layers
        if "_dw" not in layer.name and layer.name != "stem"
    )
    return DnnModel(
        name="EfficientNet-B0",
        layers=tuple(layers),
        prunable=prunable,
        activation_sparsity=0.10,  # swish: dense activations (Sec. 1)
        prunability=0.45,
    )


def all_models() -> Tuple[DnnModel, ...]:
    """The three evaluated networks, in paper order."""
    return (resnet50(), deit_small(), transformer_big())


#: The networks, addressable by name from the CLI, the service and the
#: network-sweep experiments (paper trio first, extensions after).
#: Fixed at import: a user-defined table is swept as an inline model,
#: never registered here.
MODEL_BUILDERS: Mapping[str, Callable[[], DnnModel]] = {
    "ResNet50": resnet50,
    "DeiT-small": deit_small,
    "Transformer-Big": transformer_big,
    "EfficientNet-B0": efficientnet_b0,
}


def is_builtin_model(name: str) -> bool:
    """Whether ``name`` resolves (case-insensitively, like
    :func:`get_model`) to a built-in network; an inline table so named
    is refused, since it would shadow the built-in."""
    return any(
        builtin.lower() == name.lower() for builtin in MODEL_BUILDERS
    )


def model_names() -> Tuple[str, ...]:
    """All network names, in order."""
    return tuple(MODEL_BUILDERS)


#: Layer-table schema for user-defined models (``--model-file``):
#: per layer kind, (required fields, optional fields).
_LAYER_SCHEMA: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "linear": (
        ("name", "in_features", "out_features"),
        ("tokens", "repeats"),
    ),
    "conv": (
        ("name", "in_channels", "out_channels", "kernel", "input_size"),
        ("stride", "padding", "groups", "repeats"),
    ),
}

#: Top-level schema: (required, optional-with-defaults).
_MODEL_REQUIRED = ("name", "layers")
_MODEL_OPTIONAL = ("activation_sparsity", "prunability", "prunable")


def _check_fields(
    entry: Mapping[str, Any],
    required: Tuple[str, ...],
    optional: Tuple[str, ...],
    where: str,
) -> None:
    missing = sorted(set(required) - set(entry))
    unknown = sorted(set(entry) - set(required) - set(optional))
    problems = []
    if missing:
        problems.append(f"missing field(s): {', '.join(missing)}")
    if unknown:
        problems.append(f"unknown field(s): {', '.join(unknown)}")
    if problems:
        raise WorkloadError(
            f"{where}: {'; '.join(problems)} "
            f"(required: {', '.join(required)}; optional: "
            f"{', '.join(optional) or 'none'})"
        )


def _layer_from_dict(entry: Any, index: int) -> Layer:
    where = f"layer {index}"
    if not isinstance(entry, dict):
        raise WorkloadError(f"{where}: expected an object, got {entry!r}")
    kind = entry.get("type")
    if kind not in _LAYER_SCHEMA:
        raise WorkloadError(
            f"{where}: bad or missing 'type' {kind!r}; expected one "
            f"of: {', '.join(_LAYER_SCHEMA)}"
        )
    required, optional = _LAYER_SCHEMA[kind]
    fields = {key: value for key, value in entry.items() if key != "type"}
    _check_fields(fields, required, optional, f"{where} ({kind})")
    name = fields.pop("name")
    if not isinstance(name, str) or not name:
        raise WorkloadError(f"{where}: 'name' must be a non-empty string")
    for key, value in fields.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise WorkloadError(
                f"{where} ({name!r}): {key} must be an integer, "
                f"got {value!r}"
            )
    cls = LinearLayer if kind == "linear" else ConvLayer
    return cls(name, **fields)


def model_from_dict(data: Any) -> DnnModel:
    """Build a :class:`DnnModel` from a plain layer-table dict.

    Validates the schema with errors that list the missing/unknown
    fields and the allowed set; layer shape constraints (positive
    sizes, divisible groups) are enforced by the layer constructors.
    """
    if not isinstance(data, dict):
        raise WorkloadError(
            f"model table must be a JSON object, got "
            f"{type(data).__name__}"
        )
    _check_fields(data, _MODEL_REQUIRED, _MODEL_OPTIONAL, "model table")
    name = data["name"]
    if not isinstance(name, str) or not name:
        raise WorkloadError("model table: 'name' must be a non-empty string")
    raw_layers = data["layers"]
    if not isinstance(raw_layers, list) or not raw_layers:
        raise WorkloadError(
            "model table: 'layers' must be a non-empty list"
        )
    layers = tuple(
        _layer_from_dict(entry, index)
        for index, entry in enumerate(raw_layers)
    )
    names = [layer.name for layer in layers]
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        raise WorkloadError(
            f"model table: duplicate layer name(s): "
            f"{', '.join(duplicates)}"
        )
    prunable = data.get("prunable", names)
    if (
        not isinstance(prunable, list)
        or not all(isinstance(n, str) for n in prunable)
    ):
        raise WorkloadError(
            "model table: 'prunable' must be a list of layer names"
        )
    unknown = sorted(set(prunable) - set(names))
    if unknown:
        raise WorkloadError(
            f"model table: 'prunable' names unknown layer(s): "
            f"{', '.join(unknown)}"
        )
    activation_sparsity = data.get("activation_sparsity", 0.0)
    prunability = data.get("prunability", 0.5)
    for key, value in (
        ("activation_sparsity", activation_sparsity),
        ("prunability", prunability),
    ):
        if (
            not isinstance(value, (int, float))
            or isinstance(value, bool)
            or not 0.0 <= float(value) < 1.0
        ):
            raise WorkloadError(
                f"model table: {key} must be a number in [0, 1), "
                f"got {value!r}"
            )
    return DnnModel(
        name=name,
        layers=layers,
        prunable=tuple(prunable),
        activation_sparsity=float(activation_sparsity),
        prunability=float(prunability),
    )


def get_model(name: str) -> DnnModel:
    """Build a registered network by name (case-insensitive)."""
    for registered, builder in MODEL_BUILDERS.items():
        if registered.lower() == name.lower():
            return builder()
    raise WorkloadError(
        f"unknown model {name!r}; registered: "
        f"{', '.join(MODEL_BUILDERS)}"
    )
