"""NN workload descriptions and macro mapping."""

from repro._lazy import lazy_exports

__all__ = [
    "SystemMapping",
    "map_system",
    "map_system_sweep",
    "macros_for_residency",
    "Layer",
    "linear",
    "conv2d",
    "attention_projection",
    "gcn_layer",
    "tiny_cnn",
    "transformer_block",
    "gcn_network",
    "resnet_block",
    "mlp_mixer_block",
    "AVAILABLE_NETWORKS",
    "LayerMapping",
    "NetworkMapping",
    "map_layer",
    "map_network",
    "recommend_spec",
]

_EXPORTS = {
    "repro.workloads.layers": (
        "Layer", "attention_projection", "conv2d", "gcn_layer", "linear",
    ),
    "repro.workloads.mapping": (
        "LayerMapping", "NetworkMapping", "map_layer", "map_network", "recommend_spec",
    ),
    "repro.workloads.system": (
        "SystemMapping", "macros_for_residency", "map_system", "map_system_sweep",
    ),
    "repro.workloads.networks": (
        "AVAILABLE_NETWORKS", "gcn_network", "mlp_mixer_block", "resnet_block",
        "tiny_cnn", "transformer_block",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
