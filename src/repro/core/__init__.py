"""Core public types of the SEGA-DCIM reproduction."""

from repro._lazy import lazy_exports

__all__ = [
    "Precision",
    "parse_precision",
    "STANDARD_PRECISIONS",
    "DcimSpec",
    "DesignPoint",
    "INT_ARCH",
    "FP_ARCH",
    "dominates",
    "pareto_mask",
    "pareto_front",
    "hypervolume",
    "knee_point",
    "normalize_objectives",
    "stable_hash",
]

_EXPORTS = {
    "repro.core.pareto": (
        "dominates", "hypervolume", "knee_point", "normalize_objectives",
        "pareto_front", "pareto_mask",
    ),
    "repro.core.precision": ("STANDARD_PRECISIONS", "Precision", "parse_precision"),
    "repro.core.spec": ("FP_ARCH", "INT_ARCH", "DcimSpec", "DesignPoint"),
    "repro.core.hashing": ("stable_hash",),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
