"""SEGA-DCIM reproduction: DSE-guided automatic digital CIM compiler.

Reproduction of *SEGA-DCIM: Design Space Exploration-Guided Automatic
Digital CIM Compiler with Multiple Precision Support* (DATE 2025).

Quickstart::

    from repro import SegaDcim, DcimSpec

    compiler = SegaDcim()
    result = compiler.compile(DcimSpec(wstore=8 * 1024, precision="INT8"))
    print(result.summary())

Every package resolves its exports on first use (:mod:`repro._lazy`),
so importing one module loads only what that module needs.
"""

from repro._lazy import lazy_exports

__all__ = [
    "SegaDcim",
    "CompilationResult",
    "DcimSpec",
    "DesignPoint",
    "Precision",
    "parse_precision",
    "STANDARD_PRECISIONS",
    "Requirements",
    "NSGA2Config",
    "MacroCost",
    "MacroMetrics",
    "evaluate_macro",
    "CellLibrary",
    "Technology",
    "GENERIC28",
]

__version__ = "1.0.0"

_EXPORTS = {
    "repro.core.precision": ("STANDARD_PRECISIONS", "Precision", "parse_precision"),
    "repro.core.spec": ("DcimSpec", "DesignPoint"),
    "repro.core.compiler": ("CompilationResult", "SegaDcim"),
    "repro.dse.distill": ("Requirements",),
    "repro.dse.nsga2": ("NSGA2Config",),
    "repro.model.macro": ("MacroCost",),
    "repro.model.metrics": ("MacroMetrics", "evaluate_macro"),
    "repro.tech.cells": ("CellLibrary",),
    "repro.tech.pdk": ("GENERIC28",),
    "repro.tech.technology": ("Technology",),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
