"""Technology substrate: cells, nodes, PDKs and liberty I/O."""

from repro._lazy import lazy_exports

__all__ = [
    "CellLibrary",
    "TABLE3_CELLS",
    "Technology",
    "GENERIC28",
    "GENERIC22",
    "available_pdks",
    "load_pdk",
    "dump_library",
    "load_library",
    "dump_technology",
    "load_technology",
    "Corner",
    "STANDARD_CORNERS",
    "apply_corner",
]

_EXPORTS = {
    "repro.tech.cells": ("CellLibrary", "TABLE3_CELLS"),
    "repro.tech.corners": ("Corner", "STANDARD_CORNERS", "apply_corner"),
    "repro.tech.liberty": ("dump_library", "load_library"),
    "repro.tech.techfile": ("dump_technology", "load_technology"),
    "repro.tech.pdk": ("GENERIC22", "GENERIC28", "available_pdks", "load_pdk"),
    "repro.tech.technology": ("Technology",),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
