"""Layout substrate: floorplanning, DEF dumps, mock P&R."""

from repro._lazy import lazy_exports

__all__ = [
    "Rect",
    "DrcRules",
    "CheckReport",
    "run_drc",
    "run_lvs",
    "Placement",
    "Block",
    "Floorplan",
    "slicing_floorplan",
    "dump_def",
    "load_def",
    "DBU_PER_MICRON",
    "PnrFlow",
    "LayoutResult",
    "PART_GROUPS",
]

_EXPORTS = {
    "repro.layout.checks": ("CheckReport", "DrcRules", "run_drc", "run_lvs"),
    "repro.layout.def_writer": ("DBU_PER_MICRON", "dump_def", "load_def"),
    "repro.layout.floorplan": ("Block", "Floorplan", "slicing_floorplan"),
    "repro.layout.geometry": ("Placement", "Rect"),
    "repro.layout.pnr": ("PART_GROUPS", "LayoutResult", "PnrFlow"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
