"""Artifact manifests: persist a compilation to a workspace directory.

``write_artifacts`` lays a compilation result out the way a tapeout
workspace would: RTL files, the testbench, the DEF layout, the cell
library, reports, and a ``manifest.json`` that records the spec, the
chosen design and its metrics so a later session (or another tool) can
reload the design without re-running the explorer.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.core.precision import parse_precision
from repro.core.spec import DcimSpec, DesignPoint
from repro.core.compiler import CompilationResult
from repro.tech.cells import CellLibrary
from repro.tech.technology import Technology

__all__ = [
    "design_to_dict",
    "design_from_dict",
    "spec_to_dict",
    "spec_from_dict",
    "write_artifacts",
    "load_manifest",
]

MANIFEST_VERSION = 1


def design_to_dict(design: DesignPoint) -> dict:
    """JSON-able description of a design point."""
    return {
        "precision": design.precision.name,
        "n": design.n,
        "h": design.h,
        "l": design.l,
        "k": design.k,
    }


def design_from_dict(data: dict) -> DesignPoint:
    """Inverse of :func:`design_to_dict` (validates on construction)."""
    return DesignPoint(
        precision=parse_precision(data["precision"]),
        n=int(data["n"]),
        h=int(data["h"]),
        l=int(data["l"]),
        k=int(data["k"]),
    )


def spec_to_dict(spec: DcimSpec) -> dict:
    """JSON-able description of a specification."""
    return {
        "wstore": spec.wstore,
        "precision": spec.precision.name,
        "max_l": spec.max_l,
        "max_h": spec.max_h,
        "min_n_factor": spec.min_n_factor,
        "max_n": spec.max_n,
    }


def spec_from_dict(data: dict) -> DcimSpec:
    """Inverse of :func:`spec_to_dict`."""
    return DcimSpec(
        wstore=int(data["wstore"]),
        precision=parse_precision(data["precision"]),
        max_l=int(data["max_l"]),
        max_h=int(data["max_h"]),
        min_n_factor=int(data["min_n_factor"]),
        max_n=None if data.get("max_n") is None else int(data["max_n"]),
    )


def write_artifacts(
    result: CompilationResult,
    out_dir: str | Path,
    tech: Technology,
    library: CellLibrary | None = None,
) -> Path:
    """Write the full artifact tree for a compilation.

    Returns the manifest path.  Layout::

        out_dir/
          manifest.json      spec + design + metrics + file index
          rtl/*.v, *.f       generated Verilog (when present)
          rtl/tb_*.v         self-checking testbench (integer designs)
          layout.def         mock-P&R DEF dump (when present)
          cells.lib          the cell library used
          reports/macro.rpt  area/timing/power report
    """
    from repro.reporting.power import full_report
    from repro.rtl.generator import write_bundle
    from repro.tech.liberty import dump_library

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files: list[str] = []

    if result.rtl is not None:
        for path in write_bundle(result.rtl, out / "rtl"):
            files.append(str(path.relative_to(out)))
        if not result.selected.precision.is_float:
            from repro.rtl.testbench import generate_int_testbench

            tb_path = out / "rtl" / f"tb_{result.rtl.top}.v"
            tb_path.write_text(generate_int_testbench(result.rtl))
            files.append(str(tb_path.relative_to(out)))
    if result.layout is not None:
        (out / "layout.def").write_text(result.layout.def_text)
        files.append("layout.def")

    (out / "cells.lib").write_text(dump_library(library or CellLibrary.default()))
    files.append("cells.lib")

    reports = out / "reports"
    reports.mkdir(exist_ok=True)
    (reports / "macro.rpt").write_text(
        full_report(result.selected.macro_cost(library), tech) + "\n"
    )
    files.append("reports/macro.rpt")

    manifest = {
        "version": MANIFEST_VERSION,
        "tool": "sega-dcim-repro",
        "spec": spec_to_dict(result.spec),
        "design": design_to_dict(result.selected),
        "metrics": dataclasses.asdict(result.metrics),
        "technology": tech.name,
        "frontier_size": len(result.exploration.points),
        "frontier": [design_to_dict(p) for p in result.exploration.points],
        "files": files,
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


def load_manifest(path: str | Path) -> dict:
    """Load a manifest and re-hydrate its design objects.

    Returns the raw dict with ``spec`` and ``design`` replaced by live
    :class:`DcimSpec` / :class:`DesignPoint` objects (and ``frontier``
    by design points).

    Raises:
        ValueError: on an unsupported manifest version.
    """
    data = json.loads(Path(path).read_text())
    if data.get("version") != MANIFEST_VERSION:
        raise ValueError(
            f"unsupported manifest version {data.get('version')!r}"
        )
    data["spec"] = spec_from_dict(data["spec"])
    data["design"] = design_from_dict(data["design"])
    data["frontier"] = [design_from_dict(d) for d in data["frontier"]]
    return data
