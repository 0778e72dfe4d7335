"""Map NN layers onto a DCIM macro: tiles, passes, latency, energy.

The mapper tiles each layer's ``rows x cols`` weight matrix onto the
macro's ``H x (N/Bw)`` compute grid.  Each tile occupies one of the
``L`` weight-set slots; when a layer needs more tiles than ``L``, the
extra tiles are reloaded row-by-row (``H`` cycles per reload; write
energy is zero per Table III's SRAM entry, as the paper's model also
assumes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from repro.core.spec import DcimSpec, DesignPoint
from repro.core.precision import parse_precision
from repro.model.metrics import MacroMetrics, evaluate_macro
from repro.tech.cells import CellLibrary
from repro.tech.technology import Technology
from repro.workloads.layers import Layer

__all__ = [
    "LayerMapping",
    "LayerFigures",
    "NetworkMapping",
    "layer_figures",
    "map_layer",
    "map_network",
    "recommend_spec",
]


@dataclass(frozen=True)
class LayerMapping:
    """Mapping of one layer onto a macro.

    Attributes:
        layer: the mapped layer.
        row_tiles / col_tiles: tile grid over the macro's ``H`` rows and
            ``N/Bw`` output groups.
        resident_tiles: tiles that fit in the ``L`` weight slots.
        reloads: weight reloads needed per inference.
        passes: compute passes per inference.
        cycles: total cycles (compute + reload) per inference.
        latency_us: inference latency through this layer.
        energy_uj: inference energy in this layer.
        utilization: useful MACs over offered MAC slots.
    """

    layer: Layer
    row_tiles: int
    col_tiles: int
    resident_tiles: int
    reloads: int
    passes: int
    cycles: int
    latency_us: float
    energy_uj: float
    utilization: float


class LayerFigures(NamedTuple):
    """The numbers of one :class:`LayerMapping`, without the layer.

    Fields and order are :class:`LayerMapping`'s after ``layer``, so
    ``LayerMapping(layer, *figures)`` builds the full mapping.
    """

    row_tiles: int
    col_tiles: int
    resident_tiles: int
    reloads: int
    passes: int
    cycles: int
    latency_us: float
    energy_uj: float
    utilization: float


@dataclass(frozen=True)
class NetworkMapping:
    """Aggregate mapping of a whole layer list."""

    layers: list[LayerMapping]
    latency_us: float
    energy_uj: float
    total_macs: int

    @property
    def tops_effective(self) -> float:
        """Achieved TOPS including tiling and reload overheads."""
        if self.latency_us == 0:
            return 0.0
        return 2 * self.total_macs / (self.latency_us * 1e-6) * 1e-12


def layer_figures(
    layer: Layer,
    design: DesignPoint,
    metrics: MacroMetrics,
    overlap_reload: bool = False,
) -> LayerFigures:
    """The mapping arithmetic of one layer onto one macro.

    :func:`map_layer` and the per-design step of
    :mod:`repro.workloads.system` both call it, so their numbers cannot
    drift apart.
    """
    groups = design.n // design.precision.weight_bits
    row_tiles = math.ceil(layer.rows / design.h)
    col_tiles = math.ceil(layer.cols / groups)
    tiles = row_tiles * col_tiles
    resident = min(tiles, design.l)
    reloads = max(0, tiles - design.l)
    passes = tiles * layer.vectors
    compute_cycles = passes * metrics.cycles_per_pass
    reload_cycles = reloads * design.h  # row-by-row rewrite per inference
    if overlap_reload:
        reload_cycles = max(0, reload_cycles - compute_cycles)
    cycles = compute_cycles + reload_cycles
    latency_us = cycles * metrics.delay_ns * 1e-3
    energy_uj = passes * metrics.energy_per_pass_nj * 1e-3
    offered = passes * design.h * groups
    utilization = layer.macs / offered if offered else 0.0
    return LayerFigures(
        row_tiles,
        col_tiles,
        resident,
        reloads,
        passes,
        cycles,
        latency_us,
        energy_uj,
        utilization,
    )


def map_layer(
    layer: Layer,
    design: DesignPoint,
    tech: Technology,
    library: CellLibrary | None = None,
    metrics: MacroMetrics | None = None,
    overlap_reload: bool = False,
) -> LayerMapping:
    """Map one layer onto a design point.

    Args:
        layer: the layer to map.
        design: the macro design.
        tech: technology node for physical numbers.
        library: optional cell library override.
        metrics: pre-computed macro metrics (avoids re-evaluation).
        overlap_reload: model a double-buffered weight array (see the
            ``custom_template`` example): reload cycles hide behind
            compute up to the available compute time.
    """
    metrics = metrics or evaluate_macro(design.macro_cost(library), tech)
    return LayerMapping(layer, *layer_figures(layer, design, metrics, overlap_reload))


def map_network(
    layers: list[Layer],
    design: DesignPoint,
    tech: Technology,
    library: CellLibrary | None = None,
) -> NetworkMapping:
    """Map a whole network (layers run sequentially on one macro)."""
    metrics = evaluate_macro(design.macro_cost(library), tech)
    mapped = [map_layer(l, design, tech, library, metrics) for l in layers]
    return NetworkMapping(
        layers=mapped,
        latency_us=sum(m.latency_us for m in mapped),
        energy_uj=sum(m.energy_uj for m in mapped),
        total_macs=sum(l.macs for l in layers),
    )


def recommend_spec(layers: list[Layer], precision, **bounds) -> DcimSpec:
    """Derive a :class:`DcimSpec` from a workload.

    Chooses ``Wstore`` as the smallest power of two holding the largest
    layer (so at least one layer is fully resident), matching how the
    paper sizes macros per application.
    """
    if not layers:
        raise ValueError("need at least one layer")
    precision = parse_precision(precision)
    largest = max(layer.weight_count for layer in layers)
    wstore = 1 << max(math.ceil(math.log2(largest)), 0)
    return DcimSpec(wstore=wstore, precision=precision, **bounds)
