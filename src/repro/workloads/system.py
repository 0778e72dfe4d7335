"""System-level mapping: a network across multiple macro instances.

A single DCIM macro rarely serves a whole model; accelerators tile
several macro instances and either (a) run layers sequentially with all
macros teaming on one layer (data-parallel over output columns), or
(b) pipeline consecutive layers across macros.  This mapper models
both, on top of the per-layer mapping of :mod:`repro.workloads.
mapping`, and reports system area/latency/energy/throughput so users
can trade macro count against performance.

Mapping splits in two steps.  :func:`map_design` does everything one
macro design fixes: its physical metrics (layout area included), each
layer's passes, latency and energy, and the summed energy.
:func:`compose_system` adds what the macro count and the schedule
change: system area, latency and throughput.  :func:`map_system` runs
both; a search over designs times macro counts (the ``mapping``
problem, :mod:`repro.problems.mapping`) runs the first once per design
and the second once per candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.spec import DesignPoint
from repro.model.metrics import MacroMetrics, evaluate_macro
from repro.tech.cells import CellLibrary
from repro.tech.technology import Technology
from repro.workloads.layers import Layer
from repro.workloads.mapping import LayerFigures, LayerMapping, layer_figures

__all__ = [
    "SystemMapping",
    "DesignMapping",
    "map_design",
    "compose_system",
    "map_system",
    "map_system_sweep",
]

#: Schedules :func:`compose_system` (so :func:`map_system`) understands.
SCHEDULES = ("sequential", "pipelined")


@dataclass(frozen=True)
class SystemMapping:
    """A network mapped onto ``n_macros`` identical macro instances.

    Attributes:
        design: the macro design replicated across the system.
        n_macros: instances in the system.
        schedule: ``"sequential"`` (all macros team per layer) or
            ``"pipelined"`` (layers assigned round-robin; throughput set
            by the slowest stage).
        layers: the per-layer mappings (single-macro numbers).
        latency_us: one-inference latency.
        energy_uj: one-inference energy (schedule-independent).
        throughput_inferences_s: steady-state inferences per second.
        area_mm2: total system macro area.
    """

    design: DesignPoint
    n_macros: int
    schedule: str
    layers: list[LayerMapping]
    latency_us: float
    energy_uj: float
    throughput_inferences_s: float
    area_mm2: float


@dataclass(frozen=True)
class DesignMapping:
    """A network mapped onto one macro of a design.

    The part of a :class:`SystemMapping` that neither the macro count
    nor the schedule changes (see :func:`compose_system` for the rest).

    Attributes:
        metrics: the macro's physical metrics (``layout_area_mm2`` is
            one macro's area).
        layers: each layer's numbers on one macro.
        energy_uj: one-inference energy (schedule- and count-independent).
    """

    metrics: MacroMetrics
    layers: tuple[LayerFigures, ...]
    energy_uj: float


def map_design(
    layers: list[Layer],
    design: DesignPoint,
    tech: Technology,
    library: CellLibrary | None = None,
    cost=None,
) -> DesignMapping:
    """Map a network onto one macro of ``design``: the per-design step.

    ``cost`` is as in :func:`map_system`.
    """
    metrics = evaluate_macro(
        cost if cost is not None else design.macro_cost(library), tech
    )
    figures = tuple(layer_figures(l, design, metrics) for l in layers)
    return DesignMapping(metrics, figures, sum(f.energy_uj for f in figures))


def compose_system(
    mapping: DesignMapping, n_macros: int, schedule: str
) -> tuple[float, float, float]:
    """``(area_mm2, latency_us, throughput_inferences_s)`` of a system.

    The system is ``n_macros`` copies of ``mapping``'s design, run on
    ``schedule`` (see :func:`map_system` for both schedules).  The
    arguments are not checked: :func:`map_system` checks them first.
    """
    area = n_macros * mapping.metrics.layout_area_mm2
    if schedule == "sequential":
        latency = sum(
            f.latency_us / min(n_macros, max(f.passes, 1))
            for f in mapping.layers
        )
        return area, latency, 1.0 / (latency * 1e-6)
    stage_work = [0.0] * n_macros
    for i, f in enumerate(mapping.layers):
        stage_work[i % n_macros] += f.latency_us
    latency = sum(f.latency_us for f in mapping.layers)
    return area, latency, 1.0 / (max(stage_work) * 1e-6)


def map_system(
    layers: list[Layer],
    design: DesignPoint,
    tech: Technology,
    n_macros: int = 1,
    schedule: str = "sequential",
    library: CellLibrary | None = None,
    cost=None,
) -> SystemMapping:
    """Map a network onto ``n_macros`` copies of ``design``.

    Sequential schedule: every layer's passes are split evenly over the
    macros (speedup ``min(n_macros, passes)``); latency is the sum over
    layers and throughput is ``1/latency``.

    Pipelined schedule: layer ``i`` runs on macro ``i mod n_macros``;
    the pipeline interval is the slowest macro's total work, so
    throughput is ``1/interval`` while single-inference latency is the
    sum of stage latencies.

    The optional ``cost`` short-circuits the estimation model with a
    precomputed :class:`~repro.model.macro.MacroCost` for ``design`` —
    the sweep path computes those in one engine batch.

    Raises:
        ValueError: on an unknown schedule or non-positive macro count.
    """
    if n_macros < 1:
        raise ValueError(f"n_macros must be >= 1, got {n_macros}")
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}")
    if not layers:
        raise ValueError("need at least one layer")
    mapping = map_design(layers, design, tech, library, cost)
    area, latency, throughput = compose_system(mapping, n_macros, schedule)
    return SystemMapping(
        design=design,
        n_macros=n_macros,
        schedule=schedule,
        layers=[LayerMapping(l, *f) for l, f in zip(layers, mapping.layers)],
        latency_us=latency,
        energy_uj=mapping.energy_uj,
        throughput_inferences_s=throughput,
        area_mm2=area,
    )


def map_system_sweep(
    layers: list[Layer],
    designs: list[DesignPoint],
    tech: Technology,
    n_macros: int = 1,
    schedule: str = "sequential",
    library: CellLibrary | None = None,
    engine=None,
) -> list[SystemMapping]:
    """Map a network onto each candidate design, batching the cost models.

    Design-selection sweeps (e.g. picking the best frontier point for a
    deployment) evaluate the same network against many macro designs;
    this computes every per-design :class:`~repro.model.macro.MacroCost`
    through one shared :class:`repro.model.engine.CostEngine` — so
    component models are memoised across the whole sweep — and then maps
    each design.  Results are in input order and identical to calling
    :func:`map_system` per design.

    Args:
        engine: optional pre-warmed cost engine; one is created over
            ``library`` when omitted.
    """
    if engine is None:
        from repro.model.engine import CostEngine

        engine = CostEngine(library)
    costs = engine.macro_costs(list(designs))
    return [
        map_system(layers, design, tech, n_macros, schedule, library, cost=cost)
        for design, cost in zip(designs, costs)
    ]


def macros_for_residency(layers: list[Layer], design: DesignPoint) -> int:
    """Macros needed so every layer's tiles are simultaneously resident.

    Each macro contributes ``L`` resident tile slots; a layer needs
    ``row_tiles * col_tiles`` slots.
    """
    groups = design.n // design.precision.weight_bits
    slots_needed = 0
    for layer in layers:
        row_tiles = math.ceil(layer.rows / design.h)
        col_tiles = math.ceil(layer.cols / groups)
        slots_needed += row_tiles * col_tiles
    return max(1, math.ceil(slots_needed / design.l))
