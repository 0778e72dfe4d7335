"""User distillation of the Pareto frontier (Fig. 4, "User Distillation").

After exploration, the user narrows the frontier with physical
requirements (area/power/throughput/delay budgets) and finally picks one
design with a selection strategy (knee point, extreme of one metric, or
a weighted score).

:func:`distill` costs the whole frontier through one
:class:`~repro.model.engine.CostEngine`, so the component models come
from the process-wide memo that exploration has already filled instead
of being rebuilt per point.  The costs equal
:meth:`DesignPoint.macro_cost` bit for bit (the engine parity tests
check it), and so do the metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pareto import knee_point
from repro.core.spec import DesignPoint
from repro.model.engine import CostEngine
from repro.model.metrics import MacroMetrics, evaluate_macro
from repro.tech.cells import CellLibrary
from repro.tech.technology import Technology

__all__ = ["Requirements", "distill", "select", "SELECTION_STRATEGIES"]


@dataclass(frozen=True)
class Requirements:
    """Physical budgets a distilled design must satisfy.

    Any ``None`` bound is ignored.  Bounds are inclusive.
    """

    max_area_mm2: float | None = None
    max_power_w: float | None = None
    max_delay_ns: float | None = None
    min_tops: float | None = None
    min_tops_per_watt: float | None = None
    min_tops_per_mm2: float | None = None

    def admits(self, metrics: MacroMetrics) -> bool:
        """True when the metrics satisfy every given bound."""
        checks = (
            (self.max_area_mm2, metrics.layout_area_mm2, False),
            (self.max_power_w, metrics.power_w, False),
            (self.max_delay_ns, metrics.delay_ns, False),
            (self.min_tops, metrics.tops, True),
            (self.min_tops_per_watt, metrics.tops_per_watt, True),
            (self.min_tops_per_mm2, metrics.tops_per_mm2, True),
        )
        for bound, value, is_lower in checks:
            if bound is None:
                continue
            if is_lower and value < bound:
                return False
            if not is_lower and value > bound:
                return False
        return True


def distill(
    points: list[DesignPoint],
    tech: Technology,
    requirements: Requirements | None = None,
    library: CellLibrary | None = None,
) -> list[tuple[DesignPoint, MacroMetrics]]:
    """Attach metrics to Pareto designs and drop those outside budget."""
    requirements = requirements or Requirements()
    out = []
    for point, cost in zip(points, CostEngine(library).macro_costs(points)):
        metrics = evaluate_macro(cost, tech)
        if requirements.admits(metrics):
            out.append((point, metrics))
    return out


def _score_matrix(pairs: list[tuple[DesignPoint, MacroMetrics]]) -> np.ndarray:
    return np.array(
        [
            [m.layout_area_mm2, m.delay_ns, m.energy_per_pass_nj, -m.tops]
            for _, m in pairs
        ]
    )


#: Named selection strategies accepted by :func:`select`.
SELECTION_STRATEGIES = (
    "knee",
    "min_area",
    "min_delay",
    "min_energy",
    "max_tops",
    "max_tops_per_watt",
    "max_tops_per_mm2",
)


def select(
    pairs: list[tuple[DesignPoint, MacroMetrics]],
    strategy: str = "knee",
) -> tuple[DesignPoint, MacroMetrics]:
    """Pick one design from a distilled frontier.

    Args:
        pairs: output of :func:`distill` (must be non-empty).
        strategy: one of :data:`SELECTION_STRATEGIES`.

    Raises:
        ValueError: on an empty frontier or unknown strategy.
    """
    if not pairs:
        raise ValueError("no designs satisfy the requirements")
    if strategy == "knee":
        return pairs[knee_point(_score_matrix(pairs))]
    key = {
        "min_area": lambda pm: pm[1].layout_area_mm2,
        "min_delay": lambda pm: pm[1].delay_ns,
        "min_energy": lambda pm: pm[1].energy_per_pass_nj,
        "max_tops": lambda pm: -pm[1].tops,
        "max_tops_per_watt": lambda pm: -pm[1].tops_per_watt,
        "max_tops_per_mm2": lambda pm: -pm[1].tops_per_mm2,
    }.get(strategy)
    if key is None:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {SELECTION_STRATEGIES}"
        )
    return min(pairs, key=key)
