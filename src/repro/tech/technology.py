"""Technology binding: normalised NOR-gate units to physical units.

The estimation models (``repro.model``) work entirely in NOR-normalised
units; a :class:`Technology` carries the three absolute constants of the
process node (NOR2 area, delay, switching energy) plus operating
conditions (supply voltage, input activity/sparsity) and the layout
utilisation used by the mock P&R flow.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = ["Technology"]


@dataclass(frozen=True)
class Technology:
    """A process/operating point for converting normalised costs.

    Attributes:
        name: node identifier, e.g. ``"generic28"``.
        node_nm: feature size in nanometres (used for node scaling).
        gate_area_um2: area of one NOR2 in um^2.
        gate_delay_ps: propagation delay of one NOR2 in ps at
            ``nominal_voltage_v``.
        gate_energy_fj: switching energy of one NOR2 in fJ at
            ``nominal_voltage_v`` and 100 % activity.
        voltage_v: operating supply voltage.
        nominal_voltage_v: voltage at which the gate constants hold.
        activity: effective switching-activity factor applied to dynamic
            energy.  The paper reports energy efficiency "at 10 %
            sparsity", which we model as a global activity factor.
        utilization: placement utilisation assumed by the layout flow
            (layout area = cell area / utilization).
    """

    name: str
    node_nm: float
    gate_area_um2: float
    gate_delay_ps: float
    gate_energy_fj: float
    voltage_v: float = 0.9
    nominal_voltage_v: float = 0.9
    activity: float = 0.1
    utilization: float = 0.75

    def __post_init__(self) -> None:
        for attr in ("node_nm", "gate_area_um2", "gate_delay_ps", "gate_energy_fj",
                     "voltage_v", "nominal_voltage_v"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")
        if not 0.0 < self.activity <= 1.0:
            raise ValueError(f"activity must be in (0, 1], got {self.activity}")
        if not 0.0 < self.utilization <= 1.0:
            raise ValueError(f"utilization must be in (0, 1], got {self.utilization}")

    # Voltage scaling: first-order alpha-power model.  Dynamic energy
    # scales with V^2; delay scales roughly inversely with V near nominal.
    @property
    def _voltage_ratio(self) -> float:
        return self.voltage_v / self.nominal_voltage_v

    # Conversions --------------------------------------------------------
    def area_um2(self, norm_area: float) -> float:
        """Convert a normalised area to um^2."""
        return norm_area * self.gate_area_um2

    def area_mm2(self, norm_area: float) -> float:
        """Convert a normalised area to mm^2."""
        return self.area_um2(norm_area) * 1e-6

    def delay_ns(self, norm_delay: float) -> float:
        """Convert a normalised delay to ns at the operating voltage."""
        return norm_delay * self.gate_delay_ps * 1e-3 / self._voltage_ratio

    def energy_fj(self, norm_energy: float, activity: float | None = None) -> float:
        """Convert a normalised energy to fJ.

        Args:
            norm_energy: energy in NOR units at 100 % activity.
            activity: optional override of the technology activity factor.
        """
        act = self.activity if activity is None else activity
        return norm_energy * self.gate_energy_fj * act * self._voltage_ratio**2

    # Derived operating points -------------------------------------------
    def with_voltage(self, voltage_v: float) -> "Technology":
        """Return the same node at a different supply voltage."""
        return dataclasses.replace(self, voltage_v=voltage_v)

    def scaled_to_node(self, node_nm: float, name: str | None = None) -> "Technology":
        """First-order constant-field scaling to another feature size.

        Area scales with the square of the feature-size ratio; delay and
        energy scale linearly.  This is only used to sanity-compare
        against references fabricated in other nodes (e.g. the 22 nm
        macros of Fig. 8).
        """
        s = node_nm / self.node_nm
        return dataclasses.replace(
            self,
            name=name or f"{self.name}@{node_nm:g}nm",
            node_nm=node_nm,
            gate_area_um2=self.gate_area_um2 * s * s,
            gate_delay_ps=self.gate_delay_ps * s,
            gate_energy_fj=self.gate_energy_fj * s,
        )
