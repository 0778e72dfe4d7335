"""SEGA-DCIM compiler orchestration (the full Fig. 4 pipeline).

``SegaDcim.compile`` runs the end-to-end flow:

1. **Explore** — NSGA-II (or exhaustive enumeration for small spaces)
   produces the Pareto frontier for the user spec.
2. **Distill** — physical requirements filter the frontier; a selection
   strategy picks one design (or the user picks from ``distilled``).
3. **Generate** — the template-based generator emits the Verilog
   bundle and the mock P&R flow produces the layout record.
4. **Verify** (optional) — a scaled-down gate-level twin of the chosen
   architecture is simulated against the golden model; template
   correctness at small sizes carries to all sizes because the
   templates are purely structural in the parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.spec import DcimSpec, DesignPoint
from repro.dse.distill import Requirements, distill, select
from repro.dse.explorer import DesignSpaceExplorer, ExplorationResult
from repro.dse.nsga2 import NSGA2Config
from repro.layout.pnr import LayoutResult, PnrFlow
from repro.model.metrics import MacroMetrics
from repro.tech.cells import CellLibrary
from repro.tech.pdk import GENERIC28
from repro.tech.technology import Technology

if TYPE_CHECKING:  # RTL generation loads with the first generate() call
    from repro.rtl.generator import RtlBundle

__all__ = ["CompilationResult", "SegaDcim"]


@dataclass
class CompilationResult:
    """Everything the compiler produced for one specification."""

    spec: DcimSpec
    exploration: ExplorationResult
    distilled: list[tuple[DesignPoint, MacroMetrics]]
    selected: DesignPoint
    metrics: MacroMetrics
    rtl: RtlBundle | None = None
    layout: LayoutResult | None = None
    verification: object | None = None
    extras: dict = field(default_factory=dict)

    def summary(self) -> str:
        """Human-readable report of the chosen design."""
        from repro.reporting.tables import ascii_table, format_si

        m = self.metrics
        rows = [
            ("architecture", self.selected.arch),
            ("precision", self.selected.precision.name),
            ("Wstore", format_si(self.spec.wstore)),
            ("N / H / L / k", f"{self.selected.n} / {self.selected.h} / "
                              f"{self.selected.l} / {self.selected.k}"),
            ("SRAM bits", format_si(self.selected.sram_bits, "b")),
            ("layout area", f"{m.layout_area_mm2:.4f} mm2"),
            ("clock period", f"{m.delay_ns:.3f} ns"),
            ("peak throughput", f"{m.tops:.2f} TOPS"),
            ("energy efficiency", f"{m.tops_per_watt:.1f} TOPS/W"),
            ("area efficiency", f"{m.tops_per_mm2:.2f} TOPS/mm2"),
            ("Pareto frontier size", len(self.exploration.points)),
            ("designs after distillation", len(self.distilled)),
        ]
        return ascii_table(["metric", "value"], rows)


class SegaDcim:
    """The design space exploration-guided automatic DCIM compiler.

    Args:
        tech: technology node (defaults to the calibrated ``generic28``).
        library: normalised standard-cell library (Table III default).
        config: NSGA-II hyper-parameters.
    """

    def __init__(
        self,
        tech: Technology = GENERIC28,
        library: CellLibrary | None = None,
        config: NSGA2Config | None = None,
    ) -> None:
        self.tech = tech
        self.library = library or CellLibrary.default()
        self.explorer = DesignSpaceExplorer(self.library, config)
        self.pnr = PnrFlow(tech)

    # Individual stages ------------------------------------------------------
    def explore(
        self, spec: DcimSpec, seed: int | None = None, exhaustive: bool = False
    ) -> ExplorationResult:
        """Stage 1: produce the Pareto frontier for a specification."""
        if exhaustive:
            return self.explorer.explore_exhaustive(spec)
        return self.explorer.explore(spec, seed)

    def generate(self, design: DesignPoint) -> RtlBundle:
        """Stage 3a: emit the Verilog bundle for a chosen design."""
        from repro.rtl.generator import generate_rtl

        return generate_rtl(design)

    def place_and_route(self, design: DesignPoint) -> LayoutResult:
        """Stage 3b: run the mock P&R flow for a chosen design."""
        return self.pnr.run(design, self.library)

    def verify(self, design: DesignPoint, trials: int = 5) -> object:
        """Stage 4: gate-level equivalence on a scaled-down twin.

        The twin keeps ``L``, ``k`` and the precision but shrinks ``N``
        and ``H`` to simulation-friendly sizes; the templates are purely
        structural in ``N`` and ``H``, so small-size equivalence
        exercises every distinct gate pattern of the full design.

        Floating-point designs verify the complete pre-align ->
        mantissa-MAC -> INT-to-FP path on a one-group twin.
        """
        from repro.netlist.verify import verify_fp_datapath, verify_int_macro

        p = design.precision
        if p.is_float:
            return verify_fp_datapath(
                h=min(design.h, 8),
                be=p.exponent_bits,
                bm=p.mantissa_bits,
                trials=trials,
            )
        bw = p.weight_bits
        twin = DesignPoint(
            precision=p,
            n=min(design.n, 2 * bw),
            h=min(design.h, 8),
            l=min(design.l, 4),
            k=design.k,
        )
        return verify_int_macro(twin, trials=trials)

    # End-to-end ---------------------------------------------------------------
    def compile(
        self,
        spec: DcimSpec,
        requirements: Requirements | None = None,
        strategy: str = "knee",
        seed: int | None = 0,
        exhaustive: bool = False,
        generate: bool = True,
        layout: bool = True,
        verify: bool = False,
    ) -> CompilationResult:
        """Run the full explore -> distill -> generate pipeline.

        Args:
            spec: the user specification.
            requirements: physical budgets for distillation.
            strategy: selection strategy (see
                :data:`repro.dse.distill.SELECTION_STRATEGIES`).
            seed: GA seed for reproducibility.
            exhaustive: enumerate instead of running the GA.
            generate: emit the RTL bundle.
            layout: run the mock P&R flow.
            verify: run scaled gate-level verification.

        Raises:
            ValueError: when no design satisfies the requirements.
        """
        exploration = self.explore(spec, seed=seed, exhaustive=exhaustive)
        distilled = distill(
            exploration.points, self.tech, requirements, self.library
        )
        selected, metrics = select(distilled, strategy)
        result = CompilationResult(
            spec=spec,
            exploration=exploration,
            distilled=distilled,
            selected=selected,
            metrics=metrics,
        )
        if generate:
            result.rtl = self.generate(selected)
            from repro.rtl.lint import lint_bundle

            lint = lint_bundle(result.rtl)
            result.extras["lint"] = lint
            if not lint.passed:
                raise RuntimeError(
                    f"generated bundle failed lint: {lint.errors[:3]}"
                )
        if layout:
            result.layout = self.place_and_route(selected)
        if verify:
            result.verification = self.verify(selected)
        return result

    def compile_mixed(
        self,
        wstore: int,
        precisions: list,
        requirements: Requirements | None = None,
        strategy: str = "knee",
        seed: int | None = 0,
        exhaustive: bool = False,
        **spec_kwargs,
    ) -> CompilationResult:
        """Explore several precisions and distill one merged frontier.

        This is the paper's "high-quality Pareto-frontier set containing
        both integer and floating-point solutions": each precision's
        architecture is explored separately, the fronts compete in one
        *metric-space* dominance filter (normalised objectives are not
        comparable across precisions because an op means different work),
        and distillation/selection run on the merged set.

        The chosen design's own precision determines the generated
        architecture.  The merged frontier is exposed via
        ``result.extras["mixed_frontier"]`` as (design, metrics) pairs.

        Raises:
            ValueError: with no precisions, or when no design satisfies
                the requirements.
        """
        if not precisions:
            raise ValueError("need at least one precision")
        merged: list[tuple[DesignPoint, MacroMetrics]] = []
        explorations = []
        for i, precision in enumerate(precisions):
            spec = DcimSpec(wstore=wstore, precision=precision, **spec_kwargs)
            exploration = self.explore(
                spec,
                seed=None if seed is None else seed + i,
                exhaustive=exhaustive,
            )
            explorations.append(exploration)
            merged.extend(distill(exploration.points, self.tech, None, self.library))
        # Cross-precision dominance on physical metrics (all minimised)
        # plus a *capability* dimension: a floating-point design offers
        # numeric range an integer design cannot, so it must not be
        # dominated by a smaller INT macro of equal speed.  Capability is
        # ranked float-over-int, then by operand bits.
        from repro.core.pareto import pareto_front

        def capability(point: DesignPoint) -> float:
            p = point.precision
            return (1000.0 if p.is_float else 0.0) + p.bits

        objectives = [
            (
                m.layout_area_mm2,
                m.delay_ns,
                m.energy_per_pass_nj,
                -m.tops,
                -capability(point),
            )
            for point, m in merged
        ]
        frontier = pareto_front(merged, objectives)
        requirements = requirements or Requirements()
        admitted = [pm for pm in frontier if requirements.admits(pm[1])]
        selected, metrics = select(admitted, strategy)
        chosen_exploration = next(
            e for e in explorations
            if e.spec.precision == selected.precision
        )
        result = CompilationResult(
            spec=chosen_exploration.spec,
            exploration=chosen_exploration,
            distilled=admitted,
            selected=selected,
            metrics=metrics,
        )
        result.extras["mixed_frontier"] = frontier
        result.extras["explorations"] = explorations
        result.rtl = self.generate(selected)
        result.layout = self.place_and_route(selected)
        return result
