"""The built-in ``"mapping"`` problem: network-to-system mapping search.

Where the ``"dcim"`` problem optimises one macro in normalised units,
this problem optimises a *deployment*: which macro design, replicated
how many times, serves a named workload network best.  The genome
extends the DCIM exponent encoding with a macro-count gene, and each
candidate is scored by actually mapping the network onto the system,
so tiling, weight reloads and schedule effects shape the front —
objectives are physical ``[system area mm2, latency us, energy uJ,
-inferences/s]``.

A problem instance costs and maps each macro design (the first four
genes) once (:func:`repro.workloads.system.map_design`); a candidate
then only composes its macro count
(:func:`repro.workloads.system.compose_system`).  About half of a GA
run's genomes share a design with another, and the values equal
:func:`repro.workloads.system.map_system`'s bit for bit.

It exists both as a genuinely useful second workload and as the proof
that the registry abstraction holds: nothing in the serving stack knows
this module beyond its registry entry.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.precision import parse_precision
from repro.core.spec import DcimSpec, DesignPoint
from repro.dse.genome import GenomeCodec
from repro.model.engine import CostEngine
from repro.problems.base import GASizing, ProblemDefinition, SpecValidationError
from repro.problems.registry import register_problem
from repro.tech.cells import CellLibrary
from repro.tech.corners import STANDARD_CORNERS, apply_corner
from repro.tech.pdk import load_pdk
from repro.workloads.mapping import recommend_spec
from repro.workloads.networks import AVAILABLE_NETWORKS
from repro.workloads.system import (
    SCHEDULES,
    DesignMapping,
    compose_system,
    map_design,
)

__all__ = [
    "MappingSpec",
    "SystemPoint",
    "MappingProblem",
    "MappingProblemDefinition",
    "MAPPING_OBJECTIVES",
]

#: Minimised objective order of the mapping problem.
MAPPING_OBJECTIVES = ("area_mm2", "latency_us", "energy_uj", "neg_inferences_s")

@dataclass(frozen=True)
class MappingSpec:
    """JSON-able specification of one deployment search.

    Attributes:
        network: workload name from
            :data:`repro.workloads.networks.AVAILABLE_NETWORKS`.
        precision: computing precision name (e.g. ``INT8``).
        schedule: system schedule (``sequential``/``pipelined``).
        max_macros: upper bound on the macro count; the genome explores
            powers of two up to this bound.
        wstore: per-macro weight storage; ``None`` derives it from the
            network's largest layer (:func:`~repro.workloads.mapping.
            recommend_spec`).
        pdk / corner: technology node and PVT corner for the physical
            numbers.
        max_l / max_h: macro design-space bounds (as in
            :class:`~repro.core.spec.DcimSpec`).
    """

    network: str
    precision: str = "INT8"
    schedule: str = "sequential"
    max_macros: int = 8
    wstore: int | None = None
    pdk: str = "generic28"
    corner: str = "tt"
    max_l: int = 64
    max_h: int = 2048

    def __post_init__(self) -> None:
        if self.network not in AVAILABLE_NETWORKS:
            raise ValueError(
                f"unknown network {self.network!r}; available: "
                f"{', '.join(sorted(AVAILABLE_NETWORKS))}"
            )
        if self.schedule not in SCHEDULES:
            raise ValueError(
                f"unknown schedule {self.schedule!r}; choose from {SCHEDULES}"
            )
        if self.max_macros < 1:
            raise ValueError(f"max_macros must be >= 1, got {self.max_macros}")
        if self.corner not in STANDARD_CORNERS:
            raise ValueError(
                f"unknown corner {self.corner!r}; choose from "
                f"{sorted(STANDARD_CORNERS)}"
            )
        parse_precision(self.precision)  # fail fast on bad names

    def dcim_spec(self) -> DcimSpec:
        """The per-macro design space this deployment searches."""
        precision = parse_precision(self.precision)
        if self.wstore is not None:
            return DcimSpec(
                wstore=self.wstore,
                precision=precision,
                max_l=self.max_l,
                max_h=self.max_h,
            )
        return recommend_spec(
            AVAILABLE_NETWORKS[self.network](),
            precision,
            max_l=self.max_l,
            max_h=self.max_h,
        )


@dataclass(frozen=True)
class SystemPoint:
    """One decoded candidate: a macro design replicated ``n_macros`` times."""

    design: DesignPoint
    n_macros: int
    schedule: str = "sequential"

    def describe(self) -> str:
        return (
            f"{self.design.describe()} x{self.n_macros} ({self.schedule})"
        )


@dataclass
class MappingProblem:
    """GA-facing problem object for one :class:`MappingSpec`.

    Implements the :class:`repro.dse.nsga2.Problem` protocol.  The
    genome is ``(a, b, c, k_idx, em)``: the DCIM exponent genes plus a
    macro-count exponent (``n_macros = 2**em``).  Batch evaluation
    costs the designs it has not seen through one shared
    :class:`~repro.model.engine.CostEngine` call and maps the network
    onto each once, then composes every candidate's system —
    evaluation is a pure function of the genome, so runs are
    bit-identical per seed and cacheable across campaigns.
    """

    spec: MappingSpec
    library: CellLibrary = field(default_factory=CellLibrary.default)

    def __post_init__(self) -> None:
        self.codec = GenomeCodec(self.spec.dcim_spec())
        self.layers = AVAILABLE_NETWORKS[self.spec.network]()
        self.tech = apply_corner(load_pdk(self.spec.pdk), self.spec.corner)
        self.engine = CostEngine(self.library)
        #: Largest macro-count exponent with ``2**em <= max_macros``.
        self.max_em = int(math.log2(self.spec.max_macros))
        #: Every design evaluated so far, by its four genes.
        self._designs: dict[tuple[int, ...], DesignMapping] = {}

    # Problem protocol -----------------------------------------------------
    def sample(self, rng: random.Random) -> tuple[int, ...]:
        return (*self.codec.sample(rng), rng.randint(0, self.max_em))

    def repair(
        self, genome: tuple[int, ...], rng: random.Random
    ) -> tuple[int, ...]:
        base = self.codec.repair(tuple(genome[:4]), rng)
        em = min(max(genome[4], 0), self.max_em)
        return (*base, em)

    def mutation_steps(self) -> tuple[int, int, int, int, int]:
        k_span = max(len(self.codec.k_choices) - 1, 1)
        return (2, 2, 2, k_span, 1)

    def evaluate(self, genome: tuple[int, ...]) -> tuple[float, ...]:
        return self.evaluate_batch([genome])[0]

    def evaluate_batch(
        self, genomes: Sequence[tuple[int, ...]]
    ) -> list[tuple[float, ...]]:
        """Objective vectors for many genomes, in input order.

        Each distinct design (the first four genes) is costed and
        mapped once per problem instance (:func:`~repro.workloads.
        system.map_design`): the designs this instance has not seen go
        through one ``engine.macro_costs`` call per batch.  Each genome
        then only composes its macro count
        (:func:`~repro.workloads.system.compose_system`), so the values
        equal :func:`~repro.workloads.system.map_system`'s bit for bit.

        Raises:
            ValueError: on the first infeasible design of the batch,
                then on the first macro-count gene out of range.
        """
        designs = self._designs
        keys = [genome[:4] for genome in genomes]
        novel = [key for key in dict.fromkeys(keys) if key not in designs]
        if novel:
            points = self.codec.decode_batch(novel)
            costs = self.engine.macro_costs(points)
            for key, point, cost in zip(novel, points, costs):
                designs[key] = map_design(
                    self.layers, point, self.tech, self.library, cost
                )
        schedule = self.spec.schedule
        results: list[tuple[float, ...]] = []
        for genome, key in zip(genomes, keys):
            em = genome[4]
            if not 0 <= em <= self.max_em:
                raise ValueError(f"infeasible genome {tuple(genome)}")
            mapping = designs[key]
            area, latency, throughput = compose_system(mapping, 1 << em, schedule)
            results.append((area, latency, mapping.energy_uj, -throughput))
        return results

    # Conveniences ---------------------------------------------------------
    def decode(self, genome: tuple[int, ...]) -> SystemPoint:
        em = genome[4]
        if not 0 <= em <= self.max_em:
            raise ValueError(f"infeasible genome {tuple(genome)}")
        return SystemPoint(
            design=self.codec.decode(tuple(genome[:4])),
            n_macros=1 << em,
            schedule=self.spec.schedule,
        )


class MappingProblemDefinition(ProblemDefinition):
    """Registry entry for the network-to-system mapping search."""

    name = "mapping"
    title = "Network-to-system mapping search"
    description = (
        "NSGA-II over macro design x macro count for a named workload "
        "network: each candidate system is scored by mapping the network "
        "onto it (tiling, reloads, schedule), yielding physical "
        "[area mm2, latency us, energy uJ, -inferences/s] objectives."
    )
    objectives = MAPPING_OBJECTIVES
    spec_type = MappingSpec
    sizing = GASizing(population_size=32, generations=24)

    def to_spec(self, spec_request: MappingSpec) -> MappingSpec:
        return spec_request

    def spec_label(self, spec: MappingSpec) -> str:
        return f"{spec.network}:{spec.precision}:{spec.schedule}"

    def request_label(self, spec_request: MappingSpec) -> str:
        return self.spec_label(spec_request)

    def parse_cli_spec(self, text: str) -> MappingSpec:
        parts = text.split(":")
        if not parts[0] or len(parts) > 3:
            raise SpecValidationError(
                self.name,
                f"spec {text!r} must look like NETWORK[:PRECISION[:SCHEDULE]] "
                f"(e.g. tiny_cnn:INT8)",
            )
        payload: dict = {"network": parts[0]}
        if len(parts) > 1 and parts[1]:
            payload["precision"] = parts[1]
        if len(parts) > 2 and parts[2]:
            payload["schedule"] = parts[2]
        try:
            return MappingSpec(**payload)
        except ValueError as exc:
            raise SpecValidationError(self.name, str(exc)) from None

    def make_problem(self, spec, library=None):
        if library is None:
            return MappingProblem(spec)
        return MappingProblem(spec, library)

    def frontier_point(self, point: SystemPoint, objectives):
        from repro.service.api import FrontierPoint

        design = point.design
        return FrontierPoint(
            precision=design.precision.name,
            n=design.n,
            h=design.h,
            l=design.l,
            k=design.k,
            objectives=tuple(objectives),
            extras={"n_macros": point.n_macros, "schedule": point.schedule},
        )

    def point_columns(self) -> tuple[str, ...]:
        return ("prec", "N", "H", "L", "k", "macros", "area mm2",
                "lat us", "E uJ", "inf/s")

    def point_row(self, point: SystemPoint, objectives) -> tuple:
        design = point.design
        area, latency, energy, neg_throughput = objectives
        return (
            design.precision.name,
            design.n,
            design.h,
            design.l,
            design.k,
            point.n_macros,
            f"{area:.3f}",
            f"{latency:.2f}",
            f"{energy:.3f}",
            f"{-neg_throughput:.0f}",
        )


register_problem(MappingProblemDefinition())
