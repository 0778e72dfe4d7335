"""Multi-objective problem formulations (paper Eqs. 2 and 3).

Both architectures minimise ``[A, D, E, -T]``: area, clock period,
energy per pass, and negated peak throughput.  The storage constraint is
satisfied by the genome encoding (see :mod:`repro.dse.genome`), so the
GA never sees infeasible points.

Evaluation is batch-first: every path — the GA's per-generation
batches, the evaluation service's batch executor, the exhaustive
baseline — funnels into :meth:`DcimProblem.evaluate_batch`, which
decodes the genomes into parameter columns and ships them to the
vectorised :class:`repro.model.engine.CostEngine`.  The scalar
:meth:`DcimProblem.evaluate` is a batch of one, and both are
bit-identical to evaluating ``DesignPoint.macro_cost`` point by point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.spec import DcimSpec, DesignPoint
from repro.dse.genome import Genome, GenomeCodec
from repro.model.engine import CostEngine
from repro.model.macro import MacroCost
from repro.tech.cells import CellLibrary

__all__ = ["DcimProblem", "OBJECTIVE_NAMES", "objectives_of"]

#: Order of the objective vector (all minimised; throughput negated).
OBJECTIVE_NAMES = ("area", "delay", "energy", "neg_throughput")


def objectives_of(cost: MacroCost) -> tuple[float, float, float, float]:
    """Map a macro cost onto the minimised objective vector of Eq. 2/3."""
    return (
        cost.area,
        cost.delay,
        cost.energy_per_pass,
        -cost.throughput,
    )


@dataclass
class DcimProblem:
    """The DSE problem for one (Wstore, precision) specification.

    Implements the :class:`repro.dse.nsga2.Problem` protocol.  Objective
    values are normalised NOR-gate units: converting to physical units is
    a strictly monotone per-objective transform, so the Pareto set is
    identical — physical metrics are attached after exploration.

    Attributes:
        spec: the user specification (Fig. 4 "User Defined" inputs).
        library: normalised standard-cell library.
    """

    spec: DcimSpec
    library: CellLibrary = field(default_factory=CellLibrary.default)

    def __post_init__(self) -> None:
        self.codec = GenomeCodec(self.spec)
        self.engine = CostEngine(self.library)
        #: The Problem protocol's ``repair`` is the codec's own, bound
        #: here so the GA calls it without a forwarding method per child.
        self.repair = self.codec.repair

    # Problem protocol -----------------------------------------------------
    def sample(self, rng: random.Random) -> Genome:
        return self.codec.sample(rng)

    def evaluate(self, genome: Genome) -> tuple[float, ...]:
        """Objective vector for one genome: a batch of one."""
        return self.evaluate_batch([genome])[0]

    def evaluate_batch(self, genomes: Sequence[Genome]) -> list[tuple[float, ...]]:
        """Objective vectors for many genomes, in input order.

        This is the single evaluation path of the whole stack: genomes
        are decoded into ``(N, H, L, k)`` columns and the batch engine
        evaluates the architecture's analytic model in one shot.  The
        service's executor calls it once per genome chunk.
        """
        if not genomes:
            return []
        n, h, l, k = self.codec.decode_params(genomes)
        precision = self.spec.precision
        if precision.is_float:
            batch = self.engine.evaluate_fp(
                n, h, l, k, be=precision.exponent_bits, bm=precision.mantissa_bits
            )
        else:
            batch = self.engine.evaluate_int(
                n, h, l, k, bx=precision.bits, bw=precision.bits
            )
        return batch.objectives()

    def mutation_steps(self) -> tuple[int, int, int, int]:
        # Exponent genes move a couple of octaves; the k index can jump
        # across its whole (short) list.
        k_span = max(len(self.codec.k_choices) - 1, 1)
        return (2, 2, 2, k_span)

    # Conveniences -----------------------------------------------------------
    def decode(self, genome: Genome) -> DesignPoint:
        """Materialise a genome as a design point."""
        return self.codec.decode(genome)

    def enumerate_genomes(self) -> list[Genome]:
        """Every feasible genome, in codec enumeration order.

        Optional capability hook the explorer uses to size the design
        space and to default small specs to exhaustive enumeration
        instead of the GA.  Problems whose codec does not cover the full
        genome (e.g. the mapping problem's extra loop-order genes)
        simply don't implement it and always run the GA.
        """
        return self.codec.enumerate()

    def exhaustive_front(self) -> list[DesignPoint]:
        """Brute-force true Pareto front by enumerating the whole space.

        The exponent encoding keeps the space small (hundreds of points),
        which makes this exact baseline cheap; the explorer tests compare
        NSGA-II's front against it.  Objectives come from the same
        :meth:`evaluate_batch` path as every other consumer.
        """
        return self.exhaustive_front_with_objectives()[0]

    def exhaustive_front_with_objectives(
        self,
    ) -> tuple[list[DesignPoint], list[tuple[float, ...]]]:
        """Exhaustive front plus its objective rows, from one batch.

        Only the kept genomes are decoded, in enumeration order.
        """
        from repro.core.pareto import pareto_front

        genomes = self.codec.enumerate()
        objectives = self.evaluate_batch(genomes)
        front = pareto_front(list(zip(genomes, objectives)), objectives)
        return self.codec.decode_batch([g for g, _ in front]), [o for _, o in front]
