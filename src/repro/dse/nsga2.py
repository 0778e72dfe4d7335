"""NSGA-II, implemented from scratch (Deb et al., 2002).

The paper's design space explorer runs "a classic NSGA-II algorithm" per
architecture.  This module provides a self-contained integer-genome
NSGA-II with:

* fast non-dominated sorting,
* crowding-distance assignment,
* binary tournament selection on (rank, crowding),
* uniform crossover and random-step mutation followed by the problem's
  *repair* operator (keeping the storage constraint exact), and
* elitist (mu + lambda) environmental selection.

It is deliberately independent of DCIM specifics: anything implementing
the small :class:`Problem` protocol can be optimised.

Population state runs as parallel arrays (genome / objective / rank /
crowding sequences) through the numpy sort and crowding kernels of
:mod:`repro.dse.kernels`.  The objectives also live as one float64
matrix that only grows by the children's rows, and each generation
builds one dominance matrix: the merged sort's, whose survivor
submatrix ranks the next parents.
:class:`Individual` objects are built only at the API boundary (the
returned front and population), so the public shapes are unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence, runtime_checkable

from repro.dse.kernels import GAKernels, breed_offspring, novel_genomes

__all__ = [
    "Problem",
    "BatchEvaluator",
    "Individual",
    "NSGA2Config",
    "NSGA2Result",
    "GenerationProgress",
    "ProgressObserver",
    "nsga2",
]

Genome = tuple[int, ...]


class Problem(Protocol):
    """Minimal interface the optimiser needs."""

    def sample(self, rng: random.Random) -> Genome:
        """Draw a random feasible genome."""

    def repair(self, genome: Genome, rng: random.Random) -> Genome:
        """Project a genome back into the feasible set."""

    def evaluate(self, genome: Genome) -> tuple[float, ...]:
        """Minimised objective vector for a feasible genome."""

    def mutation_steps(self) -> Sequence[int]:
        """Per-gene maximum mutation step sizes."""

    def evaluate_batch(
        self, genomes: Sequence[Genome]
    ) -> Sequence[tuple[float, ...]]:
        """Objective vectors for many genomes, in input order.

        Optional hook: when present, the optimiser evaluates each
        generation's new genomes through one call; otherwise it maps
        :meth:`evaluate`.  :class:`repro.dse.problem.DcimProblem`
        vectorises this through the batch cost engine
        (:mod:`repro.model.engine`), so one call per generation is the
        hot path, not a convenience.
        """
        return [self.evaluate(genome) for genome in genomes]


@runtime_checkable
class BatchEvaluator(Protocol):
    """Optional injectable evaluator: one call per generation batch.

    Implementations (see :class:`repro.service.executor.ProblemEvaluator`)
    may serve genomes from a shared persistent cache and fan the rest
    out to thread/process pools.  Results must come back in input
    order, and evaluation must be a pure function of the genome so a
    cached run is bit-identical to an uncached one.
    """

    def evaluate_batch(
        self, genomes: Sequence[Genome]
    ) -> Sequence[tuple[float, ...]]:
        """Objective vectors for ``genomes``, in input order."""
        ...


@dataclass
class Individual:
    """A genome with its cached objectives and NSGA-II bookkeeping."""

    genome: Genome
    objectives: tuple[float, ...]
    rank: int = 0
    crowding: float = 0.0


@dataclass(frozen=True)
class NSGA2Config:
    """Hyper-parameters of the explorer.

    The defaults are sized so one (Wstore, precision) exploration runs in
    seconds (the paper quotes "within 30 minutes" on their server; our
    analytical models are much cheaper to evaluate).
    """

    population_size: int = 64
    generations: int = 60
    crossover_prob: float = 0.9
    mutation_prob: float = 0.3
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.population_size < 4 or self.population_size % 2:
            raise ValueError("population_size must be an even number >= 4")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        for p in (self.crossover_prob, self.mutation_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class GenerationProgress:
    """Progress snapshot handed to an observer after each generation.

    Attributes:
        generation: 1-based index of the generation just completed.
        generations: total generations the run is configured for.
        evaluations: fresh objective evaluations so far (archive misses
            that reached the evaluator).
        requested: total genome lookups so far, including ones served by
            the run's memoisation archive.
        front_size: rank-0 individuals in the current population.
        archive_size: unique genomes evaluated so far.
    """

    generation: int
    generations: int
    evaluations: int
    requested: int
    front_size: int
    archive_size: int

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of genome lookups served by the run's own archive."""
        if self.requested == 0:
            return 0.0
        return 1.0 - self.evaluations / self.requested


#: Per-generation progress callback.  Called between generations only —
#: it must not mutate the problem and it cannot perturb the run (all rng
#: draws happen before the callback fires), so attaching one keeps the
#: result bit-identical.
ProgressObserver = Callable[[GenerationProgress], None]


@dataclass
class NSGA2Result:
    """Outcome of one NSGA-II run.

    Attributes:
        front: the non-dominated set over *every* genome the run ever
            evaluated (an external archive), deduplicated by genome.
            With four objectives the true front is often larger than the
            population, so archiving recovers points the fixed-size
            population had to crowd out.
        population: the full final population.
        history: per-generation copies of the rank-0 objective vectors,
            for convergence ablations.
        evaluations: number of objective evaluations performed (cached
            duplicates excluded).
        generations_run: generations actually completed (less than the
            configured count when the run was stopped early).
        stopped_early: True when ``should_stop`` ended the run before
            all configured generations.
    """

    front: list[Individual]
    population: list[Individual]
    history: list[list[tuple[float, ...]]] = field(default_factory=list)
    evaluations: int = 0
    generations_run: int = 0
    stopped_early: bool = False


def _archive_front(
    archive: dict[Genome, tuple[float, ...]], kernels: GAKernels
) -> list[Individual]:
    """Rank-0 individuals over the whole evaluation archive.

    Only the first front is needed, so this runs a single non-dominated
    filter instead of the full multi-front sort (which is quadratic in
    archive size *per front*).  The archive dict is already deduplicated
    by genome, so no further dedup pass is required.
    """
    genomes = list(archive)
    objectives = [archive[g] for g in genomes]
    matrix = kernels.as_matrix(objectives)
    keep = kernels.pareto_filter(matrix)
    perm, dist = kernels.crowding(matrix, keep)
    return [
        Individual(genomes[i], objectives[i], 0, value)
        for i, value in zip(perm, dist)
    ]


def nsga2(
    problem: Problem,
    config: NSGA2Config | None = None,
    evaluator: BatchEvaluator | None = None,
    observer: ProgressObserver | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> NSGA2Result:
    """Run NSGA-II on ``problem`` and return the final Pareto front.

    Objective evaluations are memoised per genome in an archive dict:
    the DCIM space is discrete and the GA revisits points frequently.
    Each generation's *new* genomes are evaluated as one batch — through
    ``evaluator`` when given (e.g. a cached thread/process-pool
    :class:`repro.service.executor.ProblemEvaluator`), otherwise through
    the problem's own ``evaluate_batch``/``evaluate``.  Because
    evaluation is pure and order-preserving, the run is bit-identical
    for a fixed seed regardless of the executor.

    Population state lives in parallel arrays (genomes, objectives,
    ranks, crowding); sorting and crowding run through the
    :mod:`repro.dse.kernels` numpy kernels, variation through the
    shared single-rng-stream operators.

    Args:
        observer: called with a :class:`GenerationProgress` after each
            completed generation.  Observers run between generations
            (never inside variation or evaluation), so an attached
            observer cannot change the outcome — results stay
            bit-identical per seed.
        should_stop: polled once before each generation; returning True
            stops the run cooperatively at that generation boundary.
            The result then carries everything evaluated so far with
            ``stopped_early=True`` — the front over a prefix of the run
            is identical to what the same seed would have produced had
            it been configured with that many generations.
    """
    config = config or NSGA2Config()
    rng = random.Random(config.seed)
    kernels = GAKernels()
    #: Every genome ever evaluated, keyed for O(1) dedup lookups.
    archive: dict[Genome, tuple[float, ...]] = {}
    evaluations = 0
    requested = 0

    if evaluator is not None:
        batch_fn: Callable[[Sequence[Genome]], Sequence[tuple[float, ...]]] = (
            evaluator.evaluate_batch
        )
    elif hasattr(problem, "evaluate_batch"):
        batch_fn = problem.evaluate_batch
    else:
        batch_fn = lambda genomes: [problem.evaluate(g) for g in genomes]

    def evaluate_all(genomes: Sequence[Genome]) -> None:
        """Batch-evaluate the not-yet-archived genomes (deduplicated)."""
        nonlocal evaluations, requested
        requested += len(genomes)
        pending = novel_genomes(genomes, archive)
        if not pending:
            return
        fresh = batch_fn(pending)
        if len(fresh) != len(pending):
            raise ValueError(
                f"evaluator returned {len(fresh)} results for "
                f"{len(pending)} genomes"
            )
        for genome, objectives in zip(pending, fresh):
            archive[genome] = tuple(objectives)
        evaluations += len(pending)

    # Parallel population arrays: genome, objective vector, rank and
    # crowding per slot.  Ranks/crowding hold their defaults until the
    # first generation's sort runs (matching the old Individual fields).
    # The kernels see the objectives as one float64 matrix plus
    # its dominance matrix: the survivors' dominance is a submatrix of
    # the merged sort's, so each generation builds only that one.
    pop_genomes = [problem.sample(rng) for _ in range(config.population_size)]
    evaluate_all(pop_genomes)
    pop_objectives = [archive[g] for g in pop_genomes]
    pop_matrix = kernels.as_matrix(pop_objectives)
    pop_dominance = None  # built by the first parent sort
    pop_ranks = [0] * config.population_size
    pop_crowding = [0.0] * config.population_size

    history: list[list[tuple[float, ...]]] = []
    steps = problem.mutation_steps()
    generations_run = 0
    stopped_early = False

    for generation in range(config.generations):
        if should_stop is not None and should_stop():
            stopped_early = True
            break
        # Parent ranking feeds tournament selection.
        ranks, fronts = kernels.nondominated_sort(pop_matrix, pop_dominance)
        pop_ranks = ranks
        for front in fronts:
            perm, dist = kernels.crowding(pop_matrix, front)
            for i, value in zip(perm, dist):
                pop_crowding[i] = value
        # Variation: fill an offspring population of equal size.  The
        # children are bred first (all rng draws happen here), then the
        # generation's new genomes are evaluated as one batch.
        children = breed_offspring(
            rng,
            pop_genomes,
            pop_ranks,
            pop_crowding,
            steps,
            config.crossover_prob,
            config.mutation_prob,
            problem.repair,
            config.population_size,
        )
        evaluate_all(children)
        # Elitist environmental selection over parents + offspring.
        child_objectives = [archive[g] for g in children]
        merged_genomes = pop_genomes + children
        merged_objectives = pop_objectives + child_objectives
        matrix = kernels.append(pop_matrix, child_objectives)
        ranks, fronts, dominance = kernels.nondominated_sort(
            matrix, return_dominance=True
        )
        survivors: list[int] = []
        survivor_crowding: list[float] = []
        for front in fronts:
            perm, dist = kernels.crowding(matrix, front)
            if len(survivors) + len(perm) <= config.population_size:
                survivors.extend(perm)
                survivor_crowding.extend(dist)
            else:
                # Stable descending-crowding truncation — same order the
                # old `front.sort(key=..., reverse=True)` produced.
                order = sorted(range(len(dist)), key=lambda k: -dist[k])
                room = config.population_size - len(survivors)
                survivors.extend(perm[k] for k in order[:room])
                survivor_crowding.extend(dist[k] for k in order[:room])
                break
        pop_genomes = [merged_genomes[i] for i in survivors]
        pop_objectives = [merged_objectives[i] for i in survivors]
        pop_matrix, pop_dominance = kernels.take(matrix, dominance, survivors)
        pop_ranks = [ranks[i] for i in survivors]
        pop_crowding = survivor_crowding
        history.append(
            [
                objectives
                for objectives, rank in zip(pop_objectives, pop_ranks)
                if rank == 0
            ]
        )
        generations_run = generation + 1
        if observer is not None:
            observer(
                GenerationProgress(
                    generation=generations_run,
                    generations=config.generations,
                    evaluations=evaluations,
                    requested=requested,
                    front_size=len(history[-1]),
                    archive_size=len(archive),
                )
            )

    population = [
        Individual(genome, objectives, rank, crowding)
        for genome, objectives, rank, crowding in zip(
            pop_genomes, pop_objectives, pop_ranks, pop_crowding
        )
    ]
    # Final front over the archive of everything evaluated, not just the
    # surviving population.  The archive is keyed by genome, so the
    # front needs no separate dedup pass.
    front = _archive_front(archive, kernels)
    return NSGA2Result(
        front=front,
        population=population,
        history=history,
        evaluations=evaluations,
        generations_run=generations_run,
        stopped_early=stopped_early,
    )
