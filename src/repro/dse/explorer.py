"""MOGA-based design space explorer (Fig. 4 centre block).

Runs NSGA-II for a specification, decodes the resulting front into
:class:`~repro.core.spec.DesignPoint` objects, and can merge fronts from
several specifications (e.g. an INT and an FP candidate precision for
the same application) into one cross-architecture frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.core.pareto import hypervolume, normalize_objectives, pareto_front
from repro.core.spec import DcimSpec, DesignPoint
from repro.dse.nsga2 import (
    NSGA2Config,
    NSGA2Result,
    ProgressObserver,
    nsga2,
)
from repro.dse.problem import DcimProblem
from repro.tech.cells import CellLibrary

__all__ = [
    "DEFAULT_EXHAUSTIVE_THRESHOLD",
    "ExplorationResult",
    "DesignSpaceExplorer",
    "SpecPlan",
    "merge_exploration_results",
]

#: Largest enumerable design space (decoded genome count) that defaults
#: to exhaustive enumeration instead of the GA.  With batch evaluation a
#: few hundred genomes cost one engine call, which is cheaper than any
#: GA run *and* exact; every stock DCIM spec enumerates well under this.
DEFAULT_EXHAUSTIVE_THRESHOLD = 512


@dataclass(frozen=True)
class SpecPlan:
    """One spec's problem, built once, and the route it will take.

    Attributes:
        problem: the GA-facing problem object for the spec.
        genomes: the enumerated design space when the exhaustive route
            applies, ``None`` when the GA runs.
    """

    problem: object
    genomes: list | None = None

    @property
    def strategy(self) -> str:
        """``"exhaustive"`` or ``"ga"``."""
        return "ga" if self.genomes is None else "exhaustive"


@dataclass
class ExplorationResult:
    """The Pareto frontier for one specification.

    Attributes:
        spec: the explored specification.
        points: non-dominated design points, sorted by area.
        objectives: matching ``[A, D, E, -T]`` normalised objective rows.
        evaluations: objective evaluations spent by the GA.
        history: per-generation rank-0 objective snapshots.
        generations_run: GA generations actually completed (fewer than
            configured when the run was cancelled).
        stopped_early: True when a ``should_stop`` hook ended the GA
            before all configured generations.
        strategy: how the frontier was obtained — ``"ga"`` (NSGA-II) or
            ``"exhaustive"`` (full enumeration; exact by construction).
    """

    spec: DcimSpec
    points: list[DesignPoint]
    objectives: np.ndarray
    evaluations: int = 0
    history: list[list[tuple[float, ...]]] = field(default_factory=list)
    generations_run: int = 0
    stopped_early: bool = False
    strategy: str = "ga"

    def __len__(self) -> int:
        return len(self.points)

    def front_hypervolume(self) -> float:
        """Hypervolume of the normalised front w.r.t. the (1.1, ...) box.

        A scalar front-quality figure used by the convergence ablation.
        """
        if len(self.points) == 0:
            return 0.0
        unit = normalize_objectives(self.objectives)
        return hypervolume(unit, [1.1] * unit.shape[1])


class DesignSpaceExplorer:
    """Drives NSGA-II per architecture and merges the outcomes.

    Args:
        library: normalised cell library (the "Customized Cell Library"
            input of Fig. 4).
        config: NSGA-II hyper-parameters.
        cache: optional shared persistent evaluation cache
            (:class:`repro.service.cache.EvaluationCache`); GA
            evaluations are served from and written back to it (the
            exhaustive route never consults it).
        executor: optional batch backend
            (:class:`repro.service.executor.BatchExecutor`) that
            evaluates each generation's new genomes, or the exhaustive
            route's enumeration, in parallel.
        problem_factory: optional ``spec -> problem`` hook replacing the
            default :class:`DcimProblem` construction; this is how the
            campaign layer dispatches through the
            :mod:`repro.problems` registry.  The returned object must
            implement the :class:`~repro.dse.nsga2.Problem` protocol
            plus ``decode``.
        exhaustive_threshold: largest enumerable design space
            :meth:`explore_auto` resolves to exhaustive enumeration;
            ``0`` or ``None`` disables the exhaustive default and always
            runs the GA.
    """

    def __init__(
        self,
        library: CellLibrary | None = None,
        config: NSGA2Config | None = None,
        cache=None,
        executor=None,
        problem_factory: Callable | None = None,
        exhaustive_threshold: int | None = DEFAULT_EXHAUSTIVE_THRESHOLD,
    ) -> None:
        self.library = library or CellLibrary.default()
        self.config = config or NSGA2Config()
        self.cache = cache
        self.executor = executor
        self.problem_factory = problem_factory
        self.exhaustive_threshold = exhaustive_threshold

    def _problem(self, spec: DcimSpec) -> DcimProblem:
        if self.problem_factory is not None:
            return self.problem_factory(spec)
        return DcimProblem(spec, self.library)

    def _evaluator(self, problem: DcimProblem):
        if self.cache is None and self.executor is None:
            return None
        from repro.service.executor import ProblemEvaluator

        return ProblemEvaluator(problem, cache=self.cache, executor=self.executor)

    def explore(
        self,
        spec: DcimSpec,
        seed: int | None = None,
        observer: ProgressObserver | None = None,
        should_stop: Callable[[], bool] | None = None,
        plan: SpecPlan | None = None,
    ) -> ExplorationResult:
        """Explore one specification and return its Pareto frontier.

        Args:
            observer: forwarded to :func:`repro.dse.nsga2.nsga2` — called
                with a :class:`~repro.dse.nsga2.GenerationProgress` after
                each generation; attaching one never changes the result.
            should_stop: cooperative cancellation hook polled between
                generations; a stopped run returns the frontier over
                everything evaluated so far (``stopped_early=True``).
            plan: :meth:`plan` of this spec, whose problem is reused
                instead of building another.
        """
        problem = plan.problem if plan is not None else self._problem(spec)
        config = self.config
        if seed is not None:
            config = replace(config, seed=seed)
        result: NSGA2Result = nsga2(
            problem,
            config,
            evaluator=self._evaluator(problem),
            observer=observer,
            should_stop=should_stop,
        )
        points = [problem.decode(ind.genome) for ind in result.front]
        objectives = [ind.objectives for ind in result.front]
        order = np.argsort([o[0] for o in objectives]) if objectives else []
        points = [points[i] for i in order]
        objectives = [objectives[i] for i in order]
        return ExplorationResult(
            spec=spec,
            points=points,
            objectives=np.array(objectives, dtype=float).reshape(len(points), -1),
            evaluations=result.evaluations,
            history=result.history,
            generations_run=result.generations_run,
            stopped_early=result.stopped_early,
        )

    def plan(self, spec: DcimSpec) -> SpecPlan:
        """Build a spec's problem once and pick its route.

        Exhaustive wins when the problem exposes the optional
        ``enumerate_genomes`` hook (see
        :meth:`repro.dse.problem.DcimProblem.enumerate_genomes`) and its
        space is no larger than ``exhaustive_threshold``; everything
        else — e.g. the mapping problem, whose codec covers only part of
        its genome — runs the GA.  The enumeration that sized the space
        is kept on the plan, so handing the plan to
        :meth:`explore_exhaustive` or :meth:`explore` neither rebuilds
        the problem nor enumerates again.
        """
        problem = self._problem(spec)
        if self.exhaustive_threshold and hasattr(problem, "enumerate_genomes"):
            genomes = problem.enumerate_genomes()
            if len(genomes) <= self.exhaustive_threshold:
                return SpecPlan(problem, genomes)
        return SpecPlan(problem)

    def select_strategy(self, spec: DcimSpec) -> str:
        """``"exhaustive"`` or ``"ga"`` for a spec, per the threshold."""
        return self.plan(spec).strategy

    def explore_auto(
        self,
        spec: DcimSpec,
        seed: int | None = None,
        observer: ProgressObserver | None = None,
        should_stop: Callable[[], bool] | None = None,
    ) -> ExplorationResult:
        """Explore one spec with the strategy :meth:`select_strategy` picks.

        Small enumerable spaces get the exact exhaustive frontier (the
        GA could only ever approximate it, at higher cost); larger or
        non-enumerable spaces run NSGA-II.  The chosen strategy is
        recorded on the result.
        """
        plan = self.plan(spec)
        if plan.strategy == "exhaustive":
            return self.explore_exhaustive(spec, should_stop=should_stop, plan=plan)
        return self.explore(
            spec, seed=seed, observer=observer, should_stop=should_stop, plan=plan
        )

    def explore_exhaustive(
        self,
        spec: DcimSpec,
        should_stop: Callable[[], bool] | None = None,
        plan: SpecPlan | None = None,
    ) -> ExplorationResult:
        """Exact frontier by enumeration (baseline / small spaces).

        The whole enumeration goes to the cost model in one batch:
        through ``executor`` when one is set (its chunks, spans and
        evaluation counter work as on the GA route), else straight to
        ``problem.evaluate_batch``.  The evaluation cache is never
        consulted here: keying, looking up and storing a few hundred
        genomes costs more than evaluating them, so this route neither
        reads nor warms it.  ``evaluations`` counts the full
        enumeration, all of which reaches the cost model.  ``plan``
        (see :meth:`plan`) supplies the problem and, on the exhaustive
        route, the enumeration already made.
        """
        problem = plan.problem if plan is not None else self._problem(spec)
        if not hasattr(problem, "enumerate_genomes"):
            raise ValueError(
                f"problem {type(problem).__name__} cannot enumerate its "
                "design space; run the GA instead"
            )
        if should_stop is not None and should_stop():
            return ExplorationResult(
                spec=spec,
                points=[],
                objectives=np.empty((0, 0)),
                stopped_early=True,
                strategy="exhaustive",
            )
        genomes = plan.genomes if plan is not None else None
        if genomes is None:
            genomes = problem.enumerate_genomes()
        if self.executor is not None:
            objectives = self.executor.evaluate_batch(problem, genomes)
        else:
            objectives = list(problem.evaluate_batch(genomes))
        front = pareto_front(list(zip(genomes, objectives)), objectives)
        points = [problem.decode(g) for g, _ in front]
        kept = [o for _, o in front]
        order = np.argsort([o[0] for o in kept]) if kept else []
        points = [points[i] for i in order]
        kept = [kept[i] for i in order]
        return ExplorationResult(
            spec=spec,
            points=points,
            objectives=np.array(kept, dtype=float).reshape(len(points), -1),
            evaluations=len(genomes),
            strategy="exhaustive",
        )

    def explore_many(
        self, specs: list[DcimSpec], seed: int | None = None
    ) -> list[ExplorationResult]:
        """Explore several specifications (one NSGA-II run each)."""
        return [
            self.explore(spec, None if seed is None else seed + i)
            for i, spec in enumerate(specs)
        ]

    @staticmethod
    def merge_fronts(results: list[ExplorationResult]) -> list[DesignPoint]:
        """Cross-architecture non-dominated merge of several frontiers.

        This yields the paper's "high-quality Pareto-frontier set
        containing both integer and floating-point solutions": objective
        vectors from all runs compete in one dominance filter.
        """
        return merge_exploration_results(results)[0]


def merge_exploration_results(
    results: list[ExplorationResult],
) -> tuple[list[DesignPoint], np.ndarray]:
    """Merge several frontiers into one dominance-filtered, area-sorted set.

    The single merge implementation shared by
    :meth:`DesignSpaceExplorer.merge_fronts` and the campaign runner:
    one :func:`~repro.core.pareto.pareto_front` call over the
    concatenated fronts, carrying the objective rows alongside and
    sorting by area (objective 0) like :class:`ExplorationResult` does.
    """
    points: list[DesignPoint] = []
    objectives: list[tuple[float, ...]] = []
    for result in results:
        points.extend(result.points)
        objectives.extend(map(tuple, result.objectives))
    if not points:
        return [], np.empty((0, 0))
    merged = pareto_front(list(zip(points, objectives)), objectives)
    merged.sort(key=lambda po: po[1][0])
    merged_points = [p for p, _ in merged]
    merged_objs = np.array([o for _, o in merged], dtype=float)
    return merged_points, merged_objs
