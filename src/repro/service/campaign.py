"""Multi-spec DSE campaigns over a shared cache and executor.

A *campaign* explores many :class:`~repro.core.spec.DcimSpec`s — e.g.
every candidate precision for an application, or a Wstore sweep — and
merges the per-spec Pareto fronts into one cross-architecture frontier.
All runs share one :class:`~repro.service.cache.EvaluationCache` and one
batch executor, so the GA route evaluates overlapping design spaces once
no matter how many specs (or repeated campaigns) touch them.  Specs
small enough to enumerate take the exhaustive route, which evaluates
the whole space directly and never consults the cache.

Spec-level sharding uses threads: each worker thread drives its own
NSGA-II run and evaluates its genome batches, in that thread, through
the shared batch executor.  :func:`run_campaign` reports progress and
returns a :class:`CampaignResult` or raises; the job or command that
holds the request records the outcome and ends the event stream.

:func:`campaign_arguments` is the one place a served
:class:`~repro.service.api.CampaignRequest` becomes :func:`run_campaign`
arguments: :func:`execute_request` (the job queue's runner, and a remote
worker's, for its one-spec unit) and ``repro campaign`` both use it.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.spec import DcimSpec, DesignPoint
from repro.dse.explorer import (
    DEFAULT_EXHAUSTIVE_THRESHOLD,
    DesignSpaceExplorer,
    ExplorationResult,
    SpecPlan,
    merge_exploration_results,
)
from repro.dse.nsga2 import GenerationProgress, NSGA2Config
from repro.obs.metrics import get_registry
from repro.obs.trace import (
    NULL_SPAN,
    get_tracer,
    set_current_span,
    use_span,
)
from repro.problems import DEFAULT_PROBLEM, get_problem
from repro.service.api import CampaignRequest, CampaignResponse
from repro.service.events import (
    CampaignCancelled,
    CampaignEvent,
    CampaignObserver,
    EventKind,
)
from repro.service.executor import BatchExecutor, SerialExecutor
from repro.tech.cells import CellLibrary

if TYPE_CHECKING:  # the cache module loads only when a cache is passed
    from repro.service.cache import CacheStats, EvaluationCache

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "run_campaign",
    "campaign_arguments",
    "execute_request",
]


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs of one campaign run.

    Attributes:
        nsga2: GA hyper-parameters shared by every spec.
        seed: base seed; spec ``i`` explores with ``seed + i`` so runs
            are reproducible yet decorrelated.
        workers: how many specs are explored concurrently.
        problem: :mod:`repro.problems` registry name; every spec of the
            campaign is explored through that entry's problem factory.
        exhaustive_threshold: largest enumerable design space that is
            explored exhaustively instead of via the GA (see
            :meth:`~repro.dse.explorer.DesignSpaceExplorer.explore_auto`);
            ``0`` or ``None`` forces the GA for every spec.
    """

    nsga2: NSGA2Config = field(default_factory=NSGA2Config)
    seed: int = 0
    workers: int = 1
    problem: str = DEFAULT_PROBLEM
    exhaustive_threshold: int | None = DEFAULT_EXHAUSTIVE_THRESHOLD

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.exhaustive_threshold is not None and self.exhaustive_threshold < 0:
            raise ValueError("exhaustive_threshold must be >= 0 when given")
        try:
            get_problem(self.problem)
        except KeyError as exc:
            raise ValueError(str(exc.args[0])) from None


@dataclass
class CampaignResult:
    """Everything one campaign produced.

    Attributes:
        results: per-spec exploration outcomes, in input order.
        merged_points: the cross-architecture non-dominated frontier.
        merged_objectives: matching normalised objective rows.
        evaluations: unique genomes evaluated across all specs —
            including those the GA route served from the cache (each
            run's counter is cache-agnostic).
        cache_stats: snapshot of the shared cache counters for this
            campaign (``None`` when uncached).
        wall_time_s: end-to-end wall clock.
        problem: :mod:`repro.problems` registry name the campaign
            optimised (decides how ``merged_points`` flatten into
            frontier records).
        strategies: per-spec exploration strategy (``"ga"`` or
            ``"exhaustive"``), in spec input order.
    """

    results: list[ExplorationResult]
    merged_points: list[DesignPoint]
    merged_objectives: np.ndarray
    evaluations: int = 0
    cache_stats: CacheStats | None = None
    wall_time_s: float = 0.0
    problem: str = DEFAULT_PROBLEM
    strategies: tuple[str, ...] = ()

    @property
    def fresh_evaluations(self) -> int:
        """Genomes that reached the cost model (cache hits excluded).

        Each GA run looks every unique genome up exactly once, so a GA
        spec's fresh evaluations are its cache misses.  The exhaustive
        route never consults the cache, so every genome of an
        exhaustive spec is fresh.  Without a cache, every evaluation is
        fresh; an all-exhaustive campaign reports ``evaluations`` with
        or without one.
        """
        if self.cache_stats is None:
            return self.evaluations
        return self.cache_stats.misses + sum(
            r.evaluations for r in self.results if r.strategy == "exhaustive"
        )

    def to_response(self) -> CampaignResponse:
        """Flatten into the JSON-able API record."""
        definition = get_problem(self.problem)
        frontier = tuple(
            definition.frontier_point(point, tuple(row))
            for point, row in zip(self.merged_points, self.merged_objectives)
        )
        return CampaignResponse(
            frontier=frontier,
            evaluations=self.evaluations,
            fresh_evaluations=self.fresh_evaluations,
            per_spec_evaluations=tuple(r.evaluations for r in self.results),
            cache_stats=self.cache_stats.as_dict() if self.cache_stats else None,
            wall_time_s=self.wall_time_s,
            problem=self.problem,
            strategies=self.strategies,
        )


def _campaign_fingerprint(specs: list, config: CampaignConfig) -> str:
    """Content hash of a ``repro campaign --store`` run (mirrors
    :meth:`~repro.service.api.CampaignRequest.fingerprint` in spirit —
    identical workloads share it).  Like the request fingerprint, the
    default ``"dcim"`` problem hashes the pre-v2 config layout so
    registry rows recorded before the schema upgrade keep matching.
    That layout carried the retired cost-engine and executor knobs,
    which every default run hashed as ``"auto"``, ``"serial"`` and
    ``None``: the payload keeps those literals so those rows keep
    matching.  The exhaustive threshold only hashes when it differs
    from the default — so rows recorded before it existed keep
    matching too.
    """
    from repro.core.hashing import stable_hash

    config_payload = dataclasses.asdict(config)
    config_payload.update(engine="auto", backend="serial", chunk_size=None)
    if config.problem == DEFAULT_PROBLEM:
        del config_payload["problem"]
    if config.exhaustive_threshold == DEFAULT_EXHAUSTIVE_THRESHOLD:
        del config_payload["exhaustive_threshold"]
    return stable_hash(
        {
            "specs": [dataclasses.asdict(spec) for spec in specs],
            "config": config_payload,
        }
    )


def run_campaign(
    specs: list,
    config: CampaignConfig | None = None,
    library: CellLibrary | None = None,
    cache: EvaluationCache | None = None,
    executor: BatchExecutor | None = None,
    observer: CampaignObserver | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> CampaignResult:
    """Explore ``specs`` concurrently and merge their Pareto fronts.

    Args:
        specs: the specifications to explore (one GA run each) —
            concrete spec objects of ``config.problem``'s registry
            entry (:class:`~repro.core.spec.DcimSpec` for the default
            ``"dcim"`` problem).
        config: campaign sizing/backing (defaults everywhere).
        library: shared normalised cell library.
        cache: shared evaluation cache; campaigns that pass the same
            instance (or the same on-disk path) dedupe GA work across
            invocations.  Exhaustive specs never consult it.
        executor: genome-level batch executor; a
            :class:`~repro.service.executor.SerialExecutor` when
            omitted.  The campaign never closes it, so a caller's
            executor stays open for reuse.
        observer: called with a :class:`~repro.service.events.
            CampaignEvent` as the campaign progresses (spec started /
            generation done / spec done; no terminal event).  With
            ``workers > 1`` events arrive from several threads, so the
            observer must be thread-safe.  Attaching one never changes
            the result: observers fire between generations, outside all
            rng draws.
        should_stop: cooperative cancellation hook, polled before each
            spec and between GA generations.  Once it returns True the
            in-flight GA runs stop at their next generation boundary and
            the campaign raises :class:`~repro.service.events.
            CampaignCancelled` instead of returning a result.
    """
    if not specs:
        raise ValueError("a campaign needs at least one spec")
    config = config or CampaignConfig()
    library = library or CellLibrary.default()
    definition = get_problem(config.problem)
    if executor is None:
        executor = SerialExecutor()
    explorer = DesignSpaceExplorer(
        library,
        config.nsga2,
        cache=cache,
        executor=executor,
        problem_factory=lambda spec: definition.make_problem(
            spec, library=library
        ),
        exhaustive_threshold=config.exhaustive_threshold,
    )
    stats_before = dataclasses.replace(cache.stats) if cache is not None else None

    # One span for the whole campaign: a child when something above us
    # (the job queue's run span) is already tracing, a fresh trace root
    # when run standalone (`repro campaign`).  Span work happens outside
    # all rng draws, so attaching a tracer keeps runs bit-identical.
    tracer = get_tracer()
    campaign_span = tracer.start_span(
        "campaign",
        attributes={
            "problem": config.problem,
            "specs": len(specs),
            "backend": getattr(executor, "name", SerialExecutor.name),
            "workers": config.workers,
        },
        root_if_orphan=True,
        category="campaign",
    )

    # Resolve metric handles once per campaign; observers fire between
    # generations, outside all rng draws, so instrumenting here keeps
    # the run bit-identical (the ProgressObserver contract).
    registry = get_registry()
    m_generations = registry.counter(
        "repro_campaign_generations_total",
        "GA generations completed across campaigns",
        ("problem",),
    ).labels(config.problem)
    m_generation_seconds = registry.histogram(
        "repro_campaign_generation_seconds",
        "Wall time of one GA generation",
        ("problem",),
    ).labels(config.problem)
    m_front_size = registry.gauge(
        "repro_campaign_front_size",
        "Pareto front size reported by the most recent generation",
        ("problem",),
    ).labels(config.problem)
    m_campaigns = registry.counter(
        "repro_campaigns_total",
        "Campaigns finished, by outcome",
        ("problem", "status"),
    )
    m_campaign_seconds = registry.histogram(
        "repro_campaign_seconds",
        "End-to-end campaign wall time",
        ("problem",),
    ).labels(config.problem)

    def emit(event: CampaignEvent) -> None:
        if observer is not None:
            observer(event)

    def hit_rate(progress: GenerationProgress | None = None) -> float | None:
        # The shared evaluation cache's rate over this campaign's time
        # window (counter deltas since the campaign started).  With the
        # cache shared across a server, lookups from campaigns running
        # concurrently in the same window are included — this reports
        # how the shared dedup layer is doing, not a per-campaign
        # measurement.  ``None`` while nothing has looked anything up
        # (the exhaustive route never does).  Uncached campaigns fall
        # back to the GA's own memoisation rate.
        if cache is not None:
            hits = cache.stats.hits - stats_before.hits
            misses = cache.stats.misses - stats_before.misses
            total = hits + misses
            return hits / total if total else None
        return progress.cache_hit_rate if progress is not None else None

    def explore_one(i: int, spec: DcimSpec) -> ExplorationResult | None:
        if should_stop is not None and should_stop():
            return None
        label = definition.spec_label(spec)
        # Small enumerable spaces skip the GA entirely: exhaustive
        # enumeration is exact and (batched) cheaper.  An exhaustive
        # spec emits no GENERATION_DONE events and reports 0
        # generations in its SPEC_* events.  The plan builds the spec's
        # one problem and its one enumeration; both routes reuse them.
        with tracer.span(
            "spec",
            attributes={"index": i, "spec": label},
            parent=campaign_span,
            category="campaign",
        ) as spec_span:
            plan = explorer.plan(spec)
            spec_span.set_attribute("strategy", plan.strategy)
            return _explore_spec(i, spec, label, plan, spec_span)

    def _explore_spec(
        i: int, spec: DcimSpec, label: str, plan: SpecPlan, spec_span
    ) -> ExplorationResult | None:
        strategy = plan.strategy
        emit(
            CampaignEvent(
                kind=EventKind.SPEC_STARTED,
                spec_index=i,
                spec=label,
                generations=(
                    0 if strategy == "exhaustive" else config.nsga2.generations
                ),
            )
        )
        if strategy == "exhaustive":
            with tracer.span("spec.exhaustive", category="campaign"):
                result = explorer.explore_exhaustive(
                    spec, should_stop=should_stop, plan=plan
                )
            if result.stopped_early:
                spec_span.set_attribute("stopped", True)
                return None
            emit(
                CampaignEvent(
                    kind=EventKind.SPEC_DONE,
                    spec_index=i,
                    spec=label,
                    generation=0,
                    generations=0,
                    evaluations=result.evaluations,
                    front_size=len(result),
                    # This spec consulted no cache, whatever the shared
                    # window's rate says.
                    cache_hit_rate=None,
                )
            )
            return result
        last_tick = time.perf_counter()
        # One span per GA generation.  The GA loop is a black box from
        # here, but its observer fires at every generation boundary
        # (outside all rng draws), so the observer closes the finished
        # generation's span and opens — and makes ambient — the next
        # one; executor chunks and cache batches started inside the
        # loop then attach to the right generation automatically.
        gen_holder = [
            tracer.start_span(
                "generation",
                attributes={"generation": 0},
                parent=spec_span,
                category="campaign",
            )
        ]
        set_current_span(gen_holder[0])

        def ga_observer(progress: GenerationProgress) -> None:
            nonlocal last_tick
            now = time.perf_counter()
            m_generations.inc()
            m_generation_seconds.observe(now - last_tick)
            m_front_size.set(progress.front_size)
            last_tick = now
            done_span = gen_holder[0]
            done_span.set_attributes(
                generation=progress.generation,
                evaluations=progress.evaluations,
                front_size=progress.front_size,
            )
            done_span.end()
            next_span = tracer.start_span(
                "generation",
                attributes={"generation": progress.generation + 1},
                parent=spec_span,
                category="campaign",
            )
            gen_holder[0] = next_span
            set_current_span(next_span)
            if observer is not None:
                emit(
                    CampaignEvent(
                        kind=EventKind.GENERATION_DONE,
                        spec_index=i,
                        spec=label,
                        generation=progress.generation,
                        generations=progress.generations,
                        evaluations=progress.evaluations,
                        front_size=progress.front_size,
                        cache_hit_rate=hit_rate(progress),
                    )
                )

        try:
            result = explorer.explore(
                spec,
                seed=config.seed + i,
                observer=ga_observer,
                should_stop=should_stop,
                plan=plan,
            )
        except BaseException as exc:
            gen_holder[0].end(
                status="error", error=f"{type(exc).__name__}: {exc}"
            )
            raise
        finally:
            # Whatever happened, the ambient span must not leak past
            # this spec into the caller's context.
            set_current_span(spec_span)
        # The span opened after the last observer tick covers the GA's
        # wind-down (final front assembly), not a generation.
        tail_span = gen_holder[0]
        if tail_span is not NULL_SPAN:
            tail_span.name = "spec.finalize"
            tail_span.attributes.pop("generation", None)
        tail_span.end()
        if result.stopped_early:
            spec_span.set_attribute("stopped", True)
            return None
        emit(
            CampaignEvent(
                kind=EventKind.SPEC_DONE,
                spec_index=i,
                spec=label,
                generation=result.generations_run,
                generations=config.nsga2.generations,
                evaluations=result.evaluations,
                front_size=len(result),
                cache_hit_rate=hit_rate(),
            )
        )
        return result

    def explore_in_worker(i: int, spec: DcimSpec) -> ExplorationResult | None:
        # contextvars do not follow threads: spec worker threads start
        # from an empty context, so the campaign span is re-activated
        # explicitly on each side of the pool boundary.
        with use_span(campaign_span):
            return explore_one(i, spec)

    started = time.perf_counter()
    try:
        if config.workers == 1 or len(specs) == 1:
            with use_span(campaign_span):
                maybe_results = [
                    explore_one(i, spec) for i, spec in enumerate(specs)
                ]
        else:
            import concurrent.futures

            with concurrent.futures.ThreadPoolExecutor(
                max_workers=min(config.workers, len(specs))
            ) as pool:
                futures = [
                    pool.submit(explore_in_worker, i, spec)
                    for i, spec in enumerate(specs)
                ]
                maybe_results = [f.result() for f in futures]
    except BaseException as exc:
        campaign_span.end(status="error", error=f"{type(exc).__name__}: {exc}")
        raise
    wall_time = time.perf_counter() - started

    if any(result is None for result in maybe_results) or (
        should_stop is not None and should_stop()
    ):
        done = sum(result is not None for result in maybe_results)
        message = f"campaign cancelled after {done}/{len(specs)} specs"
        campaign_span.end(status="error", error=message)
        m_campaigns.labels(config.problem, "cancelled").inc()
        raise CampaignCancelled(message)
    results: list[ExplorationResult] = maybe_results

    m_campaigns.labels(config.problem, "done").inc()
    m_campaign_seconds.observe(wall_time)
    merged_points, merged_objs = merge_exploration_results(results)
    stats = None
    if cache is not None:
        from repro.service.cache import CacheStats

        assert stats_before is not None
        stats = CacheStats(
            hits=cache.stats.hits - stats_before.hits,
            misses=cache.stats.misses - stats_before.misses,
            memory_hits=cache.stats.memory_hits - stats_before.memory_hits,
            disk_hits=cache.stats.disk_hits - stats_before.disk_hits,
            puts=cache.stats.puts - stats_before.puts,
            evictions=cache.stats.evictions - stats_before.evictions,
        )
    campaign_result = CampaignResult(
        results=results,
        merged_points=merged_points,
        merged_objectives=merged_objs,
        evaluations=sum(r.evaluations for r in results),
        cache_stats=stats,
        wall_time_s=wall_time,
        problem=config.problem,
        strategies=tuple(r.strategy for r in results),
    )
    campaign_span.set_attributes(
        evaluations=campaign_result.evaluations,
        front_size=len(merged_points),
    )
    campaign_span.end()
    return campaign_result


def campaign_arguments(request: CampaignRequest) -> tuple[list, CampaignConfig]:
    """The :func:`run_campaign` specs and config ``request`` stands for;
    its ``problem``'s registry entry materialises the specs."""
    definition = get_problem(request.problem)
    specs = [definition.to_spec(spec) for spec in request.specs]
    return specs, CampaignConfig(
        nsga2=NSGA2Config(
            population_size=request.population_size,
            generations=request.generations,
        ),
        seed=request.seed,
        workers=request.workers,
        problem=request.problem,
        exhaustive_threshold=request.exhaustive_threshold,
    )


def execute_request(
    request: CampaignRequest,
    cache: EvaluationCache | None = None,
    observer: CampaignObserver | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> CampaignResponse:
    """Run one API-level campaign request end to end.

    This is the entry point the job queue (and any network front-end)
    drives: a pure ``CampaignRequest -> CampaignResponse`` function,
    optionally narrating progress through ``observer`` and stopping
    cooperatively when ``should_stop`` returns True (by raising
    :class:`~repro.service.events.CampaignCancelled`).
    """
    specs, config = campaign_arguments(request)
    result = run_campaign(
        specs, config, cache=cache, observer=observer, should_stop=should_stop
    )
    return result.to_response()
