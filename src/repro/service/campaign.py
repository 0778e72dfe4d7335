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
NSGA-II run while the genome-level batches fan out through the shared
(serial/thread/process) executor underneath.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable

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
from repro.service.cache import CacheStats, EvaluationCache
from repro.service.events import (
    CampaignCancelled,
    CampaignEvent,
    CampaignObserver,
    EventKind,
)
from repro.service.executor import BatchExecutor, make_executor
from repro.tech.cells import CellLibrary

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "run_campaign",
    "execute_request",
    "spec_label",
]


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs of one campaign run.

    Attributes:
        nsga2: GA hyper-parameters shared by every spec.
        seed: base seed; spec ``i`` explores with ``seed + i`` so runs
            are reproducible yet decorrelated.
        workers: how many specs are explored concurrently.
        backend: genome-level evaluation backend
            (``serial``/``thread``/``process``); ignored when an
            executor instance is passed to :func:`run_campaign`.
        chunk_size: genomes per executor task (``None`` lets the pool
            size chunks itself); ignored with a caller-provided
            executor.
        problem: :mod:`repro.problems` registry name; every spec of the
            campaign is explored through that entry's problem factory.
        exhaustive_threshold: largest enumerable design space that is
            explored exhaustively instead of via the GA (see
            :meth:`~repro.dse.explorer.DesignSpaceExplorer.explore_auto`);
            ``0`` or ``None`` forces the GA for every spec.
        cache_flush_every: write-behind cadence for the campaign's
            shared cache — misses coalesce into one disk transaction
            per N entries for the campaign's duration, with a
            guaranteed flush at the end (also on failure or
            cancellation).  ``None``/``0`` (default) keeps the cache's
            own write policy.  Pure I/O scheduling: never changes
            results, never enters the campaign fingerprint.
        cache_backend: cache spec string used to *build* the campaign's
            evaluation cache when :func:`run_campaign` is not handed a
            cache instance — ``"memory"``, a cache file path, or
            ``"remote:http://host:port"`` for a coordinator's shared
            dedup layer (see
            :func:`~repro.service.cache_backends.make_cache`).
            ``None`` (default) keeps the campaign uncached unless a
            cache is passed in.  Caching is pure dedup — it never
            changes results — so this stays out of the campaign
            fingerprint unconditionally.
    """

    nsga2: NSGA2Config = field(default_factory=NSGA2Config)
    seed: int = 0
    workers: int = 1
    backend: str = "serial"
    chunk_size: int | None = None
    problem: str = DEFAULT_PROBLEM
    exhaustive_threshold: int | None = DEFAULT_EXHAUSTIVE_THRESHOLD
    cache_flush_every: int | None = None
    cache_backend: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 when given")
        if self.cache_flush_every is not None and self.cache_flush_every < 0:
            raise ValueError("cache_flush_every must be >= 0 when given")
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
        run_id: registry id assigned when the campaign was recorded
            into a :class:`~repro.store.runstore.RunStore` (``None``
            for unrecorded campaigns).
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
    run_id: str | None = None
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


def spec_label(spec: DcimSpec) -> str:
    """The ``"<wstore>:<precision>"`` label events identify a spec by.

    This is the ``"dcim"`` labelling; generic campaigns label specs
    through their problem definition's ``spec_label``.
    """
    return f"{spec.wstore}:{spec.precision.name}"


def _campaign_fingerprint(specs: list, config: CampaignConfig) -> str:
    """Content hash of a programmatic campaign (mirrors
    :meth:`~repro.service.api.CampaignRequest.fingerprint` in spirit —
    identical workloads share it).  Like the request fingerprint, the
    default ``"dcim"`` problem hashes the pre-v2 config layout so
    registry rows recorded before the schema upgrade keep matching.
    That layout carried the retired cost-engine knob, which every
    default run hashed as ``"auto"``: the payload keeps that literal so
    those rows keep matching.  The exhaustive threshold only hashes
    when it differs from the default — so rows recorded before it
    existed keep matching too.  ``cache_flush_every`` and
    ``cache_backend`` are pure I/O/dedup plumbing and stay out
    unconditionally.
    """
    from repro.service.cache import stable_hash

    config_payload = dataclasses.asdict(config)
    config_payload["engine"] = "auto"
    if config.problem == DEFAULT_PROBLEM:
        del config_payload["problem"]
    del config_payload["cache_flush_every"]
    del config_payload["cache_backend"]
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
    store=None,
    run_name: str | None = None,
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
        executor: genome-level batch backend; built from
            ``config.backend`` when omitted (and closed on exit — a
            caller-provided executor is left open for reuse).
        observer: called with a :class:`~repro.service.events.
            CampaignEvent` as the campaign progresses (spec started /
            generation done / spec done / campaign done).  With
            ``workers > 1`` events arrive from several threads, so the
            observer must be thread-safe.  Attaching one never changes
            the result: observers fire between generations, outside all
            rng draws.
        should_stop: cooperative cancellation hook, polled before each
            spec and between GA generations.  Once it returns True the
            in-flight GA runs stop at their next generation boundary and
            the campaign raises :class:`~repro.service.events.
            CampaignCancelled` instead of returning a result.
        store: optional :class:`~repro.store.runstore.RunStore`; when
            given, the campaign's outcome (including a cancellation) is
            recorded after the run.  Recording is write-only — attaching
            a store never changes the result — and the assigned run id
            lands in :attr:`CampaignResult.run_id`.  A store write
            failure never discards the computed result: it is reported
            as a :class:`RuntimeWarning` and ``run_id`` stays ``None``.
        run_name: human label for the recorded run.
    """
    if not specs:
        raise ValueError("a campaign needs at least one spec")
    config = config or CampaignConfig()
    library = library or CellLibrary.default()
    own_cache = cache is None and config.cache_backend is not None
    if own_cache:
        from repro.service.cache_backends import make_cache

        cache = make_cache(config.cache_backend)
    definition = get_problem(config.problem)
    own_executor = executor is None
    executor = executor or make_executor(config.backend, chunk_size=config.chunk_size)
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
            "backend": getattr(executor, "name", config.backend),
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
        with contextlib.ExitStack() as stack:
            if cache is not None and config.cache_flush_every:
                # Write-behind for the campaign's duration: misses
                # coalesce into one disk transaction per flush window,
                # and the context's exit flushes even when a spec fails
                # or the campaign is cancelled mid-flight — completed
                # evaluations always land on disk.
                stack.enter_context(
                    cache.write_behind(config.cache_flush_every)
                )
            if config.workers == 1 or len(specs) == 1:
                with use_span(campaign_span):
                    maybe_results = [
                        explore_one(i, spec) for i, spec in enumerate(specs)
                    ]
            else:
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
    finally:
        if own_executor:
            executor.close()
        if own_cache:
            cache.close()
    wall_time = time.perf_counter() - started

    labels = [definition.spec_label(spec) for spec in specs]
    if any(result is None for result in maybe_results) or (
        should_stop is not None and should_stop()
    ):
        done = sum(result is not None for result in maybe_results)
        message = f"campaign cancelled after {done}/{len(specs)} specs"
        campaign_span.end(status="error", error=message)
        m_campaigns.labels(config.problem, "cancelled").inc()
        if store is not None:
            _record_safely(
                store.record_failure,
                "cancelled",
                message,
                specs=labels,
                name=run_name,
                fingerprint=_campaign_fingerprint(specs, config),
                problem=config.problem,
            )
        raise CampaignCancelled(message)
    results: list[ExplorationResult] = maybe_results

    m_campaigns.labels(config.problem, "done").inc()
    m_campaign_seconds.observe(wall_time)
    merged_points, merged_objs = merge_exploration_results(results)
    emit(
        CampaignEvent(
            kind=EventKind.CAMPAIGN_DONE,
            evaluations=sum(r.evaluations for r in results),
            front_size=len(merged_points),
            cache_hit_rate=hit_rate(),
            wall_time_s=wall_time,
        )
    )
    stats = None
    if cache is not None:
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
    if store is not None:
        record = _record_safely(
            store.record_response,
            campaign_result.to_response(),
            specs=labels,
            name=run_name,
            fingerprint=_campaign_fingerprint(specs, config),
        )
        if record is not None:
            campaign_result.run_id = record.run_id
    if campaign_result.run_id is not None:
        # Link the trace to the recorded run; the trace sink picks the
        # attribute up when persisting rows into ``trace_spans``.
        campaign_span.set_attribute("run_id", campaign_result.run_id)
    campaign_span.set_attributes(
        evaluations=campaign_result.evaluations,
        front_size=len(merged_points),
    )
    campaign_span.end()
    return campaign_result


def _record_safely(record_fn, *args, **kwargs):
    """Run one store write; a failure must not discard the campaign.

    Returns the :class:`~repro.store.runstore.RunRecord` or ``None``
    (with a :class:`RuntimeWarning`) when the write failed — e.g. a
    locked database or a full disk.
    """
    import warnings

    try:
        return record_fn(*args, **kwargs)
    except Exception as exc:
        warnings.warn(
            f"campaign ran but recording it failed: "
            f"{type(exc).__name__}: {exc}",
            RuntimeWarning,
            stacklevel=3,
        )
        return None


def execute_request(
    request: CampaignRequest,
    library: CellLibrary | None = None,
    cache: EvaluationCache | None = None,
    executor: BatchExecutor | None = None,
    observer: CampaignObserver | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> CampaignResponse:
    """Run one API-level campaign request end to end.

    This is the entry point the job queue (and any network front-end)
    drives: a pure ``CampaignRequest -> CampaignResponse`` function,
    optionally narrating progress through ``observer`` and stopping
    cooperatively when ``should_stop`` returns True (by raising
    :class:`~repro.service.events.CampaignCancelled`).  The request's
    ``problem`` picks the :mod:`repro.problems` registry entry that
    materialises the specs and builds the GA problems.
    """
    definition = get_problem(request.problem)
    specs = [definition.to_spec(spec) for spec in request.specs]
    config = CampaignConfig(
        nsga2=NSGA2Config(
            population_size=request.population_size,
            generations=request.generations,
        ),
        seed=request.seed,
        workers=request.workers,
        backend=request.backend,
        chunk_size=request.chunk_size,
        problem=request.problem,
        exhaustive_threshold=request.exhaustive_threshold,
    )
    result = run_campaign(
        specs,
        config,
        library=library,
        cache=cache,
        executor=executor,
        observer=observer,
        should_stop=should_stop,
    )
    return result.to_response()
