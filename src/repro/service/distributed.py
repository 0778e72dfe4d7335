"""Distributed campaign execution: coordinator-side work units & leases.

One campaign shards into *work units* — one per spec, each a complete
single-spec :class:`~repro.service.api.CampaignRequest` whose seed is
rebased to ``seed + spec_index``, exactly the seed the in-process
:func:`~repro.service.campaign.run_campaign` hands that spec.  Worker
processes (:mod:`repro.service.worker`) lease units over the HTTP JSON
envelope, evaluate them through the ordinary campaign machinery, and
report their per-spec fronts back; the coordinator concatenates the
fronts in spec order and runs the same single
:func:`~repro.core.pareto.pareto_front` merge the in-process path uses,
so the assembled response is **bit-identical** to a local run of the
same request.

Fault tolerance is lease-based: a unit lease lasts ``lease_ttl_s`` and
is renewed by worker heartbeats; when a worker dies (or just stops
heartbeating) the lease expires and the unit is requeued, up to
``max_attempts`` total leases, after which the campaign fails with a
structured error naming the unit and its last error.  Result submission
is idempotent — units are content-addressed (a stable hash of the
campaign fingerprint plus the unit's own request payload), and the
first completed result wins; a late duplicate from a slow worker whose
lease was already reassigned is acknowledged and dropped.

The coordinator plugs into the existing :class:`~repro.service.jobs.
JobQueue` as a *runner* (:class:`DistributedRunner`), so submission,
deduplication, event streaming, cancellation, TTL purging and run
recording all behave exactly as for in-process execution.
"""

from __future__ import annotations

import enum
import itertools
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable

from repro.core.hashing import stable_hash
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.obs.trace import format_traceparent, get_tracer
from repro.problems import get_problem
from repro.service.api import CampaignRequest, CampaignResponse, FrontierPoint
from repro.service.events import CampaignCancelled, CampaignEvent, EventKind

__all__ = [
    "DistributedRunner",
    "UnitStatus",
    "WorkCoordinator",
    "WorkUnit",
    "DEFAULT_LEASE_TTL_S",
    "DEFAULT_MAX_ATTEMPTS",
]

DEFAULT_LEASE_TTL_S = 30.0
DEFAULT_MAX_ATTEMPTS = 3

#: A worker whose last heartbeat is older than this many lease TTLs is
#: reported as ``lost`` in the workers table (purely cosmetic — actual
#: failover is per-lease, not per-worker).
_LOST_AFTER_TTLS = 3.0

#: Completed campaigns whose per-unit rows have not been collected yet
#: (see :meth:`WorkCoordinator.take_unit_rows`); bounded so abandoned
#: rows cannot grow without limit.
_MAX_STASHED_CAMPAIGNS = 64


class UnitStatus(str, enum.Enum):
    PENDING = "pending"
    LEASED = "leased"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (
            UnitStatus.DONE, UnitStatus.FAILED, UnitStatus.CANCELLED
        )


@dataclass
class WorkUnit:
    """One leasable shard of a campaign: a single-spec sub-request.

    ``unit_id`` is a content hash of the parent campaign's fingerprint
    plus this unit's own request payload — resubmitting the same
    campaign mints the same ids, and result submission is keyed (and
    deduplicated) by it.
    """

    unit_id: str
    campaign_id: str
    spec_index: int
    label: str
    request_payload: dict
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    status: UnitStatus = UnitStatus.PENDING
    attempts: int = 0
    worker_id: str | None = None
    lease_deadline: float | None = None
    result: dict | None = None
    error: str | None = None
    wall_time_s: float = 0.0
    evaluations: int = 0

    def descriptor(self) -> dict:
        """The JSON shape a worker receives when it leases this unit."""
        return {
            "unit_id": self.unit_id,
            "campaign_id": self.campaign_id,
            "spec_index": self.spec_index,
            "spec": self.label,
            "attempt": self.attempts,
            "request": self.request_payload,
        }

    def row(self) -> dict:
        """The JSON shape recorded into ``RunStore.record_work_units``."""
        return {
            "unit_id": self.unit_id,
            "spec_index": self.spec_index,
            "spec": self.label,
            "worker_id": self.worker_id,
            "attempts": self.attempts,
            "status": self.status.value,
            "wall_time_s": self.wall_time_s,
            "evaluations": self.evaluations,
            "error": self.error,
        }


@dataclass
class _WorkerEntry:
    worker_id: str
    registered_at: float
    last_seen: float
    meta: dict = field(default_factory=dict)
    units_done: int = 0
    units_failed: int = 0
    leases: int = 0


@dataclass
class _Campaign:
    campaign_id: str
    request: CampaignRequest
    fingerprint: str
    units: list[WorkUnit]
    observer: Callable[[CampaignEvent], None] | None = None
    span: object | None = None
    traceparent: str | None = None
    cancelled: bool = False
    failure: str | None = None


class WorkCoordinator:
    """Thread-safe lease/heartbeat/result hub for distributed campaigns.

    The HTTP layer calls the worker-facing methods from handler
    threads; :class:`DistributedRunner` calls :meth:`execute` from a
    job-queue worker thread and blocks until the campaign's units all
    complete (or fail / are cancelled).  Lease expiry is checked on
    every worker interaction and on every wait tick of the blocked
    runner, so no extra sweeper thread is needed.
    """

    def __init__(
        self,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be > 0")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.lease_ttl_s = float(lease_ttl_s)
        self.max_attempts = int(max_attempts)
        self._clock = clock
        self._log = get_logger("repro.distributed")
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._campaigns: dict[str, _Campaign] = {}
        self._units: dict[str, WorkUnit] = {}
        self._queue: deque[str] = deque()
        self._workers: dict[str, _WorkerEntry] = {}
        self._unit_rows: OrderedDict[str, list[dict]] = OrderedDict()
        self._ids = itertools.count(1)
        self._worker_ids = itertools.count(1)
        self._init_metrics()

    # Metrics ---------------------------------------------------------------
    def _init_metrics(self) -> None:
        registry = get_registry()
        self._m_leased = registry.counter(
            "repro_units_leased_total", "Work-unit leases granted"
        )
        self._m_units = registry.counter(
            "repro_units_total",
            "Work units finished, by terminal status",
            ("status",),
        )
        self._m_requeued = registry.counter(
            "repro_units_requeued_total",
            "Work units put back on the queue (expiry or worker failure)",
        )
        self._m_expired = registry.counter(
            "repro_lease_expired_total", "Unit leases that timed out"
        )
        self._m_duplicates = registry.counter(
            "repro_unit_duplicate_results_total",
            "Result submissions dropped as idempotent duplicates",
        )
        self._m_pending = registry.gauge(
            "repro_units_pending", "Work units waiting for a lease"
        )
        self._m_inflight = registry.gauge(
            "repro_units_leased", "Work units currently leased out"
        )
        self._m_workers = registry.gauge(
            "repro_workers_registered", "Worker processes ever registered"
        )
        self._m_unit_seconds = registry.histogram(
            "repro_unit_run_seconds",
            "Worker-side wall time of one completed unit",
        )
        registry.register_collector(self._collect_metrics)

    def _collect_metrics(self) -> None:
        with self._lock:
            pending = sum(
                1 for u in self._units.values() if u.status is UnitStatus.PENDING
            )
            leased = sum(
                1 for u in self._units.values() if u.status is UnitStatus.LEASED
            )
            workers = len(self._workers)
        self._m_pending.set(pending)
        self._m_inflight.set(leased)
        self._m_workers.set(workers)

    # Worker-facing API (called from HTTP handler threads) ------------------
    def register_worker(
        self, worker_id: str | None = None, meta: dict | None = None
    ) -> dict:
        """Handshake: admit (or re-admit) a worker, return its lease terms."""
        now = self._clock()
        with self._lock:
            if not worker_id:
                worker_id = f"worker-{next(self._worker_ids)}"
            entry = self._workers.get(worker_id)
            if entry is None:
                entry = _WorkerEntry(
                    worker_id=worker_id, registered_at=now, last_seen=now
                )
                self._workers[worker_id] = entry
            entry.last_seen = now
            if meta:
                entry.meta.update(meta)
        self._log.info("worker_registered", worker_id=worker_id)
        return {
            "worker_id": worker_id,
            "lease_ttl_s": self.lease_ttl_s,
            "max_attempts": self.max_attempts,
        }

    def heartbeat(self, worker_id: str, unit_ids: list[str]) -> dict:
        """Renew a worker's leases; tell it which units it no longer owns.

        A unit lands in ``lost`` when its lease already expired and was
        reassigned, or its campaign was cancelled — the worker should
        abandon that evaluation at the next generation boundary.
        """
        with self._cond:
            self._touch(worker_id)
            self._expire_locked()
            now = self._clock()
            renewed: list[str] = []
            lost: list[str] = []
            for unit_id in unit_ids:
                unit = self._units.get(unit_id)
                if (
                    unit is not None
                    and unit.status is UnitStatus.LEASED
                    and unit.worker_id == worker_id
                ):
                    unit.lease_deadline = now + self.lease_ttl_s
                    renewed.append(unit_id)
                else:
                    lost.append(unit_id)
        return {
            "renewed": renewed,
            "lost": lost,
            "lease_ttl_s": self.lease_ttl_s,
        }

    def lease(self, worker_id: str) -> dict | None:
        """Grant the next pending unit to ``worker_id`` (or ``None``)."""
        event = None
        with self._cond:
            self._touch(worker_id)
            self._expire_locked()
            unit = None
            while self._queue:
                candidate = self._units.get(self._queue.popleft())
                if candidate is not None and candidate.status is UnitStatus.PENDING:
                    unit = candidate
                    break
            if unit is None:
                return None
            now = self._clock()
            unit.status = UnitStatus.LEASED
            unit.attempts += 1
            unit.worker_id = worker_id
            unit.lease_deadline = now + self.lease_ttl_s
            entry = self._workers.get(worker_id)
            if entry is not None:
                entry.leases += 1
            self._m_leased.inc()
            campaign = self._campaigns.get(unit.campaign_id)
            descriptor = unit.descriptor()
            descriptor["lease_ttl_s"] = self.lease_ttl_s
            if campaign is not None and campaign.traceparent:
                descriptor["traceparent"] = campaign.traceparent
            if unit.attempts == 1 and campaign is not None:
                event = (
                    campaign.observer,
                    CampaignEvent(
                        kind=EventKind.SPEC_STARTED,
                        spec_index=unit.spec_index,
                        spec=unit.label,
                        generations=unit.request_payload.get("generations"),
                    ),
                )
        self._log.info(
            "unit_leased",
            unit_id=unit.unit_id,
            worker_id=worker_id,
            spec=unit.label,
            attempt=unit.attempts,
        )
        self._emit(event)
        return descriptor

    def submit_result(self, worker_id: str, unit_id: str, payload: dict) -> dict:
        """Accept one unit outcome; idempotent on the content-addressed id.

        ``payload["status"]`` is ``"done"`` (with a ``front`` list and
        counters) or ``"failed"`` (with an ``error``); failures requeue
        the unit until its attempt budget runs out.
        """
        status = payload.get("status", "done")
        event = None
        with self._cond:
            self._touch(worker_id)
            unit = self._units.get(unit_id)
            if unit is None:
                return {"accepted": False, "reason": "unknown_unit"}
            if unit.status is UnitStatus.DONE:
                self._m_duplicates.inc()
                return {"accepted": False, "duplicate": True}
            if unit.status is UnitStatus.CANCELLED:
                return {"accepted": False, "reason": "cancelled"}
            campaign = self._campaigns.get(unit.campaign_id)
            entry = self._workers.get(worker_id)
            if status == "done":
                # First completed result wins — even from a worker whose
                # lease expired meanwhile (the computation is
                # deterministic, so any completion is *the* result).
                unit.status = UnitStatus.DONE
                unit.result = payload
                unit.worker_id = worker_id
                unit.error = None
                unit.wall_time_s = float(payload.get("wall_time_s") or 0.0)
                unit.evaluations = int(payload.get("evaluations") or 0)
                if entry is not None:
                    entry.units_done += 1
                self._m_units.labels("done").inc()
                self._m_unit_seconds.observe(unit.wall_time_s)
                if campaign is not None and campaign.span is not None:
                    get_tracer().record_span(
                        "unit.evaluate",
                        unit.wall_time_s,
                        attributes={
                            "unit_id": unit.unit_id,
                            "spec": unit.label,
                            "worker_id": worker_id,
                            "attempt": unit.attempts,
                            "evaluations": unit.evaluations,
                        },
                        parent=campaign.span,
                        category="distributed",
                    )
                if campaign is not None:
                    event = (
                        campaign.observer,
                        CampaignEvent(
                            kind=EventKind.SPEC_DONE,
                            spec_index=unit.spec_index,
                            spec=unit.label,
                            generation=payload.get("generations_run"),
                            generations=unit.request_payload.get("generations"),
                            evaluations=unit.evaluations,
                            front_size=len(payload.get("front") or ()),
                        ),
                    )
            else:
                error = payload.get("error") or "worker reported failure"
                if entry is not None:
                    entry.units_failed += 1
                self._requeue_locked(unit, f"worker {worker_id}: {error}")
            self._cond.notify_all()
        self._log.info(
            "unit_result",
            unit_id=unit_id,
            worker_id=worker_id,
            status=status,
            unit_status=unit.status.value,
        )
        self._emit(event)
        return {"accepted": True, "status": unit.status.value}

    def workers_info(self) -> list[dict]:
        """Rows for the ``/api/workers`` endpoint and dashboard table."""
        with self._lock:
            now = self._clock()
            rows = []
            for entry in self._workers.values():
                leased = sum(
                    1
                    for u in self._units.values()
                    if u.status is UnitStatus.LEASED
                    and u.worker_id == entry.worker_id
                )
                age = now - entry.last_seen
                state = (
                    "lost"
                    if age > _LOST_AFTER_TTLS * self.lease_ttl_s
                    else "active" if leased else "idle"
                )
                rows.append(
                    {
                        "worker_id": entry.worker_id,
                        "state": state,
                        "last_seen_s": round(age, 3),
                        "units_leased": leased,
                        "leases": entry.leases,
                        "units_done": entry.units_done,
                        "units_failed": entry.units_failed,
                        **entry.meta,
                    }
                )
            return rows

    def stats(self) -> dict:
        with self._lock:
            return {
                "campaigns": len(self._campaigns),
                "units_pending": sum(
                    1
                    for u in self._units.values()
                    if u.status is UnitStatus.PENDING
                ),
                "units_leased": sum(
                    1
                    for u in self._units.values()
                    if u.status is UnitStatus.LEASED
                ),
                "workers": len(self._workers),
                "lease_ttl_s": self.lease_ttl_s,
                "max_attempts": self.max_attempts,
            }

    # Internals -------------------------------------------------------------
    def _touch(self, worker_id: str) -> None:
        entry = self._workers.get(worker_id)
        if entry is None:
            # Tolerate workers that skip the handshake (e.g. after a
            # coordinator restart): admit them on first contact.
            entry = _WorkerEntry(
                worker_id=worker_id,
                registered_at=self._clock(),
                last_seen=self._clock(),
            )
            self._workers[worker_id] = entry
        entry.last_seen = self._clock()

    def _expire_locked(self) -> None:
        now = self._clock()
        for unit in list(self._units.values()):
            if (
                unit.status is UnitStatus.LEASED
                and unit.lease_deadline is not None
                and unit.lease_deadline < now
            ):
                self._m_expired.inc()
                self._requeue_locked(
                    unit,
                    f"lease expired after {self.lease_ttl_s:g}s "
                    f"on worker {unit.worker_id}",
                )

    def _requeue_locked(self, unit: WorkUnit, reason: str) -> None:
        """Return a lost/failed unit to the queue, or exhaust it."""
        unit.error = reason
        unit.lease_deadline = None
        if unit.attempts >= unit.max_attempts:
            unit.status = UnitStatus.FAILED
            self._m_units.labels("failed").inc()
            campaign = self._campaigns.get(unit.campaign_id)
            if campaign is not None and campaign.failure is None:
                campaign.failure = (
                    f"work unit {unit.unit_id[:12]} (spec {unit.label!r}, "
                    f"index {unit.spec_index}) failed after "
                    f"{unit.attempts} attempts; last error: {reason}"
                )
            self._log.warning(
                "unit_exhausted", unit_id=unit.unit_id, error=reason
            )
        else:
            unit.status = UnitStatus.PENDING
            unit.worker_id = None
            self._queue.append(unit.unit_id)
            self._m_requeued.inc()
            self._log.info(
                "unit_requeued",
                unit_id=unit.unit_id,
                attempts=unit.attempts,
                reason=reason,
            )
        self._cond.notify_all()

    def _emit(self, pending_event) -> None:
        if pending_event is None:
            return
        observer, event = pending_event
        if observer is None:
            return
        try:
            observer(event)
        except Exception:  # observers must never take the coordinator down
            pass

    def _decompose(
        self, campaign_id: str, request: CampaignRequest, fingerprint: str
    ) -> list[WorkUnit]:
        definition = get_problem(request.problem)
        base = request.to_dict()
        units: list[WorkUnit] = []
        for i, spec_payload in enumerate(base["specs"]):
            unit_request = dict(base)
            unit_request["specs"] = [spec_payload]
            # The seed rebase reproduces run_campaign's per-spec seeding
            # (spec i explores with seed + i); the worker's single-spec
            # run then uses seed + 0 = seed + i.  This is the entire
            # parity contract on the worker side.
            unit_request["seed"] = request.seed + i
            unit_request["workers"] = 1
            content = {
                k: v for k, v in unit_request.items() if k != "schema_version"
            }
            unit_id = stable_hash(
                {
                    "campaign": fingerprint,
                    "spec_index": i,
                    "unit": content,
                }
            )
            units.append(
                WorkUnit(
                    unit_id=unit_id,
                    campaign_id=campaign_id,
                    spec_index=i,
                    label=definition.request_label(request.specs[i]),
                    request_payload=unit_request,
                    max_attempts=self.max_attempts,
                )
            )
        return units

    def _cancel_locked(self, campaign: _Campaign) -> None:
        campaign.cancelled = True
        for unit in campaign.units:
            if not unit.status.terminal:
                # Leased units are cancelled too: the worker learns via
                # its next heartbeat (the unit shows up as lost) and
                # abandons the evaluation; a result that still arrives
                # is acknowledged and dropped.
                unit.status = UnitStatus.CANCELLED
                unit.lease_deadline = None
                self._m_units.labels("cancelled").inc()
        self._cond.notify_all()

    def _cleanup_locked(self, campaign: _Campaign) -> None:
        for unit in campaign.units:
            self._units.pop(unit.unit_id, None)
        self._campaigns.pop(campaign.campaign_id, None)
        self._unit_rows[campaign.fingerprint] = [
            unit.row() for unit in campaign.units
        ]
        while len(self._unit_rows) > _MAX_STASHED_CAMPAIGNS:
            self._unit_rows.popitem(last=False)

    def take_unit_rows(self, fingerprint: str) -> list[dict]:
        """Pop the per-unit rows of a finished campaign (for the store)."""
        with self._lock:
            return self._unit_rows.pop(fingerprint, [])

    # Campaign-facing API ---------------------------------------------------
    def execute(
        self,
        request: CampaignRequest,
        observer: Callable[[CampaignEvent], None] | None = None,
        should_stop: Callable[[], bool] | None = None,
    ) -> CampaignResponse:
        """Run one campaign across the connected workers (blocking).

        Registers the campaign's units, waits for workers to drain
        them (expiring/requeueing leases on every tick), and assembles
        the merged front.  Raises
        :class:`~repro.service.events.CampaignCancelled` when
        ``should_stop`` fires, :class:`RuntimeError` when a unit runs
        out of attempts.
        """
        fingerprint = request.fingerprint()
        tracer = get_tracer()
        span = tracer.start_span(
            "campaign.distributed",
            attributes={
                "problem": request.problem,
                "specs": len(request.specs),
                "lease_ttl_s": self.lease_ttl_s,
            },
            root_if_orphan=True,
            category="distributed",
        )
        started = time.perf_counter()
        with self._cond:
            campaign_id = f"dc-{next(self._ids)}"
            campaign = _Campaign(
                campaign_id=campaign_id,
                request=request,
                fingerprint=fingerprint,
                units=self._decompose(campaign_id, request, fingerprint),
                observer=observer,
                span=span,
                traceparent=format_traceparent(span.context),
            )
            self._campaigns[campaign_id] = campaign
            for unit in campaign.units:
                self._units[unit.unit_id] = unit
                self._queue.append(unit.unit_id)
            self._cond.notify_all()
        self._log.info(
            "campaign_registered",
            campaign_id=campaign_id,
            units=len(campaign.units),
            fingerprint=fingerprint[:12],
        )
        # Wait ticks double as the lease-expiry sweep; a quarter TTL
        # bounds how stale an expired lease can go unnoticed while
        # staying responsive to cancellation.
        tick = max(0.05, min(self.lease_ttl_s / 4.0, 0.5))
        try:
            with self._cond:
                while True:
                    self._expire_locked()
                    if should_stop is not None and should_stop():
                        self._cancel_locked(campaign)
                    if campaign.cancelled or campaign.failure is not None:
                        break
                    if all(
                        u.status is UnitStatus.DONE for u in campaign.units
                    ):
                        break
                    self._cond.wait(tick)
                if campaign.failure is not None and not campaign.cancelled:
                    # Fail fast: release whatever is still queued/leased.
                    failure = campaign.failure
                    self._cancel_locked(campaign)
                    campaign.failure = failure
        finally:
            with self._cond:
                self._cleanup_locked(campaign)
        wall_time = time.perf_counter() - started
        if campaign.failure is not None:
            span.end(status="error", error=campaign.failure)
            raise RuntimeError(campaign.failure)
        if campaign.cancelled:
            done = sum(
                1 for u in campaign.units if u.status is UnitStatus.DONE
            )
            message = (
                f"campaign cancelled after {done}/{len(campaign.units)} units"
            )
            span.end(status="error", error=message)
            raise CampaignCancelled(message)
        response = self._assemble(campaign, wall_time)
        span.set_attributes(
            evaluations=response.evaluations,
            front_size=len(response.frontier),
            units=len(campaign.units),
        )
        span.end()
        self._emit(
            (
                observer,
                CampaignEvent(
                    kind=EventKind.CAMPAIGN_DONE,
                    evaluations=response.evaluations,
                    front_size=len(response.frontier),
                    wall_time_s=wall_time,
                ),
            )
        )
        return response

    def _assemble(self, campaign: _Campaign, wall_time: float) -> CampaignResponse:
        """Merge per-unit fronts exactly like the in-process campaign.

        Concatenate the per-spec fronts in spec order, run **one**
        :func:`~repro.core.pareto.pareto_front` pass over the union,
        and stable-sort by objective 0 — the same algorithm (and the
        same float values, since JSON round-trips doubles exactly) as
        :func:`~repro.dse.explorer.merge_exploration_results`, so the
        frontier is bit-identical to the in-process path.
        """
        from repro.core.pareto import pareto_front

        points: list[FrontierPoint] = []
        objectives: list[tuple[float, ...]] = []
        per_spec: list[int] = []
        fresh = 0
        strategies: list[str] = []
        cache_totals: dict[str, float] | None = {}
        for unit in campaign.units:
            result = unit.result or {}
            for payload in result.get("front") or ():
                point = FrontierPoint.from_dict(payload)
                points.append(point)
                objectives.append(tuple(point.objectives))
            per_spec.append(int(result.get("evaluations") or 0))
            fresh += int(result.get("fresh_evaluations") or 0)
            strategies.append(result.get("strategy") or "ga")
            stats = result.get("cache_stats")
            if stats is None:
                cache_totals = None
            elif cache_totals is not None:
                for key, value in stats.items():
                    if key == "hit_rate":
                        continue
                    cache_totals[key] = cache_totals.get(key, 0) + value
        if cache_totals is not None:
            lookups = cache_totals.get("hits", 0) + cache_totals.get("misses", 0)
            cache_totals["hit_rate"] = round(
                cache_totals.get("hits", 0) / lookups if lookups else 0.0, 4
            )
        if points:
            merged = pareto_front(list(zip(points, objectives)), objectives)
            merged.sort(key=lambda po: po[1][0])
            frontier = tuple(point for point, _ in merged)
        else:
            frontier = ()
        return CampaignResponse(
            frontier=frontier,
            evaluations=sum(per_spec),
            fresh_evaluations=fresh,
            per_spec_evaluations=tuple(per_spec),
            cache_stats=cache_totals,
            wall_time_s=wall_time,
            problem=campaign.request.problem,
            strategies=tuple(strategies),
        )


class DistributedRunner:
    """Adapter that lets a :class:`~repro.service.jobs.JobQueue` hand
    campaigns to a :class:`WorkCoordinator` instead of running them
    in-process.  The signature carries the queue's ``observer`` /
    ``should_stop`` hooks, so event streaming and cancellation work
    unchanged.
    """

    def __init__(self, coordinator: WorkCoordinator) -> None:
        self.coordinator = coordinator

    def __call__(
        self,
        request: CampaignRequest,
        observer: Callable[[CampaignEvent], None] | None = None,
        should_stop: Callable[[], bool] | None = None,
    ) -> CampaignResponse:
        return self.coordinator.execute(
            request, observer=observer, should_stop=should_stop
        )
