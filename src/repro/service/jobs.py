"""Job queue / background-worker scheduler with request deduplication.

The queue is the in-process serving API, and the HTTP server
(:mod:`repro.service.server`) puts it on a socket.  Campaigns are
*submitted* as :class:`~repro.service.api.CampaignRequest`s, identical
in-flight requests collapse onto one job (content-addressed by the
request fingerprint), and each job carries a status/result record plus
a bounded :class:`~repro.service.events.EventBuffer` that streams the
campaign's progress events; the job appends its one terminal event.
The queue is problem-agnostic: the default runner
(:func:`~repro.service.campaign.execute_request`) dispatches each
request through its ``problem``'s :mod:`repro.problems` registry entry,
so any registered problem is servable without queue changes.

Execution comes in two flavours that share one scheduler:

* **synchronous** — :meth:`JobQueue.run_next` / :meth:`JobQueue.run_all`
  drain the queue in FIFO order in the calling thread (the testable,
  event-loop-free path), and
* **background** — construct with ``workers=N`` and N daemon worker
  threads drain the queue as jobs arrive; callers poll
  :meth:`~JobQueue.status`, block on :meth:`~JobQueue.wait`, stream
  :meth:`~JobQueue.events_since`, and stop a campaign cooperatively
  with :meth:`~JobQueue.cancel` (the GA stops at its next generation
  boundary).  Asyncio code calls these through
  :func:`asyncio.to_thread` (see ``examples/async_service.py``).

Finished records stay for the queue's lifetime unless ``ttl_s`` is
set; then they age out (checked on every submit, on every
:meth:`~JobQueue.jobs`/:meth:`~JobQueue.sweep_expired` read, and by
idle background workers — an idle queue does not retain finished jobs
forever).

With a :class:`~repro.store.runstore.RunStore` attached, every job that
*executes* is also recorded into the persistent run registry at its
terminal transition (done/failed/cancelled), so results outlive both
the TTL and the process.

A job reports through its ``job.queue_wait`` and ``job.run`` spans, the
``repro_jobs_*``/``repro_job_*_seconds`` metrics, its event stream and
its :class:`JobRecord`; the queue writes no log lines.
"""

from __future__ import annotations

import enum
import itertools
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.obs.metrics import get_registry
from repro.obs.trace import NULL_SPAN, get_tracer, use_span
from repro.service.api import CampaignRequest, CampaignResponse
from repro.service.campaign import execute_request
from repro.service.events import (
    CampaignCancelled,
    CampaignEvent,
    EventBuffer,
    EventKind,
)

__all__ = ["JobStatus", "JobRecord", "JobQueue"]


class JobStatus(str, enum.Enum):
    """Lifecycle of one submitted campaign."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        """True once the job can never run again."""
        return self in (JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED)


@dataclass
class JobRecord:
    """Status/result record for one job.

    Attributes:
        job_id: queue-assigned identifier (``job-<n>``).
        request: the deduplicated campaign request.
        status: current lifecycle state.
        response: the result, once ``DONE``.
        error: failure message, once ``FAILED``.
        submissions: how many submits collapsed onto this job.
        events: bounded progress-event buffer for this job.
        cancel_requested: set by :meth:`JobQueue.cancel`; the running
            campaign polls it between GA generations.
        run_id: registry id once the outcome was recorded into the
            queue's :class:`~repro.store.runstore.RunStore` (``None``
            without a store, or for jobs cancelled before running).
        created_at / started_at / finished_at: monotonic timestamps
            (``None`` until the transition happens).
    """

    job_id: str
    request: CampaignRequest
    status: JobStatus = JobStatus.PENDING
    response: CampaignResponse | None = None
    error: str | None = None
    submissions: int = 1
    events: EventBuffer = field(default_factory=EventBuffer)
    cancel_requested: bool = False
    run_id: str | None = None
    #: The open queue-wait span (internal; closed when the job starts
    #: running or reaches a terminal state without running).  It starts
    #: at submit, inside the submitting request's span when one is
    #: ambient, and the job's run span is parented to it, so one trace
    #: follows the job across the worker-thread boundary.
    trace_span: object = field(default=None, repr=False, compare=False)
    created_at: float = field(default_factory=time.monotonic)
    started_at: float | None = None
    finished_at: float | None = None


_JOBS_HELP = "Jobs finished, by terminal status"

#: Each lifecycle transition the queue counts, and the series of the
#: process metrics registry that counts it: (family, help, status).
#: The registry is the one owner of these totals (``GET /metrics``).
_COUNTER_SERIES = {
    "submitted": (
        "repro_jobs_submitted_total", "Campaign submissions accepted", None
    ),
    "deduplicated": (
        "repro_jobs_deduplicated_total",
        "Submissions collapsed onto an existing job",
        None,
    ),
    "done": ("repro_jobs_total", _JOBS_HELP, "done"),
    "failed": ("repro_jobs_total", _JOBS_HELP, "failed"),
    "cancelled": ("repro_jobs_total", _JOBS_HELP, "cancelled"),
    "purged": (
        "repro_jobs_purged_total", "Terminal records dropped by TTL/purge", None
    ),
    "recorded": (
        "repro_jobs_recorded_total",
        "Job outcomes persisted to the run registry",
        None,
    ),
    "record_errors": (
        "repro_jobs_record_errors_total", "Run-registry writes that failed", None
    ),
}


def _count(name: str, amount: int = 1) -> None:
    """Add ``amount`` to one lifecycle counter of the metrics registry."""
    family, help_text, status = _COUNTER_SERIES[name]
    if status is None:
        get_registry().counter(family, help_text).inc(amount)
    else:
        get_registry().counter(family, help_text, ("status",)).labels(
            status
        ).inc(amount)


class JobQueue:
    """Campaign scheduler with content-addressed deduplication.

    Args:
        runner: ``(request, observer=, should_stop=) ->
            CampaignResponse`` callable; defaults to
            :func:`repro.service.campaign.execute_request` with
            ``cache``.  Each job passes its event observer and its
            cancellation check as the two keywords; the runner
            reports progress, and the job ends the stream.
        cache: evaluation cache the default runner shares across jobs.
        workers: background daemon threads draining the queue; ``0``
            (the default) keeps the queue fully synchronous —
            :meth:`run_next`/:meth:`run_all` semantics are unchanged.
        ttl_s: age (seconds since finishing, finite and at least 0)
            after which terminal records are purged automatically — on
            submit, on :meth:`jobs`/:meth:`sweep_expired` reads, and by
            idle background workers; ``None`` keeps them.
        store: optional :class:`~repro.store.runstore.RunStore`;
            every executed job's outcome is recorded into it at the
            terminal transition (the job's :attr:`JobRecord.run_id`
            carries the registry id; a done job's ``job.run`` span
            carries it too, linking the trace to the run).  Recording
            failures never take the queue down — they are counted in
            ``repro_jobs_record_errors_total``.

    Submitting a request whose fingerprint matches a job that is still
    pending, running, or successfully finished returns the existing job
    id instead of queueing duplicate work; failed and cancelled jobs do
    *not* absorb resubmissions, so callers can retry.
    """

    def __init__(
        self,
        runner=None,
        cache=None,
        workers: int = 0,
        ttl_s: float | None = None,
        store=None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if ttl_s is not None and not 0 <= ttl_s < math.inf:  # NaN fails too
            raise ValueError(f"ttl_s must be finite and >= 0, got {ttl_s}")
        self.store = store
        if runner is None:
            def runner(request, observer=None, should_stop=None):
                return execute_request(
                    request,
                    cache=cache,
                    observer=observer,
                    should_stop=should_stop,
                )
        self._runner = runner
        self.ttl_s = ttl_s
        self._lock = threading.RLock()
        #: Signalled when work arrives or the queue closes.
        self._work = threading.Condition(self._lock)
        #: Signalled when any job reaches a terminal state.
        self._done = threading.Condition(self._lock)
        self._jobs: dict[str, JobRecord] = {}
        self._by_fingerprint: dict[str, str] = {}
        self._pending: deque[str] = deque()
        self._ids = itertools.count(1)
        self._closed = False
        self._workers: list[threading.Thread] = []
        for n in range(workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"jobqueue-worker-{n}", daemon=True
            )
            thread.start()
            self._workers.append(thread)
        with self._lock:
            self._publish_gauges()

    @property
    def workers(self) -> int:
        """Background worker threads (0 for a synchronous queue)."""
        return len(self._workers)

    # Submission -----------------------------------------------------------
    def submit(self, request: CampaignRequest) -> str:
        """Queue a campaign; returns the (possibly deduplicated) job id."""
        fingerprint = request.fingerprint()
        with self._work:
            if self._closed:
                raise RuntimeError("queue is closed")
            if self.ttl_s is not None:
                self._purge_locked()
            _count("submitted")
            existing_id = self._by_fingerprint.get(fingerprint)
            if existing_id is not None:
                existing = self._jobs[existing_id]
                # A job with a pending cancel request is doomed: absorbing
                # a resubmission into it would silently cancel the retry.
                if (
                    existing.status not in (JobStatus.FAILED, JobStatus.CANCELLED)
                    and not existing.cancel_requested
                ):
                    existing.submissions += 1
                    _count("deduplicated")
                    return existing_id
            job_id = f"job-{next(self._ids)}"
            job = JobRecord(job_id=job_id, request=request)
            # The queue-wait span starts here — while the submitting
            # request's span (if any) is still open — so the trace
            # stays alive through the hand-off to a worker thread.
            wait_span = get_tracer().start_span(
                "job.queue_wait",
                attributes={"job_id": job_id},
                root_if_orphan=True,
                category="queue",
            )
            job.trace_span = wait_span
            self._jobs[job_id] = job
            self._by_fingerprint[fingerprint] = job_id
            self._pending.append(job_id)
            self._publish_gauges()
            self._work.notify()
            return job_id

    # Inspection -----------------------------------------------------------
    def status(self, job_id: str) -> JobStatus:
        return self._job(job_id).status

    def result(self, job_id: str) -> CampaignResponse:
        """The finished response; raises if the job is not ``DONE``."""
        job = self._job(job_id)
        if job.status is JobStatus.FAILED:
            raise RuntimeError(f"{job_id} failed: {job.error}")
        if job.status is JobStatus.CANCELLED:
            raise RuntimeError(f"{job_id} was cancelled")
        if job.response is None:
            raise RuntimeError(f"{job_id} has not finished (status {job.status.value})")
        return job.response

    def record(self, job_id: str) -> JobRecord:
        return self._job(job_id)

    def jobs(self) -> list[JobRecord]:
        self.sweep_expired()
        with self._lock:
            return list(self._jobs.values())

    def pending_count(self) -> int:
        """Jobs submitted and not yet running."""
        with self._lock:
            return len(self._pending)

    def events_since(
        self, job_id: str, cursor: int = 0
    ) -> tuple[list[CampaignEvent], int, bool]:
        """Incremental event read: ``(events, next_cursor, done)``.

        Feed the returned cursor back in to receive only news.  ``done``
        is True once the job's stream carries its terminal event.
        """
        return self._job(job_id).events.since(cursor)

    def wait_events(
        self, job_id: str, cursor: int = 0, timeout: float | None = None
    ) -> tuple[list[CampaignEvent], int, bool]:
        """Blocking :meth:`events_since`: waits up to ``timeout`` for news.

        News on a running job is returned in batches: once there is
        some, the read waits up to
        :data:`~repro.service.events.BATCH_WINDOW_S` more (never past
        ``timeout``) and returns every event since ``cursor``, while the
        terminal event returns at once
        (:meth:`~repro.service.events.EventBuffer.wait_since`).
        """
        return self._job(job_id).events.wait_since(cursor, timeout)

    def _job(self, job_id: str) -> JobRecord:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job id {job_id!r}") from None

    def _publish_gauges(self) -> None:
        """Write the queue depth and pool size into the metrics registry.

        Called under the lock wherever the depth moves, so a registry
        installed after construction gets both on the next submit.
        """
        registry = get_registry()
        registry.gauge(
            "repro_queue_depth", "Jobs pending (not yet running)"
        ).set(len(self._pending))
        registry.gauge(
            "repro_queue_workers", "Background worker threads"
        ).set(len(self._workers))

    # Cancellation / waiting / expiry ---------------------------------------
    def cancel(self, job_id: str) -> JobStatus:
        """Request cancellation; returns the job's status afterwards.

        Pending jobs are cancelled immediately.  Running jobs are
        stopped cooperatively: the flag is polled between GA
        generations, so the campaign winds down at the next boundary
        and the status flips to ``CANCELLED`` shortly after.  Terminal
        jobs are left untouched.
        """
        with self._lock:
            job = self._job(job_id)
            if job.status is JobStatus.PENDING:
                self._pending.remove(job_id)
                self._publish_gauges()
                self._finish(
                    job,
                    JobStatus.CANCELLED,
                    event=CampaignEvent(
                        kind=EventKind.CAMPAIGN_CANCELLED,
                        message="cancelled while pending",
                    ),
                )
            elif job.status is JobStatus.RUNNING:
                job.cancel_requested = True
            return job.status

    def wait(self, job_id: str, timeout: float | None = None) -> JobStatus:
        """Block until the job reaches a terminal state; returns it.

        Raises :class:`TimeoutError` when ``timeout`` elapses first.
        Synchronous queues (``workers=0``) only make progress through
        :meth:`run_next`/:meth:`run_all`, so waiting there needs another
        thread driving the queue.
        """
        with self._done:
            job = self._job(job_id)
            if self._done.wait_for(lambda: job.status.terminal, timeout):
                return job.status
        raise TimeoutError(
            f"{job_id} still {job.status.value} after {timeout} s"
        )

    def sweep_expired(self) -> int:
        """TTL sweep outside submit: purge aged-out terminal records.

        A no-op (returns 0) without a configured ``ttl_s``.  Called
        automatically from :meth:`jobs` and idle background workers, so
        finished records age out even on a queue that never sees
        another submit.
        """
        if self.ttl_s is None:
            return 0
        with self._lock:
            return self._purge_locked()

    def _purge_locked(self) -> int:
        """Drop terminal records finished at least ``ttl_s`` ago."""
        now = time.monotonic()
        doomed = [
            job
            for job in self._jobs.values()
            if job.status.terminal
            and job.finished_at is not None
            and now - job.finished_at >= self.ttl_s
        ]
        for job in doomed:
            del self._jobs[job.job_id]
            fingerprint = job.request.fingerprint()
            if self._by_fingerprint.get(fingerprint) == job.job_id:
                del self._by_fingerprint[fingerprint]
        if doomed:
            _count("purged", len(doomed))
        return len(doomed)

    # Execution ------------------------------------------------------------
    def run_next(self) -> JobRecord | None:
        """Execute the oldest pending job; ``None`` when the queue is idle."""
        with self._lock:
            job = self._pop_runnable()
            if job is None:
                return None
        self._execute(job)
        return job

    def run_all(self) -> list[JobRecord]:
        """Drain the queue; returns the jobs executed (in order)."""
        executed = []
        while (job := self.run_next()) is not None:
            executed.append(job)
        return executed

    def _pop_runnable(self) -> JobRecord | None:
        """Pop the oldest pending job and mark it RUNNING.

        Only pending jobs are queued: a job cancelled while pending
        leaves the deque at once.
        """
        if not self._pending:
            return None
        job = self._jobs[self._pending.popleft()]
        job.status = JobStatus.RUNNING
        job.started_at = time.monotonic()
        get_registry().histogram(
            "repro_job_wait_seconds",
            "Time a job spent queued before running",
        ).observe(job.started_at - job.created_at)
        self._publish_gauges()
        return job

    def _finish(
        self,
        job: JobRecord,
        status: JobStatus,
        response: CampaignResponse | None = None,
        error: str | None = None,
        event: CampaignEvent | None = None,
    ) -> None:
        """Terminal transition: record, count, emit, wake waiters."""
        # A job that reaches a terminal state without ever running
        # (cancelled while pending) must still close its queue-wait
        # span, or the trace would stay open forever.  For executed
        # jobs the span was already closed at start (end is idempotent).
        wait_span = job.trace_span
        if wait_span is not None:
            if status is JobStatus.DONE:
                wait_span.end()
            else:
                wait_span.end(status="error", error=error or status.value)
        with self._done:
            job.status = status
            job.response = response
            job.error = error
            job.finished_at = time.monotonic()
            _count(status.value)
            if job.started_at is not None:
                get_registry().histogram(
                    "repro_job_run_seconds",
                    "Execution time of one job, by terminal status",
                    ("status",),
                ).labels(status.value).observe(
                    job.finished_at - job.started_at
                )
            self._done.notify_all()
        if event is not None and not job.events.closed:
            job.events.append(event)

    def _record_run(
        self,
        job: JobRecord,
        status: JobStatus,
        response: CampaignResponse | None = None,
        error: str | None = None,
    ) -> None:
        """Persist an executed job's outcome into the run registry."""
        if self.store is None:
            return
        try:
            if status is JobStatus.DONE:
                record = self.store.record_response(response, job.request)
            else:
                record = self.store.record_failure(
                    status.value, error or "", job.request
                )
            job.run_id = record.run_id
            _count("recorded")
        except Exception:  # recording must never take the queue down
            _count("record_errors")

    def _execute(self, job: JobRecord) -> None:
        """Run one RUNNING job to a terminal state (no lock held)."""
        # Start the run span *before* closing the queue-wait span: a
        # trace completes when its open-span count returns to zero, so
        # the two must overlap to keep the trace alive across the
        # wait -> run transition.
        wait_span = job.trace_span if job.trace_span is not None else NULL_SPAN
        run_span = get_tracer().start_span(
            "job.run",
            attributes={
                "job_id": job.job_id,
                "problem": job.request.problem,
                "specs": len(job.request.specs),
            },
            parent=wait_span,
            category="queue",
        )
        wait_span.end()

        def observer(event: CampaignEvent) -> None:
            # Terminal events close the stream and wake watchers, who
            # immediately ask for the result — so only _finish may emit
            # them, *after* the status/response transition is recorded.
            if not event.terminal:
                job.events.append(event)

        try:
            # contextvars do not follow threads; the run span is made
            # ambient here, in the worker thread, so the campaign
            # below attaches its spans to this job's trace.
            with use_span(run_span):
                response = self._runner(
                    job.request,
                    observer=observer,
                    should_stop=lambda: job.cancel_requested,
                )
        except CampaignCancelled as exc:
            self._record_run(job, JobStatus.CANCELLED, error=str(exc))
            run_span.end(status="error", error=str(exc))
            self._finish(
                job,
                JobStatus.CANCELLED,
                event=CampaignEvent(
                    kind=EventKind.CAMPAIGN_CANCELLED, message=str(exc)
                ),
            )
        except Exception as exc:  # a failed campaign must not kill the queue
            error = f"{type(exc).__name__}: {exc}"
            self._record_run(job, JobStatus.FAILED, error=error)
            run_span.end(status="error", error=error)
            self._finish(
                job,
                JobStatus.FAILED,
                error=error,
                event=CampaignEvent(
                    kind=EventKind.CAMPAIGN_FAILED, message=error
                ),
            )
        else:
            stats = response.cache_stats or {}
            lookups = stats.get("hits", 0) + stats.get("misses", 0)
            self._record_run(job, JobStatus.DONE, response=response)
            if job.run_id is not None:
                run_span.set_attribute("run_id", job.run_id)
            run_span.end()
            self._finish(
                job,
                JobStatus.DONE,
                response=response,
                event=CampaignEvent(
                    kind=EventKind.CAMPAIGN_DONE,
                    evaluations=response.evaluations,
                    front_size=len(response.frontier),
                    cache_hit_rate=(
                        stats.get("hits", 0) / lookups if lookups else None
                    ),
                    wall_time_s=response.wall_time_s,
                ),
            )

    # Background workers ----------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._work:
                job = None
                while not self._closed:
                    job = self._pop_runnable()
                    if job is not None:
                        break
                    # With a TTL configured, idle workers wake up each
                    # TTL period (min 100 ms, so ttl_s=0 cannot spin)
                    # and sweep aged-out terminal records — an idle
                    # queue must not retain finished jobs forever.
                    # Without one, block until work arrives.
                    tick = None if self.ttl_s is None else max(self.ttl_s, 0.1)
                    if not self._work.wait(tick) and self.ttl_s is not None:
                        self._purge_locked()
                if job is None:  # closed; abandon whatever is still queued
                    return
            # The job's inc and dec land on one gauge, even if another
            # registry is installed while it runs.
            busy = get_registry().gauge(
                "repro_queue_busy_workers", "Workers currently executing a job"
            )
            busy.inc()
            try:
                self._execute(job)
            finally:
                busy.dec()

    def close(self, wait: bool = True) -> None:
        """Stop accepting submissions and shut the workers down.

        Workers finish the job they are executing (and any still-pending
        ones are left PENDING); ``wait=True`` joins them.  Idempotent;
        a ``workers=0`` queue closes instantly.
        """
        with self._work:
            self._closed = True
            self._work.notify_all()
        if wait:
            for thread in self._workers:
                thread.join()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
