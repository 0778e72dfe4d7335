"""Worker process for distributed campaigns.

``repro worker --url http://coordinator:8000`` connects to a serving
coordinator (``repro serve --workers-remote``), performs the handshake
(``GET /api/healthz`` + ``POST /api/workers``), then loops: lease a
work unit, evaluate it through the ordinary
:func:`~repro.service.campaign.run_campaign` machinery, submit the
per-spec front back, repeat.  A daemon heartbeat thread renews the
worker's leases at a third of the lease TTL; units the coordinator
reports as *lost* (lease expired and reassigned, or campaign
cancelled) are abandoned at the next generation boundary through the
campaign's ``should_stop`` hook.

Results are deterministic, so the worker needs no coordination beyond
the lease: the unit's request payload carries the spec and the rebased
seed, and the evaluation is bit-identical wherever it runs.  The
evaluation cache defaults to the coordinator's own dedup layer (the
``remote`` backend speaking ``/api/cache`` — a genome any worker
evaluated is a cache hit for every other worker) and can instead be a
local file or memory-only.
"""

from __future__ import annotations

import threading
import time

from repro.obs.log import get_logger
from repro.obs.trace import get_tracer, parse_traceparent, use_span
from repro.problems import get_problem
from repro.service.api import CampaignRequest
from repro.service.cache import EvaluationCache
from repro.service.campaign import CampaignConfig, run_campaign
from repro.service.events import CampaignCancelled
from repro.tech.cells import CellLibrary

__all__ = ["CampaignWorker", "worker_cache"]


def worker_cache(spec: str | None, base_url: str) -> EvaluationCache | None:
    """Build a worker's evaluation cache from its ``--cache`` spec.

    ``"remote"`` (the default) shares the coordinator's dedup layer
    over ``/api/cache``; ``"memory"`` is process-local; ``"none"``
    disables caching; anything else is a local SQLite cache file.
    """
    from repro.service.cache_backends import RemoteCacheBackend, make_cache

    if spec == "none":
        return None
    if spec is None or spec == "remote":
        return EvaluationCache(backend=RemoteCacheBackend(base_url))
    return make_cache(spec)


class CampaignWorker:
    """One lease/evaluate/report loop against a coordinator.

    Args:
        url: coordinator base URL.
        cache: shared evaluation cache (see :func:`worker_cache`);
            ``None`` evaluates uncached.
        worker_id: stable identity to register under; ``None`` lets
            the coordinator assign one.
        poll_s: idle sleep between lease attempts when no work is
            available.
        max_units: stop after completing this many units (``None`` =
            run forever).
        exit_idle_s: stop after this long without leasing a unit
            (``None`` = wait forever); how the example and smoke
            workers terminate once a campaign drains.
        library: normalised cell library (defaults to the bundled one —
            workers must share the coordinator's library for cache keys
            and results to line up).
        client: a pre-built :class:`~repro.service.server.
            CampaignClient` (tests inject one; normally built from
            ``url`` with retries enabled).
    """

    def __init__(
        self,
        url: str,
        cache: EvaluationCache | None = None,
        worker_id: str | None = None,
        poll_s: float = 0.5,
        max_units: int | None = None,
        exit_idle_s: float | None = None,
        library: CellLibrary | None = None,
        client=None,
    ) -> None:
        from repro.service.server import CampaignClient

        self.url = url.rstrip("/")
        self.client = client or CampaignClient(self.url, retries=4)
        self.cache = cache
        self.worker_id = worker_id
        self.poll_s = poll_s
        self.max_units = max_units
        self.exit_idle_s = exit_idle_s
        self.library = library or CellLibrary.default()
        self._log = get_logger("repro.worker")
        self.lease_ttl_s = 30.0
        self.units_done = 0
        self.units_failed = 0
        self.units_lost = 0
        self._stopped = threading.Event()
        self._active_lock = threading.Lock()
        self._active_units: set[str] = set()
        self._lost_units: set[str] = set()
        self._heartbeat_thread: threading.Thread | None = None

    # Lifecycle -------------------------------------------------------------
    def stop(self) -> None:
        """Ask the loop (and any in-flight evaluation) to wind down."""
        self._stopped.set()

    def handshake(self) -> dict:
        """Health-check the coordinator and register this worker."""
        health = self.client.health()
        if health.get("status") != "ok":
            raise RuntimeError(f"coordinator unhealthy: {health}")
        answer = self.client.register_worker(
            worker_id=self.worker_id,
            meta={"host": _hostname(), "pid": _pid()},
        )
        self.worker_id = answer["worker_id"]
        self.lease_ttl_s = float(answer.get("lease_ttl_s") or self.lease_ttl_s)
        self._log.info(
            "worker_handshake",
            worker_id=self.worker_id,
            coordinator=self.url,
            version=health.get("version"),
            lease_ttl_s=self.lease_ttl_s,
        )
        return answer

    def run(self) -> dict:
        """Drain units until stopped / idle-timeout / unit budget.

        Returns a summary dict (units done/failed/lost).
        """
        self.handshake()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="worker-heartbeat", daemon=True
        )
        self._heartbeat_thread.start()
        last_lease = time.monotonic()
        errors = 0
        try:
            while not self._stopped.is_set():
                if (
                    self.max_units is not None
                    and self.units_done >= self.max_units
                ):
                    break
                try:
                    unit = self.client.lease_unit(self.worker_id)
                    errors = 0
                except Exception as exc:
                    # The client already retried with backoff; repeated
                    # hard failures mean the coordinator is gone.
                    errors += 1
                    self._log.warning(
                        "lease_error", error=str(exc), consecutive=errors
                    )
                    if errors >= 5:
                        raise RuntimeError(
                            f"coordinator unreachable: {exc}"
                        ) from exc
                    unit = None
                if unit is None:
                    if (
                        self.exit_idle_s is not None
                        and time.monotonic() - last_lease > self.exit_idle_s
                    ):
                        break
                    self._stopped.wait(self.poll_s)
                    continue
                last_lease = time.monotonic()
                self._evaluate_unit(unit)
        finally:
            self._stopped.set()
        summary = {
            "worker_id": self.worker_id,
            "units_done": self.units_done,
            "units_failed": self.units_failed,
            "units_lost": self.units_lost,
        }
        self._log.info("worker_exit", **summary)
        return summary

    # Heartbeats ------------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        while not self._stopped.is_set():
            interval = max(0.05, self.lease_ttl_s / 3.0)
            self._stopped.wait(interval)
            if self._stopped.is_set():
                return
            with self._active_lock:
                active = list(self._active_units)
            if not active:
                continue
            try:
                answer = self.client.worker_heartbeat(self.worker_id, active)
            except Exception as exc:
                self._log.warning("heartbeat_error", error=str(exc))
                continue
            lost = set(answer.get("lost") or ())
            if lost:
                with self._active_lock:
                    self._lost_units |= lost
                self._log.info("units_lost", units=sorted(lost))

    def _unit_lost(self, unit_id: str) -> bool:
        with self._active_lock:
            return unit_id in self._lost_units

    # Evaluation ------------------------------------------------------------
    def _evaluate_unit(self, unit: dict) -> None:
        unit_id = unit["unit_id"]
        with self._active_lock:
            self._active_units.add(unit_id)
            self._lost_units.discard(unit_id)
        tracer = get_tracer()
        span = tracer.start_root(
            "worker.unit",
            attributes={
                "unit_id": unit_id,
                "spec": unit.get("spec"),
                "worker_id": self.worker_id,
                "attempt": unit.get("attempt"),
            },
            parent_context=parse_traceparent(unit.get("traceparent")),
            category="distributed",
        )
        started = time.perf_counter()
        try:
            with use_span(span):
                payload = self._run_unit(unit_id, unit["request"])
        except CampaignCancelled:
            # Lost lease (or worker shutdown): nothing to report — the
            # coordinator already reassigned or cancelled the unit.
            self.units_lost += 1
            span.end(status="error", error="lease lost")
            self._log.info("unit_abandoned", unit_id=unit_id)
            with self._active_lock:
                self._active_units.discard(unit_id)
                self._lost_units.discard(unit_id)
            return
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            span.end(status="error", error=error)
            self.units_failed += 1
            payload = {"status": "failed", "error": error}
        else:
            payload["wall_time_s"] = time.perf_counter() - started
            span.set_attributes(
                evaluations=payload.get("evaluations"),
                front_size=len(payload.get("front") or ()),
            )
            span.end()
        finally:
            with self._active_lock:
                self._active_units.discard(unit_id)
                self._lost_units.discard(unit_id)
        try:
            answer = self.client.submit_unit_result(
                self.worker_id, unit_id, payload
            )
        except Exception as exc:
            # The lease will expire and the unit will be requeued; the
            # next completion is idempotent on the unit id.
            self._log.warning(
                "submit_error", unit_id=unit_id, error=str(exc)
            )
            return
        if payload.get("status") == "done" and answer.get("accepted"):
            self.units_done += 1
        self._log.info(
            "unit_submitted",
            unit_id=unit_id,
            status=payload.get("status"),
            accepted=answer.get("accepted"),
            duplicate=answer.get("duplicate"),
        )

    def _run_unit(self, unit_id: str, request_payload: dict) -> dict:
        """Evaluate one single-spec unit; returns the result payload.

        The unit request already carries the rebased seed, so the
        worker runs a plain one-spec campaign and reports that spec's
        *unmerged* front — merging across specs happens once, at the
        coordinator, exactly like the in-process path.
        """
        request = CampaignRequest.from_dict(dict(request_payload))
        definition = get_problem(request.problem)
        specs = [definition.to_spec(spec) for spec in request.specs]
        from repro.dse.nsga2 import NSGA2Config

        config = CampaignConfig(
            nsga2=NSGA2Config(
                population_size=request.population_size,
                generations=request.generations,
            ),
            seed=request.seed,
            workers=1,
            problem=request.problem,
            exhaustive_threshold=request.exhaustive_threshold,
        )
        result = run_campaign(
            specs,
            config,
            library=self.library,
            cache=self.cache,
            should_stop=lambda: (
                self._stopped.is_set() or self._unit_lost(unit_id)
            ),
        )
        exploration = result.results[0]
        front = [
            definition.frontier_point(point, tuple(row)).to_dict()
            for point, row in zip(exploration.points, exploration.objectives)
        ]
        return {
            "status": "done",
            "front": front,
            "evaluations": exploration.evaluations,
            "fresh_evaluations": result.fresh_evaluations,
            "generations_run": exploration.generations_run,
            "strategy": exploration.strategy,
            "cache_stats": (
                result.cache_stats.as_dict()
                if result.cache_stats is not None
                else None
            ),
        }


def _hostname() -> str:
    import socket

    try:
        return socket.gethostname()
    except Exception:
        return "unknown"


def _pid() -> int:
    import os

    return os.getpid()
