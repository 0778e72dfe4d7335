"""Worker process for distributed campaigns.

``repro worker --url http://coordinator:8000`` connects to a serving
coordinator (``repro serve --workers-remote``), performs the handshake
(``GET /api/healthz`` + ``POST /api/workers``), then loops: lease a
work unit, run its one-spec request through
:func:`~repro.service.campaign.execute_request`, exactly as the
in-process job queue runs a request, submit the unit's front back,
repeat.  A daemon heartbeat thread renews the worker's leases at a
third of the lease TTL; units the coordinator reports as *lost* (lease
expired and reassigned, or campaign cancelled) are abandoned at the
next generation boundary through the request's ``should_stop`` hook.

Results are deterministic, so the worker needs no coordination beyond
the lease: the unit's request carries the spec and the rebased seed,
and the evaluation is bit-identical wherever it runs.  A one-spec
response's frontier is that spec's own front, in order.  Workers
evaluate uncached: the cost engine takes about 4 µs a genome, so a
shared cache saved less than the HTTP round trip per generation it
cost, and a unit's GA run already dedups its genomes in its own
archive.  The merged response counts every evaluation as fresh, as an
uncached in-process run does.

A worker reports through its ``worker.unit`` spans (joined to the
coordinator's campaign trace through the lease's ``traceparent``), the
coordinator's ``/api/workers`` row and :meth:`CampaignWorker.run`'s
summary; it writes no log lines.  Lease, heartbeat and submit failures
are survived as the lease protocol allows, and five failed leases in a
row end :meth:`~CampaignWorker.run` with a ``RuntimeError``.
"""

from __future__ import annotations

import threading
import time

from repro.obs.trace import get_tracer, parse_traceparent, use_span
from repro.service.api import CampaignRequest
from repro.service.campaign import execute_request
from repro.service.distributed import DEFAULT_LEASE_TTL_S
from repro.service.events import CampaignCancelled, EventKind

__all__ = ["CampaignWorker"]


class CampaignWorker:
    """One lease/evaluate/report loop against a coordinator.

    Args:
        url: coordinator base URL.
        worker_id: stable identity to register under; ``None`` lets
            the coordinator assign one.
        poll_s: idle sleep between lease attempts when no work is
            available.
        max_units: stop after completing this many units (``None`` =
            run forever).
        exit_idle_s: stop after this long without leasing a unit
            (``None`` = wait forever); how the example and smoke
            workers terminate once a campaign drains.
        client: a pre-built :class:`~repro.service.server.
            CampaignClient` (tests inject one; normally built from
            ``url`` with retries enabled).
    """

    def __init__(
        self,
        url: str,
        worker_id: str | None = None,
        poll_s: float = 0.5,
        max_units: int | None = None,
        exit_idle_s: float | None = None,
        client=None,
    ) -> None:
        from repro.service.server import CampaignClient

        self.url = url.rstrip("/")
        self.client = client or CampaignClient(self.url, retries=4)
        self.worker_id = worker_id
        self.poll_s = poll_s
        self.max_units = max_units
        self.exit_idle_s = exit_idle_s
        self.lease_ttl_s = DEFAULT_LEASE_TTL_S
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
        return {
            "worker_id": self.worker_id,
            "units_done": self.units_done,
            "units_failed": self.units_failed,
            "units_lost": self.units_lost,
        }

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
            except Exception:
                # Missed renewals fall back to lease expiry.
                continue
            lost = set(answer.get("lost") or ())
            if lost:
                with self._active_lock:
                    self._lost_units |= lost

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
        except Exception:
            # The lease will expire and the unit will be requeued; the
            # next completion is idempotent on the unit id.
            return
        if payload.get("status") == "done" and answer.get("accepted"):
            self.units_done += 1

    def _run_unit(self, unit_id: str, request_payload: dict) -> dict:
        """Run one single-spec unit; returns the result payload.

        The unit request already carries the rebased seed, so the
        worker runs it as any served request and reports the response's
        one-spec front; merging across specs happens once, at the
        coordinator, exactly like the in-process path.
        """
        spec_done = []

        def observer(event) -> None:
            if event.kind is EventKind.SPEC_DONE:
                spec_done.append(event)

        response = execute_request(
            CampaignRequest.from_dict(request_payload),
            observer=observer,
            should_stop=lambda: (
                self._stopped.is_set() or self._unit_lost(unit_id)
            ),
        )
        return {
            "status": "done",
            "front": [point.to_dict() for point in response.frontier],
            "evaluations": response.evaluations,
            "generations_run": spec_done[0].generation,
            "strategy": response.strategies[0],
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
