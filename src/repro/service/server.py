"""HTTP front-end over the campaign job queue.

The :class:`~repro.service.jobs.JobQueue` is the in-process serving
API (asyncio code calls it through :func:`asyncio.to_thread`, as
``examples/async_service.py`` shows); this module puts it on a socket.
One worker-driven queue backs the server (with the optional
:class:`~repro.service.cache.EvaluationCache` its in-process runner
shares across requests; no route exposes that cache):

* :class:`CampaignHTTPServer` — a stdlib-only (``http.server``)
  JSON-over-HTTP server so campaigns are drivable over a socket::

      POST /api/campaigns                 submit (body: CampaignRequest
                                          v2; v1 payloads are upgraded)
      GET  /api/campaigns                 list jobs
      GET  /api/campaigns/<id>            status record
      GET  /api/campaigns/<id>/result     CampaignResponse (409 until done)
      GET  /api/campaigns/<id>/events     ?cursor=N&wait=SECONDS long-poll;
                                          news comes in batches of one
                                          BATCH_WINDOW_S (20 ms), the
                                          terminal event at once
      POST /api/campaigns/<id>/cancel     cooperative cancellation
      GET  /api/problems                  registered problem catalogue
      GET  /api/runs                      recorded runs
                                          (?status=&problem=&limit=&offset=)
      GET  /api/runs/<id>                 one registry row
      GET  /api/runs/<id>/front           recorded merged frontier
      GET  /api/compare?a=..&b=..         front-quality indicators
      GET  /api/stats                     queue counters/gauges
      GET  /api/traces                    the tracer ring's finished
                                          traces (?limit=N)
      GET  /api/traces/<id>               one trace with its spans
      GET  /api/metrics                   metrics registry as JSON
      GET  /metrics                       Prometheus text exposition
      GET  /healthz                       liveness
      GET  /api/healthz                   readiness (version, uptime,
                                          queue depth, worker counts)

  Started with a :class:`~repro.service.distributed.WorkCoordinator`
  (``repro serve --workers-remote``), the distributed-execution
  protocol mounts alongside::

      POST /api/workers                   worker handshake/registration
      GET  /api/workers                   workers table
      POST /api/workers/<id>/heartbeat    renew leases, learn lost units
      POST /api/units/lease               lease the next work unit
      POST /api/units/<id>/result         submit a unit outcome
                                          (idempotent on the unit id)

  The ``/api/runs`` family answers 404 unless the server was given a
  :class:`~repro.store.runstore.RunStore` (the same instance the queue
  records into).  Every non-2xx answer carries a structured JSON error
  envelope ``{"error": {"code": ..., "message": ...}}``.

  With an :class:`~repro.obs.admission.AdmissionController` attached,
  submissions pass through budget/rate/queue-bound guards first:
  oversized requests answer ``413`` and over-rate clients (keyed by the
  ``X-Client-Id`` header, else the remote address) or a full queue
  answer ``429`` with a ``Retry-After`` hint.  Every request is counted
  in ``repro_http_requests_total{route,method,status}`` and timed in
  ``repro_http_request_seconds{route}``.

  POSTs (other than the distributed protocol's) run under a
  ``http.request`` span, and so does a GET that carries a valid W3C
  ``traceparent`` header; an incoming ``traceparent`` joins the
  caller's trace, and the response echoes the request span's.  A GET
  without one (status, events and result polls, the catalogue, the
  registry reads) starts no trace, so a watched campaign leaves one
  trace, rooted at its submit; health, scrape and trace-inspection
  paths are never traced.  Finished traces are browsable at
  ``/api/traces`` while they stay in the process tracer's ring (the
  newest 128 by default); each summary carries the ``run_id`` its
  campaign was recorded under.  :class:`CampaignClient` injects
  ``traceparent`` from its ambient span automatically.

:class:`CampaignClient` is the matching ``http.client``-based client used
by ``repro submit`` / ``repro watch``.  Connections are persistent: the
server keeps each HTTP/1.1 connection open between requests, and closes
it after :data:`KEEPALIVE_IDLE_S` idle seconds or at ``shutdown()``; the
client keeps one per thread.  Both ends set ``TCP_NODELAY``, so a
response written in two parts is not held back by Nagle's algorithm
waiting for a delayed ACK.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterator
from urllib.parse import parse_qs, quote as _quote, urlparse, urlsplit

from repro.obs.admission import AdmissionController, AdmissionError
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.obs.trace import (
    current_span,
    format_traceparent,
    get_tracer,
    parse_traceparent,
    reset_current_span,
    set_current_span,
)
from repro.service.api import CampaignRequest, CampaignResponse, FrontierPoint
from repro.service.events import CampaignEvent
from repro.service.jobs import JobQueue, JobStatus

__all__ = [
    "CampaignHTTPServer",
    "CampaignClient",
    "serve",
]

#: Upper bound on one long-poll, so handler threads always cycle.
MAX_LONG_POLL_S = 30.0

#: Seconds a kept-alive connection may sit idle between requests before
#: the server closes it (and frees its handler thread).  The client
#: re-sends a request once on a fresh connection when it finds its
#: connection closed this way.
KEEPALIVE_IDLE_S = 15.0


# HTTP server ---------------------------------------------------------------


#: Default error codes per HTTP status (overridable per raise site).
_DEFAULT_ERROR_CODES = {
    400: "bad_request",
    404: "not_found",
    405: "method_not_allowed",
    409: "conflict",
    413: "too_large",
    429: "too_many_requests",
    500: "internal",
    503: "unavailable",
}


class _ApiError(Exception):
    """Maps a handler failure onto an HTTP status + error envelope.

    Every failure answer has the shape
    ``{"error": {"code": <machine-readable>, "message": <human>}}``;
    ``headers`` ride along on the response (e.g. ``Retry-After``).
    """

    def __init__(
        self,
        status: int,
        message: str,
        code: str | None = None,
        headers: dict[str, str] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code or _DEFAULT_ERROR_CODES.get(status, "error")
        self.headers = headers or {}

    def envelope(self) -> dict:
        return {"error": {"code": self.code, "message": str(self)}}


class _RawResponse:
    """A non-JSON answer (the Prometheus text exposition)."""

    def __init__(self, body: bytes, content_type: str) -> None:
        self.body = body
        self.content_type = content_type


def _job_payload(record) -> dict:
    return {
        "job_id": record.job_id,
        "problem": record.request.problem,
        "status": record.status.value,
        "submissions": record.submissions,
        "error": record.error,
        "run_id": record.run_id,
    }


class _CampaignHandler(BaseHTTPRequestHandler):
    """Routes the JSON API onto the server's job queue."""

    server: "CampaignHTTPServer"
    protocol_version = "HTTP/1.1"
    #: Set ``TCP_NODELAY`` on each accepted socket: the headers and the
    #: body go out in two writes, and with Nagle's algorithm the second
    #: would wait for the client's delayed ACK of the first.
    disable_nagle_algorithm = True
    #: Socket timeout; waiting this long for the next request on a
    #: kept-alive connection closes it.
    timeout = KEEPALIVE_IDLE_S

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence the stdlib access log: the server logs each request
        as one JSON ``request`` line (``--log-level info``)."""

    # Dispatch -------------------------------------------------------------
    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    #: Paths that never start a request span: health probes, scrape /
    #: trace-inspection endpoints, and the distributed-protocol polling
    #: traffic (leases and heartbeats fire continuously) would
    #: otherwise flood the trace ring.  Unit evaluations are traced
    #: through the coordinator's ``unit.evaluate`` spans instead.
    _UNTRACED_PREFIXES = (
        "/healthz",
        "/metrics",
        "/api/healthz",
        "/api/traces",
        "/api/workers",
        "/api/units",
    )

    def _dispatch(self, method: str) -> None:
        if self.server._closing:
            # Read after shutdown() began (Linux still hands over data
            # that arrives after SHUT_RD): close the connection
            # unanswered, and the client resends the request on a new
            # one, to whichever server listens then.
            self.close_connection = True
            return
        started = time.perf_counter()
        # The matched route *template* (set at the match sites in
        # _route) keeps metric label cardinality bounded — raw paths
        # with job/run ids would mint a new series per request.
        self._route_template = "<unmatched>"
        headers: dict[str, str] = {}
        span, token = None, None
        plain_path = self.path.split("?", 1)[0]
        if not plain_path.startswith(self._UNTRACED_PREFIXES):
            # Join the caller's trace when it sent a W3C ``traceparent``
            # header.  Without one, a POST roots a fresh trace and a GET
            # (a poll, a catalogue or registry read) starts none, so the
            # trace ring holds campaigns rather than polls.
            remote = parse_traceparent(self.headers.get("traceparent"))
            if method == "POST" or remote is not None:
                span = get_tracer().start_root(
                    "http.request",
                    attributes={"method": method},
                    parent_context=remote,
                    category="http",
                )
                token = set_current_span(span)
        try:
            try:
                self._body = self._read_body()
                payload, status = self._route(method)
            except _ApiError as exc:
                payload, status = exc.envelope(), exc.status
                headers = exc.headers
            except Exception as exc:  # defensive: a handler bug must answer
                error = _ApiError(500, f"{type(exc).__name__}: {exc}")
                payload, status = error.envelope(), error.status
            if isinstance(payload, _RawResponse):
                body, content_type = payload.body, payload.content_type
            else:
                body = json.dumps(payload).encode("utf-8")
                content_type = "application/json"
            if span is not None and span.context is not None:
                headers.setdefault(
                    "traceparent", format_traceparent(span.context)
                )
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
            elapsed = time.perf_counter() - started
            self.server.observe_request(
                self._route_template, method, status, elapsed
            )
            if span is not None:
                span.set_attributes(
                    route=self._route_template, status=status
                )
                span.end(status="error" if status >= 500 else "ok")
        finally:
            if token is not None:
                reset_current_span(token)
            if span is not None:
                span.end()  # idempotent; closes the span on write errors

    def _read_body(self) -> bytes:
        """Read the request body, whatever the route does with it.

        A body left unread on a kept-alive connection would be parsed
        as the next request, so every request consumes its
        ``Content-Length`` bytes here, once.
        """
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0:
            # Where the body ends is unknown, so the connection cannot
            # carry another request.
            raise _ApiError(
                400, "bad Content-Length header", headers={"Connection": "close"}
            )
        return self.rfile.read(length) if length else b""

    def _route(self, method: str) -> tuple[dict, int]:
        queue = self.server.queue
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = parse_qs(url.query)

        if method == "GET" and parts == ["healthz"]:
            self._route_template = "/healthz"
            return {"status": "ok"}, 200
        if method == "GET" and parts == ["api", "healthz"]:
            self._route_template = "/api/healthz"
            return self._healthz(), 200
        if parts[:2] == ["api", "workers"]:
            return self._workers_route(method, parts[2:], url)
        if parts[:2] == ["api", "units"]:
            return self._units_route(method, parts[2:], url)
        if method == "GET" and parts == ["metrics"]:
            self._route_template = "/metrics"
            text = get_registry().render_prometheus()
            return _RawResponse(
                text.encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            ), 200
        if method == "GET" and parts == ["api", "metrics"]:
            self._route_template = "/api/metrics"
            return get_registry().to_dict(), 200
        if method == "GET" and parts == ["api", "stats"]:
            self._route_template = "/api/stats"
            queue.sweep_expired()  # stats reads tick the TTL sweep
            return queue.stats.as_dict(), 200
        if method == "GET" and parts == ["api", "problems"]:
            self._route_template = "/api/problems"
            from repro.problems import problem_catalog

            return {"problems": problem_catalog()}, 200
        if method == "GET" and parts[:2] == ["api", "traces"]:
            tail = parts[2:]
            if not tail:
                self._route_template = "/api/traces"
                try:
                    limit_text = query.get("limit", [None])[0]
                    limit = int(limit_text) if limit_text is not None else 50
                except ValueError as exc:
                    raise _ApiError(400, f"bad query parameter: {exc}") from None
                return {"traces": self._trace_list(limit)}, 200
            if len(tail) == 1:
                self._route_template = "/api/traces/<id>"
                return self._trace(tail[0]), 200
            raise _ApiError(404, f"unknown traces path {url.path!r}")
        if method == "GET" and parts[:2] == ["api", "runs"]:
            tail = parts[2:]
            self._route_template = (
                "/api/runs" if not tail
                else "/api/runs/<id>/front" if tail[1:] == ["front"]
                else "/api/runs/<id>"
            )
            return self._runs(tail, query)
        if method == "GET" and parts == ["api", "compare"]:
            self._route_template = "/api/compare"
            return self._compare(query), 200
        if parts[:2] != ["api", "campaigns"]:
            raise _ApiError(404, f"unknown path {url.path!r}")

        if len(parts) == 2:
            self._route_template = "/api/campaigns"
            if method == "POST":
                return self._submit(), 200
            return {"jobs": [_job_payload(j) for j in queue.jobs()]}, 200

        job_id = parts[2]
        tail = parts[3:]
        try:
            if not tail:
                self._route_template = "/api/campaigns/<id>"
                if method != "GET":
                    raise _ApiError(405, "status is GET-only")
                return _job_payload(queue.record(job_id)), 200
            if tail == ["result"] and method == "GET":
                self._route_template = "/api/campaigns/<id>/result"
                return self._result(job_id)
            if tail == ["events"] and method == "GET":
                self._route_template = "/api/campaigns/<id>/events"
                return self._events(job_id, query), 200
            if tail == ["cancel"] and method == "POST":
                self._route_template = "/api/campaigns/<id>/cancel"
                status = queue.cancel(job_id)
                return {"job_id": job_id, "status": status.value}, 200
        except KeyError:
            raise _ApiError(404, f"unknown job id {job_id!r}") from None
        raise _ApiError(404, f"unknown path {url.path!r}")

    # Endpoints ------------------------------------------------------------
    def _submit(self) -> dict:
        from repro.problems import SpecValidationError

        try:
            request = CampaignRequest.from_json(self._body.decode("utf-8"))
        except json.JSONDecodeError as exc:
            raise _ApiError(
                400, f"request body is not valid JSON: {exc}", "invalid_json"
            ) from None
        except SpecValidationError as exc:
            raise _ApiError(400, str(exc), "invalid_spec") from None
        except Exception as exc:
            raise _ApiError(
                400, f"bad campaign request: {exc}", "invalid_request"
            ) from None
        admission = self.server.admission
        if admission is not None:
            client_id = (
                self.headers.get("X-Client-Id") or self.client_address[0]
            )
            try:
                admission.admit(
                    request, client_id, self.server.queue.pending_count()
                )
            except AdmissionError as exc:
                raise _ApiError(
                    exc.status, str(exc), exc.code, headers=exc.headers
                ) from None
        try:
            job_id = self.server.queue.submit(request)
        except RuntimeError as exc:  # queue closed
            raise _ApiError(503, str(exc)) from None
        return _job_payload(self.server.queue.record(job_id))

    def _result(self, job_id: str) -> tuple[dict, int]:
        queue = self.server.queue
        status = queue.status(job_id)
        if status in (JobStatus.PENDING, JobStatus.RUNNING):
            raise _ApiError(
                409, f"{job_id} is still {status.value}", "not_ready"
            )
        if status is not JobStatus.DONE:
            record = queue.record(job_id)
            raise _ApiError(
                409,
                record.error or f"{job_id} was {status.value}",
                f"campaign_{status.value}",
            )
        return queue.result(job_id).to_dict(), 200

    def _store(self):
        store = self.server.store
        if store is None:
            raise _ApiError(404, "no run store configured", "no_store")
        return store

    def _runs(self, tail: list[str], query: dict) -> tuple[dict, int]:
        store = self._store()
        if not tail:
            status = query.get("status", [None])[0]
            problem = query.get("problem", [None])[0]
            try:
                limit_text = query.get("limit", [None])[0]
                limit = int(limit_text) if limit_text is not None else None
                offset = int(query.get("offset", ["0"])[0])
            except ValueError as exc:
                raise _ApiError(400, f"bad query parameter: {exc}") from None
            try:
                records = store.list_runs(
                    limit=limit, status=status, offset=offset, problem=problem
                )
            except ValueError as exc:  # e.g. negative offset
                raise _ApiError(400, str(exc)) from None
            return {
                "runs": [r.to_dict() for r in records],
                "limit": limit,
                "offset": offset,
            }, 200
        run_id = tail[0]
        try:
            if len(tail) == 1:
                return store.get_run(run_id).to_dict(), 200
            if tail[1:] == ["front"]:
                front = store.front(run_id)
                return {
                    "run_id": run_id,
                    "front": [p.to_dict() for p in front],
                }, 200
        except KeyError:
            raise _ApiError(404, f"unknown run id {run_id!r}") from None
        raise _ApiError(404, f"unknown runs path {'/'.join(tail)!r}")

    def _compare(self, query: dict) -> dict:
        from repro.store.analytics import compare_runs

        store = self._store()
        ref_a = query.get("a", [None])[0]
        ref_b = query.get("b", [None])[0]
        if not ref_a or not ref_b:
            raise _ApiError(400, "compare needs ?a=RUN&b=RUN")
        try:
            comparison = compare_runs(store, ref_a, ref_b)
        except KeyError as exc:
            raise _ApiError(404, str(exc)) from None
        except ValueError as exc:
            raise _ApiError(409, str(exc), "not_comparable") from None
        return comparison.to_dict()

    def _trace_list(self, limit: int) -> list[dict]:
        """The tracer ring's finished traces, latest start first."""
        return [
            record.to_dict(include_spans=False)
            for record in get_tracer().latest(limit)
        ]

    def _trace(self, trace_id: str) -> dict:
        record = get_tracer().get(trace_id)
        if record is None:
            raise _ApiError(404, f"unknown trace id {trace_id!r}")
        return record.to_dict(include_spans=True)

    def _events(self, job_id: str, query: dict) -> dict:
        try:
            cursor = int(query.get("cursor", ["0"])[0])
            wait_s = float(query.get("wait", ["0"])[0])
        except ValueError as exc:
            raise _ApiError(400, f"bad query parameter: {exc}") from None
        wait_s = max(0.0, min(wait_s, MAX_LONG_POLL_S))
        if wait_s:
            events, cursor, done = self.server.queue.wait_events(
                job_id, cursor, wait_s
            )
        else:
            events, cursor, done = self.server.queue.events_since(job_id, cursor)
        return {
            "events": [event.to_dict() for event in events],
            "cursor": cursor,
            "done": done,
        }

    # Distributed execution ------------------------------------------------
    def _read_json(self) -> dict:
        if not self._body:
            return {}
        try:
            payload = json.loads(self._body.decode("utf-8"))
        except json.JSONDecodeError as exc:
            raise _ApiError(
                400, f"request body is not valid JSON: {exc}", "invalid_json"
            ) from None
        if not isinstance(payload, dict):
            raise _ApiError(400, "request body must be a JSON object")
        return payload

    def _healthz(self) -> dict:
        """Readiness: version, uptime, queue depth, worker counts.

        The worker handshake and smoke scripts poll this instead of
        sleeping; unlike ``/healthz`` it only answers once the queue is
        actually constructed and serving.
        """
        import repro

        payload = {
            "status": "ok",
            "version": repro.__version__,
            "uptime_s": round(time.monotonic() - self.server.started_at, 3),
            "queue_depth": self.server.queue.pending_count(),
            "workers": self.server.queue.stats.workers,
        }
        coordinator = self.server.coordinator
        if coordinator is not None:
            payload["distributed"] = coordinator.stats()
        return payload

    def _coordinator(self):
        coordinator = self.server.coordinator
        if coordinator is None:
            raise _ApiError(
                404,
                "this server has no work coordinator "
                "(start it with --workers-remote)",
                "no_coordinator",
            )
        return coordinator

    def _workers_route(self, method: str, tail: list[str], url) -> tuple[dict, int]:
        coordinator = self._coordinator()
        if not tail:
            if method == "POST":
                self._route_template = "/api/workers"
                payload = self._read_json()
                return coordinator.register_worker(
                    worker_id=payload.get("worker_id"),
                    meta=payload.get("meta"),
                ), 200
            self._route_template = "/api/workers"
            return {"workers": coordinator.workers_info()}, 200
        if len(tail) == 2 and tail[1] == "heartbeat" and method == "POST":
            self._route_template = "/api/workers/<id>/heartbeat"
            payload = self._read_json()
            return coordinator.heartbeat(
                tail[0], list(payload.get("units") or ())
            ), 200
        raise _ApiError(404, f"unknown workers path {url.path!r}")

    def _units_route(self, method: str, tail: list[str], url) -> tuple[dict, int]:
        coordinator = self._coordinator()
        if tail == ["lease"] and method == "POST":
            self._route_template = "/api/units/lease"
            payload = self._read_json()
            worker_id = payload.get("worker_id")
            if not worker_id:
                raise _ApiError(400, "lease needs a worker_id")
            unit = coordinator.lease(worker_id)
            return {"unit": unit, "retry_after_s": None if unit else 0.5}, 200
        if len(tail) == 2 and tail[1] == "result" and method == "POST":
            self._route_template = "/api/units/<id>/result"
            payload = self._read_json()
            worker_id = payload.get("worker_id")
            if not worker_id:
                raise _ApiError(400, "result submission needs a worker_id")
            return coordinator.submit_result(worker_id, tail[0], payload), 200
        raise _ApiError(404, f"unknown units path {url.path!r}")


class CampaignHTTPServer(ThreadingHTTPServer):
    """Stdlib HTTP/JSON front-end bound to one job queue.

    Instrumentation is process-wide: each request is traced through the
    tracer :func:`~repro.obs.trace.get_tracer` returns at that moment
    (which ``/api/traces`` also reads), counted and timed into the
    registry :func:`~repro.obs.metrics.get_registry` returns at that
    moment (which ``/metrics`` and ``/api/metrics`` render), and each
    answered request is logged as one JSON ``request`` line
    on the ``repro.http`` logger (:func:`repro.obs.configure` sets the
    level and stream).

    Args:
        address: ``(host, port)``; port ``0`` binds an ephemeral port
            (read it back from :attr:`port`).
        queue: the worker-backed queue to serve; the server never owns
            it — close the queue separately.
        store: optional :class:`~repro.store.runstore.RunStore` behind
            the ``/api/runs`` and ``/api/compare`` endpoints (defaults
            to the queue's store, so recorded runs are immediately
            queryable).
        admission: optional
            :class:`~repro.obs.admission.AdmissionController` applied
            to every submission.
        coordinator: optional
            :class:`~repro.service.distributed.WorkCoordinator`; mounts
            the ``/api/workers`` + ``/api/units`` protocol so external
            ``repro worker`` processes can lease and evaluate units.
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        queue: JobQueue,
        store=None,
        admission: AdmissionController | None = None,
        coordinator=None,
    ) -> None:
        super().__init__(address, _CampaignHandler)
        self.queue = queue
        self.store = store if store is not None else queue.store
        self.admission = admission
        self.logger = get_logger("repro.http")
        self.coordinator = coordinator
        self.started_at = time.monotonic()
        #: Set by :meth:`shutdown`; handlers answer no request after it.
        self._closing = False
        #: Accepted sockets whose handler has not finished yet.
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def shutdown(self) -> None:
        """Stop serving, kept-alive connections included.

        The server is marked closing first: a handler closes its
        connection unanswered on any request it reads from then on.
        After the accept loop stops, each open connection's read side is
        shut: a handler waiting for the next request sees end-of-stream
        and closes the connection, and one mid-request still writes its
        answer first.  So no request is served after this returns, and
        ``server_close`` does not wait out :data:`KEEPALIVE_IDLE_S`.
        """
        self._closing = True
        super().shutdown()
        # Under the lock: shutdown_request drops a socket from the set
        # before closing it, so none of these is closed yet.
        with self._connections_lock:
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RD)
                except OSError:  # the peer already reset it
                    pass

    def observe_request(
        self, route: str, method: str, status: int, elapsed_s: float
    ) -> None:
        """Count/time one handled request (called from handler threads)."""
        registry = get_registry()
        registry.counter(
            "repro_http_requests_total",
            "HTTP requests served, by route template",
            ("route", "method", "status"),
        ).labels(route, method, str(status)).inc()
        registry.histogram(
            "repro_http_request_seconds",
            "End-to-end HTTP request latency",
            ("route",),
        ).labels(route).observe(elapsed_s)
        self.logger.info(
            "request",
            route=route,
            method=method,
            status=status,
            duration_s=round(elapsed_s, 6),
        )

    @property
    def host(self) -> str:
        return self.server_address[0]

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_in_background(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread (returns the thread)."""
        thread = threading.Thread(
            target=self.serve_forever, name="campaign-http", daemon=True
        )
        thread.start()
        return thread


def serve(
    host: str = "127.0.0.1",
    port: int = 8000,
    queue: JobQueue | None = None,
    *,
    workers: int = 2,
    library=None,
    cache=None,
    event_buffer_size: int = 256,
    ttl_s: float | None = None,
    store=None,
    admission: AdmissionController | None = None,
    coordinator=None,
) -> CampaignHTTPServer:
    """Build a ready-to-run HTTP server (queue included unless given).

    With ``store`` set, an owned queue records every campaign into it
    and the ``/api/runs`` endpoints serve the registry.  ``admission``
    guards submissions.  Tracing, metrics and logging go through the
    process-wide tracer, registry and log configuration
    (:func:`repro.obs.set_tracer`, :func:`repro.obs.set_registry`,
    :func:`repro.obs.configure`).  The caller
    drives ``server.serve_forever()`` (or ``serve_in_background()``)
    and is responsible for closing the queue on shutdown —
    :func:`repro.cli.main`'s ``repro serve`` shows the full lifecycle.

    The ``cache`` (when given) serves an owned queue's in-process
    runner; no route exposes it.  With a ``coordinator``
    (:class:`~repro.service.distributed.WorkCoordinator`), an owned
    queue hands each campaign to its
    :meth:`~repro.service.distributed.WorkCoordinator.execute` instead:
    external ``repro worker`` processes lease the units over
    ``/api/workers`` / ``/api/units`` and evaluate them uncached, so a
    ``cache`` goes unused.
    """
    if queue is None:
        if workers < 1:
            raise ValueError(f"an owned queue needs workers >= 1, got {workers}")
        queue = JobQueue(
            runner=coordinator.execute if coordinator is not None else None,
            library=library,
            cache=cache,
            workers=workers,
            event_buffer_size=event_buffer_size,
            ttl_s=ttl_s,
            store=store,
        )
    return CampaignHTTPServer(
        (host, port),
        queue,
        store=store,
        admission=admission,
        coordinator=coordinator,
    )


# HTTP client ---------------------------------------------------------------


class _Connection(http.client.HTTPConnection):
    """A client thread's kept-alive connection.

    It is dropped when its thread ends or its client is collected, and
    closes its socket then instead of leaving it to the garbage
    collector.
    """

    def __del__(self) -> None:
        self.close()


class _SecureConnection(_Connection, http.client.HTTPSConnection):
    pass


class CampaignClient:
    """Minimal ``http.client`` client for :class:`CampaignHTTPServer`.

    Every method raises :class:`RuntimeError` on non-2xx answers,
    carrying the server's structured error envelope (code + message).

    Each thread calling a client keeps one persistent HTTP/1.1
    connection to the server (``http.client`` sets ``TCP_NODELAY`` on
    it), so a call costs one round trip rather than a connect and a
    round trip.  A kept-alive connection the server has closed in the
    meantime (idle timeout, restart) fails before any response byte
    arrives; such a request is sent once more on a fresh connection,
    which does not count as a retry.  :meth:`close` closes them all.

    With ``retries > 0``, *transient* transport failures (connection
    refused/reset, timeouts — any ``OSError`` rather than an HTTP
    status) are retried with exponential backoff and jitter before
    giving up; HTTP error answers are never retried (the server spoke —
    repeating a POST could duplicate work).  The final failure carries
    the attempt count and the last underlying error.

    Args:
        base_url: server root, e.g. ``http://127.0.0.1:8000``.
        timeout: per-request socket timeout in seconds.
        retries: additional attempts after the first failure.
        backoff_s: initial sleep before the first retry; doubles per
            attempt up to ``backoff_cap_s``, with up to 25% random
            jitter so a fleet of workers does not retry in lockstep.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 60.0,
        retries: int = 0,
        backoff_s: float = 0.1,
        backoff_cap_s: float = 2.0,
        _sleep=time.sleep,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self._sleep = _sleep
        self._local = threading.local()
        #: Every thread's open connection, for :meth:`close`.
        self._connections: weakref.WeakSet = weakref.WeakSet()
        self._connections_lock = threading.Lock()

    @staticmethod
    def _error_detail(raw: bytes) -> str:
        """Flatten an error envelope (or legacy string) for the message."""
        try:
            error = json.loads(raw.decode("utf-8")).get("error", "")
        except Exception:
            return ""
        if isinstance(error, dict):
            code = error.get("code", "error")
            message = error.get("message", "")
            return f"{code}: {message}" if message else str(code)
        return str(error)

    def close(self) -> None:
        """Close every thread's kept-alive connection.

        The client stays usable: the next call opens a new connection.
        """
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()

    def _connection(self) -> _Connection:
        """This thread's connection (it reconnects by itself once closed)."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            url = urlsplit(self.base_url)
            if url.scheme not in ("http", "https"):
                raise ValueError(f"unsupported URL scheme in {self.base_url!r}")
            factory = _SecureConnection if url.scheme == "https" else _Connection
            connection = factory(url.netloc, timeout=self.timeout)
            self._local.connection = connection
            with self._connections_lock:
                self._connections.add(connection)
        return connection

    def _exchange(
        self, method: str, target: str, body: bytes | None, headers: dict
    ) -> tuple[int, bytes]:
        """One request and its answer on this thread's connection."""
        connection = self._connection()
        reused = connection.sock is not None
        try:
            try:
                connection.request(method, target, body=body, headers=headers)
                answer = connection.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                # The server closed the kept-alive connection before
                # reading this request: send it once more, on a new one.
                connection.close()
                connection.request(method, target, body=body, headers=headers)
                answer = connection.getresponse()
            return answer.status, answer.read()
        except BaseException:
            # A half-read answer would desynchronise the next request.
            connection.close()
            raise

    def _request(
        self, method: str, path: str, payload: dict | None = None
    ) -> bytes:
        """Send one request; returns the body of its 2xx answer."""
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        # Propagate the caller's ambient span so the server's request
        # trace joins ours instead of rooting a disconnected one.
        span = current_span()
        if span is not None:
            traceparent = format_traceparent(span.context)
            if traceparent:
                headers["traceparent"] = traceparent
        target = urlsplit(self.base_url).path + path
        attempts = self.retries + 1
        last_error: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                delay = min(
                    self.backoff_s * (2 ** (attempt - 1)), self.backoff_cap_s
                )
                self._sleep(delay * (1.0 + random.random() * 0.25))
            try:
                status, raw = self._exchange(method, target, body, headers)
            except OSError as exc:
                last_error = exc
                continue
            if not 200 <= status < 300:
                # The server answered: a real status, never retried.
                detail = self._error_detail(raw)
                raise RuntimeError(
                    f"{method} {path} failed: HTTP {status}"
                    + (f" ({detail})" if detail else "")
                )
            return raw
        raise RuntimeError(
            f"{method} {path} failed after {attempts} attempt"
            f"{'s' if attempts != 1 else ''}: {last_error}"
        ) from last_error

    def _call(self, method: str, path: str, payload: dict | None = None) -> dict:
        return json.loads(self._request(method, path, payload).decode("utf-8"))

    def submit(self, request: CampaignRequest) -> str:
        """Submit a campaign; returns the job id."""
        return self._call("POST", "/api/campaigns", request.to_dict())["job_id"]

    def status(self, job_id: str) -> dict:
        return self._call("GET", f"/api/campaigns/{job_id}")

    def result(self, job_id: str) -> CampaignResponse:
        payload = self._call("GET", f"/api/campaigns/{job_id}/result")
        return CampaignResponse.from_dict(payload)

    def cancel(self, job_id: str) -> dict:
        return self._call("POST", f"/api/campaigns/{job_id}/cancel")

    def events(
        self, job_id: str, cursor: int = 0, wait_s: float = 0.0
    ) -> tuple[list[CampaignEvent], int, bool]:
        payload = self._call(
            "GET",
            f"/api/campaigns/{job_id}/events?cursor={cursor}&wait={wait_s}",
        )
        events = [CampaignEvent.from_dict(e) for e in payload["events"]]
        return events, payload["cursor"], payload["done"]

    def watch(
        self, job_id: str, cursor: int = 0, poll_s: float = 2.0
    ) -> Iterator[CampaignEvent]:
        """Long-poll the event stream until the terminal event.

        Each poll waits up to ``poll_s`` for news; the server then
        answers with everything one batching window
        (:data:`~repro.service.events.BATCH_WINDOW_S`, 20 ms) collected,
        or at once with the terminal event, so a GA campaign costs about
        one request per window rather than one per event.
        """
        while True:
            events, cursor, done = self.events(job_id, cursor, wait_s=poll_s)
            yield from events
            if done:
                return

    def problems(self) -> list[dict]:
        """The server's registered problem catalogue."""
        return self._call("GET", "/api/problems")["problems"]

    def runs(
        self,
        limit: int | None = None,
        status: str | None = None,
        offset: int = 0,
        problem: str | None = None,
    ) -> list[dict]:
        """Recorded runs (registry rows as dicts), newest first."""
        params = []
        if limit is not None:
            params.append(f"limit={limit}")
        if status is not None:
            params.append(f"status={status}")
        if offset:
            params.append(f"offset={offset}")
        if problem is not None:
            params.append(f"problem={_quote(problem)}")
        tail = f"?{'&'.join(params)}" if params else ""
        return self._call("GET", f"/api/runs{tail}")["runs"]

    def run(self, run_id: str) -> dict:
        """One registry row."""
        return self._call("GET", f"/api/runs/{run_id}")

    def run_front(self, run_id: str) -> list[FrontierPoint]:
        """A recorded run's merged frontier."""
        payload = self._call("GET", f"/api/runs/{run_id}/front")
        return [FrontierPoint.from_dict(p) for p in payload["front"]]

    def compare(self, ref_a: str, ref_b: str) -> dict:
        """Front-quality indicators between two recorded runs."""
        return self._call(
            "GET", f"/api/compare?a={_quote(ref_a)}&b={_quote(ref_b)}"
        )

    def traces(self, limit: int | None = None) -> list[dict]:
        """Finished traces (summary dicts), newest first."""
        tail = f"?limit={limit}" if limit is not None else ""
        return self._call("GET", f"/api/traces{tail}")["traces"]

    def trace(self, trace_id: str) -> dict:
        """One finished trace with its full span list."""
        return self._call("GET", f"/api/traces/{_quote(trace_id)}")

    def stats(self) -> dict:
        return self._call("GET", "/api/stats")

    def metrics(self) -> dict:
        """The server's metrics registry as JSON."""
        return self._call("GET", "/api/metrics")

    def metrics_text(self) -> str:
        """The raw Prometheus text exposition from ``/metrics``."""
        return self._request("GET", "/metrics").decode("utf-8")

    def healthy(self) -> bool:
        try:
            return self._call("GET", "/healthz").get("status") == "ok"
        except Exception:
            return False

    def health(self) -> dict:
        """The full ``/api/healthz`` readiness payload."""
        return self._call("GET", "/api/healthz")

    # Distributed execution -------------------------------------------------
    def register_worker(
        self, worker_id: str | None = None, meta: dict | None = None
    ) -> dict:
        """Worker handshake; returns id + lease terms."""
        payload: dict = {}
        if worker_id:
            payload["worker_id"] = worker_id
        if meta:
            payload["meta"] = meta
        return self._call("POST", "/api/workers", payload)

    def workers(self) -> list[dict]:
        """The coordinator's workers table."""
        return self._call("GET", "/api/workers")["workers"]

    def worker_heartbeat(self, worker_id: str, unit_ids: list[str]) -> dict:
        """Renew leases; the answer lists ``renewed`` and ``lost`` units."""
        return self._call(
            "POST",
            f"/api/workers/{_quote(worker_id)}/heartbeat",
            {"units": list(unit_ids)},
        )

    def lease_unit(self, worker_id: str) -> dict | None:
        """Lease the next work unit (``None`` when the queue is empty)."""
        answer = self._call(
            "POST", "/api/units/lease", {"worker_id": worker_id}
        )
        return answer.get("unit")

    def submit_unit_result(
        self, worker_id: str, unit_id: str, payload: dict
    ) -> dict:
        """Report a unit outcome (idempotent on the unit id)."""
        body = dict(payload)
        body["worker_id"] = worker_id
        return self._call(
            "POST", f"/api/units/{_quote(unit_id)}/result", body
        )
