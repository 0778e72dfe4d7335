"""Dependency-free span tracing with W3C context propagation.

One campaign submit fans out through the HTTP server, the
:class:`~repro.service.jobs.JobQueue`, :func:`~repro.service.campaign.
run_campaign`, per-spec GA loops, executor chunks, and batched cache
I/O.  This module gives all those layers one request identity:

* :class:`Span` — one timed operation (``trace_id``/``span_id``/
  ``parent_id``, monotonic-clock duration, status + structured
  attributes),
* :class:`Tracer` — starts spans, tracks every live trace, and lands
  finished traces in a bounded in-memory ring, the one trace store
  (the server serves it at ``/api/traces``),
* a **contextvar-based ambient current span** so deep layers (the
  cache, the executor) attach child spans without plumbing arguments
  through every call — with explicit helpers (:func:`use_span`,
  :func:`set_current_span`) for the places where a context does *not*
  flow automatically: new threads and GA observer callbacks,
* **W3C trace context**: :func:`format_traceparent` /
  :func:`parse_traceparent` implement the ``traceparent`` header, so
  :class:`~repro.service.server.CampaignClient` joins the server's
  trace today and remote workers can join a coordinator's tomorrow.

Retention
---------

Every completed trace is kept in a bounded in-memory ring
(``max_traces``, oldest evicted first); nothing persists it, so a
process's traces go with it.  Memory stays bounded per trace
(``max_spans_per_trace``; spans beyond it are only counted) and across
live traces (``max_active``; the oldest is force-completed).  Span and
trace ids come from a *private* ``random.Random`` (never the global
RNG — starting a trace can never perturb a seeded GA run).

Tracing is bit-neutral by construction: spans only *observe* wall
time, no instrument draws from the global RNG, and nothing about
tracing enters a campaign or request fingerprint.  Every layer traces
through the process-global tracer (:func:`get_tracer`, swapped with
:func:`set_tracer`); ``NULL_TRACER`` disables tracing entirely — the
overhead benchmark uses it as the untraced baseline.

A trace is *complete* when its number of open spans returns to zero.
Layers whose spans hand off asynchronously (the job queue starting a
job long after the submitting request returned) keep the chain alive
by overlapping spans: the queue-wait span starts while the request
span is still open, and the run span starts before the queue-wait span
ends.
"""

from __future__ import annotations

import operator
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from random import Random
from typing import Sequence

__all__ = [
    "NULL_SPAN",
    "NULL_TRACER",
    "Span",
    "SpanContext",
    "TraceRecord",
    "Tracer",
    "chrome_trace",
    "current_span",
    "format_traceparent",
    "get_tracer",
    "parse_traceparent",
    "set_current_span",
    "set_tracer",
    "spans_to_dicts",
    "trace_tree",
    "use_span",
]

@dataclass(frozen=True)
class SpanContext:
    """The propagatable identity of a span (what ``traceparent`` carries)."""

    trace_id: str
    span_id: str


class Span:
    """One timed operation inside a trace.

    Spans are created through a :class:`Tracer` (never directly),
    mutated while open (:meth:`set_attribute`, :meth:`set_attributes`)
    and sealed exactly once by :meth:`end` — double ends are ignored, so a
    ``finally`` can close defensively.  Durations come from the
    monotonic clock; ``start_time`` is epoch wall time for display and
    export only.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_time",
        "duration_s",
        "status",
        "error",
        "attributes",
        "category",
        "thread",
        "_tracer",
        "_start_mono",
        "_ended",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        attributes: dict | None,
        category: str,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes = dict(attributes) if attributes else {}
        self.category = category
        self.thread = threading.current_thread().name
        self.status = "ok"
        self.error: str | None = None
        self._ended = False
        self.start_time = time.time()
        self._start_mono = time.perf_counter()
        self.duration_s = 0.0

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    @property
    def recording(self) -> bool:
        return not self._ended

    def set_attribute(self, key: str, value) -> "Span":
        self.attributes[key] = value
        return self

    def set_attributes(self, **attrs) -> "Span":
        self.attributes.update(attrs)
        return self

    def end(self, status: str | None = None, error: str | None = None) -> None:
        """Seal the span and hand it to the tracer (idempotent)."""
        if self._ended:
            return
        self._ended = True
        self.duration_s = time.perf_counter() - self._start_mono
        if status is not None:
            self.status = status
        if error is not None:
            self.error = error
        self._tracer._on_span_end(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None and self.status == "ok":
            self.end(status="error", error=f"{exc_type.__name__}: {exc}")
        else:
            self.end()

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_time": self.start_time,
            "duration_s": self.duration_s,
            "status": self.status,
            "error": self.error,
            "attributes": self.attributes,
            "category": self.category,
            "thread": self.thread,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, trace={self.trace_id[:8]}, "
            f"span={self.span_id}, status={self.status})"
        )


class _NullSpan:
    """Absorbs the full span API while recording nothing (singleton).

    Returned whenever tracing is off (:data:`NULL_TRACER`) or a child
    span has no trace to join; its :attr:`context` is ``None`` so
    propagation code knows there is nothing to inject.
    """

    name = "null"
    trace_id = ""
    span_id = ""
    parent_id = None
    status = "ok"
    error = None
    duration_s = 0.0
    start_time = 0.0
    attributes: dict = {}
    category = "null"
    thread = ""

    @property
    def context(self) -> None:
        return None

    @property
    def recording(self) -> bool:
        return False

    def set_attribute(self, key, value) -> "_NullSpan":
        return self

    def set_attributes(self, **attrs) -> "_NullSpan":
        return self

    def end(self, status=None, error=None) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def to_dict(self) -> dict:
        return {}


NULL_SPAN = _NullSpan()


@dataclass
class TraceRecord:
    """One completed trace as the ring buffer retains it."""

    trace_id: str
    name: str
    start_time: float
    duration_s: float
    status: str
    spans: list

    def to_dict(self, include_spans: bool = True) -> dict:
        """The trace as JSON; ``run_id`` links it to its recorded run.

        The link is the ``run_id`` attribute of the first span carrying
        one (``job.run`` and ``campaign`` get it once their run is
        recorded), ``None`` for traces of unrecorded work.
        """
        run_id = None
        for span in self.spans:
            candidate = span.attributes.get("run_id")
            if candidate:
                run_id = str(candidate)
                break
        record = {
            "trace_id": self.trace_id,
            "name": self.name,
            "start_time": self.start_time,
            "duration_s": self.duration_s,
            "status": self.status,
            "span_count": len(self.spans),
            "run_id": run_id,
        }
        if include_spans:
            record["spans"] = spans_to_dicts(self.spans)
        return record


class _TraceState:
    """Book-keeping for one live trace (guarded by the tracer lock).

    ``spans`` holds finished :class:`Span` objects interleaved with
    :class:`_SpanSeries` placeholders (bulk recordings whose ``Span``
    objects are only materialised when the trace is read); ``n_spans``
    counts actual spans, series expanded.  ``record`` caches the
    assembled :class:`TraceRecord` after the first read.
    """

    __slots__ = ("spans", "open", "error", "dropped", "n_spans", "record")

    def __init__(self) -> None:
        self.spans: list = []
        self.open = 0
        self.error = False
        self.dropped = 0
        self.n_spans = 0
        self.record: TraceRecord | None = None


class _SpanSeries:
    """Columnar bulk recording: one span per (duration, end time) pair.

    The cheapest hot-path shape — the caller's loop appends plain
    floats and everything else (names, attribute dicts, span objects,
    ids) is built at assembly time, so the many traces evicted from
    the ring unread never pay for it.  ``attributes`` is shared by every
    span; ``per_key``/``per_values`` add one per-span attribute (e.g.
    chunk sizes).
    """

    __slots__ = (
        "parent_id", "category", "thread", "name", "durs",
        "end_times", "attributes", "per_key", "per_values",
    )

    def __init__(
        self, parent_id, category, thread, name, durs, end_times,
        attributes, per_key, per_values,
    ) -> None:
        self.parent_id = parent_id
        self.category = category
        self.thread = thread
        self.name = name
        self.durs = durs
        self.end_times = end_times
        self.attributes = attributes
        self.per_key = per_key
        self.per_values = per_values

    def truncate(self, n: int) -> None:
        self.durs = self.durs[:n]
        self.end_times = self.end_times[:n]
        if self.per_values is not None:
            self.per_values = self.per_values[:n]

    def expand(self, spans: list, make_span) -> None:
        base = self.attributes
        for i, duration_s in enumerate(self.durs):
            attrs = dict(base) if base else {}
            if self.per_key is not None:
                attrs[self.per_key] = self.per_values[i]
            spans.append(make_span(
                self, self.name, duration_s, self.end_times[i], attrs
            ))


_AMBIENT = object()  # sentinel: "parent = whatever span is ambient"

#: Stable presentation order: start time, span id as the tiebreak.
_SPAN_ORDER = operator.attrgetter("start_time", "span_id")

#: The ambient current span.  ``contextvars`` follow the *context*, not
#: the thread — a freshly spawned ``threading.Thread`` starts from an
#: empty context, so thread hand-offs must re-activate explicitly (see
#: :func:`use_span`).
_current: ContextVar[object | None] = ContextVar(
    "repro_current_span", default=None
)


class _SpanScope:
    """``with`` helper: activate a span as ambient, end it on exit."""

    __slots__ = ("_span", "_token")

    def __init__(self, span) -> None:
        self._span = span

    def __enter__(self):
        self._token = _current.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        _current.reset(self._token)
        if exc is not None:
            self._span.end(
                status="error", error=f"{exc_type.__name__}: {exc}"
            )
        else:
            self._span.end()


class _NullScope:
    """Scope for the null tracer: yields the null span, records nothing."""

    __slots__ = ()

    def __enter__(self):
        return NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SCOPE = _NullScope()


def current_span():
    """The ambient span, or ``None`` when no span is active here."""
    span = _current.get()
    if span is None or span is NULL_SPAN:
        return None
    return span


def set_current_span(span) -> object:
    """Make ``span`` ambient; returns a token for ``reset_current_span``.

    Raw escape hatch for callback-driven layers (the GA generation
    observer) that cannot wrap execution in a ``with`` block; prefer
    :func:`use_span` everywhere a block exists.
    """
    return _current.set(span)


def reset_current_span(token) -> None:
    _current.reset(token)


@contextmanager
def use_span(span):
    """Activate an existing span for the duration of the block.

    Does **not** end the span — this is the re-entry point for crossing
    thread boundaries, where the span was started elsewhere and merely
    needs to become ambient in the new thread's context.
    """
    token = _current.set(span)
    try:
        yield span
    finally:
        _current.reset(token)


# W3C trace context ----------------------------------------------------------

_TRACEPARENT_VERSION = "00"


def format_traceparent(context: SpanContext | None) -> str | None:
    """Render a span context as a W3C ``traceparent`` header value.

    The flags are always ``01`` (sampled): every trace is kept.
    """
    if context is None:
        return None
    return f"{_TRACEPARENT_VERSION}-{context.trace_id}-{context.span_id}-01"


def _is_hex(value: str) -> bool:
    try:
        int(value, 16)
    except ValueError:
        return False
    return True


def parse_traceparent(header: str | None) -> SpanContext | None:
    """Parse a ``traceparent`` header; ``None`` for anything malformed.

    Malformed headers are *dropped*, never raised on: an unparseable
    context simply starts a fresh trace, per the W3C spec's
    restart-the-trace guidance.  The flags must be two hex digits;
    their value is ignored, since every trace is kept.
    """
    if not header:
        return None
    parts = header.strip().split("-")
    if len(parts) < 4:
        return None
    version, trace_id, span_id, flags = parts[0], parts[1], parts[2], parts[3]
    if len(version) != 2 or not _is_hex(version) or version == "ff":
        return None
    if len(trace_id) != 32 or not _is_hex(trace_id):
        return None
    if len(span_id) != 16 or not _is_hex(span_id):
        return None
    if int(trace_id, 16) == 0 or int(span_id, 16) == 0:
        return None
    if len(flags) != 2 or not _is_hex(flags):
        return None
    return SpanContext(trace_id.lower(), span_id.lower())


# Tracer ---------------------------------------------------------------------


class Tracer:
    """Starts spans, tracks live traces, retains completed ones.

    Args:
        max_traces: completed traces retained in the in-memory ring.
        max_spans_per_trace: per-trace span cap; spans beyond it are
            counted (``dropped_spans`` attribute on the root) instead
            of stored, so one runaway loop cannot eat the heap.
        max_active: live-trace cap; when exceeded the oldest live trace
            is force-completed (marked ``incomplete``) so abandoned
            traces cannot accumulate forever.
    """

    def __init__(
        self,
        max_traces: int = 128,
        max_spans_per_trace: int = 4096,
        max_active: int = 512,
    ) -> None:
        self.max_spans_per_trace = max_spans_per_trace
        self.max_active = max_active
        self._lock = threading.Lock()
        # Private id stream: minting ids must never perturb a seeded GA
        # run sharing the global random module.
        self._rng = Random()
        self._active: dict[str, _TraceState] = {}
        #: Completed traces as ``(trace_id, state, incomplete)``; the
        #: record is assembled (and cached on the state) when read.
        self._finished: deque[tuple] = deque(maxlen=max_traces)
        #: Traces completed since construction.
        self.completed = 0

    # Span creation ---------------------------------------------------------
    def start_root(
        self,
        name: str,
        attributes: dict | None = None,
        parent_context: SpanContext | None = None,
        category: str = "app",
    ) -> Span:
        """Start a trace root — or join a remote parent's trace.

        With ``parent_context`` (a parsed ``traceparent``), the new
        span continues the remote trace; otherwise a fresh
        ``trace_id`` is minted here.
        """
        if parent_context is not None:
            return self._make_span(
                name,
                parent_context.trace_id,
                parent_context.span_id,
                attributes,
                category,
            )
        # Fresh root: mint both ids and register the trace state under
        # one lock round-trip (this is once per trace, but local roots
        # start every standalone campaign and benchmark batch).
        span = Span(self, name, "", "", None, attributes, category)
        evicted = None
        with self._lock:
            rng = self._rng
            span.trace_id = f"{rng.getrandbits(128) or 1:032x}"
            span.span_id = f"{rng.getrandbits(64) or 1:016x}"
            if len(self._active) >= self.max_active:
                oldest = next(iter(self._active))
                evicted = (oldest, self._active.pop(oldest))
            state = _TraceState()
            state.open = 1
            self._active[span.trace_id] = state
        if evicted is not None:
            self._complete(evicted[0], evicted[1], incomplete=True)
        return span

    def start_span(
        self,
        name: str,
        attributes: dict | None = None,
        parent=_AMBIENT,
        root_if_orphan: bool = False,
        category: str = "app",
    ) -> Span:
        """Start a child of ``parent`` (default: the ambient span).

        Orphan children — no ambient span, no explicit parent — return
        :data:`NULL_SPAN` unless ``root_if_orphan`` is set: leaf layers
        like the cache only narrate traces someone above them started,
        while campaign entry points start their own when run
        standalone.
        """
        if parent is _AMBIENT:
            parent = current_span()
        context = None
        if isinstance(parent, SpanContext):
            context = parent
        elif parent is not None:
            context = parent.context  # Span (or NullSpan -> None)
        if context is None:
            if root_if_orphan:
                return self.start_root(
                    name, attributes=attributes, category=category
                )
            return NULL_SPAN
        return self._make_span(
            name, context.trace_id, context.span_id, attributes, category
        )

    def span(
        self,
        name: str,
        attributes: dict | None = None,
        parent=_AMBIENT,
        root_if_orphan: bool = False,
        category: str = "app",
    ) -> "_SpanScope":
        """``start_span`` + ambient activation + guaranteed end.

        The span becomes the ambient current span for the block, an
        escaping exception marks it ``status="error"``, and it is ended
        exactly once on the way out.  (A slotted scope object, not a
        generator contextmanager: this wraps every traced block, so
        the entry/exit cost matters.)
        """
        return _SpanScope(
            self.start_span(
                name,
                attributes=attributes,
                parent=parent,
                root_if_orphan=root_if_orphan,
                category=category,
            )
        )

    def record_span(
        self,
        name: str,
        duration_s: float,
        attributes: dict | None = None,
        parent=_AMBIENT,
        category: str = "app",
        status: str = "ok",
        error: str | None = None,
    ) -> Span:
        """Record an already-measured operation as a completed span.

        The pattern for work that ran where this process cannot observe
        it live — a remote worker measures its work unit and reports the
        elapsed time; the coordinator records the span here.  The span
        is back-dated so its wall-clock placement matches when the work
        actually ran.

        It skips the open-span bookkeeping entirely: a span born
        already ended never changes its trace's open count, which
        collapses start + end into one lock acquisition.
        """
        if parent is _AMBIENT:
            parent = current_span()
        if parent is None:
            return NULL_SPAN
        # Span, SpanContext and the null span all expose these two
        # fields; a null parent's empty trace_id means tracing is off
        # upstream, so there is nothing to join.
        trace_id = parent.trace_id
        if not trace_id:
            return NULL_SPAN
        duration_s = float(duration_s)
        if duration_s < 0.0:
            duration_s = 0.0
        # Bypass Span.__init__: it reads both clocks and defaults every
        # field this path immediately overwrites.
        span = Span.__new__(Span)
        span._tracer = self
        span.name = name
        span.trace_id = trace_id
        span.span_id = ""
        span.parent_id = parent.span_id
        span.attributes = dict(attributes) if attributes else {}
        span.category = category
        span.thread = threading.current_thread().name
        span.status = status
        span.error = error
        span._ended = True
        span.duration_s = duration_s
        span.start_time = time.time() - duration_s
        span._start_mono = 0.0
        orphaned = None
        with self._lock:
            span.span_id = f"{self._rng.getrandbits(64) or 1:016x}"
            state = self._active.get(trace_id)
            if state is not None:
                if status == "error":
                    state.error = True
                if state.n_spans < self.max_spans_per_trace:
                    state.spans.append(span)
                    state.n_spans += 1
                else:
                    state.dropped += 1
            else:
                # Parent trace already completed/evicted: record the
                # span alone, like a span ending after force-completion.
                orphaned = _TraceState()
                orphaned.spans.append(span)
                orphaned.n_spans = 1
                if status == "error":
                    orphaned.error = True
        if orphaned is not None:
            self._complete(trace_id, orphaned)
        return span

    def record_span_series(
        self,
        name: str,
        durations: Sequence[float],
        end_times: Sequence[float],
        parent=_AMBIENT,
        category: str = "app",
        attributes: dict | None = None,
        per_span: tuple | None = None,
    ) -> int:
        """Record one completed span per ``(duration, end_time)`` pair.

        The cheapest bulk shape: a hot loop only appends plain floats
        to two lists and makes this one call per batch — names,
        attribute dicts and span objects are all built lazily at read
        time.  ``attributes`` is shared by every span of the series;
        ``per_span=(key, values)`` attaches one per-span attribute
        (``values`` aligned with ``durations``).  All sequences are
        taken by reference — do not mutate them afterwards.  Returns
        the number of spans recorded.
        """
        if parent is _AMBIENT:
            parent = current_span()
        if parent is None:
            return 0
        trace_id = parent.trace_id
        if not trace_id:
            return 0
        n = min(len(durations), len(end_times))
        if n == 0:
            return 0
        per_key = per_values = None
        if per_span is not None:
            per_key, per_values = per_span
        series = _SpanSeries(
            parent.span_id,
            category,
            threading.current_thread().name,
            name,
            durations,
            end_times,
            attributes,
            per_key,
            per_values,
        )
        if n < len(durations):
            series.truncate(n)
        orphaned = None
        with self._lock:
            state = self._active.get(trace_id)
            if state is not None:
                room = self.max_spans_per_trace - state.n_spans
                if room < n:
                    state.dropped += n - max(room, 0)
                    if room <= 0:
                        return 0
                    series.truncate(room)
                    n = room
                state.spans.append(series)
                state.n_spans += n
            else:
                orphaned = _TraceState()
                orphaned.spans.append(series)
                orphaned.n_spans = n
        if orphaned is not None:
            self._complete(trace_id, orphaned)
        return n

    def _make_span(
        self,
        name: str,
        trace_id: str,
        parent_id: str | None,
        attributes: dict | None,
        category: str,
    ) -> Span:
        span = Span(self, name, trace_id, "", parent_id, attributes, category)
        evicted = None
        with self._lock:
            span.span_id = f"{self._rng.getrandbits(64) or 1:016x}"
            state = self._active.get(trace_id)
            if state is None:
                if len(self._active) >= self.max_active:
                    oldest = next(iter(self._active))
                    evicted = (oldest, self._active.pop(oldest))
                state = _TraceState()
                self._active[trace_id] = state
            state.open += 1
        if evicted is not None:
            self._complete(evicted[0], evicted[1], incomplete=True)
        return span

    # Completion ------------------------------------------------------------
    def _on_span_end(self, span: Span) -> None:
        with self._lock:
            state = self._active.get(span.trace_id)
            if state is None:
                # A span ending after its trace was force-completed
                # (eviction) re-opens nothing: record it alone.
                state = _TraceState()
                state.open = 1
            if span.status == "error":
                state.error = True
            if state.n_spans < self.max_spans_per_trace:
                state.spans.append(span)
                state.n_spans += 1
            else:
                state.dropped += 1
            state.open -= 1
            finished = state.open <= 0
            if finished:
                self._active.pop(span.trace_id, None)
        if finished:
            self._complete(span.trace_id, state)

    def _complete(
        self, trace_id: str, state: _TraceState, incomplete: bool = False
    ) -> None:
        if not state.spans:
            return
        with self._lock:
            self.completed += 1
            # Assembly (sort, root find, record construction) waits for
            # a read: most ring entries are evicted unread, so the hot
            # path pays one lock round.
            self._finished.append((trace_id, state, incomplete))

    def _assemble(
        self, trace_id: str, state: _TraceState, incomplete: bool = False
    ) -> TraceRecord:
        """Build (and cache) the presentable record for a completed trace.

        Runs under the tracer lock: deferred series are expanded into
        ``Span`` objects exactly once, so repeated reads see the same
        record and span ids, and the sort/root work is paid only on
        first read.
        """
        with self._lock:
            if state.record is not None:
                return state.record
            spans: list[Span] = []
            rng = self._rng

            def make_span(entry, name, duration_s, end_time, attrs):
                duration_s = float(duration_s)
                if duration_s < 0.0:
                    duration_s = 0.0
                span = Span.__new__(Span)
                span._tracer = self
                span.name = name
                span.trace_id = trace_id
                span.span_id = f"{rng.getrandbits(64) or 1:016x}"
                span.parent_id = entry.parent_id
                span.attributes = attrs
                span.category = entry.category
                span.thread = entry.thread
                span.status = "ok"
                span.error = None
                span._ended = True
                span.duration_s = duration_s
                span.start_time = end_time - duration_s
                span._start_mono = 0.0
                return span

            for entry in state.spans:
                if isinstance(entry, Span):
                    spans.append(entry)
                else:
                    entry.expand(spans, make_span)
            spans.sort(key=_SPAN_ORDER)
            root = None
            for span in spans:
                if span.parent_id is None:
                    root = span
                    break
            if root is None:
                # No local root: earliest span whose parent is remote.
                span_ids = {span.span_id for span in spans}
                for span in spans:
                    if span.parent_id not in span_ids:
                        root = span
                        break
                if root is None:
                    root = spans[0]
            if state.dropped:
                root.attributes["dropped_spans"] = state.dropped
            if incomplete:
                root.attributes["incomplete"] = True
            start = spans[0].start_time  # sorted: the earliest start
            end = start
            for span in spans:
                finish = span.start_time + span.duration_s
                if finish > end:
                    end = finish
            state.record = TraceRecord(
                trace_id=trace_id,
                name=root.name,
                start_time=start,
                duration_s=end - start,
                status="error" if state.error else "ok",
                spans=spans,
            )
            return state.record

    # Retention / inspection ------------------------------------------------
    def finished(self, limit: int | None = None) -> list[TraceRecord]:
        """Completed traces still in the ring, newest first."""
        with self._lock:
            entries = list(self._finished)
        entries.reverse()
        if limit is not None:
            entries = entries[: max(0, limit)]
        return [self._assemble(*entry) for entry in entries]

    def get(self, trace_id: str) -> TraceRecord | None:
        """The completed trace with this id (``None`` when unknown)."""
        with self._lock:
            entries = list(self._finished)
        for entry in reversed(entries):
            if entry[0] == trace_id:
                return self._assemble(*entry)
        return None

    def active_count(self) -> int:
        with self._lock:
            return len(self._active)


class _NullTracer(Tracer):
    """Tracing fully off: every span is the null span, nothing retained."""

    def __init__(self) -> None:
        super().__init__(max_traces=1)

    def start_root(self, name, attributes=None, parent_context=None, category="app"):
        return NULL_SPAN

    def start_span(
        self, name, attributes=None, parent=_AMBIENT, root_if_orphan=False,
        category="app",
    ):
        return NULL_SPAN

    def span(
        self, name, attributes=None, parent=_AMBIENT, root_if_orphan=False,
        category="app",
    ):
        return _NULL_SCOPE

    def record_span(
        self, name, duration_s, attributes=None, parent=_AMBIENT,
        category="app", status="ok", error=None,
    ):
        return NULL_SPAN

    def record_span_series(
        self, name, durations, end_times, parent=_AMBIENT,
        category="app", attributes=None, per_span=None,
    ):
        return 0


NULL_TRACER = _NullTracer()

_global_tracer: Tracer = Tracer()
_global_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process-global tracer instrumented layers default to."""
    return _global_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-global tracer; returns the previous one."""
    global _global_tracer
    with _global_lock:
        previous = _global_tracer
        _global_tracer = tracer
    return previous


# Export helpers -------------------------------------------------------------


def spans_to_dicts(spans: Sequence) -> list[dict]:
    """Plain-dict rows for a span list (JSON/store shape)."""
    return [
        span if isinstance(span, dict) else span.to_dict() for span in spans
    ]


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1000.0:.1f}ms"


def trace_tree(spans: Sequence) -> str:
    """Render one trace's spans as an ascii tree (``repro trace show``).

    Children sort by start time under their parent; spans whose parent
    is not part of the trace render as additional roots, so a trace
    that lost a parent to the span cap, or joined a remote one, still
    displays.
    """
    rows = spans_to_dicts(spans)
    if not rows:
        return "(empty trace)"
    by_id = {row["span_id"]: row for row in rows}
    children: dict[str | None, list[dict]] = {}
    roots: list[dict] = []
    for row in rows:
        parent = row.get("parent_id")
        if parent in by_id:
            children.setdefault(parent, []).append(row)
        else:
            roots.append(row)
    for sibling in children.values():
        sibling.sort(key=lambda r: (r["start_time"], r["span_id"]))
    roots.sort(key=lambda r: (r["start_time"], r["span_id"]))
    lines = [f"trace {rows[0]['trace_id']}"]

    def render(row: dict, prefix: str, tail: bool) -> None:
        connector = "└─ " if tail else "├─ "
        status = "" if row.get("status") == "ok" else f" [{row.get('status')}]"
        error = f" — {row['error']}" if row.get("error") else ""
        attrs = row.get("attributes") or {}
        extras = ""
        if attrs:
            parts = [f"{k}={attrs[k]}" for k in sorted(attrs)]
            extras = " {" + ", ".join(parts) + "}"
        lines.append(
            f"{prefix}{connector}{row['name']} "
            f"{_format_duration(row.get('duration_s', 0.0))}"
            f"{status}{error}{extras}"
        )
        child_prefix = prefix + ("   " if tail else "│  ")
        kids = children.get(row["span_id"], [])
        for i, kid in enumerate(kids):
            render(kid, child_prefix, i == len(kids) - 1)

    for i, root in enumerate(roots):
        render(root, "", i == len(roots) - 1)
    return "\n".join(lines)


def chrome_trace(spans: Sequence) -> dict:
    """Chrome trace-event / Perfetto JSON for one (or more) trace(s).

    Open the exported file in ``ui.perfetto.dev`` or
    ``chrome://tracing``: complete (``"ph": "X"``) events, one track
    per originating thread, microsecond timestamps on the wall clock.
    """
    rows = spans_to_dicts(spans)
    events = []
    threads = {}
    for row in rows:
        thread = row.get("thread") or "main"
        tid = threads.setdefault(thread, len(threads) + 1)
        args = {
            "trace_id": row.get("trace_id"),
            "span_id": row.get("span_id"),
            "parent_id": row.get("parent_id"),
            "status": row.get("status"),
        }
        if row.get("error"):
            args["error"] = row["error"]
        args.update(row.get("attributes") or {})
        events.append(
            {
                "ph": "X",
                "name": row.get("name", "span"),
                "cat": row.get("category") or "trace",
                "ts": row.get("start_time", 0.0) * 1e6,
                "dur": max(row.get("duration_s", 0.0), 0.0) * 1e6,
                "pid": 1,
                "tid": tid,
                "args": args,
            }
        )
    events.extend(
        {
            "ph": "M",
            "name": "thread_name",
            "pid": 1,
            "tid": tid,
            "args": {"name": thread},
        }
        for thread, tid in threads.items()
    )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
