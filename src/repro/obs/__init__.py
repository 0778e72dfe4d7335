"""Observability layer: metrics, structured logging, admission control.

Dependency-free operational plumbing for the serving stack.  Every
layer reports into one process-wide context: the tracer
(:func:`get_tracer`/:func:`set_tracer`), the metrics registry
(:func:`get_registry`/:func:`set_registry`) and the log configuration
(:func:`configure`).  No component takes its own tracer or logger,
and only the evaluation cache (``EvaluationCache(registry=)``) its own
registry, so one request's spans and metrics land in one place.

* :mod:`repro.obs.metrics` — thread-safe ``Counter``/``Gauge``/
  ``Histogram`` instruments, labelled families, and a
  ``MetricsRegistry`` rendering Prometheus text, JSON, and flat
  samples,
* :mod:`repro.obs.log` — a JSON-lines structured logger shared by the
  HTTP server and job-queue workers,
* :mod:`repro.obs.admission` — token-bucket rate limiting, bounded
  queues, and per-request budget caps for ``repro serve``,
* :mod:`repro.obs.snapshot` — a periodic sampler appending metrics
  history into the :class:`~repro.store.runstore.RunStore` for the
  ``repro dashboard`` renderer,
* :mod:`repro.obs.trace` — a span tracer with contextvar-based ambient
  spans, W3C ``traceparent`` propagation, a bounded ring of
  completed traces, and ascii-tree / Chrome-trace exports for
  ``repro trace``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "JsonLogger",
    "LEVELS",
    "configure",
    "get_logger",
    "AdmissionController",
    "AdmissionError",
    "AdmissionPolicy",
    "RateLimiter",
    "TokenBucket",
    "request_budget",
    "MetricsSnapshotter",
    "KNOWN_SOURCES",
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
    "normalize_source",
    "parse_traceparent",
    "set_tracer",
    "spans_to_dicts",
    "trace_tree",
    "use_span",
]

_EXPORTS = {
    "repro.obs.admission": (
        "AdmissionController", "AdmissionError", "AdmissionPolicy",
        "RateLimiter", "TokenBucket", "request_budget",
    ),
    "repro.obs.log": ("LEVELS", "JsonLogger", "configure", "get_logger"),
    "repro.obs.metrics": (
        "DEFAULT_BUCKETS", "NULL_REGISTRY", "Counter", "Gauge", "Histogram",
        "MetricFamily", "MetricsRegistry", "get_registry", "set_registry",
    ),
    "repro.obs.snapshot": ("MetricsSnapshotter",),
    "repro.obs.trace": (
        "KNOWN_SOURCES", "NULL_SPAN", "NULL_TRACER", "Span", "SpanContext",
        "TraceRecord", "Tracer", "chrome_trace", "current_span",
        "format_traceparent", "get_tracer", "normalize_source",
        "parse_traceparent", "set_tracer", "spans_to_dicts", "trace_tree",
        "use_span",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
