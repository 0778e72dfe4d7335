"""Observability layer: metrics, tracing, admission control.

Dependency-free operational plumbing for the serving stack.  Every
layer reports into one process-wide context: the tracer
(:func:`get_tracer`/:func:`set_tracer`) and the metrics registry
(:func:`get_registry`/:func:`set_registry`).  No component takes its
own tracer, and only the evaluation cache (``EvaluationCache(registry=)``)
its own registry, so one request's spans and metrics land in one place.
Spans, ``repro_*`` metrics and a campaign's progress events are the
stack's whole report: there is no log channel.

* :mod:`repro.obs.metrics` — thread-safe ``Counter``/``Gauge``/
  ``Histogram`` instruments, labelled families, and a
  ``MetricsRegistry`` rendering Prometheus text (``GET /metrics``),
* :mod:`repro.obs.admission` — token-bucket rate limiting, bounded
  queues, and per-request budget caps for ``repro serve``,
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
    "AdmissionController",
    "AdmissionError",
    "AdmissionPolicy",
    "RateLimiter",
    "TokenBucket",
    "request_budget",
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
    "repro.obs.metrics": (
        "DEFAULT_BUCKETS", "NULL_REGISTRY", "Counter", "Gauge", "Histogram",
        "MetricFamily", "MetricsRegistry", "get_registry", "set_registry",
    ),
    "repro.obs.trace": (
        "NULL_SPAN", "NULL_TRACER", "Span", "SpanContext", "TraceRecord",
        "Tracer", "chrome_trace", "current_span", "format_traceparent",
        "get_tracer", "parse_traceparent", "set_tracer", "spans_to_dicts",
        "trace_tree", "use_span",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
