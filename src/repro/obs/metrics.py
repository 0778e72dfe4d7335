"""Dependency-free, thread-safe metrics core.

Three instrument kinds behind one registry:

* :class:`Counter` — monotonically increasing totals,
* :class:`Gauge` — point-in-time values that go both ways,
* :class:`Histogram` — bucketed latency/size distributions.

Instruments live inside a :class:`MetricFamily` (one family per metric
name, children keyed by label values, Prometheus-style) and families
live inside a :class:`MetricsRegistry`, which renders everything as
Prometheus text exposition (:meth:`~MetricsRegistry.render_prometheus`,
served at ``GET /metrics``).

Hot paths stay cheap two ways:

* *collectors* — a layer that already keeps its own counters (the
  evaluation cache's :class:`~repro.service.cache.CacheStats`) registers
  a callback that mirrors them into the registry **at scrape time**,
  adding zero work per operation, and
* the :data:`NULL_REGISTRY` — a no-op registry instrumented code can be
  pointed at (via :func:`set_registry`) to measure or remove
  instrumentation cost entirely.

Recording draws no random numbers, so it can never perturb a seeded GA
run.  All operations are thread-safe.
"""

from __future__ import annotations

import bisect
import threading
import weakref
from typing import Callable, Sequence

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
]

#: Default latency buckets (seconds): micro-campaigns to long campaigns.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def _format_number(value: float) -> str:
    """Prometheus-friendly number rendering (integers without ``.0``)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_suffix(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


class Counter:
    """Monotonically increasing total (one labelled series)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    def set_total(self, value: float) -> None:
        """Mirror an externally maintained total (collector pattern).

        Unlike :meth:`inc`, this *replaces* the value: the source of
        truth is the instrumented layer's own counter and this series
        merely publishes it at scrape time.
        """
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """Point-in-time value (one labelled series)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Bucketed distribution (one labelled series).

    Buckets use Prometheus ``le`` (less-or-equal) semantics with an
    implicit ``+Inf`` bucket.
    """

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"duplicate bucket bounds in {buckets!r}")
        self._lock = threading.Lock()
        self._bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # +Inf last
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self._observe_locked(float(value))

    def observe_many(self, values: Sequence[float]) -> None:
        """Record a batch of observations under one lock transaction.

        Hot paths that produce several samples per operation (the
        executor's per-chunk timings) use this to pay the lock and call
        overhead once per batch instead of once per sample.
        """
        with self._lock:
            for value in values:
                self._observe_locked(float(value))

    def _observe_locked(self, value: float) -> None:
        self._bucket_counts[bisect.bisect_left(self._bounds, value)] += 1
        self._count += 1
        self._sum += value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot(self) -> dict:
        """Atomic readout of buckets/count/sum (for rendering)."""
        with self._lock:
            cumulative = []
            running = 0
            for bucket in self._bucket_counts:
                running += bucket
                cumulative.append(running)
            return {
                "bounds": self._bounds,
                "cumulative": cumulative,
                "count": self._count,
                "sum": self._sum,
            }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One metric name with labelled children (Prometheus data model).

    A family without label names has exactly one (unlabelled) child and
    proxies the instrument API (``inc``/``set``/``observe``/...)
    straight through, so ``registry.counter("x").inc()`` works without
    an explicit ``labels()`` step.
    """

    def __init__(
        self,
        kind: str,
        name: str,
        help: str = "",  # noqa: A002 - mirrors the exposition keyword
        labelnames: Sequence[str] = (),
        **instrument_kwargs,
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.kind = kind
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._instrument_kwargs = instrument_kwargs
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}
        if not self.labelnames:
            self._children[()] = _KINDS[kind](**instrument_kwargs)

    def labels(self, *labelvalues, **labelkwargs):
        """The child series for one label-value combination."""
        if labelkwargs:
            if labelvalues:
                raise ValueError("pass label values positionally or by name")
            try:
                labelvalues = tuple(
                    labelkwargs[name] for name in self.labelnames
                )
            except KeyError as exc:
                raise ValueError(
                    f"missing label {exc.args[0]!r} for {self.name}"
                ) from None
        key = tuple(str(v) for v in labelvalues)
        if len(key) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, got {key}"
            )
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = _KINDS[self.kind](**self._instrument_kwargs)
                self._children[key] = child
            return child

    def series(self) -> list[tuple[tuple[str, ...], object]]:
        """Stable (label values, instrument) listing for rendering."""
        with self._lock:
            return sorted(self._children.items())

    # Unlabelled passthrough ----------------------------------------------
    def _solo(self):
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labelled by {self.labelnames}; "
                f"call .labels(...) first"
            )
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def set_total(self, value: float) -> None:
        self._solo().set_total(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    def observe_many(self, values: Sequence[float]) -> None:
        self._solo().observe_many(values)

    @property
    def value(self) -> float:
        return self._solo().value


class MetricsRegistry:
    """Process-wide (or scoped) collection of metric families.

    ``counter``/``gauge``/``histogram`` are idempotent get-or-create
    calls, so instrumented layers can resolve their families on every
    use without coordinating; re-registering a name with a different
    kind or label set raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}
        self._collectors: list[object] = []

    # Family management ----------------------------------------------------
    def _family(
        self,
        kind: str,
        name: str,
        help: str,  # noqa: A002
        labelnames: Sequence[str],
        **instrument_kwargs,
    ) -> MetricFamily:
        labelnames = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(
                    kind, name, help, labelnames, **instrument_kwargs
                )
                self._families[name] = family
                return family
        if family.kind != kind:
            raise ValueError(
                f"{name} is already registered as a {family.kind}, "
                f"not a {kind}"
            )
        if family.labelnames != labelnames:
            raise ValueError(
                f"{name} is already registered with labels "
                f"{family.labelnames}, not {labelnames}"
            )
        return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()  # noqa: A002
    ) -> MetricFamily:
        return self._family("counter", name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()  # noqa: A002
    ) -> MetricFamily:
        return self._family("gauge", name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",  # noqa: A002
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        return self._family(
            "histogram", name, help, labelnames, buckets=buckets
        )

    def families(self) -> list[MetricFamily]:
        self._run_collectors()
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    # Collectors -----------------------------------------------------------
    def register_collector(self, collector: Callable[[], None]) -> None:
        """Run ``collector`` before every scrape/render.

        Bound methods are held through a weak reference, so registering
        a cache's collector never extends its lifetime — dead
        collectors are dropped silently on the next scrape.
        """
        if hasattr(collector, "__self__"):
            ref: object = weakref.WeakMethod(collector)
        else:
            def ref(fn=collector):  # plain functions are held strongly
                return fn
        with self._lock:
            self._collectors.append(ref)

    def _run_collectors(self) -> None:
        with self._lock:
            refs = list(self._collectors)
        alive = []
        for ref in refs:
            collector = ref()
            if collector is None:
                continue
            alive.append(ref)
            try:
                collector()
            except Exception:
                # A broken collector must never take the scrape down.
                pass
        with self._lock:
            self._collectors = [r for r in self._collectors if r in alive]

    # Rendering ------------------------------------------------------------
    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        lines: list[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labelvalues, instrument in family.series():
                suffix = _label_suffix(family.labelnames, labelvalues)
                if family.kind == "histogram":
                    snap = instrument.snapshot()
                    for bound, cumulative in zip(
                        snap["bounds"], snap["cumulative"]
                    ):
                        bucket_suffix = _label_suffix(
                            family.labelnames + ("le",),
                            labelvalues + (_format_number(bound),),
                        )
                        lines.append(
                            f"{family.name}_bucket{bucket_suffix} "
                            f"{cumulative}"
                        )
                    inf_suffix = _label_suffix(
                        family.labelnames + ("le",), labelvalues + ("+Inf",)
                    )
                    lines.append(
                        f"{family.name}_bucket{inf_suffix} {snap['count']}"
                    )
                    lines.append(
                        f"{family.name}_sum{suffix} "
                        f"{_format_number(snap['sum'])}"
                    )
                    lines.append(
                        f"{family.name}_count{suffix} {snap['count']}"
                    )
                else:
                    lines.append(
                        f"{family.name}{suffix} "
                        f"{_format_number(instrument.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


# Null registry --------------------------------------------------------------


class _NullInstrument:
    """Absorbs every instrument/family call (shared singleton)."""

    def labels(self, *args, **kwargs) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_total(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class _NullRegistry(MetricsRegistry):
    """No-op registry: instrumented code runs, nothing is recorded.

    Point :func:`set_registry` at :data:`NULL_REGISTRY` to disable
    metrics entirely — the overhead benchmark uses it as the baseline.
    """

    def _family(self, kind, name, help, labelnames, **kwargs):  # noqa: A002
        return _NULL_INSTRUMENT

    def register_collector(self, collector) -> None:
        pass

    def families(self) -> list:
        return []

    def render_prometheus(self) -> str:
        return ""


NULL_REGISTRY = _NullRegistry()

_global_registry: MetricsRegistry = MetricsRegistry()
_global_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-global registry instrumented layers default to."""
    return _global_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one."""
    global _global_registry
    with _global_lock:
        previous = _global_registry
        _global_registry = registry
    return previous
