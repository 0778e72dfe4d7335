"""Tests for the dependency-free metrics core (repro.obs.metrics)."""

import threading

import numpy as np
import pytest

from repro.core.spec import DcimSpec
from repro.dse.nsga2 import NSGA2Config
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.service import CampaignConfig, run_campaign


class TestCounter:
    def test_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_set_total_replaces(self):
        counter = Counter()
        counter.inc(10)
        counter.set_total(3)
        assert counter.value == 3.0


class TestGauge:
    def test_goes_both_ways(self):
        gauge = Gauge()
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(4)
        assert gauge.value == 3.0


class TestHistogram:
    def test_bucket_le_semantics(self):
        hist = Histogram(buckets=(0.1, 1.0))
        for value in (0.05, 0.1, 0.5, 1.0, 2.0):
            hist.observe(value)
        snap = hist.snapshot()
        # le is less-OR-EQUAL: 0.1 lands in the first bucket, 1.0 in
        # the second, and the implicit +Inf cumulative equals count.
        assert snap["cumulative"] == [2, 4, 5]
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(3.65)

    def test_rejects_duplicate_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 1.0))

    def test_observe_many_matches_observe(self):
        one_by_one, batched = Histogram(), Histogram()
        values = [0.001 * i for i in range(50)]
        for value in values:
            one_by_one.observe(value)
        batched.observe_many(values)
        assert batched.snapshot() == one_by_one.snapshot()


class TestMetricFamily:
    def test_labels_get_or_create(self):
        registry = MetricsRegistry()
        family = registry.counter("hits", labelnames=("tier",))
        family.labels("ram").inc()
        family.labels("ram").inc()
        family.labels(tier="disk").inc()
        assert family.labels("ram").value == 2.0
        assert family.labels("disk").value == 1.0

    def test_label_arity_mismatch_raises(self):
        family = MetricsRegistry().counter("hits", labelnames=("tier",))
        with pytest.raises(ValueError):
            family.labels("a", "b")
        with pytest.raises(ValueError):
            family.labels(wrong="x")

    def test_labelled_family_rejects_bare_calls(self):
        family = MetricsRegistry().counter("hits", labelnames=("tier",))
        with pytest.raises(ValueError):
            family.inc()

    def test_unlabelled_passthrough(self):
        registry = MetricsRegistry()
        registry.counter("total").inc(3)
        assert registry.counter("total").value == 3.0


class TestMetricsRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError):
            registry.gauge("a")

    def test_labelname_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a", labelnames=("x",))
        with pytest.raises(ValueError):
            registry.counter("a", labelnames=("y",))

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("repro_hits_total", "Cache hits", ("tier",)).labels(
            "ram"
        ).inc(7)
        registry.gauge("repro_depth").set(3)
        registry.histogram(
            "repro_wait_seconds", "Queue wait", buckets=(0.1, 1.0)
        ).observe(0.5)
        text = registry.render_prometheus()
        assert "# HELP repro_hits_total Cache hits" in text
        assert "# TYPE repro_hits_total counter" in text
        assert 'repro_hits_total{tier="ram"} 7' in text
        assert "repro_depth 3" in text
        assert 'repro_wait_seconds_bucket{le="0.1"} 0' in text
        assert 'repro_wait_seconds_bucket{le="1"} 1' in text
        assert 'repro_wait_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_wait_seconds_sum 0.5" in text
        assert "repro_wait_seconds_count 1" in text
        assert text.endswith("\n")

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("x", labelnames=("name",)).labels('a"b\\c\nd').inc()
        line = registry.render_prometheus().splitlines()[-1]
        assert line == 'x{name="a\\"b\\\\c\\nd"} 1'

    def test_collector_runs_at_scrape_time(self):
        registry = MetricsRegistry()
        mirrored = registry.counter("mirrored_total")
        source = {"count": 0}
        registry.register_collector(lambda: mirrored.set_total(source["count"]))
        source["count"] = 41
        assert "mirrored_total 41" in registry.render_prometheus()
        source["count"] = 42
        (family,) = registry.families()  # a read runs the collector too
        assert family.value == 42.0

    def test_dead_bound_collector_is_dropped(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("alive")

        class Source:
            def collect(self):
                gauge.inc()

        source = Source()
        registry.register_collector(source.collect)
        registry.families()
        assert gauge.value == 1.0
        del source
        registry.families()  # weakref is dead: collector silently gone
        registry.families()
        assert gauge.value == 1.0

    def test_broken_collector_never_breaks_the_scrape(self):
        registry = MetricsRegistry()
        registry.counter("ok").inc()

        def explode():
            raise RuntimeError("boom")

        registry.register_collector(explode)
        assert "ok 1" in registry.render_prometheus()

    def test_concurrent_writers_and_scrapers(self):
        # Many threads hammer one labelled family while a scraper
        # renders concurrently: no exceptions, no lost increments.
        registry = MetricsRegistry()
        counter = registry.counter("hits", labelnames=("worker",))
        hist = registry.histogram("lat")
        threads, writers, per_thread = 8, [], 500
        stop_scraping = threading.Event()
        scrape_errors = []

        def write(worker_id):
            series = counter.labels(str(worker_id % 2))
            for i in range(per_thread):
                series.inc()
                hist.observe(i * 1e-4)

        def scrape():
            while not stop_scraping.is_set():
                try:
                    registry.render_prometheus()
                except Exception as exc:  # pragma: no cover - failure path
                    scrape_errors.append(exc)
                    return

        scraper = threading.Thread(target=scrape)
        scraper.start()
        for worker_id in range(threads):
            writers.append(
                threading.Thread(target=write, args=(worker_id,))
            )
            writers[-1].start()
        for thread in writers:
            thread.join(timeout=30.0)
        stop_scraping.set()
        scraper.join(timeout=30.0)
        assert not scrape_errors
        total = sum(
            instrument.value for _, instrument in counter.series()
        )
        assert total == threads * per_thread
        assert hist.labels().count == threads * per_thread


class TestNullRegistry:
    def test_absorbs_everything(self):
        NULL_REGISTRY.counter("a", labelnames=("x",)).labels("v").inc()
        NULL_REGISTRY.gauge("b").set(3)
        NULL_REGISTRY.histogram("c").observe_many([0.1, 0.2])
        assert NULL_REGISTRY.render_prometheus() == ""
        assert NULL_REGISTRY.families() == []

    def test_set_registry_swaps_and_restores(self):
        scoped = MetricsRegistry()
        previous = set_registry(scoped)
        try:
            assert get_registry() is scoped
        finally:
            set_registry(previous)
        assert get_registry() is previous


class TestCampaignParity:
    def test_instrumentation_never_changes_the_front(self):
        # Acceptance criterion: per seed, an instrumented campaign is
        # bit-identical to one recorded into the null registry.
        specs = [DcimSpec(wstore=4096, precision="INT4")]
        config = CampaignConfig(
            nsga2=NSGA2Config(population_size=16, generations=5)
        )
        # The GA and exhaustive paths are instrumented alike; either
        # strategy must satisfy this parity criterion.

        def run():
            return run_campaign(specs, config)

        previous = set_registry(MetricsRegistry())
        try:
            instrumented = run()
            set_registry(NULL_REGISTRY)
            silent = run()
        finally:
            set_registry(previous)
        assert np.array_equal(
            instrumented.merged_objectives, silent.merged_objectives
        )
        assert instrumented.evaluations == silent.evaluations

    def test_campaign_feeds_the_registry(self):
        scoped = MetricsRegistry()
        previous = set_registry(scoped)
        try:
            run_campaign(
                [DcimSpec(wstore=4096, precision="INT4")],
                CampaignConfig(
                    nsga2=NSGA2Config(population_size=16, generations=3),
                    exhaustive_threshold=0,  # force the GA: we count generations
                ),
            )
        finally:
            set_registry(previous)
        generations = scoped.counter(
            "repro_campaign_generations_total", labelnames=("problem",)
        )
        assert generations.labels("dcim").value == 3.0
        campaigns = scoped.counter(
            "repro_campaigns_total", labelnames=("problem", "status")
        )
        assert campaigns.labels("dcim", "done").value == 1.0
        evaluations = scoped.counter(
            "repro_evaluations_total", labelnames=("backend",)
        )
        assert sum(series.value for _, series in evaluations.series()) > 0
