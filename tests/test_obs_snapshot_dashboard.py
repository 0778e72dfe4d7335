"""Tests for metrics history persistence, the snapshotter, and the dashboard."""

import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.snapshot import MetricsSnapshotter
from repro.reporting import render_dashboard, write_dashboard
from repro.store import MetricsSnapshot, RunStore


@pytest.fixture
def store(tmp_path):
    with RunStore(tmp_path / "runs.sqlite") as store:
        yield store


class TestMetricsHistory:
    def test_append_and_read_oldest_first(self, store):
        store.append_metrics_snapshot({"a": 1.0}, snapshot_at=100.0)
        store.append_metrics_snapshot({"a": 2.0}, snapshot_at=200.0)
        store.append_metrics_snapshot({"a": 3.0}, snapshot_at=300.0)
        history = store.metrics_history()
        assert [row.metrics["a"] for row in history] == [1.0, 2.0, 3.0]
        assert all(isinstance(row, MetricsSnapshot) for row in history)

    def test_limit_keeps_most_recent(self, store):
        for i in range(5):
            store.append_metrics_snapshot({"a": float(i)}, snapshot_at=float(i))
        history = store.metrics_history(limit=2)
        assert [row.metrics["a"] for row in history] == [3.0, 4.0]

    def test_source_and_since_filters(self, store):
        store.append_metrics_snapshot({}, source="serve", snapshot_at=10.0)
        store.append_metrics_snapshot({}, source="bench", snapshot_at=20.0)
        store.append_metrics_snapshot({}, source="serve", snapshot_at=30.0)
        assert len(store.metrics_history(source="serve")) == 2
        assert len(store.metrics_history(since=20.0)) == 2
        assert len(store.metrics_history(source="serve", since=20.0)) == 1

    def test_limit_validated(self, store):
        with pytest.raises(ValueError):
            store.metrics_history(limit=-1)

    def test_prune(self, store):
        now = time.time()
        store.append_metrics_snapshot({}, snapshot_at=now - 1000.0)
        store.append_metrics_snapshot({}, snapshot_at=now)
        assert store.prune_metrics_history(older_than_s=500.0) == 1
        assert len(store.metrics_history()) == 1

    def test_round_trips_sample_shape(self, store):
        registry = MetricsRegistry()
        registry.counter("hits", labelnames=("tier",)).labels("ram").inc(3)
        store.append_metrics_snapshot(registry.sample_values())
        (row,) = store.metrics_history()
        assert row.metrics['hits{tier="ram"}'] == 3.0
        assert row.to_dict()["metrics"] == row.metrics


class TestMetricsSnapshotter:
    def test_snapshot_once(self, store, fresh_registry):
        fresh_registry.counter("a").inc()
        snapshotter = MetricsSnapshotter(store, source="test")
        record = snapshotter.snapshot_once()
        assert record.source == "test"
        assert record.metrics["a"] == 1.0
        assert snapshotter.snapshots == 1

    def test_threaded_sampling_and_final_flush(self, store, fresh_registry):
        snapshotter = MetricsSnapshotter(store, interval_s=0.05)
        with snapshotter:
            deadline = time.time() + 5.0
            while snapshotter.snapshots < 2 and time.time() < deadline:
                time.sleep(0.01)
        # stop() flushed one final snapshot on top of the ticks.
        assert snapshotter.snapshots >= 3
        assert len(store.metrics_history()) == snapshotter.snapshots
        assert not any(
            thread.name == "metrics-snapshotter"
            for thread in threading.enumerate()
        )

    def test_store_errors_are_counted_not_raised(self, fresh_registry):
        class BrokenStore:
            def append_metrics_snapshot(self, metrics, source=""):
                raise RuntimeError("disk full")

        snapshotter = MetricsSnapshotter(BrokenStore())
        snapshotter.start()
        snapshotter.stop(final_snapshot=True)
        assert snapshotter.errors >= 1
        assert snapshotter.snapshots == 0

    def test_validates_interval(self, store):
        with pytest.raises(ValueError):
            MetricsSnapshotter(store, interval_s=0.0)


class TestDashboard:
    def fed_store(self, store):
        registry = MetricsRegistry()
        requests = registry.counter("repro_http_requests_total")
        evals = registry.counter("repro_evaluations_total")
        hits = registry.counter("repro_cache_hits_total")
        misses = registry.counter("repro_cache_misses_total")
        depth = registry.gauge("repro_queue_depth")
        for tick in range(6):
            requests.inc(5)
            evals.inc(100)
            hits.inc(8)
            misses.inc(2)
            depth.set(tick % 3)
            store.append_metrics_snapshot(
                registry.sample_values(), snapshot_at=1000.0 + tick * 30.0
            )
        return store

    def test_renders_charts_from_history(self, store):
        html = render_dashboard(self.fed_store(store))
        assert html.startswith("<!DOCTYPE html>")
        for expected in (
            "<html",
            "repro operations",
            "Requests / s",
            "Evaluations / s",
            "Cache hit rate",
            "Queue depth",
            "<svg",
            "polyline",
            "prefers-color-scheme: dark",
        ):
            assert expected in html, f"dashboard is missing {expected!r}"
        # Self-contained: no external scripts, stylesheets, or images.
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html
        assert 'rel="stylesheet"' not in html

    def test_empty_store_renders_placeholder(self, store):
        html = render_dashboard(store)
        assert "<html" in html
        assert "not enough samples yet" in html
        assert "<svg" not in html

    def test_snapshot_table_is_accessibility_fallback(self, store):
        html = render_dashboard(self.fed_store(store))
        assert "<table" in html

    def test_write_dashboard(self, store, tmp_path):
        out = write_dashboard(
            self.fed_store(store), tmp_path / "dash" / "index.html",
            title="smoke board",
        )
        text = out.read_text(encoding="utf-8")
        assert "smoke board" in text
