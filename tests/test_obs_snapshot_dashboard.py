"""Tests for the static HTML operations dashboard (``repro dashboard``)."""

import pytest

from repro.reporting import render_dashboard, write_dashboard
from repro.service.api import CampaignRequest, SpecRequest
from repro.service.campaign import execute_request
from repro.store import RunStore


@pytest.fixture
def store(tmp_path):
    with RunStore(tmp_path / "runs.sqlite") as store:
        yield store


class TestDashboard:
    def fed_store(self, store):
        """One recorded run plus the persisted trace that produced it."""
        request = CampaignRequest(specs=(SpecRequest(4096, "INT4"),))
        record = store.record_response(execute_request(request), request)
        store.append_trace_spans(
            [
                {
                    "trace_id": "trace-1", "span_id": "root",
                    "parent_id": None, "name": "http.request",
                    "start_time": 1000.0, "duration_s": 0.02,
                    "attributes": {"run_id": record.run_id},
                },
                {
                    "trace_id": "trace-1", "span_id": "child",
                    "parent_id": "root", "name": "campaign",
                    "start_time": 1000.005, "duration_s": 0.01,
                },
            ],
            source="test",
        )
        return store, record

    def test_empty_store_renders_placeholder(self, store):
        html = render_dashboard(store)
        assert "<html" in html
        assert "no runs recorded yet" in html
        assert "no traces recorded yet" in html
        assert "<svg" not in html

    def test_write_dashboard(self, store, tmp_path):
        fed, record = self.fed_store(store)
        out = write_dashboard(
            fed, tmp_path / "dash" / "index.html", title="smoke board",
        )
        text = out.read_text(encoding="utf-8")
        assert text.startswith("<!DOCTYPE html>")
        for expected in (
            "smoke board",
            "recorded runs: 1",
            "Campaign latency by problem",
            "Recent runs",
            record.run_id,
            "Slowest traces",
            "trace-1",
            "<svg",  # the slowest trace's span waterfall
            "prefers-color-scheme: dark",
        ):
            assert expected in text, f"dashboard is missing {expected!r}"
        # Self-contained: no external scripts, stylesheets, or images.
        assert "<script" not in text
        assert "http://" not in text and "https://" not in text
        assert 'rel="stylesheet"' not in text
