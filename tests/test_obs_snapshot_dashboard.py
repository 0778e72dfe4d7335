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
        """One recorded run."""
        request = CampaignRequest(specs=(SpecRequest(4096, "INT4"),))
        record = store.record_response(execute_request(request), request)
        return store, record

    def test_empty_store_renders_placeholder(self, store):
        html = render_dashboard(store)
        assert "<html" in html
        assert "no runs recorded yet" in html
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
            "prefers-color-scheme: dark",
        ):
            assert expected in text, f"dashboard is missing {expected!r}"
        # Self-contained: no external scripts, stylesheets, or images.
        assert "<script" not in text
        assert "http://" not in text and "https://" not in text
        assert 'rel="stylesheet"' not in text
