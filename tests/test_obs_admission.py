"""Tests for admission control: units plus the HTTP-level rejections."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.admission import (
    AdmissionController,
    AdmissionError,
    AdmissionPolicy,
    RateLimiter,
    TokenBucket,
    request_budget,
)
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.service.api import CampaignRequest, SpecRequest
from repro.service.cache import EvaluationCache
from repro.service.jobs import JobQueue
from repro.service.server import serve


def request_of(specs=1, generations=4, population=16) -> CampaignRequest:
    return CampaignRequest(
        specs=tuple(SpecRequest(4096, "INT4") for _ in range(specs)),
        population_size=population,
        generations=generations,
        seed=1,
    )


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=1.0, burst=2)
        assert bucket.try_acquire(now=0.0) == 0.0
        assert bucket.try_acquire(now=0.0) == 0.0
        wait = bucket.try_acquire(now=0.0)
        assert wait == pytest.approx(1.0)
        # One second later a token has refilled.
        assert bucket.try_acquire(now=1.0) == 0.0

    def test_tokens_cap_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=1)
        assert bucket.try_acquire(now=0.0) == 0.0
        # A long idle stretch must not bank more than `burst` tokens.
        assert bucket.try_acquire(now=1000.0) == 0.0
        assert bucket.try_acquire(now=1000.0) > 0.0

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)


class TestRateLimiter:
    def test_clients_are_independent(self):
        limiter = RateLimiter(rate=0.001, burst=1)
        assert limiter.try_acquire("a") == 0.0
        assert limiter.try_acquire("a") > 0.0
        assert limiter.try_acquire("b") == 0.0

    def test_client_table_is_bounded(self):
        limiter = RateLimiter(rate=0.001, burst=1, max_clients=2)
        assert limiter.try_acquire("a") == 0.0
        assert limiter.try_acquire("b") == 0.0
        assert limiter.try_acquire("c") == 0.0  # evicts "a"
        # "a" was forgotten, so it starts over with a full bucket.
        assert limiter.try_acquire("a") == 0.0


class TestAdmissionPolicy:
    def test_enabled_only_with_a_guard(self):
        assert not AdmissionPolicy().enabled
        assert AdmissionPolicy(rate_limit=1.0).enabled
        assert AdmissionPolicy(max_pending=4).enabled
        assert AdmissionPolicy(max_budget=100).enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate_limit": 0.0},
            {"burst": 0},
            {"max_pending": -1},
            {"max_budget": 0},
        ],
    )
    def test_validates(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionPolicy(**kwargs)


class TestAdmissionController:
    def test_request_budget(self):
        assert request_budget(request_of(2, 10, 32)) == 640

    def test_budget_cap_rejects_413(self, fresh_registry):
        controller = AdmissionController(AdmissionPolicy(max_budget=100))
        with pytest.raises(AdmissionError) as excinfo:
            controller.admit(request_of(2, 10, 32), "client", pending=0)
        assert excinfo.value.status == 413
        assert excinfo.value.code == "budget_exceeded"
        assert excinfo.value.headers == {}

    def test_rate_limit_rejects_429_with_retry_after(self, fresh_registry):
        registry = fresh_registry
        controller = AdmissionController(
            AdmissionPolicy(rate_limit=0.001, burst=1)
        )
        controller.admit(request_of(), "client", pending=0)
        with pytest.raises(AdmissionError) as excinfo:
            controller.admit(request_of(), "client", pending=0)
        assert excinfo.value.status == 429
        assert excinfo.value.code == "rate_limited"
        assert int(excinfo.value.headers["Retry-After"]) >= 1
        rejected = registry.counter(
            "repro_admission_rejected_total", labelnames=("reason",)
        )
        assert rejected.labels("rate").value == 1.0

    def test_queue_bound_rejects_429(self, fresh_registry):
        controller = AdmissionController(AdmissionPolicy(max_pending=4))
        controller.admit(request_of(), "client", pending=3)
        with pytest.raises(AdmissionError) as excinfo:
            controller.admit(request_of(), "client", pending=4)
        assert excinfo.value.status == 429
        assert excinfo.value.code == "queue_full"
        assert excinfo.value.headers["Retry-After"] == "1"

    def test_budget_named_before_queue(self, fresh_registry):
        # An oversized request is called out as such even when the
        # queue is simultaneously full (check order is documented).
        controller = AdmissionController(
            AdmissionPolicy(max_budget=10, max_pending=1)
        )
        with pytest.raises(AdmissionError) as excinfo:
            controller.admit(request_of(2, 10, 32), "client", pending=99)
        assert excinfo.value.code == "budget_exceeded"


@pytest.fixture(scope="class")
def guarded_server():
    previous = set_registry(MetricsRegistry())
    queue = JobQueue(cache=EvaluationCache(), workers=1)
    admission = AdmissionController(
        AdmissionPolicy(rate_limit=0.001, burst=1, max_budget=500)
    )
    server = serve(port=0, queue=queue, admission=admission)
    server.serve_in_background()
    yield server.url
    server.shutdown()
    queue.close()
    set_registry(previous)


def post_submit(url: str, request: CampaignRequest, client_id: str):
    http_request = urllib.request.Request(
        f"{url}/api/campaigns",
        data=json.dumps(request.to_dict()).encode("utf-8"),
        headers={"Content-Type": "application/json", "X-Client-Id": client_id},
        method="POST",
    )
    with urllib.request.urlopen(http_request, timeout=30.0) as answer:
        return json.loads(answer.read())


class TestAdmissionOverHTTP:
    def test_rate_limited_submit_is_429(self, guarded_server):
        first = post_submit(guarded_server, request_of(), "rate-client")
        assert first["job_id"]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_submit(guarded_server, request_of(), "rate-client")
        error = excinfo.value
        assert error.code == 429
        assert int(error.headers["Retry-After"]) >= 1
        envelope = json.loads(error.read())
        assert envelope["error"]["code"] == "rate_limited"

    def test_clients_rate_limited_independently(self, guarded_server):
        assert post_submit(guarded_server, request_of(), "other-client")

    def test_over_budget_submit_is_413(self, guarded_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_submit(
                guarded_server, request_of(2, 50, 32), "budget-client"
            )
        error = excinfo.value
        assert error.code == 413
        envelope = json.loads(error.read())
        assert envelope["error"]["code"] == "budget_exceeded"
        assert "3200" in envelope["error"]["message"]

    def test_malformed_request_still_400(self, guarded_server):
        # Admission runs after parsing: bad JSON keeps its own error.
        http_request = urllib.request.Request(
            f"{guarded_server}/api/campaigns",
            data=b"not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(http_request, timeout=30.0)
        assert excinfo.value.code == 400


def test_queue_full_over_http(fresh_registry):
    queue = JobQueue(cache=EvaluationCache(), workers=1)
    admission = AdmissionController(AdmissionPolicy(max_pending=0))
    server = serve(port=0, queue=queue, admission=admission)
    server.serve_in_background()
    try:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_submit(server.url, request_of(), "anyone")
        assert excinfo.value.code == 429
        envelope = json.loads(excinfo.value.read())
        assert envelope["error"]["code"] == "queue_full"
    finally:
        server.shutdown()
        queue.close()
