"""Tests for the asyncio front-end and the HTTP/JSON campaign server."""

import asyncio

import pytest

from repro.service.api import CampaignRequest, SpecRequest
from repro.service.cache import EvaluationCache
from repro.service.events import EventKind
from repro.service.jobs import JobQueue, JobStatus
from repro.service.server import AsyncCampaignService, CampaignClient, serve


def tiny_request(**overrides) -> CampaignRequest:
    payload = dict(
        specs=(SpecRequest(4096, "INT4"),),
        population_size=16,
        generations=4,
        seed=1,
        exhaustive_threshold=0,  # force the GA: these tests watch generations
    )
    payload.update(overrides)
    return CampaignRequest(**payload)


def long_request(**overrides) -> CampaignRequest:
    return tiny_request(generations=200, **overrides)


class TestAsyncCampaignService:
    def test_submit_stream_result(self):
        async def scenario():
            async with AsyncCampaignService(
                workers=1, cache=EvaluationCache()
            ) as service:
                job_id = await service.submit(tiny_request())
                kinds = []
                async for event in service.events(job_id):
                    kinds.append(event.kind)
                response = await service.result(job_id, timeout=60.0)
                status = await service.status(job_id)
                return job_id, kinds, response, status

        job_id, kinds, response, status = asyncio.run(scenario())
        assert job_id == "job-1"
        assert status is JobStatus.DONE
        assert kinds[0] is EventKind.SPEC_STARTED
        assert kinds.count(EventKind.GENERATION_DONE) == 4
        assert kinds[-1] is EventKind.CAMPAIGN_DONE
        assert response.frontier
        assert response.evaluations > 0

    def test_cancel_mid_campaign_stops_early(self):
        async def scenario():
            async with AsyncCampaignService(
                workers=1, cache=EvaluationCache()
            ) as service:
                job_id = await service.submit(long_request())
                generations_seen = 0
                async for event in service.events(job_id):
                    if event.kind is EventKind.GENERATION_DONE:
                        generations_seen += 1
                        await service.cancel(job_id)
                    if event.terminal:
                        final = event
                status = await service.status(job_id)
                with pytest.raises(RuntimeError):
                    await service.result(job_id, timeout=60.0)
                return generations_seen, final, status

        generations_seen, final, status = asyncio.run(scenario())
        assert status is JobStatus.CANCELLED
        assert final.kind is EventKind.CAMPAIGN_CANCELLED
        assert 1 <= generations_seen < 200

    def test_fronted_queue_left_open(self):
        queue = JobQueue(cache=EvaluationCache(), workers=1)

        async def scenario():
            async with AsyncCampaignService(queue) as service:
                job_id = await service.submit(tiny_request())
                await service.result(job_id, timeout=60.0)

        asyncio.run(scenario())
        # The service must not have closed the caller's queue.
        second = queue.submit(tiny_request(seed=2))
        assert queue.wait(second, timeout=60.0) is JobStatus.DONE
        queue.close()

    def test_owned_service_requires_workers(self):
        with pytest.raises(ValueError):
            AsyncCampaignService(workers=0)


@pytest.fixture(scope="class")
def http_setup():
    queue = JobQueue(cache=EvaluationCache(), workers=2)
    server = serve(port=0, queue=queue)
    server.serve_in_background()
    yield CampaignClient(server.url), queue
    server.shutdown()
    queue.close()


class TestHTTPServer:
    def test_health_and_stats(self, http_setup):
        client, _ = http_setup
        assert client.healthy()
        stats = client.stats()
        assert stats["workers"] == 2

    def test_submit_watch_result_round_trip(self, http_setup):
        client, _ = http_setup
        job_id = client.submit(tiny_request())
        events = list(client.watch(job_id))
        assert events[0].kind is EventKind.SPEC_STARTED
        assert events[-1].kind is EventKind.CAMPAIGN_DONE
        assert [e.seq for e in events] == list(range(len(events)))
        response = client.result(job_id)
        assert response.frontier
        record = client.status(job_id)
        assert record["status"] == "done"
        assert any(j["job_id"] == job_id
                   for j in client._call("GET", "/api/campaigns")["jobs"])

    def test_duplicate_submission_deduplicates(self, http_setup):
        client, _ = http_setup
        first = client.submit(tiny_request(seed=5))
        second = client.submit(tiny_request(seed=5))
        assert first == second

    def test_cancel_over_http_stops_early(self, http_setup):
        client, _ = http_setup
        job_id = client.submit(long_request(seed=6))
        generations = 0
        cancelled = False
        for event in client.watch(job_id, poll_s=5.0):
            if event.kind is EventKind.GENERATION_DONE and not cancelled:
                client.cancel(job_id)
                cancelled = True
            if event.kind is EventKind.GENERATION_DONE:
                generations += 1
        assert client.status(job_id)["status"] == "cancelled"
        assert 1 <= generations < 200
        # The result endpoint refuses a cancelled job with a structured
        # 409 envelope.
        with pytest.raises(RuntimeError, match="409.*campaign_cancelled"):
            client.result(job_id)

    def test_result_before_finish_conflicts(self, http_setup):
        client, queue = http_setup
        job_id = client.submit(long_request(seed=7))
        with pytest.raises(RuntimeError, match="409"):
            client.result(job_id)
        client.cancel(job_id)
        queue.wait(job_id, timeout=60.0)

    def test_unknown_job_is_404(self, http_setup):
        client, _ = http_setup
        with pytest.raises(RuntimeError, match="404"):
            client.status("job-404")
        with pytest.raises(RuntimeError, match="404"):
            client.events("job-404")

    def test_bad_request_is_400(self, http_setup):
        client, _ = http_setup
        with pytest.raises(RuntimeError, match="400"):
            client._call("POST", "/api/campaigns", {"specs": []})

    def test_unknown_path_is_404(self, http_setup):
        client, _ = http_setup
        with pytest.raises(RuntimeError, match="404"):
            client._call("GET", "/api/nonsense")

    def test_problem_discovery_endpoint(self, http_setup):
        client, _ = http_setup
        problems = client.problems()
        names = [p["name"] for p in problems]
        assert names == ["dcim", "mapping"]
        dcim = problems[0]
        assert dcim["objectives"] == ["area", "delay", "energy",
                                      "neg_throughput"]
        assert dcim["spec_schema"]["wstore"]["required"] is True

    def test_error_envelope_is_structured(self, http_setup):
        import json as _json
        from urllib.error import HTTPError
        from urllib.request import urlopen

        client, _ = http_setup
        try:
            urlopen(f"{client.base_url}/api/campaigns/job-404")
        except HTTPError as exc:
            assert exc.code == 404
            envelope = _json.loads(exc.read().decode("utf-8"))
            assert envelope["error"]["code"] == "not_found"
            assert "job-404" in envelope["error"]["message"]
        else:  # pragma: no cover - the request must fail
            pytest.fail("expected an HTTP 404")

    def test_invalid_spec_is_400_with_code(self, http_setup):
        client, _ = http_setup
        with pytest.raises(RuntimeError, match="400.*invalid"):
            client._call(
                "POST",
                "/api/campaigns",
                {"problem": "mapping", "specs": [{"network": "nope"}]},
            )

    def test_dcim_spec_without_legal_n_is_400(self, http_setup):
        # max_n=40 passes DcimSpec but no N = 8*2^a > 32 fits under it:
        # the submit must be refused, not queued as a job bound to fail.
        import json as _json
        from urllib.error import HTTPError
        from urllib.request import Request, urlopen

        client, queue = http_setup
        body = {"specs": [{"wstore": 4096, "precision": "INT8", "max_n": 40}]}
        request = Request(
            f"{client.base_url}/api/campaigns",
            data=_json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            urlopen(request, timeout=10)
        except HTTPError as exc:
            assert exc.code == 400
            envelope = _json.loads(exc.read().decode("utf-8"))
            assert envelope["error"]["code"] == "invalid_spec"
            assert "max_n=40" in envelope["error"]["message"]
        else:  # pragma: no cover - the request must fail
            pytest.fail("expected an HTTP 400")
        assert queue.pending_count() == 0

    def test_mapping_campaign_over_http(self, http_setup):
        client, _ = http_setup
        request = CampaignRequest(
            problem="mapping",
            specs=({"network": "tiny_cnn", "wstore": 4096},),
            population_size=12,
            generations=3,
            seed=2,
        )
        job_id = client.submit(request)
        events = list(client.watch(job_id))
        assert events[-1].kind is EventKind.CAMPAIGN_DONE
        assert events[0].spec == "tiny_cnn:INT8:sequential"
        response = client.result(job_id)
        assert response.problem == "mapping"
        assert response.frontier[0].extras["n_macros"] >= 1
