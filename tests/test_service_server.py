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

    @pytest.mark.parametrize("workers", [0, -3])
    def test_serve_requires_workers(self, workers):
        with pytest.raises(ValueError, match="workers >= 1"):
            serve(port=0, workers=workers)

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_serve_flag_requires_workers(self, workers, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--workers", workers])
        assert excinfo.value.code == 2
        assert "--workers: expected a positive integer" in capsys.readouterr().err


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

    def test_unrunnable_request_is_400_not_a_job(self, http_setup):
        """A request that could only fail in the queue is refused at
        submit instead of being queued as a job bound to fail."""
        client, queue = http_setup
        before = len(queue.jobs())
        with pytest.raises(RuntimeError, match="400.*invalid_request.*workers"):
            client._call(
                "POST",
                "/api/campaigns",
                {"specs": [{"wstore": 4096, "precision": "INT8"}], "workers": 0},
            )
        assert len(queue.jobs()) == before

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


@pytest.fixture()
def keepalive_server(monkeypatch):
    """A fresh server whose handler logs ``(path, client port)`` per request."""
    from repro.service.server import _CampaignHandler

    seen: list[tuple[str, int]] = []
    dispatch = _CampaignHandler._dispatch

    def spy(self, method):
        seen.append((self.path, self.client_address[1]))
        return dispatch(self, method)

    monkeypatch.setattr(_CampaignHandler, "_dispatch", spy)
    queue = JobQueue(cache=EvaluationCache())
    server = serve(port=0, queue=queue)
    server.serve_in_background()
    yield server, seen
    server.shutdown()
    server.server_close()
    queue.close()


def raw_call(connection, method, path, body=None):
    """One request on a raw ``http.client`` connection: (status, body)."""
    import json as _json

    headers = {"Content-Type": "application/json"}
    data = None if body is None else _json.dumps(body).encode("utf-8")
    connection.request(method, path, body=data, headers=headers)
    answer = connection.getresponse()
    return answer.status, answer.read()


class TestKeptAliveConnections:
    @pytest.mark.parametrize(
        "path, status",
        [
            ("/api/campaigns/job-x/cancel", 404),  # the route ignores its body
            ("/api/nonsense", 404),  # unknown POST path
            ("/api/campaigns/job-x", 405),  # status is GET-only
        ],
    )
    def test_unread_body_leaves_the_connection_usable(
        self, keepalive_server, path, status
    ):
        import http.client
        import json as _json

        server, _ = keepalive_server
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            assert raw_call(connection, "POST", path, {"reason": "x"})[0] == status
            # The same connection must carry the next request intact.
            code, body = raw_call(connection, "GET", "/healthz")
        finally:
            connection.close()
        assert code == 200
        assert _json.loads(body) == {"status": "ok"}

    def test_bad_content_length_is_400_and_closes(self, keepalive_server):
        import http.client
        import json as _json

        server, _ = keepalive_server
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.putrequest("POST", "/api/campaigns")
            connection.putheader("Content-Length", "many")
            connection.endheaders()
            answer = connection.getresponse()
            envelope = _json.loads(answer.read())
        finally:
            connection.close()
        assert answer.status == 400
        assert answer.getheader("Connection") == "close"
        assert envelope["error"]["code"] == "bad_request"

    def test_calls_share_one_connection_per_thread(self, keepalive_server):
        import sys
        import threading

        server, seen = keepalive_server
        client = CampaignClient(server.url)
        threads, calls = 4, 3  # more threads than cores
        barrier = threading.Barrier(threads)
        errors = []

        def run(index):
            try:
                for _ in range(calls):
                    barrier.wait(timeout=10)  # every connection open at once
                    client._call("GET", f"/healthz?thread={index}")
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [
                threading.Thread(target=run, args=(i,)) for i in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        client.close()
        assert not errors and not any(w.is_alive() for w in workers)
        assert len(seen) == threads * calls
        ports = [{port for path, port in seen if path.endswith(f"={i}")}
                 for i in range(threads)]
        assert all(len(used) == 1 for used in ports), ports
        assert len(set().union(*ports)) == threads

    def test_close_opens_a_new_connection_next_call(self, keepalive_server):
        server, seen = keepalive_server
        client = CampaignClient(server.url)
        assert client.healthy() and client.healthy()
        client.close()
        assert client.healthy()
        ports = [port for _, port in seen]
        assert ports[0] == ports[1] != ports[2]

    def test_accepted_sockets_disable_nagle(self, keepalive_server, monkeypatch):
        """Headers and body are two writes: without TCP_NODELAY the body
        would wait for the client's delayed ACK of the headers."""
        import socket

        from repro.service.server import _CampaignHandler

        server, _ = keepalive_server
        nodelay = []
        setup = _CampaignHandler.setup

        def spy(self):
            setup(self)
            nodelay.append(
                self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(_CampaignHandler, "setup", spy)
        client = CampaignClient(server.url)
        assert client.healthy()
        client.close()
        assert nodelay and all(nodelay)

    def test_client_reconnects_across_a_server_restart(
        self, keepalive_server, fresh_registry
    ):
        server, seen = keepalive_server
        client = CampaignClient(server.url)  # retries=0: no second attempt
        assert client.healthy()
        server.shutdown()  # also ends the client's kept-alive connection
        server.server_close()

        queue = JobQueue(cache=EvaluationCache())
        restarted = serve(port=server.port, queue=queue)
        restarted.serve_in_background()
        try:
            job_id = client.submit(tiny_request())
            assert client.status(job_id)["status"] == "pending"
            assert queue.stats.submitted == 1
            assert [r.job_id for r in queue.jobs()] == [job_id]
            # One connection carried both calls after the reconnect.
            after = [port for _, port in seen[1:]]
            assert len(after) == 2 and after[0] == after[1] != seen[0][1]
        finally:
            client.close()
            restarted.shutdown()
            restarted.server_close()
            queue.close()

    def test_request_read_after_shutdown_is_not_served(self, monkeypatch):
        """A handler between two requests when ``shutdown()`` runs must
        not answer the next one, even though Linux still hands over
        data that arrives after the read side was shut."""
        import http.client
        import json as _json
        import threading

        from repro.service.server import _CampaignHandler

        between = threading.Event()  # request 1 answered, 2 not read yet
        release = threading.Event()
        handle_one = _CampaignHandler.handle_one_request

        def held(self):
            handle_one(self)
            if not between.is_set():
                between.set()
                release.wait(timeout=10)

        monkeypatch.setattr(_CampaignHandler, "handle_one_request", held)
        queue = JobQueue(cache=EvaluationCache())
        server = serve(port=0, queue=queue)
        server.serve_in_background()
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=10
        )
        try:
            assert raw_call(connection, "GET", "/healthz")[0] == 200
            assert between.wait(timeout=10)
            server.shutdown()
            # The submit reaches the held handler's socket only now.
            connection.request(
                "POST", "/api/campaigns",
                body=_json.dumps(tiny_request().to_dict()).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            release.set()
            with pytest.raises(ConnectionError):
                connection.getresponse()  # closed, unanswered
            assert queue.stats.submitted == 0
        finally:
            release.set()
            connection.close()
            server.server_close()
            queue.close()

    def test_metrics_text_uses_the_shared_transport(self, keepalive_server):
        from repro.obs.trace import Tracer, use_span
        from repro.service.server import _CampaignHandler

        server, seen = keepalive_server
        traceparents = []
        dispatch = _CampaignHandler._dispatch  # the fixture's spy

        def spy(self, method):
            traceparents.append(self.headers.get("traceparent"))
            return dispatch(self, method)

        client = CampaignClient(server.url)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_CampaignHandler, "_dispatch", spy)
            span = Tracer().start_root("scrape")
            with use_span(span):
                text = client.metrics_text()
            span.end()
            assert client.healthy()
        client.close()
        assert "repro_http_requests_total" in text
        assert traceparents[0] is not None  # the ambient span rode along
        assert seen[0][1] == seen[1][1]  # one kept-alive connection

        sleeps = []
        dead = CampaignClient(
            "http://127.0.0.1:9", timeout=0.2, retries=2, _sleep=sleeps.append
        )
        with pytest.raises(RuntimeError, match="GET /metrics failed after 3 attempts"):
            dead.metrics_text()
        assert len(sleeps) == 2
