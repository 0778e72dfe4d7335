"""Tests for distributed campaign execution.

Coordinator protocol (leases, heartbeats, expiry, idempotent results,
bounded attempts), the HTTP worker round trip and its parity with the
uncached in-process path, client retries, the distributed CLI flags,
and the run-store plumbing.  Tests marked ``distributed``
additionally spawn real ``repro serve`` / ``repro worker`` subprocesses.
"""

import threading
import time

import pytest

from repro.service.api import CampaignRequest, SpecRequest
from repro.service.cache import EvaluationCache
from repro.service.distributed import WorkCoordinator
from repro.service.events import CampaignCancelled
from repro.service.server import CampaignClient, serve
from repro.service.worker import CampaignWorker


def tiny_request(**overrides) -> CampaignRequest:
    payload = dict(
        specs=(SpecRequest(4096, "INT4"), SpecRequest(8192, "INT8")),
        population_size=16,
        generations=4,
        seed=1,
        exhaustive_threshold=0,
    )
    payload.update(overrides)
    return CampaignRequest(**payload)


def done_payload(evaluations: int = 3) -> dict:
    return {
        "status": "done",
        "front": [],
        "evaluations": evaluations,
        "fresh_evaluations": evaluations,
        "generations_run": 4,
        "strategy": "ga",
        "engine_backend": "python",
        "ga_backend": "python",
        "cache_stats": None,
        "wall_time_s": 0.01,
    }


def without_wall_time(response) -> dict:
    """Every field of a response except its wall clock."""
    payload = response.to_dict()
    del payload["wall_time_s"]
    return payload


def run_execute(coordinator, request, should_stop=None):
    """Drive ``coordinator.execute`` on a thread; return (thread, box)."""
    box = {}

    def target():
        try:
            box["response"] = coordinator.execute(
                request, should_stop=should_stop
            )
        except Exception as exc:  # surfaced by the test
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, box


def finished(client: CampaignClient, job_id: str):
    """Block on the event stream, then fetch the job's response."""
    for _ in client.watch(job_id, poll_s=0.1):
        pass
    return client.result(job_id)


def wait_for(predicate, timeout_s: float = 10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition not reached in time")


class TestWorkCoordinator:
    def test_unit_ids_content_addressed(self):
        coord = WorkCoordinator()
        request = tiny_request()
        first = coord._decompose("dc-1", request, request.fingerprint())
        second = coord._decompose("dc-2", request, request.fingerprint())
        assert [u.unit_id for u in first] == [u.unit_id for u in second]
        assert len({u.unit_id for u in first}) == len(first)
        other = tiny_request(seed=2)
        third = coord._decompose("dc-3", other, other.fingerprint())
        assert {u.unit_id for u in third}.isdisjoint(
            u.unit_id for u in first
        )

    def test_unit_request_rebases_seed_single_spec(self):
        coord = WorkCoordinator()
        request = tiny_request(seed=7)
        units = coord._decompose("dc-1", request, request.fingerprint())
        assert [u.request_payload["seed"] for u in units] == [7, 8]
        for unit in units:
            assert len(unit.request_payload["specs"]) == 1
            assert unit.request_payload["workers"] == 1

    def test_lease_heartbeat_and_expiry_requeue(self):
        now = [0.0]
        coord = WorkCoordinator(lease_ttl_s=10.0, clock=lambda: now[0])
        thread, box = run_execute(coord, tiny_request())
        wait_for(lambda: coord.stats()["units_pending"] == 2)

        first = coord.lease("w1")
        second = coord.lease("w1")
        assert first is not None and second is not None
        assert first["attempt"] == 1
        assert coord.lease("w1") is None  # queue drained

        # Heartbeats renew the lease: advance past the original
        # deadline in renewed steps and nothing expires.
        for _ in range(3):
            now[0] += 6.0
            answer = coord.heartbeat("w1", [first["unit_id"], second["unit_id"]])
            assert sorted(answer["renewed"]) == sorted(
                [first["unit_id"], second["unit_id"]]
            )
            assert answer["lost"] == []

        # Stop heartbeating: the leases expire and both units requeue.
        now[0] += 11.0
        reassigned = coord.lease("w2")
        assert reassigned is not None
        assert reassigned["attempt"] == 2
        # The late worker learns it lost the unit on its next heartbeat.
        answer = coord.heartbeat("w1", [reassigned["unit_id"]])
        assert answer["lost"] == [reassigned["unit_id"]]

        other = coord.lease("w2")
        for unit in (reassigned, other):
            coord.submit_result("w2", unit["unit_id"], done_payload())
        thread.join(timeout=10)
        assert "response" in box
        assert box["response"].evaluations == 6

    def test_duplicate_result_submission_is_idempotent(self):
        coord = WorkCoordinator(lease_ttl_s=10.0)
        thread, box = run_execute(coord, tiny_request())
        wait_for(lambda: coord.stats()["units_pending"] == 2)
        units = [coord.lease("w1"), coord.lease("w1")]
        first = coord.submit_result("w1", units[0]["unit_id"], done_payload())
        assert first == {"accepted": True, "status": "done"}
        again = coord.submit_result("w2", units[0]["unit_id"], done_payload())
        assert again == {"accepted": False, "duplicate": True}
        unknown = coord.submit_result("w2", "no-such-unit", done_payload())
        assert unknown == {"accepted": False, "reason": "unknown_unit"}
        coord.submit_result("w1", units[1]["unit_id"], done_payload())
        thread.join(timeout=10)
        assert box["response"].evaluations == 6

    def test_merge_ignores_reported_cache_fields(self):
        # Workers evaluate uncached.  An older worker may still report
        # cache counters and a smaller fresh count: the merge ignores
        # both and counts every genome fresh, as an uncached run does.
        coord = WorkCoordinator(lease_ttl_s=10.0)
        thread, box = run_execute(coord, tiny_request())
        wait_for(lambda: coord.stats()["units_pending"] == 2)
        for evaluations in (5, 7):
            unit = coord.lease("w1")
            payload = done_payload(evaluations)
            payload.update(
                fresh_evaluations=1,
                cache_stats={"hits": evaluations - 1, "misses": 1,
                             "hit_rate": 0.8},
            )
            coord.submit_result("w1", unit["unit_id"], payload)
        thread.join(timeout=10)
        response = box["response"]
        assert response.fresh_evaluations == response.evaluations == 12
        assert response.per_spec_evaluations == (5, 7)
        assert response.cache_stats is None

    def test_attempts_exhausted_fails_campaign_structurally(self):
        coord = WorkCoordinator(lease_ttl_s=10.0, max_attempts=2)
        request = tiny_request(specs=(SpecRequest(4096, "INT4"),))
        thread, box = run_execute(coord, request)
        wait_for(lambda: coord.stats()["units_pending"] == 1)
        for _ in range(2):  # both attempts fail
            unit = coord.lease("w1")
            coord.submit_result(
                "w1",
                unit["unit_id"],
                {"status": "failed", "error": "boom: divide by zero"},
            )
        thread.join(timeout=10)
        error = box.get("error")
        assert isinstance(error, RuntimeError)
        message = str(error)
        assert "failed after 2 attempts" in message
        assert "boom: divide by zero" in message
        assert "spec" in message

    def test_should_stop_cancels_leased_units(self):
        coord = WorkCoordinator(lease_ttl_s=10.0)
        stop = threading.Event()
        thread, box = run_execute(
            coord, tiny_request(), should_stop=stop.is_set
        )
        wait_for(lambda: coord.stats()["units_pending"] == 2)
        unit = coord.lease("w1")
        stop.set()
        thread.join(timeout=10)
        assert isinstance(box.get("error"), CampaignCancelled)
        # A straggler result for the cancelled unit is dropped.
        answer = coord.submit_result("w1", unit["unit_id"], done_payload())
        assert answer["accepted"] is False

    def test_reports_into_the_registry_installed_after_construction(
        self, fresh_registry
    ):
        from repro.obs import MetricsRegistry, set_registry

        coord = WorkCoordinator(lease_ttl_s=10.0)
        installed = MetricsRegistry()
        set_registry(installed)  # fresh_registry restores the original
        thread, box = run_execute(coord, tiny_request())
        wait_for(lambda: coord.stats()["units_pending"] == 2)
        assert installed.gauge("repro_units_pending").value == 2
        first = coord.lease("w1")
        assert installed.gauge("repro_units_leased").value == 1
        assert installed.gauge("repro_workers_registered").value == 1
        for unit in (first, coord.lease("w1")):
            coord.submit_result("w1", unit["unit_id"], done_payload())
        thread.join(timeout=10)
        assert "response" in box
        assert installed.counter("repro_units_leased_total").value == 2
        units = installed.counter("repro_units_total", labelnames=("status",))
        assert units.labels("done").value == 2
        assert installed.histogram("repro_unit_run_seconds").labels().count == 2
        assert installed.gauge("repro_units_pending").value == 0
        assert installed.gauge("repro_units_leased").value == 0
        assert fresh_registry.render_prometheus() == ""

    def test_workers_info_states(self):
        now = [0.0]
        coord = WorkCoordinator(lease_ttl_s=1.0, clock=lambda: now[0])
        coord.register_worker("alpha", meta={"host": "box1"})
        rows = coord.workers_info()
        assert rows[0]["worker_id"] == "alpha"
        assert rows[0]["state"] == "idle"
        assert rows[0]["host"] == "box1"
        now[0] += 10.0
        assert coord.workers_info()[0]["state"] == "lost"


@pytest.fixture()
def distributed_setup(tmp_path):
    """A serving coordinator + two in-thread workers + a run registry."""
    from repro.store import RunStore

    store = RunStore(tmp_path / "runs.sqlite")
    coordinator = WorkCoordinator(lease_ttl_s=5.0)
    server = serve(port=0, workers=2, store=store, coordinator=coordinator)
    server.serve_in_background()
    workers, threads = [], []
    for _ in range(2):
        worker = CampaignWorker(server.url, poll_s=0.05)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        workers.append(worker)
        threads.append(thread)
    yield CampaignClient(server.url), server, workers, store
    for worker in workers:
        worker.stop()
    for thread in threads:
        thread.join(timeout=10)
    server.shutdown()
    server.server_close()
    server.queue.close(wait=False)
    store.close()


class TestDistributedRoundTrip:
    def test_healthz_payload(self, distributed_setup):
        client, _, _, _ = distributed_setup
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["version"]
        assert payload["uptime_s"] >= 0
        assert payload["queue_depth"] == 0
        assert payload["distributed"]["lease_ttl_s"] == 5.0

    def test_two_workers_bit_identical_to_in_process(
        self, distributed_setup
    ):
        from repro.service.campaign import execute_request

        client, _, workers, store = distributed_setup
        request = tiny_request()
        reference = execute_request(request)

        job_id = client.submit(request)
        response = finished(client, job_id)

        # Workers evaluate uncached, so the whole response (counts and
        # cache_stats included) equals the uncached in-process run's.
        assert without_wall_time(response) == without_wall_time(reference)
        # The recorded run carries the same request fingerprint as the
        # in-process path would, and the two workers did both units.
        run = store.list_runs()[0]
        assert run.fingerprint == request.fingerprint()
        rows = client.workers()
        assert {row["worker_id"] for row in rows} == {
            w.worker_id for w in workers
        }
        assert sum(row["units_done"] for row in rows) == 2
        assert sum(row["units_failed"] for row in rows) == 0

        # The same holds on the exhaustive route.
        exhaustive = tiny_request(exhaustive_threshold=None)
        response = finished(client, client.submit(exhaustive))
        assert response.strategies == ("exhaustive", "exhaustive")
        assert without_wall_time(response) == without_wall_time(
            execute_request(exhaustive)
        )

    def test_exhaustive_units_count_every_genome_fresh(self, distributed_setup):
        client, _, _, _ = distributed_setup
        first = finished(
            client, client.submit(tiny_request(exhaustive_threshold=None))
        )
        assert first.strategies == ("exhaustive", "exhaustive")
        assert first.fresh_evaluations == first.evaluations > 0
        # A distinct request over the same specs: workers evaluate
        # uncached, so every genome is fresh again.
        second = finished(
            client,
            client.submit(tiny_request(exhaustive_threshold=None, workers=3)),
        )
        assert second.fresh_evaluations == second.evaluations == first.evaluations

    def test_workers_endpoint_lists_registered_workers(
        self, distributed_setup
    ):
        client, _, workers, _ = distributed_setup
        finished(client, client.submit(tiny_request()))
        rows = client.workers()
        assert {row["worker_id"] for row in rows} == {
            w.worker_id for w in workers
        }
        assert all(row["state"] in ("idle", "active") for row in rows)

    @pytest.mark.parametrize(
        "method, path",
        [
            ("GET", "/api/cache"),
            ("POST", "/api/cache/get_many"),
            ("POST", "/api/cache/put_many"),
        ],
    )
    def test_coordinator_serves_no_cache(self, distributed_setup, method, path):
        client, _, _, _ = distributed_setup
        body = None if method == "GET" else {"keys": [], "entries": {}}
        with pytest.raises(RuntimeError, match=r"HTTP 404 \(not_found"):
            client._call(method, path, body)


#: The merged response of ``golden_campaign()`` at ``workers=1``, minus
#: ``wall_time_s``, captured before remote units ran through
#: ``execute_request``.  Every way of running the request must
#: reproduce it.
GOLDEN_CAMPAIGN_DIGEST = (
    "f0cf3c3fe9c4828d7a820199d159b5f9222c4b7964030f2173b04bdca33c3c21"
)


def golden_campaign(**overrides) -> CampaignRequest:
    """A small forced-GA 4-spec campaign."""
    payload = dict(
        specs=(
            SpecRequest(4096, "INT4"),
            SpecRequest(4096, "INT8"),
            SpecRequest(8192, "BF16"),
            SpecRequest(16384, "INT8"),
        ),
        population_size=16,
        generations=6,
        seed=3,
        exhaustive_threshold=0,
    )
    payload.update(overrides)
    return CampaignRequest(**payload)


def response_digest(response) -> str:
    from repro.core.hashing import stable_hash

    return stable_hash(without_wall_time(response))


class TestCampaignGolden:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_in_process_reproduces_golden(self, workers):
        from repro.service.campaign import execute_request

        response = execute_request(golden_campaign(workers=workers))
        assert response.strategies == ("ga",) * 4
        assert response_digest(response) == GOLDEN_CAMPAIGN_DIGEST

    def test_coordinator_with_two_workers_reproduces_golden(
        self, distributed_setup
    ):
        client, _, _, _ = distributed_setup
        response = finished(client, client.submit(golden_campaign()))
        assert response_digest(response) == GOLDEN_CAMPAIGN_DIGEST


def run_campaign_unit_payload(request_payload: dict) -> dict:
    """A unit's result payload built from ``run_campaign`` directly:
    the one spec's exploration front, as the run found it."""
    from repro.dse.nsga2 import NSGA2Config
    from repro.problems import get_problem
    from repro.service.campaign import CampaignConfig, run_campaign

    request = CampaignRequest.from_dict(request_payload)
    definition = get_problem(request.problem)
    config = CampaignConfig(
        nsga2=NSGA2Config(
            population_size=request.population_size,
            generations=request.generations,
        ),
        seed=request.seed,
        problem=request.problem,
        exhaustive_threshold=request.exhaustive_threshold,
    )
    result = run_campaign(
        [definition.to_spec(spec) for spec in request.specs], config
    )
    (exploration,) = result.results
    return {
        "status": "done",
        "front": [
            definition.frontier_point(point, tuple(row)).to_dict()
            for point, row in zip(exploration.points, exploration.objectives)
        ],
        "evaluations": exploration.evaluations,
        "generations_run": exploration.generations_run,
        "strategy": exploration.strategy,
    }


class TestUnitPayload:
    @pytest.mark.parametrize(
        "request_, strategy",
        [
            (golden_campaign(), "ga"),
            (golden_campaign(exhaustive_threshold=None), "exhaustive"),
            (
                CampaignRequest(
                    problem="mapping",
                    specs=(
                        {"network": "tiny_cnn", "wstore": 4096},
                        {"network": "resnet_block", "wstore": 8192},
                    ),
                    population_size=12,
                    generations=3,
                    seed=5,
                ),
                "ga",
            ),
        ],
        ids=["ga", "exhaustive", "mapping"],
    )
    def test_unit_payload_equals_run_campaign(self, request_, strategy):
        units = WorkCoordinator()._decompose(
            "dc-1", request_, request_.fingerprint()
        )
        # _run_unit evaluates locally; the worker's client never connects.
        worker = CampaignWorker("http://127.0.0.1:9")
        for unit in units:
            payload = worker._run_unit(unit.unit_id, unit.request_payload)
            assert payload["strategy"] == strategy
            assert payload["front"]
            assert payload == run_campaign_unit_payload(unit.request_payload)


class TestWorkerFaultTolerance:
    def test_dead_worker_lease_expires_and_unit_requeues(self, fresh_registry):
        """A worker that leases a unit and dies must not wedge the run."""
        coordinator = WorkCoordinator(lease_ttl_s=0.5)
        server = serve(
            port=0,
            workers=1,
            cache=EvaluationCache(),
            coordinator=coordinator,
        )
        server.serve_in_background()
        client = CampaignClient(server.url)
        try:
            request = tiny_request(specs=(SpecRequest(4096, "INT4"),))
            job_id = client.submit(request)
            # "Worker" that leases the only unit and then disappears —
            # no heartbeat, no result.
            client.register_worker(worker_id="doomed")
            wait_for(
                lambda: client.lease_unit("doomed") is not None,
                timeout_s=10.0,
            )

            # A healthy worker shows up after the lease has expired and
            # completes the campaign.
            worker = CampaignWorker(server.url, poll_s=0.05, max_units=1)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            response = finished(client, job_id)
            worker.stop()
            thread.join(timeout=10)
            assert response.frontier

            # Two leases: the doomed one expired and requeued the unit,
            # and the healthy worker's lease completed it.
            requeued = fresh_registry.counter("repro_units_requeued_total")
            assert requeued.value == 1
            rows = {row["worker_id"]: row for row in client.workers()}
            doomed, healthy = rows["doomed"], rows[worker.worker_id]
            assert (doomed["leases"], doomed["units_done"]) == (1, 0)
            assert (healthy["leases"], healthy["units_done"]) == (1, 1)
        finally:
            server.shutdown()
            server.server_close()
            server.queue.close(wait=False)

    def test_campaign_fails_structured_when_attempts_run_out(self):
        coordinator = WorkCoordinator(lease_ttl_s=0.2, max_attempts=2)
        server = serve(
            port=0, workers=1, cache=EvaluationCache(),
            coordinator=coordinator,
        )
        server.serve_in_background()
        client = CampaignClient(server.url)
        try:
            request = tiny_request(specs=(SpecRequest(4096, "INT4"),))
            job_id = client.submit(request)
            client.register_worker(worker_id="doomed")
            # Burn through every attempt without ever reporting back.
            for _ in range(2):
                wait_for(
                    lambda: client.lease_unit("doomed") is not None,
                    timeout_s=10.0,
                )
            with pytest.raises(RuntimeError) as excinfo:
                finished(client, job_id)
            assert "failed after 2 attempts" in str(excinfo.value)
            assert "lease expired" in str(excinfo.value)
        finally:
            server.shutdown()
            server.server_close()
            server.queue.close(wait=False)


class TestClientRetry:
    def test_retries_connection_errors_with_backoff(self):
        sleeps = []
        # Nothing listens on this port: every attempt fails fast.
        client = CampaignClient(
            "http://127.0.0.1:9",
            timeout=0.2,
            retries=3,
            backoff_s=0.1,
            backoff_cap_s=0.25,
            _sleep=sleeps.append,
        )
        with pytest.raises(RuntimeError) as excinfo:
            client.health()
        assert "failed after 4 attempts" in str(excinfo.value)
        assert len(sleeps) == 3
        # Exponential with a cap, plus up to 25% jitter.
        assert 0.1 <= sleeps[0] <= 0.125
        assert 0.2 <= sleeps[1] <= 0.25
        assert 0.25 <= sleeps[2] <= 0.3125

    def test_http_errors_are_never_retried(self, distributed_setup):
        client, server, _, _ = distributed_setup
        sleeps = []
        retrying = CampaignClient(
            server.url, retries=5, _sleep=sleeps.append
        )
        with pytest.raises(RuntimeError):
            retrying.status("job-does-not-exist")
        assert sleeps == []  # the server answered; retrying can't help

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            CampaignClient("http://127.0.0.1:9", retries=-1)


@pytest.mark.distributed
class TestSubprocessRoundTrip:
    """Real ``repro serve --workers-remote`` + ``repro worker`` processes."""

    def test_two_worker_processes_match_in_process(self, tmp_path):
        import os
        import subprocess
        import sys

        from repro.service.campaign import execute_request

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        serve_proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--workers-remote", "--lease-ttl", "10",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        workers = []
        try:
            line = serve_proc.stdout.readline()
            assert "serving campaigns on" in line, line
            url = line.split()[3]
            for _ in range(2):
                workers.append(
                    subprocess.Popen(
                        [
                            sys.executable, "-m", "repro.cli", "worker",
                            "--url", url, "--poll", "0.05",
                            "--exit-idle", "30",
                        ],
                        stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL,
                        env=env,
                    )
                )
            client = CampaignClient(url, retries=4)
            wait_for(lambda: client.healthy(), timeout_s=30.0)
            # Submit only once both workers have registered: otherwise
            # one worker can finish both units before the other starts.
            wait_for(lambda: len(client.workers()) == 2, timeout_s=30.0)
            request = tiny_request()
            response = finished(client, client.submit(request))
            assert without_wall_time(response) == without_wall_time(
                execute_request(request)
            )
            # Both worker processes registered with the coordinator.
            assert len(client.workers()) == 2
        finally:
            for proc in workers:
                proc.terminate()
            serve_proc.terminate()
            for proc in [*workers, serve_proc]:
                proc.wait(timeout=30)
            serve_proc.stdout.close()


class TestDistributedFlags:
    """The serving side of ``--workers-remote`` carries no cache."""

    def test_serve_rejects_cache_with_remote_workers(self, tmp_path, capsys):
        from repro.cli import main

        cache = tmp_path / "evals.sqlite"
        assert main(["serve", "--port", "0", "--workers-remote",
                     "--cache", str(cache)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: --cache does not apply to --workers-remote: "
            "workers evaluate uncached\n"
        )
        assert captured.out == ""  # no server came up
        assert not cache.exists()

    def test_worker_cache_flag_is_gone(self, capsys):
        from repro.cli import main

        # Rejected while parsing: no coordinator is contacted.
        with pytest.raises(SystemExit) as exc:
            main(["worker", "--url", "http://127.0.0.1:9", "--cache", "none"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --cache none" in captured.err
        assert captured.out == ""
