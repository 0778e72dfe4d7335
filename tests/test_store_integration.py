"""Store integration with the serving stack: campaign command, queue, HTTP.

Covers the opt-in recorders (``repro campaign --store``, which records
what ``run_campaign`` returned, and ``JobQueue(store=...)``) and the
``/api/runs`` + ``/api/compare`` endpoints end to end.
"""

import io
import sqlite3
import sys

import pytest

from repro.cli import main
from repro.service import EvaluationCache, JobQueue, JobStatus
from repro.service.api import CampaignRequest, CampaignResponse, SpecRequest
from repro.service.events import EventKind
from repro.service.server import CampaignClient, serve
from repro.store import RunStore


def tiny_request(**overrides) -> CampaignRequest:
    payload = dict(
        specs=(SpecRequest(4096, "INT4"),),
        population_size=16,
        generations=4,
        seed=1,
        exhaustive_threshold=0,  # force the GA: cancellation needs generations
    )
    payload.update(overrides)
    return CampaignRequest(**payload)


@pytest.fixture
def store(tmp_path):
    with RunStore(tmp_path / "runs.sqlite") as s:
        yield s


#: ``repro campaign`` flags of a tiny forced-GA campaign.
TINY = ["--population", "16", "--generations", "4",
        "--exhaustive-threshold", "0"]


def fail_front_writes(path) -> None:
    """Make every front write of the registry at ``path`` fail, after
    its run row went in: a recorder must roll the row back."""
    RunStore(path).close()
    with sqlite3.connect(path) as conn:
        conn.execute(
            "CREATE TRIGGER no_fronts BEFORE INSERT ON fronts "
            "BEGIN SELECT RAISE(ABORT, 'disk full'); END"
        )
    conn.close()


class TestRunCampaignHook:
    """``repro campaign --store`` records what ``run_campaign`` returned,
    once it has returned; the engine itself takes no store."""

    def test_recorded_run_matches_result(self, tmp_path, capsys):
        path = tmp_path / "runs.sqlite"
        assert main([
            "campaign", "--spec", "4096:INT4", "--spec", "4096:INT8", *TINY,
            "--store", str(path), "--name", "nightly", "--json",
        ]) == 0
        response = CampaignResponse.from_json(capsys.readouterr().out)
        with RunStore(path) as store:
            (record,) = store.list_runs()
            assert record.name == "nightly"
            assert record.status == "done"
            assert record.specs == ("4096:INT4", "4096:INT8")
            assert record.evaluations == response.evaluations
            front = store.front(record.run_id)
        assert len(front) == len(response.frontier)
        assert [p.objectives for p in front] == [
            p.objectives for p in response.frontier
        ]

    def test_identical_campaigns_share_fingerprint_and_points(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        argv = ["campaign", "--spec", "4096:INT4", *TINY, "--store", str(path)]
        assert main(argv) == 0
        assert main(argv) == 0
        with RunStore(path) as store:
            record_b, record_a = store.list_runs()
            assert record_a.fingerprint == record_b.fingerprint
            # Twin fronts reuse the content-addressed design-point rows.
            assert store.point_count() == record_a.front_size

    def test_store_failure_warns_and_keeps_result(self, tmp_path, monkeypatch):
        path = tmp_path / "runs.sqlite"
        fail_front_writes(path)
        both = io.StringIO()  # stdout and stderr, in the order written
        monkeypatch.setattr(sys, "stdout", both)
        monkeypatch.setattr(sys, "stderr", both)
        assert main([
            "campaign", "--spec", "4096:INT4", *TINY, "--store", str(path),
            "--set-baseline", "main",
        ]) == 1
        lines = both.getvalue().splitlines()
        assert lines[0].startswith("Merged dcim frontier over 1 specs")
        assert lines[-1] == (
            f"error: campaign finished but recording into {path} failed: "
            "IntegrityError: disk full"
        )
        with RunStore(path) as store:
            assert len(store) == 0
            assert store.point_count() == 0
            assert store.baselines() == {}


class TestJobQueueRecording:
    def test_done_job_recorded_with_run_id(self, store, fresh_registry):
        queue = JobQueue(cache=EvaluationCache(), store=store)
        job_id = queue.submit(tiny_request())
        job = queue.run_next()
        assert job.status is JobStatus.DONE
        assert job.run_id is not None
        record = store.get_run(job.run_id)
        assert record.status == "done"
        assert record.fingerprint == job.request.fingerprint()
        assert record.front_size == len(queue.result(job_id).frontier)
        assert fresh_registry.counter("repro_jobs_recorded_total").value == 1
        assert fresh_registry.counter("repro_jobs_record_errors_total").value == 0

    def test_failed_job_recorded(self, store):
        queue = JobQueue(cache=EvaluationCache(), store=store)
        queue.submit(tiny_request(specs=(SpecRequest(4096, "NOPE"),)))
        job = queue.run_next()
        assert job.status is JobStatus.FAILED
        record = store.get_run(job.run_id)
        assert record.status == "failed"
        assert record.error == job.error

    def test_cancelled_job_recorded(self, store):
        with JobQueue(
            cache=EvaluationCache(), workers=1, store=store
        ) as queue:
            job_id = queue.submit(tiny_request(generations=200))
            for event in iter_events(queue, job_id):
                if event.kind is EventKind.GENERATION_DONE:
                    queue.cancel(job_id)
            assert queue.wait(job_id, timeout=60.0) is JobStatus.CANCELLED
            record = store.get_run(queue.record(job_id).run_id)
            assert record.status == "cancelled"

    def test_record_errors_counted_not_raised(self, tmp_path, fresh_registry):
        store = RunStore(tmp_path / "runs.sqlite")
        store.close()  # recording into a closed store must not kill jobs
        queue = JobQueue(cache=EvaluationCache(), store=store)
        job = queue.submit(tiny_request()) and queue.run_next()
        assert job.status is JobStatus.DONE
        assert job.run_id is None
        assert fresh_registry.counter("repro_jobs_record_errors_total").value == 1


def iter_events(queue, job_id, cursor=0):
    while True:
        events, cursor, done = queue.wait_events(job_id, cursor, 1.0)
        yield from events
        if done:
            return


class TestTTLSweep:
    def test_jobs_read_sweeps_expired(self, fresh_registry):
        queue = JobQueue(cache=EvaluationCache(), ttl_s=0.0)
        queue.submit(tiny_request())
        queue.run_all()
        # No submit happens; the jobs() read itself must sweep.
        assert queue.jobs() == []
        assert fresh_registry.counter("repro_jobs_purged_total").value == 1

    def test_sweep_expired_without_ttl_is_noop(self):
        queue = JobQueue(cache=EvaluationCache())
        queue.submit(tiny_request())
        queue.run_all()
        assert queue.sweep_expired() == 0
        assert len(queue.jobs()) == 1

    def test_idle_worker_sweeps_expired(self, fresh_registry):
        import time

        purged = fresh_registry.counter("repro_jobs_purged_total")
        with JobQueue(
            cache=EvaluationCache(), workers=1, ttl_s=0.2
        ) as queue:
            job_id = queue.submit(tiny_request())
            assert queue.wait(job_id, timeout=60.0) is JobStatus.DONE
            # Touch nothing: the idle worker's tick must purge the
            # terminal record on its own.
            deadline = time.monotonic() + 5.0
            while purged.value == 0 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert purged.value == 1


@pytest.fixture(scope="class")
def http_registry(tmp_path_factory):
    store = RunStore(tmp_path_factory.mktemp("registry") / "runs.sqlite")
    queue = JobQueue(cache=EvaluationCache(), workers=1, store=store)
    server = serve(port=0, queue=queue)
    server.serve_in_background()
    yield CampaignClient(server.url), store
    server.shutdown()
    server.server_close()
    queue.close()
    store.close()


class TestHTTPRegistry:
    def test_runs_endpoints_round_trip(self, http_registry):
        client, store = http_registry
        job_a = client.submit(tiny_request(seed=11))
        list(client.watch(job_a))
        job_b = client.submit(tiny_request(seed=12))
        list(client.watch(job_b))

        runs = client.runs()
        assert len(runs) == 2
        assert {r["status"] for r in runs} == {"done"}
        run_id = runs[0]["run_id"]
        assert client.run(run_id)["run_id"] == run_id
        # The job payload links to its recorded run.
        assert client.status(job_b)["run_id"] in {r["run_id"] for r in runs}

        front = client.run_front(run_id)
        assert front == store.front(run_id)

        comparison = client.compare(runs[1]["run_id"], runs[0]["run_id"])
        assert "hypervolume_a" in comparison
        assert "epsilon_ba" in comparison
        assert comparison["size_a"] == runs[1]["front_size"]

    def test_runs_filtering_and_errors(self, http_registry):
        client, _ = http_registry
        assert client.runs(limit=1) and len(client.runs(limit=1)) == 1
        assert client.runs(status="failed") == []
        with pytest.raises(RuntimeError, match="404"):
            client.run("run-nope")
        with pytest.raises(RuntimeError, match="400"):
            client.compare("", "")

    def test_runs_pagination_over_http(self, http_registry):
        client, store = http_registry
        everything = client.runs()
        assert len(everything) >= 2
        page_one = client.runs(limit=1)
        page_two = client.runs(limit=1, offset=1)
        assert page_one[0]["run_id"] == everything[0]["run_id"]
        assert page_two[0]["run_id"] == everything[1]["run_id"]
        # offset past the end is empty, not an error
        assert client.runs(limit=5, offset=len(everything)) == []
        # problem filter: this registry only holds dcim runs
        assert len(client.runs(problem="dcim")) == len(everything)
        assert client.runs(problem="mapping") == []
        with pytest.raises(RuntimeError, match="400"):
            client._call("GET", "/api/runs?offset=-1")
        with pytest.raises(RuntimeError, match="400"):
            client._call("GET", "/api/runs?limit=banana")

    def test_compare_unknown_run_404(self, http_registry):
        client, _ = http_registry
        with pytest.raises(RuntimeError, match="404"):
            client.compare("run-nope", "run-nope")


class TestHTTPWithoutStore:
    def test_runs_endpoint_404s(self):
        queue = JobQueue(cache=EvaluationCache(), workers=1)
        server = serve(port=0, queue=queue)
        server.serve_in_background()
        try:
            client = CampaignClient(server.url)
            with pytest.raises(RuntimeError, match="404"):
                client.runs()
        finally:
            server.shutdown()
            server.server_close()
            queue.close()
