"""A campaign's outcome has one owner.

``run_campaign`` (and a coordinator's ``execute``) reports progress and
returns a result or raises.  The job or command that holds the request
owns the outcome: ``JobQueue`` records it and appends the event stream's
one terminal event, and ``repro campaign --store`` records it after the
campaign returns.
"""

import threading

import pytest

from repro.cli import _campaign_request, build_parser, main
from repro.core.spec import DcimSpec
from repro.dse.nsga2 import NSGA2Config
from repro.service.api import CampaignRequest, CampaignResponse, SpecRequest
from repro.service.campaign import (
    CampaignConfig,
    _campaign_fingerprint,
    campaign_arguments,
    run_campaign,
)
from repro.service.distributed import WorkCoordinator
from repro.service.events import CampaignCancelled, EventKind
from repro.service.jobs import JobQueue, JobStatus
from repro.service.server import CampaignClient, serve
from repro.service.worker import CampaignWorker
from repro.store import RunStore


def tiny_request(**overrides) -> CampaignRequest:
    payload = dict(
        specs=(SpecRequest(4096, "INT4"), SpecRequest(4096, "INT8")),
        population_size=16,
        generations=4,
        seed=1,
        exhaustive_threshold=0,  # force the GA: these streams need generations
    )
    payload.update(overrides)
    return CampaignRequest(**payload)


def assert_ends_once(events, kind: EventKind) -> None:
    """The stream holds exactly one terminal event, of ``kind``, last."""
    assert [e.kind for e in events if e.terminal] == [kind]
    assert events[-1].kind is kind
    assert [e.seq for e in events] == list(range(len(events)))


class TestEngineReportsProgressOnly:
    @pytest.mark.parametrize("outcome", ["done", "cancelled", "failed"])
    def test_observer_sees_no_terminal_event(self, outcome):
        specs = [DcimSpec(wstore=4096, precision=p) for p in ("INT4", "INT8")]
        if outcome == "failed":
            # The genome codec rejects a Wstore that is no power of two,
            # after the first two specs have run.
            specs.append(DcimSpec(wstore=5000, precision="INT8"))
        events = []

        def should_stop() -> bool:
            generations = [e for e in events if e.kind is EventKind.GENERATION_DONE]
            return outcome == "cancelled" and len(generations) >= 2

        config = CampaignConfig(
            nsga2=NSGA2Config(population_size=16, generations=4),
            seed=3,
            exhaustive_threshold=0,
        )
        raised = {"done": None, "cancelled": CampaignCancelled, "failed": ValueError}
        if raised[outcome] is None:
            run_campaign(specs, config, observer=events.append,
                         should_stop=should_stop)
        else:
            with pytest.raises(raised[outcome]):
                run_campaign(specs, config, observer=events.append,
                             should_stop=should_stop)
        assert any(e.kind is EventKind.GENERATION_DONE for e in events)
        assert not any(e.terminal for e in events)


class TestJobStreamEndsOnce:
    def test_done_in_process(self):
        queue = JobQueue()
        job_id = queue.submit(tiny_request())
        queue.run_next()
        events, _, closed = queue.events_since(job_id)
        assert closed
        assert_ends_once(events, EventKind.CAMPAIGN_DONE)
        response = queue.result(job_id)
        assert events[-1].evaluations == response.evaluations
        assert events[-1].front_size == len(response.frontier)
        assert events[-1].wall_time_s == response.wall_time_s

    def test_failed_in_process(self):
        queue = JobQueue()
        job_id = queue.submit(tiny_request(specs=(SpecRequest(4096, "NOPE"),)))
        assert queue.run_next().status is JobStatus.FAILED
        events, _, _ = queue.events_since(job_id)
        assert_ends_once(events, EventKind.CAMPAIGN_FAILED)
        assert events[-1].message == queue.record(job_id).error

    def test_cancelled_while_pending(self):
        queue = JobQueue()
        job_id = queue.submit(tiny_request())
        assert queue.cancel(job_id) is JobStatus.CANCELLED
        assert queue.run_next() is None
        events, _, _ = queue.events_since(job_id)
        assert_ends_once(events, EventKind.CAMPAIGN_CANCELLED)

    def test_cancelled_while_running(self):
        with JobQueue(workers=1) as queue:
            job_id = queue.submit(tiny_request(generations=200))
            events, cursor, done = [], 0, False
            while not done:
                news, cursor, done = queue.wait_events(job_id, cursor, 1.0)
                events.extend(news)
                if any(e.kind is EventKind.GENERATION_DONE for e in news):
                    queue.cancel(job_id)
            assert queue.wait(job_id, timeout=60.0) is JobStatus.CANCELLED
        assert_ends_once(events, EventKind.CAMPAIGN_CANCELLED)

    def test_done_over_http(self):
        server = serve(port=0, workers=1)
        server.serve_in_background()
        client = CampaignClient(server.url)
        try:
            events = list(client.watch(client.submit(tiny_request()), poll_s=5.0))
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            server.queue.close()
        assert_ends_once(events, EventKind.CAMPAIGN_DONE)
        assert [e.kind for e in events].count(EventKind.SPEC_DONE) == 2

    def test_done_through_a_coordinator(self):
        server = serve(port=0, workers=1,
                       coordinator=WorkCoordinator(lease_ttl_s=5.0))
        server.serve_in_background()
        worker = CampaignWorker(server.url, poll_s=0.05)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        client = CampaignClient(server.url)
        try:
            job_id = client.submit(tiny_request())
            events = list(client.watch(job_id, poll_s=5.0))
            response = client.result(job_id)
        finally:
            client.close()
            worker.stop()
            thread.join(timeout=10)
            server.shutdown()
            server.server_close()
            server.queue.close(wait=False)
        assert_ends_once(events, EventKind.CAMPAIGN_DONE)
        kinds = [e.kind for e in events]
        assert kinds.count(EventKind.SPEC_STARTED) == 2
        assert kinds.count(EventKind.SPEC_DONE) == 2
        assert events[-1].evaluations == response.evaluations


class TestCampaignCommandRecording:
    """``repro campaign --store`` rows, recorded after the campaign."""

    @pytest.mark.parametrize(
        "flags, specs, problem, strategy, fingerprint",
        [
            (
                ["--spec", "4096:int8"],
                ("4096:INT8",),
                "dcim",
                "exhaustive",
                # test_api_v2's GOLDEN_DCIM_CONFIG_FINGERPRINT
                "447bf75d88ea068dbc2a3227eb914f1f0d1d51c4edbfb91e3597e7bb6723bb95",
            ),
            (
                ["--spec", "4096:INT4", "--spec", "8192:int8",
                 "--exhaustive-threshold", "0", "--population", "16",
                 "--generations", "6", "--seed", "3"],
                ("4096:INT4", "8192:INT8"),
                "dcim",
                "ga",
                "59870d1ba465fccbe2d655f9d8ce13a6556276e69d4d43a4e946db770d7cec11",
            ),
            (
                ["--problem", "mapping", "--spec", "tiny_cnn:INT8",
                 "--population", "12", "--generations", "3"],
                ("tiny_cnn:INT8:sequential",),
                "mapping",
                "ga",
                "575e79b8f4a1a29ca7085faa8bda3a1de8fa25b74eca9ebd8d54ea1364280b31",
            ),
        ],
        ids=["default-route", "forced-ga", "mapping"],
    )
    def test_row_keeps_the_outcome_and_gains_the_request(
        self, tmp_path, capsys, flags, specs, problem, strategy, fingerprint
    ):
        """Names, labels and fingerprints are the values the rows carried
        when ``run_campaign`` recorded them; the request is new."""
        path = tmp_path / "runs.sqlite"
        assert main(["campaign", *flags, "--json",
                     "--store", str(path), "--name", "nightly"]) == 0
        response = CampaignResponse.from_json(capsys.readouterr().out)
        request = _campaign_request(build_parser().parse_args(["submit", *flags]))
        with RunStore(path) as store:
            (record,) = store.list_runs()
            front = store.front(record.run_id)
            assert store.request_of(record.run_id) == request
        assert record.name == "nightly"
        assert record.status == "done"
        assert record.specs == specs
        assert record.problem == problem
        assert record.strategy == strategy
        assert record.evaluations == response.evaluations
        assert record.fingerprint == fingerprint
        assert record.fingerprint == _campaign_fingerprint(
            *campaign_arguments(request)
        )
        assert front == list(response.frontier)
