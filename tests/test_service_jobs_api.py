"""Tests for the job queue and the typed request/response API."""

import math

import pytest

from repro.core.spec import DcimSpec
from repro.service.api import (
    CampaignRequest,
    CampaignResponse,
    FrontierPoint,
    SpecRequest,
)
from repro.service.cache import EvaluationCache
from repro.service.events import EventKind
from repro.service.jobs import JobQueue, JobStatus


def jobs_total(registry, status: str) -> float:
    """``repro_jobs_total{status=...}`` of a test's metrics registry."""
    return registry.counter("repro_jobs_total", labelnames=("status",)).labels(
        status
    ).value


def tiny_request(**overrides) -> CampaignRequest:
    payload = dict(
        specs=(SpecRequest(4096, "INT4"), SpecRequest(4096, "INT8")),
        population_size=16,
        generations=4,
        seed=1,
        exhaustive_threshold=0,  # force the GA: these tests watch generations
    )
    payload.update(overrides)
    return CampaignRequest(**payload)


class TestApiRoundTrips:
    def test_spec_request_round_trip(self):
        spec = DcimSpec(wstore=8192, precision="BF16", max_l=32)
        assert SpecRequest.from_spec(spec).to_spec() == spec

    def test_campaign_request_json_round_trip(self):
        request = tiny_request()
        assert CampaignRequest.from_json(request.to_json()) == request

    def test_campaign_request_accepts_raw_dicts(self):
        request = CampaignRequest(specs=({"wstore": 4096, "precision": "INT8"},))
        assert request.specs[0] == SpecRequest(4096, "INT8")

    def test_campaign_request_rejects_empty(self):
        with pytest.raises(ValueError):
            CampaignRequest(specs=())

    def test_fingerprint_is_content_addressed(self):
        assert tiny_request().fingerprint() == tiny_request().fingerprint()
        assert tiny_request().fingerprint() != tiny_request(seed=2).fingerprint()

    def test_frontier_point_round_trip(self):
        spec = DcimSpec(wstore=4096, precision="INT8")
        from repro.dse.problem import DcimProblem

        problem = DcimProblem(spec)
        point = problem.decode(problem.codec.enumerate()[0])
        frontier = FrontierPoint.from_design(point, (1.0, 2.0, 3.0, -4.0))
        rebuilt = frontier.to_design()
        assert (rebuilt.n, rebuilt.h, rebuilt.l, rebuilt.k) == (
            point.n, point.h, point.l, point.k
        )

    def test_campaign_response_json_round_trip(self):
        response = CampaignResponse(
            frontier=(
                FrontierPoint("INT8", 32, 16, 8, 4, (1.0, 2.0)),
                FrontierPoint("INT4", 64, 8, 8, 2, (0.5, 3.0)),
            ),
            evaluations=42,
            per_spec_evaluations=(20, 22),
            cache_stats={"hits": 10, "misses": 32},
            wall_time_s=1.25,
        )
        assert CampaignResponse.from_json(response.to_json()) == response


class TestJobQueue:
    def test_submit_run_result(self):
        queue = JobQueue(cache=EvaluationCache())
        job_id = queue.submit(tiny_request())
        assert queue.status(job_id) is JobStatus.PENDING
        executed = queue.run_all()
        assert [job.job_id for job in executed] == [job_id]
        assert queue.status(job_id) is JobStatus.DONE
        response = queue.result(job_id)
        assert response.frontier
        assert response.evaluations > 0

    def test_identical_requests_deduplicate(self, fresh_registry):
        queue = JobQueue(cache=EvaluationCache())
        first = queue.submit(tiny_request())
        second = queue.submit(tiny_request())
        assert first == second
        assert queue.pending_count() == 1
        assert queue.record(first).submissions == 2
        assert fresh_registry.counter("repro_jobs_deduplicated_total").value == 1

    def test_distinct_requests_queue_separately(self):
        queue = JobQueue(cache=EvaluationCache())
        first = queue.submit(tiny_request())
        second = queue.submit(tiny_request(seed=9))
        assert first != second
        assert queue.pending_count() == 2

    def test_done_job_absorbs_resubmission(self):
        queue = JobQueue(cache=EvaluationCache())
        job_id = queue.submit(tiny_request())
        queue.run_all()
        assert queue.submit(tiny_request()) == job_id
        assert queue.pending_count() == 0

    def test_failed_job_allows_retry(self):
        calls = {"n": 0}

        def flaky(request, observer=None, should_stop=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("backend exploded")
            from repro.service.campaign import execute_request

            return execute_request(request)

        queue = JobQueue(runner=flaky)
        job_id = queue.submit(tiny_request())
        queue.run_all()
        assert queue.status(job_id) is JobStatus.FAILED
        assert "backend exploded" in queue.record(job_id).error
        with pytest.raises(RuntimeError):
            queue.result(job_id)
        retry_id = queue.submit(tiny_request())
        assert retry_id != job_id
        queue.run_all()
        assert queue.status(retry_id) is JobStatus.DONE

    def test_run_next_idle_returns_none(self):
        assert JobQueue().run_next() is None

    def test_unknown_job_id(self):
        with pytest.raises(KeyError):
            JobQueue().status("job-404")

    def test_result_before_finish_raises(self):
        queue = JobQueue()
        job_id = queue.submit(tiny_request())
        with pytest.raises(RuntimeError):
            queue.result(job_id)

    def test_shared_cache_across_jobs(self):
        cache = EvaluationCache()
        queue = JobQueue(cache=cache)
        queue.submit(tiny_request())
        queue.run_all()
        misses_after_first = cache.stats.misses
        queue.submit(tiny_request(generations=5))  # overlapping genome space
        queue.run_all()
        assert cache.stats.hits > 0
        assert cache.stats.misses >= misses_after_first


class TestQueueStatsAndPurge:
    def test_queue_depth_tracks_pending(self, fresh_registry):
        queue = JobQueue(cache=EvaluationCache())
        gauge = fresh_registry.gauge("repro_queue_depth")

        def depth():
            assert gauge.value == queue.pending_count()
            return queue.pending_count()

        assert depth() == 0
        queue.submit(tiny_request())
        queue.submit(tiny_request(seed=9))
        assert depth() == 2
        queue.run_next()
        assert depth() == 1
        queue.run_all()
        assert depth() == 0
        assert jobs_total(fresh_registry, "done") == 2

    def test_cancelled_pending_job_leaves_the_depth(self, fresh_registry):
        queue = JobQueue(cache=EvaluationCache())
        first = queue.submit(tiny_request())
        queue.submit(tiny_request(seed=9))
        queue.cancel(first)
        assert queue.pending_count() == 1
        assert fresh_registry.gauge("repro_queue_depth").value == 1
        assert [job.status for job in queue.run_all()] == [JobStatus.DONE]
        assert queue.pending_count() == 0

    @pytest.mark.parametrize("ttl_s", [math.nan, math.inf, -1.0])
    def test_ttl_must_be_finite_and_not_negative(self, ttl_s):
        # A NaN tick would make an idle worker's wait return at once.
        with pytest.raises(ValueError, match="ttl_s"):
            JobQueue(ttl_s=ttl_s)

    def test_purge_drops_old_terminal_records(self, fresh_registry):
        queue = JobQueue(cache=EvaluationCache(), ttl_s=0.0)
        job_id = queue.submit(tiny_request())
        keep_id = queue.submit(tiny_request(seed=9))  # stays pending
        queue.run_next()
        assert queue.sweep_expired() == 1
        assert fresh_registry.counter("repro_jobs_purged_total").value == 1
        with pytest.raises(KeyError):
            queue.status(job_id)
        assert queue.status(keep_id) is JobStatus.PENDING
        # The fingerprint slot is free again: resubmitting requeues.
        assert queue.submit(tiny_request()) != job_id

    def test_ttl_purges_on_submit(self):
        queue = JobQueue(cache=EvaluationCache(), ttl_s=0.0)
        job_id = queue.submit(tiny_request())
        queue.run_all()
        # The next submit sweeps the aged-out record first, so the same
        # fingerprint gets a fresh job instead of the purged id.
        retry = queue.submit(tiny_request())
        assert retry != job_id
        with pytest.raises(KeyError):
            queue.status(job_id)


class TestCancellation:
    def test_cancel_pending_job(self, fresh_registry):
        queue = JobQueue(cache=EvaluationCache())
        job_id = queue.submit(tiny_request())
        assert queue.cancel(job_id) is JobStatus.CANCELLED
        assert queue.run_next() is None  # nothing runnable remains
        events, _, done = queue.events_since(job_id)
        assert done
        assert events[-1].kind is EventKind.CAMPAIGN_CANCELLED
        assert jobs_total(fresh_registry, "cancelled") == 1
        with pytest.raises(RuntimeError):
            queue.result(job_id)
        # Cancelled jobs do not absorb resubmissions.
        assert queue.submit(tiny_request()) != job_id

    def test_cancel_terminal_job_is_noop(self):
        queue = JobQueue(cache=EvaluationCache())
        job_id = queue.submit(tiny_request())
        queue.run_all()
        assert queue.cancel(job_id) is JobStatus.DONE

    def test_cancel_running_job_stops_between_generations(self):
        # A long campaign (200 generations) cancelled after its first
        # generation event must stop early: the cancelled job's stream
        # proves far fewer generations ran than were configured.
        queue = JobQueue(cache=EvaluationCache(), workers=1)
        job_id = queue.submit(
            tiny_request(specs=(SpecRequest(4096, "INT4"),), generations=200)
        )
        events, cursor, _ = queue.wait_events(job_id, 0, timeout=30.0)
        while not any(e.kind is EventKind.GENERATION_DONE for e in events):
            more, cursor, done = queue.wait_events(job_id, cursor, timeout=30.0)
            assert not done, "campaign finished before it could be cancelled"
            events.extend(more)
        queue.cancel(job_id)
        assert queue.wait(job_id, timeout=30.0) is JobStatus.CANCELLED
        stream, _, done = queue.events_since(job_id)
        assert done
        assert stream[-1].kind is EventKind.CAMPAIGN_CANCELLED
        generations_seen = sum(
            1 for e in stream if e.kind is EventKind.GENERATION_DONE
        )
        assert 1 <= generations_seen < 200
        queue.close()


class TestBackgroundWorkers:
    def test_workers_drain_submissions(self, fresh_registry):
        with JobQueue(cache=EvaluationCache(), workers=2) as queue:
            ids = [queue.submit(tiny_request(seed=s)) for s in range(4)]
            for job_id in ids:
                assert queue.wait(job_id, timeout=60.0) is JobStatus.DONE
                assert queue.result(job_id).frontier
            assert queue.workers == 2
            assert fresh_registry.gauge("repro_queue_workers").value == 2
            assert jobs_total(fresh_registry, "done") == 4

    def test_submit_after_close_raises(self):
        queue = JobQueue(cache=EvaluationCache(), workers=1)
        queue.close()
        with pytest.raises(RuntimeError):
            queue.submit(tiny_request())

    def test_wait_times_out(self):
        queue = JobQueue(cache=EvaluationCache())  # nothing drives it
        job_id = queue.submit(tiny_request())
        with pytest.raises(TimeoutError):
            queue.wait(job_id, timeout=0.05)

    def test_threaded_submits_deduplicate_while_running(self, fresh_registry):
        import threading as _threading

        started = _threading.Event()
        release = _threading.Event()

        def gated(request, observer=None, should_stop=None):
            started.set()
            assert release.wait(timeout=30.0)
            from repro.service.campaign import execute_request

            return execute_request(request, observer=observer,
                                    should_stop=should_stop)

        queue = JobQueue(runner=gated, workers=1)
        first = queue.submit(tiny_request())
        assert started.wait(timeout=30.0)  # job is RUNNING, not queued
        ids = []
        threads = [
            _threading.Thread(
                target=lambda: ids.append(queue.submit(tiny_request()))
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        release.set()
        assert set(ids) == {first}
        assert queue.record(first).submissions == 9
        assert fresh_registry.counter("repro_jobs_deduplicated_total").value == 8
        assert queue.wait(first, timeout=60.0) is JobStatus.DONE
        queue.close()

    def test_failed_job_resubmission_through_workers(self):
        calls = {"n": 0}

        def flaky(request, observer=None, should_stop=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("backend exploded")
            from repro.service.campaign import execute_request

            return execute_request(request, observer=observer,
                                    should_stop=should_stop)

        with JobQueue(runner=flaky, workers=1) as queue:
            job_id = queue.submit(tiny_request())
            assert queue.wait(job_id, timeout=60.0) is JobStatus.FAILED
            events, _, done = queue.events_since(job_id)
            assert done
            assert events[-1].kind is EventKind.CAMPAIGN_FAILED
            assert "backend exploded" in events[-1].message
            retry = queue.submit(tiny_request())
            assert retry != job_id
            assert queue.wait(retry, timeout=60.0) is JobStatus.DONE

    def test_event_cursor_reads_race_the_worker(self):
        # Stream a running job's events concurrently with the producing
        # worker: the cursor protocol must deliver every event exactly
        # once, in order, ending with the terminal event.
        with JobQueue(cache=EvaluationCache(), workers=1) as queue:
            job_id = queue.submit(
                tiny_request(specs=(SpecRequest(4096, "INT8"),),
                             generations=12)
            )
            seen = []
            cursor = 0
            while True:
                events, cursor, done = queue.wait_events(
                    job_id, cursor, timeout=30.0
                )
                seen.extend(events)
                if done:
                    break
            assert [e.seq for e in seen] == list(range(len(seen)))
            kinds = [e.kind for e in seen]
            assert kinds[0] is EventKind.SPEC_STARTED
            assert kinds[-1] is EventKind.CAMPAIGN_DONE
            assert kinds.count(EventKind.GENERATION_DONE) == 12
            assert queue.record(job_id).events.dropped == 0


class TestReviewRegressions:
    def test_cancel_requested_job_does_not_absorb_resubmission(self):
        # A running job with a pending cancel request is doomed; a
        # resubmission of the same fingerprint must queue fresh work
        # instead of being silently cancelled along with it.
        import threading as _threading

        started = _threading.Event()
        release = _threading.Event()

        def gated(request, observer=None, should_stop=None):
            started.set()
            assert release.wait(timeout=30.0)
            if should_stop():
                from repro.service.events import CampaignCancelled

                raise CampaignCancelled("stopped")
            from repro.service.campaign import execute_request

            return execute_request(request)

        queue = JobQueue(runner=gated, workers=1)
        first = queue.submit(tiny_request())
        assert started.wait(timeout=30.0)
        queue.cancel(first)  # running: flags cancel_requested
        retry = queue.submit(tiny_request())
        assert retry != first
        release.set()
        assert queue.wait(first, timeout=60.0) is JobStatus.CANCELLED
        assert queue.wait(retry, timeout=60.0) is JobStatus.DONE
        queue.close()

    def test_terminal_event_implies_result_is_ready(self):
        # The stream's done flag must never race the status/response
        # transition: once wait_events reports done, result() works.
        with JobQueue(cache=EvaluationCache(), workers=1) as queue:
            job_id = queue.submit(tiny_request())
            cursor = 0
            while True:
                _, cursor, done = queue.wait_events(job_id, cursor, timeout=30.0)
                if done:
                    break
            assert queue.status(job_id) is JobStatus.DONE
            assert queue.result(job_id).frontier
