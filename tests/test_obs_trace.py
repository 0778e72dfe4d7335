"""Tests for the span tracer: core mechanics, W3C propagation, the
service-layer trace (queue -> campaign -> executor -> cache), the ring
served at ``/api/traces`` and read by ``repro trace``, and the
bit-parity guarantee (tracing never changes results)."""

import json
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.obs.log import JsonLogger
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    SpanContext,
    Tracer,
    chrome_trace,
    current_span,
    format_traceparent,
    get_tracer,
    parse_traceparent,
    set_tracer,
    spans_to_dicts,
    trace_tree,
    use_span,
)
from repro.service.api import CampaignRequest, SpecRequest
from repro.service.cache import EvaluationCache
from repro.service.campaign import CampaignConfig, run_campaign
from repro.service.events import CampaignCancelled
from repro.service.executor import SerialExecutor
from repro.service.jobs import JobQueue
from repro.core.spec import DcimSpec
from repro.dse.nsga2 import NSGA2Config


@pytest.fixture
def tracer():
    """A fresh tracer installed as the process global."""
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def only_trace(tracer) -> list:
    records = tracer.finished()
    assert len(records) == 1, [r.name for r in records]
    return records[0]


class TestSpanBasics:
    def test_span_lifecycle_and_dict_shape(self, tracer):
        scope = tracer.span("root", attributes={"k": 1}, root_if_orphan=True)
        with scope as root:
            assert current_span() is root
            assert root.recording
            root.set_attribute("x", 2).set_attributes(y=3)
        assert current_span() is None
        assert not root.recording
        record = only_trace(tracer)
        row = record.spans[0].to_dict()
        assert row["name"] == "root"
        assert row["parent_id"] is None
        assert row["attributes"] == {"k": 1, "x": 2, "y": 3}
        assert row["status"] == "ok"
        assert len(row["trace_id"]) == 32 and len(row["span_id"]) == 16
        assert row["duration_s"] >= 0.0

    def test_end_is_idempotent(self, tracer):
        span = tracer.start_root("once")
        span.end()
        first = span.duration_s
        span.end(status="error")  # ignored: already sealed
        assert span.duration_s == first
        assert span.status == "ok"
        assert tracer.completed == 1

    def test_exception_marks_error_status(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("boom", root_if_orphan=True):
                raise ValueError("bad input")
        record = only_trace(tracer)
        assert record.status == "error"
        span = record.spans[0]
        assert span.status == "error"
        assert span.error == "ValueError: bad input"

    def test_nesting_parents_and_ambient(self, tracer):
        with tracer.span("outer", root_if_orphan=True) as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
                assert current_span() is inner
            assert current_span() is outer
        record = only_trace(tracer)
        assert {s.name for s in record.spans} == {"outer", "inner"}

    def test_orphan_child_is_null_unless_rooted(self, tracer):
        assert tracer.start_span("leaf") is NULL_SPAN
        span = tracer.start_span("entry", root_if_orphan=True)
        assert span is not NULL_SPAN
        span.end()
        assert only_trace(tracer).name == "entry"

    def test_null_span_absorbs_everything(self):
        assert NULL_SPAN.context is None
        assert not NULL_SPAN.recording
        assert NULL_SPAN.set_attribute("a", 1) is NULL_SPAN
        assert NULL_SPAN.to_dict() == {}
        with NULL_SPAN as span:
            assert span is NULL_SPAN
        NULL_SPAN.end()  # no-op


class TestTraceparent:
    def test_round_trip(self):
        context = SpanContext("0af7651916cd43dd8448eb211c80319c",
                              "b7ad6b7169203331")
        header = format_traceparent(context)
        assert header == ("00-0af7651916cd43dd8448eb211c80319c-"
                          "b7ad6b7169203331-01")
        assert parse_traceparent(header) == context

    def test_format_none_context(self):
        assert format_traceparent(None) is None

    def test_incoming_flags_validated_then_ignored(self, tracer):
        # Every trace is kept: a caller's "not sampled" flag still
        # parses, its trace is joined and kept, and the answer says 01.
        header = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00"
        remote = parse_traceparent(header)
        assert remote == SpanContext("0af7651916cd43dd8448eb211c80319c",
                                     "b7ad6b7169203331")
        span = tracer.start_root("server-side", parent_context=remote)
        assert format_traceparent(span.context).endswith("-01")
        span.end()
        assert tracer.get(remote.trace_id) is not None

    @pytest.mark.parametrize("header", [
        None,
        "",
        "garbage",
        "00-abc-def-01",                                           # short ids
        "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",  # bad ver
        "00-" + "0" * 32 + "-b7ad6b7169203331-01",                  # zero trace
        "00-0af7651916cd43dd8448eb211c80319c-" + "0" * 16 + "-01",  # zero span
        "00-0af7651916cd43dd8448eb211c80319z-b7ad6b7169203331-01",  # non-hex
        "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-zz",  # bad flags
    ])
    def test_malformed_headers_dropped(self, header):
        assert parse_traceparent(header) is None

    def test_uppercase_ids_folded(self):
        header = "00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01"
        context = parse_traceparent(header)
        assert context.trace_id == "0af7651916cd43dd8448eb211c80319c"

    def test_join_remote_parent(self, tracer):
        remote = SpanContext("0af7651916cd43dd8448eb211c80319c",
                             "b7ad6b7169203331")
        span = tracer.start_root("server-side", parent_context=remote)
        assert span.trace_id == remote.trace_id
        assert span.parent_id == remote.span_id
        span.end()
        record = tracer.get(remote.trace_id)
        assert record is not None
        assert record.name == "server-side"


class TestSamplingAndRetention:
    def test_ring_is_bounded(self):
        tracer = Tracer(max_traces=4)
        for i in range(10):
            tracer.start_root(f"t{i}").end()
        names = [r.name for r in tracer.finished()]
        assert names == ["t9", "t8", "t7", "t6"]  # newest first

    def test_span_budget_counts_drops(self):
        # Spans land in the trace when they *end*, so the root — which
        # ends last — competes for the final slot: with the budget
        # already full of children it is itself counted as dropped.
        tracer = Tracer(max_spans_per_trace=3)
        with tracer.span("root", root_if_orphan=True) as root:
            for i in range(5):
                tracer.record_span("child", 0.001, parent=root)
        record = only_trace(tracer)
        assert len(record.spans) == 3
        assert all(s.name == "child" for s in record.spans)
        # 2 children over budget + the root itself.
        assert record.spans[0].attributes["dropped_spans"] == 3

    def test_span_budget_keeps_root_when_it_fits(self):
        tracer = Tracer(max_spans_per_trace=3)
        with tracer.span("root", root_if_orphan=True) as root:
            tracer.record_span("child", 0.001, parent=root)
            tracer.record_span("child", 0.001, parent=root)
        record = only_trace(tracer)
        assert {s.name for s in record.spans} == {"root", "child"}
        root_span = next(s for s in record.spans if s.name == "root")
        assert "dropped_spans" not in root_span.attributes

    def test_max_active_evicts_oldest_as_incomplete(self):
        tracer = Tracer(max_active=2)
        first = tracer.start_root("first")
        tracer.record_span("done-work", 0.01, parent=first)
        tracer.start_root("second")
        tracer.start_root("third")  # evicts "first" (its finished spans)
        record = only_trace(tracer)
        assert record.spans[0].name == "done-work"
        assert record.spans[0].attributes.get("incomplete") is True
        first.end()  # late end lands as its own single-span record
        assert len(tracer.finished()) == 2

    def test_evicted_empty_trace_leaves_no_record(self):
        tracer = Tracer(max_active=1)
        tracer.start_root("first")  # never ends, no finished spans
        tracer.start_root("second")  # evicts "first", which is empty
        assert tracer.finished() == []


class TestRecordedSpans:
    def test_record_span_backdates_start(self, tracer):
        with tracer.span("root", root_if_orphan=True) as root:
            before = time.time()
            span = tracer.record_span(
                "work", 2.0, parent=root, category="executor"
            )
            assert span.start_time == pytest.approx(before - 2.0, abs=0.25)
            assert span.duration_s == 2.0
            assert not span.recording

    def test_record_span_clamps_negative_duration(self, tracer):
        with tracer.span("root", root_if_orphan=True) as root:
            span = tracer.record_span("work", -5.0, parent=root)
            assert span.duration_s == 0.0

    def test_record_without_trace_is_noop(self, tracer):
        assert tracer.record_span("work", 1.0) is NULL_SPAN
        assert tracer.finished() == []

    def test_lazy_assembly_yields_stable_ids(self, tracer):
        with tracer.span("root", root_if_orphan=True) as root:
            tracer.record_span("chunk", 0.01, parent=root)
        first = tracer.finished()[0]
        second = tracer.get(first.trace_id)
        assert [s.span_id for s in first.spans] == [
            s.span_id for s in second.spans
        ]
        assert all(len(s.span_id) == 16 for s in first.spans)

    def test_reads_race_span_ends_without_the_lock(self):
        """Readers assemble ring records while writer threads end spans:
        every record read holds all its spans, each with its own id, and
        a later read sees the same spans."""
        tracer = Tracer(max_traces=256)
        writers, traces, children = 4, 25, 20
        stop = threading.Event()
        bad = []

        def write():
            for _ in range(traces):
                with tracer.span("root", root_if_orphan=True) as root:
                    for _ in range(children):
                        tracer.record_span("child", 0.0, parent=root)

        def read():
            while not stop.is_set():
                for record in tracer.finished():
                    ids = [s.span_id for s in record.spans]
                    again = tracer.get(record.trace_id)
                    if (len(set(ids)) != children + 1
                            or [s.span_id for s in again.spans] != ids):
                        bad.append(record.trace_id)

        threads = [threading.Thread(target=write) for _ in range(writers)]
        readers = [threading.Thread(target=read) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers + threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stop.set()
            for thread in readers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers + threads)
        assert bad == []
        assert tracer.completed == writers * traces
        assert all(len(r.spans) == children + 1 for r in tracer.finished())


class TestNullTracer:
    def test_everything_is_noop(self):
        with NULL_TRACER.span("x") as span:
            assert span is NULL_SPAN
        assert NULL_TRACER.start_root("x") is NULL_SPAN
        assert NULL_TRACER.start_span("x", root_if_orphan=True) is NULL_SPAN
        assert NULL_TRACER.record_span("x", 1.0) is NULL_SPAN
        assert NULL_TRACER.finished() == []

    def test_set_tracer_swaps_global(self):
        previous = set_tracer(NULL_TRACER)
        try:
            assert get_tracer() is NULL_TRACER
        finally:
            set_tracer(previous)


class TestPropagationEdges:
    def test_fresh_thread_has_no_ambient_span(self, tracer):
        """contextvars do not cross threads: a worker sees no span."""
        seen = {}

        def worker():
            seen["ambient"] = current_span()
            seen["child"] = tracer.start_span("lost")

        with tracer.span("root", root_if_orphan=True):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["ambient"] is None
        assert seen["child"] is NULL_SPAN

    def test_use_span_carries_trace_into_thread(self, tracer):
        seen = {}

        def worker(root):
            with use_span(root):
                with tracer.span("threaded") as span:
                    seen["trace_id"] = span.trace_id
                    seen["parent_id"] = span.parent_id

        root = tracer.start_root("root")
        thread = threading.Thread(target=worker, args=(root,))
        thread.start()
        thread.join()
        root.end()
        assert seen["trace_id"] == root.trace_id
        assert seen["parent_id"] == root.span_id
        record = only_trace(tracer)
        assert {s.name for s in record.spans} == {"root", "threaded"}

    def test_cancelled_campaign_closes_trace_as_error(self, tracer):
        with pytest.raises(CampaignCancelled):
            run_campaign(
                [DcimSpec(wstore=4096, precision="INT4")],
                CampaignConfig(
                    nsga2=NSGA2Config(population_size=16, generations=50),
                    exhaustive_threshold=0,
                ),
                should_stop=lambda: True,
            )
        record = only_trace(tracer)
        assert record.name == "campaign"
        assert record.status == "error"
        campaign = next(s for s in record.spans if s.name == "campaign")
        assert campaign.status == "error"
        assert "cancelled" in (campaign.error or "")

    def test_failed_campaign_closes_trace_as_error(self, tracer):
        class BrokenExecutor(SerialExecutor):
            def evaluate_batch(self, problem, genomes):
                raise OSError("executor died")

        with pytest.raises(OSError):
            run_campaign(
                [DcimSpec(wstore=4096, precision="INT4")],
                CampaignConfig(
                    nsga2=NSGA2Config(population_size=16, generations=4),
                    exhaustive_threshold=0,
                ),
                executor=BrokenExecutor(),
            )
        record = only_trace(tracer)
        assert record.status == "error"
        assert tracer.active_count() == 0  # nothing left open


def tiny_request(**overrides) -> CampaignRequest:
    payload = dict(
        specs=(SpecRequest(4096, "INT4"),),
        population_size=16,
        generations=3,
        seed=1,
        exhaustive_threshold=0,
    )
    payload.update(overrides)
    return CampaignRequest(**payload)


class TestServiceTrace:
    def test_job_queue_trace_covers_wait_run_campaign(self, tracer):
        queue = JobQueue(cache=EvaluationCache(), workers=1)
        try:
            job_id = queue.submit(tiny_request())
            queue.wait(job_id, timeout=60.0)
        finally:
            queue.close()
        record = only_trace(tracer)
        names = {s.name for s in record.spans}
        assert {
            "job.queue_wait", "job.run", "campaign", "spec", "generation",
            "executor.chunk",
        } <= names
        by_name = {s.name: s for s in record.spans}
        wait, run = by_name["job.queue_wait"], by_name["job.run"]
        assert run.parent_id == wait.span_id
        assert by_name["campaign"].parent_id == run.span_id
        generations = [s for s in record.spans if s.name == "generation"]
        assert len(generations) == 3
        spec_span = by_name["spec"]
        assert all(g.parent_id == spec_span.span_id for g in generations)

    def test_cache_batches_traced_inside_campaign(self, tracer):
        result = run_campaign(
            [DcimSpec(wstore=4096, precision="INT4")],
            CampaignConfig(
                nsga2=NSGA2Config(population_size=16, generations=3),
                exhaustive_threshold=0,
            ),
            cache=EvaluationCache(),
        )
        assert result.evaluations > 0
        record = only_trace(tracer)
        names = {s.name for s in record.spans}
        assert {"cache.get_many", "cache.put_many"} <= names
        gets = [s for s in record.spans if s.name == "cache.get_many"]
        assert all(s.category == "cache" for s in gets)


class TestCampaignTraceShape:
    """The traced shape of a campaign, GA and enumerated: span counts
    per name, where the executor's spans hang and what they carry."""

    SPECS = [
        DcimSpec(wstore=4096, precision="INT4"),
        DcimSpec(wstore=8192, precision="INT8"),
    ]

    @pytest.mark.parametrize("overrides, counts, chunk_parent", [
        ({"exhaustive_threshold": 0},
         {"campaign": 1, "spec": 2, "generation": 6, "spec.finalize": 2,
          "executor.chunk": 8}, "generation"),
        ({}, {"campaign": 1, "spec": 2, "spec.exhaustive": 2,
              "executor.chunk": 2}, "spec.exhaustive"),
    ], ids=["ga", "enumerated"])
    def test_span_counts_parents_and_chunk_attributes(
        self, tracer, overrides, counts, chunk_parent
    ):
        result = run_campaign(self.SPECS, CampaignConfig(
            nsga2=NSGA2Config(population_size=16, generations=3),
            seed=5,
            **overrides,
        ))
        spans = only_trace(tracer).spans
        seen: dict[str, int] = {}
        for span in spans:
            seen[span.name] = seen.get(span.name, 0) + 1
        assert seen == counts
        parents = {s.span_id for s in spans if s.name == chunk_parent}
        chunks = [s for s in spans if s.name == "executor.chunk"]
        assert all(c.parent_id in parents for c in chunks)
        assert all(set(c.attributes) == {"backend", "genomes"} for c in chunks)
        assert sum(c.attributes["genomes"] for c in chunks) == (
            result.evaluations
        )


class TestBitParity:
    def test_results_identical_tracing_on_off_and_sampled_out(self):
        spec = DcimSpec(wstore=4096, precision="INT4")
        config = CampaignConfig(
            nsga2=NSGA2Config(population_size=16, generations=3),
            exhaustive_threshold=0,
        )

        def fingerprint():
            result = run_campaign([spec], config)
            return (
                result.evaluations,
                result.merged_objectives.tobytes(),
                tuple(
                    (p.precision, p.n, p.h, p.l, p.k)
                    for p in result.merged_points
                ),
            )

        previous = set_tracer(NULL_TRACER)
        try:
            baseline = fingerprint()
            set_tracer(Tracer())
            assert fingerprint() == baseline
            # Spans over the per-trace budget are counted, not kept.
            set_tracer(Tracer(max_traces=1, max_spans_per_trace=1))
            assert fingerprint() == baseline
        finally:
            set_tracer(previous)

    def test_request_fingerprint_blind_to_tracing(self):
        request = tiny_request()
        previous = set_tracer(Tracer())
        try:
            traced = request.fingerprint()
        finally:
            set_tracer(previous)
        assert traced == tiny_request().fingerprint()


class TestLogCorrelation:
    def test_log_lines_carry_trace_ids_under_span(self, tracer):
        import io

        stream = io.StringIO()
        log = JsonLogger("test", level="info", stream=stream)
        with tracer.span("root", root_if_orphan=True) as root:
            log.info("inside")
        log.info("outside")
        inside, outside = [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]
        assert inside["trace_id"] == root.trace_id
        assert inside["span_id"] == root.span_id
        assert "trace_id" not in outside


class TestExporters:
    def make_record(self, tracer):
        with tracer.span("root", root_if_orphan=True) as root:
            with tracer.span("child", attributes={"k": "v"}):
                pass
            tracer.record_span("late", 0.01, parent=root, status="error",
                               error="boom")
        return only_trace(tracer)

    def test_trace_tree_renders_hierarchy(self, tracer):
        record = self.make_record(tracer)
        tree = trace_tree(record.spans)
        lines = tree.splitlines()
        assert lines[0] == f"trace {record.trace_id}"
        assert any("root" in line for line in lines)
        child_line = next(line for line in lines if "child" in line)
        assert child_line.startswith(("│", " "))  # indented under root
        assert "{k=v}" in child_line
        error_line = next(line for line in lines if "late" in line)
        assert "[error]" in error_line and "boom" in error_line

    def test_trace_tree_handles_pruned_parent(self):
        rows = [{
            "trace_id": "t" * 32, "span_id": "a" * 16,
            "parent_id": "missing0missing0", "name": "stranded",
            "start_time": 0.0, "duration_s": 1.0, "status": "ok",
        }]
        tree = trace_tree(rows)
        assert "stranded" in tree  # renders as an extra root

    def test_trace_tree_empty(self):
        assert trace_tree([]) == "(empty trace)"

    def test_chrome_trace_shape(self, tracer):
        record = self.make_record(tracer)
        payload = chrome_trace(record.spans)
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(record.spans)
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in complete)
        late = next(e for e in complete if e["name"] == "late")
        assert late["args"]["status"] == "error"
        assert late["args"]["error"] == "boom"
        metadata = [e for e in events if e["ph"] == "M"]
        assert metadata, "expected thread_name metadata events"
        json.dumps(payload)  # must be JSON-serialisable as-is

    def test_spans_to_dicts_passthrough(self):
        rows = [{"name": "already-a-dict"}]
        assert spans_to_dicts(rows) == rows

    def test_summary_links_the_first_run_id(self, tracer):
        """A ring summary carries the ``run_id`` of the first span (in
        start order) that has one, and ``None`` when no span does."""
        with tracer.span("root", root_if_orphan=True) as root:
            with tracer.span("first", attributes={"run_id": "run-a"}):
                pass
            tracer.record_span(
                "second", 0.0, parent=root, attributes={"run_id": "run-b"}
            )
        summary = only_trace(tracer).to_dict(include_spans=False)
        assert summary["run_id"] == "run-a"
        assert summary["span_count"] == 3
        assert "spans" not in summary
        unlinked = Tracer()
        with unlinked.span("root", root_if_orphan=True):
            pass
        assert unlinked.finished()[0].to_dict()["run_id"] is None


class TestServerTracing:
    @pytest.fixture
    def served(self, tracer):
        from repro.service.server import CampaignClient, serve

        server = serve("127.0.0.1", 0, workers=1, cache=EvaluationCache())
        thread = server.serve_in_background()
        try:
            yield server, CampaignClient(server.url)
        finally:
            server.shutdown()
            server.server_close()
            server.queue.close()
            thread.join(timeout=10)

    def test_response_echoes_traceparent(self, served):
        import urllib.request

        server, _ = served
        request = urllib.request.Request(
            f"{server.url}/api/campaigns",
            data=tiny_request().to_json().encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = urllib.request.urlopen(request)
        header = response.headers.get("traceparent")
        context = parse_traceparent(header)
        assert context is not None
        assert len(context.trace_id) == 32

    def test_incoming_traceparent_joins_trace(self, served, tracer):
        import urllib.request

        server, _ = served
        remote = SpanContext("3" * 32, "4" * 16)
        request = urllib.request.Request(
            f"{server.url}/api/problems",
            headers={"traceparent": format_traceparent(remote)},
        )
        response = urllib.request.urlopen(request)
        context = parse_traceparent(response.headers.get("traceparent"))
        assert context.trace_id == remote.trace_id
        # The span ends after the response is written: poll briefly.
        deadline = time.time() + 5
        record = tracer.get(remote.trace_id)
        while record is None and time.time() < deadline:
            time.sleep(0.02)
            record = tracer.get(remote.trace_id)
        assert record is not None
        http_span = next(
            s for s in record.spans if s.name == "http.request"
        )
        assert http_span.parent_id == remote.span_id

    def test_malformed_traceparent_starts_fresh_trace(self, served):
        import urllib.request

        server, _ = served
        request = urllib.request.Request(
            f"{server.url}/api/campaigns",
            data=tiny_request().to_json().encode("utf-8"),
            headers={
                "Content-Type": "application/json",
                "traceparent": "not-a-traceparent",
            },
        )
        response = urllib.request.urlopen(request)
        context = parse_traceparent(response.headers.get("traceparent"))
        assert context is not None
        assert context.trace_id != "not-a-traceparent"

    def test_trace_list_assembles_only_what_it_returns(self, served, tracer):
        """``/api/traces?limit=N`` orders the ring by trace start and
        assembles only the N traces it returns; its payload equals
        assembling everything, sorting by start and slicing, ties (equal
        starts keep the newest-completed first) included."""
        _, client = served
        for i in range(6):
            root = tracer.start_root(f"t{i}")
            tracer.record_span("child", 0.001, parent=root)
            root.start_time = 1000.0 + i // 2  # three pairs of equal starts
            root.end()
        (summary,) = client.traces(limit=1)
        assembled = [
            state.record.trace_id
            for _, state, _ in tracer._finished
            if state.record is not None
        ]
        assert assembled == [summary["trace_id"]]
        records = tracer.finished()
        records.sort(key=lambda r: r.start_time, reverse=True)
        assert [r.name for r in records] == ["t5", "t4", "t3", "t2", "t1", "t0"]
        for limit in (0, 1, 2, 3, 6, 10):
            assert client.traces(limit=limit) == [
                r.to_dict(include_spans=False) for r in records[:limit]
            ]

    def test_watched_campaign_leaves_one_trace(self, served, tracer):
        """GET polls without a ``traceparent`` start no trace: a campaign
        submitted, watched and then read leaves the one trace its
        submit rooted, and the polls' answers carry no header."""
        import urllib.request

        server, client = served
        job_id = client.submit(tiny_request())
        events = list(client.watch(job_id, poll_s=0.1))
        assert events[-1].kind.value == "campaign_done"
        assert client.status(job_id)["status"] == "done"
        assert client.result(job_id).frontier
        with urllib.request.urlopen(
            f"{server.url}/api/campaigns/{job_id}"
        ) as response:
            assert response.headers.get("traceparent") is None
        # The job's trace completes moments after its result lands.
        deadline = time.time() + 10
        while time.time() < deadline and not tracer.finished():
            time.sleep(0.02)
        records = tracer.finished()
        assert len(records) == 1, [
            (r.name, len(r.spans)) for r in records
        ]
        (record,) = records
        roots = [s for s in record.spans if s.parent_id is None]
        assert [s.name for s in roots] == ["http.request"]
        assert roots[0].attributes["route"] == "/api/campaigns"
        assert {"job.run", "campaign", "generation"} <= {
            s.name for s in record.spans
        }

    def test_http_campaign_trace_covers_all_layers(self, served, tracer):
        server, client = served
        job_id = client.submit(tiny_request())
        deadline = time.time() + 60
        status = None
        while time.time() < deadline:
            status = client.status(job_id)
            if status.get("status") in ("done", "failed", "cancelled"):
                break
            time.sleep(0.1)
        assert status and status.get("status") == "done", status
        # The trace completes moments after the result lands.
        deadline = time.time() + 10
        full = None
        while time.time() < deadline and full is None:
            for summary in client.traces():
                detail = client.trace(summary["trace_id"])
                names = {s["name"] for s in detail["spans"]}
                if "campaign" in names and "http.request" in names:
                    full = detail
                    break
            else:
                time.sleep(0.1)
        assert full is not None
        names = {s["name"] for s in full["spans"]}
        assert {
            "http.request", "job.queue_wait", "job.run", "campaign",
            "spec", "generation", "executor.chunk",
        } <= names
        ids = {s["span_id"] for s in full["spans"]}
        orphans = [
            s["name"] for s in full["spans"]
            if s["parent_id"] and s["parent_id"] not in ids
        ]
        assert orphans == []
        # The span tree renders without error.
        tree = trace_tree(full["spans"])
        assert "http.request" in tree and "generation" in tree

    def test_tracer_installed_after_serve_holds_the_whole_request(self):
        """The handler reads the process tracer per request, so a tracer
        installed after ``serve()`` returned still gets one trace for
        the whole HTTP campaign, from request to executor chunks."""
        from repro.service.server import CampaignClient, serve

        server = serve("127.0.0.1", 0, workers=1)
        tracer = Tracer()
        previous = set_tracer(tracer)
        thread = server.serve_in_background()
        client = CampaignClient(server.url)
        try:
            job_id = client.submit(tiny_request())
            events = list(client.watch(job_id, poll_s=1.0))
            assert events[-1].kind.value == "campaign_done"
            # The trace completes moments after the job finishes.
            deadline = time.time() + 10
            records = []
            while time.time() < deadline and not records:
                records = [
                    r for r in tracer.finished()
                    if "campaign" in {s.name for s in r.spans}
                ]
                if not records:
                    time.sleep(0.02)
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            server.queue.close()
            thread.join(timeout=10)
            set_tracer(previous)
        assert len(records) == 1
        (record,) = records
        names = {s.name for s in record.spans}
        assert {
            "http.request", "job.queue_wait", "job.run", "campaign",
            "spec", "generation", "executor.chunk",
        } <= names
        assert {s.trace_id for s in record.spans} == {record.trace_id}
        submit = next(
            s for s in record.spans
            if s.name == "http.request" and s.parent_id is None
        )
        assert submit.attributes["route"] == "/api/campaigns"


@contextmanager
def served_campaigns(path, requests):
    """Serve ``requests`` one after another from a server with a run
    registry at ``path``: yields its URL and, per campaign in order,
    ``(trace_id, run_id, span_count)``."""
    from repro.service.server import CampaignClient, serve
    from repro.store import RunStore

    tracer = Tracer()
    previous = set_tracer(tracer)
    store = RunStore(path)
    server = serve("127.0.0.1", 0, workers=1, store=store)
    thread = server.serve_in_background()
    client = CampaignClient(server.url)
    try:
        campaigns = []
        for request in requests:
            job_id = client.submit(request)
            events = list(client.watch(job_id, poll_s=0.1))
            assert events[-1].kind.value == "campaign_done"
            # The trace completes moments after the result lands.
            deadline = time.time() + 10
            while (time.time() < deadline
                   and len(tracer.finished()) == len(campaigns)):
                time.sleep(0.02)
            record = tracer.finished()[0]
            campaigns.append((
                record.trace_id,
                client.status(job_id)["run_id"],
                len(record.spans),
            ))
        assert len(tracer.finished()) == len(campaigns)
        yield server.url, campaigns
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        server.queue.close()
        thread.join(timeout=10)
        store.close()
        set_tracer(previous)


class TestTraceCLI:
    """``repro trace`` reads a live server's ring over ``--url``."""

    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        """A server with a run registry that has served one campaign:
        yields its URL and the campaign's trace id, run id and span
        count."""
        path = tmp_path_factory.mktemp("trace_cli") / "runs.sqlite"
        with served_campaigns(path, [tiny_request()]) as (url, campaigns):
            yield (url, *campaigns[0])

    def test_trace_list(self, served, capsys):
        from repro.cli import main

        url, trace_id, run_id, _ = served
        assert main(["trace", "list", "--url", url]) == 0
        out = capsys.readouterr().out
        assert trace_id in out
        assert run_id in out
        assert "1 traces shown" in out

    def test_trace_list_json_filters_run(self, served, capsys):
        """``--run`` finds the ring trace of a recorded campaign."""
        from repro.cli import main

        url, trace_id, run_id, n_spans = served
        assert main(["trace", "list", "--url", url,
                     "--run", run_id, "--json"]) == 0
        traces = json.loads(capsys.readouterr().out)["traces"]
        assert [t["trace_id"] for t in traces] == [trace_id]
        assert traces[0]["run_id"] == run_id
        assert traces[0]["span_count"] == n_spans
        assert main(["trace", "list", "--url", url,
                     "--run", "run-other", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["traces"] == []

    def test_trace_list_run_searches_the_whole_ring(self, tmp_path, capsys):
        """``--run`` filters before ``--limit`` cuts: the older of two
        served campaigns is found with ``--limit 1``."""
        from repro.cli import main

        requests = [tiny_request(seed=1), tiny_request(seed=2)]
        with served_campaigns(tmp_path / "runs.sqlite", requests) as (
            url, campaigns,
        ):
            first_trace, first_run, _ = campaigns[0]
            assert main(["trace", "list", "--url", url, "--run", first_run,
                         "--limit", "1", "--json"]) == 0
        traces = json.loads(capsys.readouterr().out)["traces"]
        assert [t["trace_id"] for t in traces] == [first_trace]

    def test_trace_list_negative_limit_is_usage_error(self, served, capsys):
        from repro.cli import main

        url = served[0]
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "list", "--url", url, "--limit", "-1"])
        assert excinfo.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err

    def test_trace_show_tree_and_json(self, served, capsys):
        from repro.cli import main

        url, trace_id, _, n_spans = served
        assert main(["trace", "show", trace_id, "--url", url]) == 0
        tree = capsys.readouterr().out
        assert "http.request" in tree and "campaign" in tree
        assert main(["trace", "show", trace_id, "--url", url,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace_id"] == trace_id
        assert len(payload["spans"]) == n_spans

    def test_trace_show_unknown_id(self, served, capsys):
        from repro.cli import main

        url = served[0]
        assert main(["trace", "show", "f" * 32, "--url", url]) == 1
        assert "unknown trace id" in capsys.readouterr().err

    def test_trace_export_perfetto(self, served, tmp_path, capsys):
        from repro.cli import main

        url, trace_id, _, n_spans = served
        out = str(tmp_path / "t.json")
        assert main(["trace", "export", trace_id, "--url", url,
                     "--out", out]) == 0
        with open(out) as fh:
            payload = json.load(fh)
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == n_spans
