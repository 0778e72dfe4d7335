"""Tests for the span tracer: core mechanics, W3C propagation, the
service-layer trace (queue -> campaign -> executor -> cache), store
persistence, and the bit-parity guarantee (tracing never changes
results)."""

import json
import threading
import time

import pytest

from repro.obs.log import JsonLogger
from repro.obs.trace import (
    KNOWN_SOURCES,
    NULL_SPAN,
    NULL_TRACER,
    SpanContext,
    Tracer,
    chrome_trace,
    current_span,
    format_traceparent,
    get_tracer,
    normalize_source,
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
        assert tracer.record_span_series("a", [1.0], [time.time()]) == 0
        assert tracer.finished() == []

    def test_record_span_series_shared_and_per_span_attrs(self, tracer):
        now = time.time()
        with tracer.span("root", root_if_orphan=True) as root:
            n = tracer.record_span_series(
                "chunk",
                [0.01, 0.02, 0.03],
                [now, now, now],
                parent=root,
                category="executor",
                attributes={"backend": "serial"},
                per_span=("genomes", [32, 32, 7]),
            )
            assert n == 3
        record = only_trace(tracer)
        chunks = [s for s in record.spans if s.name == "chunk"]
        # Spans sort by start time (= shared end minus duration), so
        # compare by duration instead of presentation order.
        assert {
            c.duration_s: c.attributes["genomes"] for c in chunks
        } == {0.01: 32, 0.02: 32, 0.03: 7}
        assert all(c.attributes["backend"] == "serial" for c in chunks)
        assert all(c.category == "executor" for c in chunks)

    def test_lazy_assembly_yields_stable_ids(self, tracer):
        with tracer.span("root", root_if_orphan=True) as root:
            tracer.record_span_series(
                "chunk", [0.01], [time.time()], parent=root
            )
        first = tracer.finished()[0]
        second = tracer.get(first.trace_id)
        assert [s.span_id for s in first.spans] == [
            s.span_id for s in second.spans
        ]
        assert all(len(s.span_id) == 16 for s in first.spans)

    def test_bulk_respects_span_budget(self, tracer):
        tracer.max_spans_per_trace = 4
        with tracer.span("root", root_if_orphan=True) as root:
            now = time.time()
            recorded = tracer.record_span_series(
                "chunk", [0.01] * 10, [now] * 10, parent=root
            )
            assert recorded == 4  # truncated to the remaining room
        record = only_trace(tracer)
        # 6 series spans over budget, plus the root (which ends last,
        # after the series already filled the trace).
        assert len(record.spans) == 4
        assert record.spans[0].attributes["dropped_spans"] == 7

    def test_sink_sees_assembled_record(self, tracer):
        seen = []
        tracer.add_sink(seen.append)
        tracer.add_sink(lambda record: 1 / 0)  # broken sinks are swallowed
        with tracer.span("root", root_if_orphan=True) as root:
            tracer.record_span_series(
                "chunk", [0.01], [time.time()], parent=root
            )
        assert len(seen) == 1
        assert {s.name for s in seen[0].spans} == {"root", "chunk"}
        assert all(len(s.span_id) == 16 for s in seen[0].spans)
        # The ring holds the very record the sinks saw.
        assert tracer.finished()[0] is seen[0]


class TestNullTracer:
    def test_everything_is_noop(self):
        with NULL_TRACER.span("x") as span:
            assert span is NULL_SPAN
        assert NULL_TRACER.start_root("x") is NULL_SPAN
        assert NULL_TRACER.start_span("x", root_if_orphan=True) is NULL_SPAN
        assert NULL_TRACER.record_span("x", 1.0) is NULL_SPAN
        assert NULL_TRACER.record_span_series("x", [1.0], [0.0]) == 0
        NULL_TRACER.add_sink(lambda record: None)
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


class TestSourceVocabulary:
    def test_known_sources_pass_through(self):
        for source in KNOWN_SOURCES:
            assert normalize_source(source) == source

    def test_free_form_folds(self):
        assert normalize_source("Serve") == "serve"
        assert normalize_source("  CLI ") == "cli"
        assert normalize_source("") == "cli"


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


def make_span_rows(trace_id, run_id=None, start=1000.0):
    root_id, child_id = "a" * 16, "b" * 16
    attributes = {"run_id": run_id} if run_id else {}
    return [
        {
            "trace_id": trace_id, "span_id": root_id, "parent_id": None,
            "name": "campaign", "category": "campaign",
            "start_time": start, "duration_s": 2.0, "status": "ok",
            "error": None, "attributes": attributes, "thread": "main",
        },
        {
            "trace_id": trace_id, "span_id": child_id, "parent_id": root_id,
            "name": "executor.chunk", "category": "executor",
            "start_time": start + 0.5, "duration_s": 1.0, "status": "ok",
            "error": None, "attributes": {}, "thread": "main",
        },
    ]


class TestRunStoreTraces:
    def test_append_and_read_back(self, tmp_path):
        from repro.store import RunStore

        with RunStore(str(tmp_path / "runs.sqlite")) as store:
            rows = make_span_rows("1" * 32, run_id="run-x")
            assert store.append_trace_spans(rows, source="serve") == 2
            spans = store.trace_spans("1" * 32)
            assert [s["name"] for s in spans] == ["campaign", "executor.chunk"]
            assert all(s["run_id"] == "run-x" for s in spans)
            assert all(s["source"] == "serve" for s in spans)
            # Idempotent: re-appending the same trace changes nothing.
            assert store.append_trace_spans(rows, source="serve") == 2
            assert len(store.trace_spans("1" * 32)) == 2

    def test_trace_list_summaries_and_filters(self, tmp_path):
        from repro.store import RunStore

        with RunStore(str(tmp_path / "runs.sqlite")) as store:
            store.append_trace_spans(
                make_span_rows("1" * 32, run_id="run-x", start=1000.0),
                source="serve",
            )
            store.append_trace_spans(
                make_span_rows("2" * 32, start=2000.0), source="cli"
            )
            summaries = store.trace_list()
            assert [s["trace_id"] for s in summaries] == ["2" * 32, "1" * 32]
            newest = summaries[0]
            assert newest["name"] == "campaign"
            assert newest["span_count"] == 2
            assert newest["duration_s"] == pytest.approx(2.0)
            assert store.trace_list(run_id="run-x")[0]["trace_id"] == "1" * 32
            assert store.trace_list(source="cli")[0]["trace_id"] == "2" * 32
            assert store.trace_list(limit=1)[0]["trace_id"] == "2" * 32

    def test_prune_trace_spans(self, tmp_path):
        from repro.store import RunStore

        with RunStore(str(tmp_path / "runs.sqlite")) as store:
            old = make_span_rows("1" * 32, start=time.time() - 3600)
            fresh = make_span_rows("2" * 32, start=time.time())
            store.append_trace_spans(old, source="test")
            store.append_trace_spans(fresh, source="test")
            assert store.prune_trace_spans(60.0) == 2
            assert store.trace_spans("1" * 32) == []
            assert len(store.trace_spans("2" * 32)) == 2

    def test_runs_gc_keep_traces_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.store import RunStore

        path = str(tmp_path / "runs.sqlite")
        with RunStore(path) as store:
            store.append_trace_spans(
                make_span_rows("1" * 32, start=time.time() - 3600),
                source="test",
            )
        assert main(["runs", "gc", "--store", path, "--keep-traces", "60"]) == 0
        out = capsys.readouterr().out
        assert "trace" in out.lower()
        with RunStore(path) as store:
            assert store.trace_list() == []


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
            server.queue.close()
            thread.join(timeout=10)

    def test_response_echoes_traceparent(self, served):
        import urllib.request

        server, _ = served
        response = urllib.request.urlopen(f"{server.url}/api/problems")
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
            f"{server.url}/api/problems",
            headers={"traceparent": "not-a-traceparent"},
        )
        response = urllib.request.urlopen(request)
        context = parse_traceparent(response.headers.get("traceparent"))
        assert context is not None
        assert context.trace_id != "not-a-traceparent"

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

    def test_api_traces_store_fallback(self, tmp_path, tracer):
        from repro.service.server import CampaignClient, serve
        from repro.store import RunStore

        with RunStore(str(tmp_path / "runs.sqlite")) as store:
            store.append_trace_spans(
                make_span_rows("5" * 32, run_id="run-z"), source="serve"
            )
            server = serve("127.0.0.1", 0, workers=1,
                           cache=EvaluationCache(), store=store)
            thread = server.serve_in_background()
            try:
                client = CampaignClient(server.url)
                listed = client.traces()
                assert any(t["trace_id"] == "5" * 32 for t in listed)
                detail = client.trace("5" * 32)
                assert {s["name"] for s in detail["spans"]} == {
                    "campaign", "executor.chunk"
                }
            finally:
                server.shutdown()
                server.queue.close()
                thread.join(timeout=10)


class TestTraceCLI:
    @pytest.fixture
    def store_path(self, tmp_path):
        from repro.store import RunStore

        path = str(tmp_path / "runs.sqlite")
        with RunStore(path) as store:
            store.append_trace_spans(
                make_span_rows("6" * 32, run_id="run-q"), source="cli"
            )
        return path

    def test_trace_list(self, store_path, capsys):
        from repro.cli import main

        assert main(["trace", "list", "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "6" * 32 in out
        assert "run-q" in out

    def test_trace_list_json_filters_run(self, store_path, capsys):
        from repro.cli import main

        assert main(["trace", "list", "--store", store_path,
                     "--run", "run-q", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["traces"][0]["trace_id"] == "6" * 32
        assert main(["trace", "list", "--store", store_path,
                     "--run", "run-other", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["traces"] == []

    def test_trace_list_negative_limit_is_usage_error(self, store_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "list", "--store", store_path, "--limit", "-1"])
        assert excinfo.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err

    def test_trace_show_tree_and_json(self, store_path, capsys):
        from repro.cli import main

        assert main(["trace", "show", "6" * 32, "--store", store_path]) == 0
        tree = capsys.readouterr().out
        assert "campaign" in tree and "executor.chunk" in tree
        assert main(["trace", "show", "6" * 32, "--store", store_path,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["spans"]) == 2

    def test_trace_show_unknown_id(self, store_path, capsys):
        from repro.cli import main

        assert main(["trace", "show", "f" * 32, "--store", store_path]) == 1
        assert "unknown trace id" in capsys.readouterr().err

    def test_trace_export_perfetto(self, store_path, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "t.json")
        assert main(["trace", "export", "6" * 32, "--store", store_path,
                     "--out", out]) == 0
        with open(out) as fh:
            payload = json.load(fh)
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == 2

    def test_trace_missing_store(self, tmp_path, capsys):
        from repro.cli import main

        missing = str(tmp_path / "nope.sqlite")
        assert main(["trace", "list", "--store", missing]) == 1
        assert "no run registry" in capsys.readouterr().err
