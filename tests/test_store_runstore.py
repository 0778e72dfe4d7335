"""Tests for the persistent run registry (repro.store.runstore)."""

import hashlib
import json
import os
import signal
import sqlite3
import subprocess
import sys
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service.api import (
    CampaignRequest,
    CampaignResponse,
    FrontierPoint,
    SpecRequest,
)
from repro.store import RunRecord, RunStore, point_hash


def fp(n=32, objectives=(1.0, 2.0), precision="INT8", extras=None):
    return FrontierPoint(
        precision=precision, n=n, h=128, l=4, k=8, objectives=objectives,
        extras=extras or {},
    )


def response(*points, **overrides):
    payload = dict(
        frontier=tuple(points) or (fp(),),
        evaluations=40,
        fresh_evaluations=10,
        wall_time_s=0.5,
        cache_stats={"hits": 30, "misses": 10},
    )
    payload.update(overrides)
    return CampaignResponse(**payload)


#: Records one run, prints its id, then kills its own process.
_KILLED_RECORDER = """
import os, signal, sys
from repro.service.api import CampaignResponse, FrontierPoint
from repro.store import RunStore

def fp(n, objectives):
    return FrontierPoint(precision="INT8", n=n, h=128, l=4, k=8, objectives=objectives)

store = RunStore(sys.argv[1])
record = store.record_response(
    CampaignResponse(frontier=(fp(32, (1.0, 2.0)), fp(64, (2.0, 1.0))), evaluations=40),
    specs=["4096:INT8"],
)
print(record.run_id, flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


@pytest.fixture
def store(tmp_path):
    with RunStore(tmp_path / "runs.sqlite") as s:
        yield s


class TestRecording:
    def test_record_response_round_trip(self, store):
        record = store.record_response(
            response(fp(32), fp(64, (2.0, 1.0))),
            specs=["4096:INT8"],
            name="nightly",
        )
        assert record.run_id.startswith("run-")
        assert record.status == "done"
        assert record.front_size == 2
        assert record.cache_stats == {"hits": 30, "misses": 10}
        fetched = store.get_run(record.run_id)
        assert fetched == record
        front = store.front(record.run_id)
        assert front == [fp(32), fp(64, (2.0, 1.0))]

    def test_record_with_request_derives_specs_and_fingerprint(self, store):
        request = CampaignRequest(specs=(SpecRequest(4096, "INT8"),), seed=3)
        record = store.record_response(response(), request)
        assert record.specs == ("4096:INT8",)
        assert record.fingerprint == request.fingerprint()
        assert store.request_of(record.run_id) == request

    def test_request_of_none_for_programmatic_runs(self, store):
        record = store.record_response(response(), specs=["s"])
        assert store.request_of(record.run_id) is None

    def test_record_failure(self, store):
        record = store.record_failure(
            "cancelled", "stopped after 1/2 specs", specs=["4096:INT8"]
        )
        assert record.status == "cancelled"
        assert record.error == "stopped after 1/2 specs"
        assert store.front(record.run_id) == []

    def test_record_failure_rejects_done(self, store):
        with pytest.raises(ValueError):
            store.record_failure("done", "not a failure")

    def test_points_are_content_addressed(self, store):
        shared = (fp(32), fp(64, (2.0, 1.0)))
        store.record_response(response(*shared))
        store.record_response(response(*shared, fp(96, (1.5, 1.5))))
        assert len(store) == 2
        # The two identical points are stored once.
        assert store.point_count() == 3

    def test_run_record_dict_round_trip(self, store):
        record = store.record_response(response(), specs=["a", "b"])
        assert RunRecord.from_dict(record.to_dict()) == record

    def test_point_hash_tracks_objectives(self):
        assert point_hash(fp(32, (1.0, 2.0))) != point_hash(fp(32, (1.0, 2.1)))
        assert point_hash(fp(32)) == point_hash(fp(32))


class TestLookup:
    def test_list_runs_newest_first(self, store):
        first = store.record_response(response())
        second = store.record_response(response())
        assert [r.run_id for r in store.list_runs()] == [
            second.run_id, first.run_id,
        ]
        assert [r.run_id for r in store.list_runs(limit=1)] == [second.run_id]

    def test_list_runs_status_filter(self, store):
        done = store.record_response(response())
        store.record_failure("failed", "boom")
        failed_only = store.list_runs(status="failed")
        assert len(failed_only) == 1 and failed_only[0].status == "failed"
        assert [r.run_id for r in store.list_runs(status="done")] == [
            done.run_id
        ]

    def test_get_unknown_run_raises(self, store):
        with pytest.raises(KeyError):
            store.get_run("run-nope")
        with pytest.raises(KeyError):
            store.front("run-nope")

    def test_resolve_by_id_baseline_and_name(self, store):
        old = store.record_response(response(), name="nightly")
        new = store.record_response(response(), name="nightly")
        store.set_baseline("main", old.run_id)
        assert store.resolve(old.run_id) == old
        assert store.resolve("main") == old
        # Run names resolve to the newest run wearing them.
        assert store.resolve("nightly") == new
        with pytest.raises(KeyError):
            store.resolve("missing")


class TestBaselines:
    def test_set_get_overwrite(self, store):
        a = store.record_response(response())
        b = store.record_response(response())
        store.set_baseline("main", a.run_id)
        assert store.get_baseline("main") == a
        store.set_baseline("main", b.run_id)
        assert store.get_baseline("main") == b
        assert store.baselines() == {"main": b.run_id}

    def test_baseline_requires_existing_run(self, store):
        with pytest.raises(KeyError):
            store.set_baseline("main", "run-nope")

    def test_unknown_baseline_raises(self, store):
        with pytest.raises(KeyError):
            store.get_baseline("main")


class TestMaintenance:
    def test_delete_run_drops_front_and_baseline(self, store):
        record = store.record_response(response())
        store.set_baseline("main", record.run_id)
        store.delete_run(record.run_id)
        assert len(store) == 0
        assert store.point_count() == 0
        assert store.baselines() == {}

    def test_gc_keeps_pinned_and_newest(self, store):
        pinned = store.record_response(response(fp(1, (9.0, 9.0))))
        store.record_response(response(fp(2, (8.0, 8.0))))
        newest = store.record_response(response(fp(3, (7.0, 7.0))))
        store.set_baseline("main", pinned.run_id)
        assert store.gc(keep_last=1) == 1
        kept = {r.run_id for r in store.list_runs()}
        assert kept == {pinned.run_id, newest.run_id}
        # Orphaned design points went with the deleted run.
        assert store.point_count() == 2

    def test_gc_older_than_spares_young_runs(self, store):
        store.record_response(response())
        assert store.gc(keep_last=0, older_than_s=3600) == 0
        assert store.gc(keep_last=0) == 1

    def test_gc_requires_a_criterion(self, store):
        with pytest.raises(ValueError):
            store.gc()

    @pytest.mark.parametrize(
        "criterion", [{"keep_last": -1}, {"older_than_s": -5.0}]
    )
    def test_gc_rejects_negative_values(self, store, criterion):
        store.record_response(response())
        with pytest.raises(ValueError, match="must be >= 0"):
            store.gc(**criterion)
        assert len(store) == 1


class TestPersistence:
    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        with RunStore(path) as store:
            record = store.record_response(
                response(fp(32), fp(64, (2.0, 1.0))), specs=["4096:INT8"]
            )
            store.set_baseline("main", record.run_id)
        with RunStore(path) as store:
            assert len(store) == 1
            assert store.get_baseline("main").run_id == record.run_id
            assert store.front(record.run_id) == [fp(32), fp(64, (2.0, 1.0))]

    def test_runs_without_fsync_per_commit(self, store):
        (mode,) = store._conn.execute("PRAGMA synchronous").fetchone()
        assert mode == 1  # NORMAL

    def test_recorded_run_survives_sigkill(self, tmp_path):
        """A run whose ``record_response`` returned is committed: the
        recording process dying by SIGKILL right after loses nothing."""
        path = tmp_path / "runs.sqlite"
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", _KILLED_RECORDER, str(path)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        run_id = proc.stdout.strip()
        with RunStore(path) as store:
            assert [record.run_id for record in store.list_runs()] == [run_id]
            assert store.get_run(run_id).specs == ("4096:INT8",)
            assert store.front(run_id) == [fp(32), fp(64, (2.0, 1.0))]

    def test_memory_store(self):
        with RunStore(":memory:") as store:
            store.record_response(response())
            assert len(store) == 1

    def test_migrates_pre_v2_schema_in_place(self, tmp_path):
        """A database created before the problem/extras columns opens
        cleanly and records both old and new rows."""
        import sqlite3

        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(
            """
            CREATE TABLE runs (
                run_id TEXT PRIMARY KEY, name TEXT,
                fingerprint TEXT NOT NULL, status TEXT NOT NULL,
                created_at REAL NOT NULL,
                wall_time_s REAL NOT NULL DEFAULT 0.0,
                evaluations INTEGER NOT NULL DEFAULT 0,
                fresh_evaluations INTEGER NOT NULL DEFAULT 0,
                engine_backend TEXT, specs TEXT NOT NULL, request TEXT,
                cache_stats TEXT, error TEXT
            );
            CREATE TABLE design_points (
                point_hash TEXT PRIMARY KEY, precision TEXT NOT NULL,
                n INTEGER NOT NULL, h INTEGER NOT NULL,
                l INTEGER NOT NULL, k INTEGER NOT NULL,
                objectives TEXT NOT NULL
            );
            CREATE TABLE fronts (
                run_id TEXT NOT NULL, position INTEGER NOT NULL,
                point_hash TEXT NOT NULL, PRIMARY KEY (run_id, position)
            );
            CREATE TABLE baselines (
                name TEXT PRIMARY KEY, run_id TEXT NOT NULL,
                updated_at REAL NOT NULL
            );
            INSERT INTO runs VALUES ('run-old', NULL, 'fp', 'done', 1.0,
                                     0.1, 5, 5, 'numpy', '["4096:INT8"]',
                                     NULL, NULL, NULL);
            """
        )
        conn.commit()
        conn.close()
        with RunStore(path) as store:
            old = store.get_run("run-old")
            assert old.problem == "dcim"
            record = store.record_response(
                response(fp(32, extras={"n_macros": 2})), problem="mapping"
            )
            assert store.get_run(record.run_id).problem == "mapping"
            assert store.front(record.run_id)[0].extras == {"n_macros": 2}


class TestPagination:
    def test_offset_paginates_newest_first(self, store):
        for i in range(5):
            store.record_response(response(), name=f"run{i}")
        everything = store.list_runs()
        assert store.list_runs(limit=2) == everything[:2]
        assert store.list_runs(limit=2, offset=2) == everything[2:4]
        assert store.list_runs(offset=4) == everything[4:]
        assert store.list_runs(limit=3, offset=10) == []

    def test_negative_offset_rejected(self, store):
        with pytest.raises(ValueError, match="offset"):
            store.list_runs(offset=-1)

    def test_negative_limit_rejected(self, store):
        # SQLite would read a negative LIMIT as "unbounded".
        with pytest.raises(ValueError, match="limit"):
            store.list_runs(limit=-5)

    def test_problem_filter(self, store):
        store.record_response(response(), name="a")
        store.record_response(
            response(fp(64, extras={"n_macros": 2})), name="b",
            problem="mapping",
        )
        assert [r.name for r in store.list_runs(problem="mapping")] == ["b"]
        assert [r.name for r in store.list_runs(problem="dcim")] == ["a"]


def legacy_row(point):
    """The ``design_points`` row as every release before wrote it.

    Pinned here, not imported: the store's own encoder must keep
    producing these bytes (point hash and both JSON columns).
    """
    payload = {
        "precision": point.precision, "n": point.n, "h": point.h,
        "l": point.l, "k": point.k, "objectives": list(point.objectives),
    }
    if point.extras:
        payload["extras"] = point.extras
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return (
        hashlib.sha256(text.encode("utf-8")).hexdigest(),
        point.precision, point.n, point.h, point.l, point.k,
        json.dumps(list(point.objectives)),
        json.dumps(point.extras or {}, sort_keys=True, default=str),
    )


#: Objectives of every kind a response can carry: numpy and Python
#: floats (non-finite, signed zeros, subnormal and extreme magnitudes)
#: and plain ints from hand-written JSON.
OBJECTIVES = st.lists(
    st.floats()
    | st.floats(allow_nan=False).map(np.float64)
    | st.integers(min_value=-(10**6), max_value=10**6),
    max_size=4,
).map(tuple)
GENES = st.integers(min_value=0, max_value=4096)
POINTS = st.builds(
    FrontierPoint,
    precision=st.sampled_from(["INT8", "BF16", "-", "\u00c4"]),
    n=GENES | GENES.map(np.int64),
    h=GENES,
    l=GENES,
    k=GENES,
    objectives=OBJECTIVES,
    extras=st.just({})
    | st.dictionaries(st.text(max_size=6), st.integers() | st.text(max_size=4),
                      max_size=2),
)


def stored_rows(path):
    """Raw ``design_points`` rows, as committed, in hash order."""
    with closing(sqlite3.connect(path)) as conn:
        return conn.execute(
            "SELECT point_hash, precision, n, h, l, k, objectives, extras "
            "FROM design_points ORDER BY point_hash"
        ).fetchall()


def table_counts(path):
    """Committed row counts of the tables one recorded run writes."""
    with closing(sqlite3.connect(path)) as conn:
        return {
            table: conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in ("runs", "fronts", "design_points")
        }


class TestPointEncoding:
    @given(POINTS)
    @settings(max_examples=300, deadline=None)
    @example(FrontierPoint("INT8", 64, 16, 64, 2, (5e-324, -0.0, 1.7976931348623157e308)))
    @example(FrontierPoint("INT8", 64, 16, 64, 2, (float("inf"), float("nan"))))
    @example(FrontierPoint("INT8", True, 16, 64, 2, (1.0,)))
    def test_rows_match_the_pinned_encoder(self, point):
        from repro.store.runstore import _design_point_row

        assert _design_point_row(point) == legacy_row(point)
        assert point_hash(point) == legacy_row(point)[0]

    def test_stored_rows_are_byte_identical(self, tmp_path):
        front = (
            fp(32, (np.float64(0.011839232), np.float64(-0.20998687664041995))),
            fp(64, (1e-310, 1e300, -0.0)),
            fp(96, (float("inf"), float("-inf"), float("nan"))),
            fp(128, (3, 2.5)),
            fp(128, (0.5, 12.25), extras={"n_macros": 4, "schedule": "pipelined"}),
            fp(32, (np.float64(0.011839232), np.float64(-0.20998687664041995))),
        )
        path = tmp_path / "runs.sqlite"
        with RunStore(path) as store:
            record = store.record_response(response(*front), specs=["mixed"])
            hashes = store.front_hashes(record.run_id)
        expected = sorted({legacy_row(p) for p in front})
        assert stored_rows(path) == expected
        assert hashes == [legacy_row(p)[0] for p in front]


class TestFailedWrites:
    @pytest.mark.parametrize(
        "bad",
        [
            # sort_keys cannot order int and str keys: fails encoding
            fp(96, extras={1: "a", "b": 2}),
            # precision is NOT NULL: sqlite refuses the row mid-insert
            fp(96, precision=None),
        ],
        ids=["unencodable-extras", "null-precision"],
    )
    def test_failed_write_leaves_no_half_written_run(self, tmp_path, bad):
        path = tmp_path / "runs.sqlite"
        with RunStore(path) as store:
            first = store.record_response(response(fp(32)), specs=["first"])
            points = store.point_count()
            with pytest.raises((TypeError, sqlite3.IntegrityError)):
                store.record_response(
                    response(fp(48), fp(64), bad), specs=["broken"]
                )
            assert [r.run_id for r in store.list_runs()] == [first.run_id]
            assert store.point_count() == points
            assert table_counts(path) == {"runs": 1, "fronts": 1, "design_points": 1}
            # Nothing of the failed run is left pending for this commit.
            second = store.record_response(response(fp(80)), specs=["second"])
            assert store.front(second.run_id) == [fp(80)]
        assert table_counts(path) == {"runs": 2, "fronts": 2, "design_points": 2}

    def test_queue_counts_the_failure_and_finishes_the_job(
        self, store, fresh_registry
    ):
        from repro.service.jobs import JobQueue, JobStatus

        answer = response(fp(32), fp(64, extras={1: "a", "b": 2}))
        queue = JobQueue(
            runner=lambda request, observer=None, should_stop=None: answer,
            store=store,
        )
        try:
            job_id = queue.submit(
                CampaignRequest(specs=(SpecRequest(4096, "INT8"),))
            )
            queue.run_all()
            assert queue.status(job_id) is JobStatus.DONE
            assert queue.result(job_id) == answer
            assert queue.record(job_id).run_id is None
            assert fresh_registry.counter("repro_jobs_record_errors_total").value == 1
            assert fresh_registry.counter("repro_jobs_recorded_total").value == 0
        finally:
            queue.close()
        assert len(store) == 0
        assert store.point_count() == 0
