"""Tests for the persistent run registry (repro.store.runstore)."""

import pytest

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
