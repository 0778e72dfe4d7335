"""Concurrent-writer tests for SqliteCache and RunStore.

Both persistence layers share one SQLite connection behind a lock and
run the database in WAL mode; these tests hammer them from many
threads sharing one instance and check the file round-trips a reopen.
"""

import threading

from repro.service.api import CampaignResponse, FrontierPoint
from repro.service.cache import EvaluationCache
from repro.store import RunStore


def run_threads(worker, count=8):
    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(count)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestSqliteCacheConcurrency:
    def test_concurrent_writers_share_one_cache(self, tmp_path):
        path = tmp_path / "evals.sqlite"
        cache = EvaluationCache(path)
        per_thread = 50

        def worker(tid):
            for i in range(per_thread):
                key = f"key-{tid}-{i}"
                cache.put(key, (float(tid), float(i)))
                assert cache.get(key) == (float(tid), float(i))

        run_threads(worker)
        assert len(cache) == 8 * per_thread
        assert cache.stats.puts == 8 * per_thread
        cache.close()

        # WAL round trip: a fresh instance sees every write.
        reopened = EvaluationCache(path)
        assert len(reopened) == 8 * per_thread
        assert reopened.get("key-3-17") == (3.0, 17.0)
        reopened.close()

    def test_concurrent_writers_same_keys(self, tmp_path):
        cache = EvaluationCache(tmp_path / "evals.sqlite")

        def worker(tid):
            for i in range(30):
                cache.put(f"key-{i}", (float(i),))

        run_threads(worker)
        assert len(cache) == 30
        assert all(cache.get(f"key-{i}") == (float(i),) for i in range(30))
        cache.close()


def fp(n, objectives):
    return FrontierPoint(
        precision="INT8", n=n, h=128, l=4, k=8, objectives=tuple(objectives)
    )


class TestRunStoreConcurrency:
    def test_concurrent_recorders(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        store = RunStore(path)
        per_thread = 10
        recorded: list[str] = []
        lock = threading.Lock()

        def worker(tid):
            for i in range(per_thread):
                record = store.record_response(
                    CampaignResponse(
                        # One point shared by everyone, one unique.
                        frontier=(fp(32, (1.0, 2.0)), fp(64, (tid, i))),
                        evaluations=i,
                    ),
                    specs=[f"spec-{tid}"],
                    name=f"run-{tid}-{i}",
                )
                with lock:
                    recorded.append(record.run_id)

        run_threads(worker)
        assert len(store) == 8 * per_thread
        assert len(set(recorded)) == 8 * per_thread
        # The shared point was content-deduplicated across all writers.
        assert store.point_count() == 8 * per_thread + 1
        store.close()

        # WAL round trip after reopen.
        with RunStore(path) as reopened:
            assert len(reopened) == 8 * per_thread
            some = reopened.resolve("run-3-7")
            assert reopened.front(some.run_id)[0] == fp(32, (1.0, 2.0))

    def test_concurrent_readers_and_writers(self, tmp_path):
        store = RunStore(tmp_path / "runs.sqlite")
        seed = store.record_response(
            CampaignResponse(frontier=(fp(32, (1.0, 2.0)),))
        )
        store.set_baseline("main", seed.run_id)
        errors: list[Exception] = []

        def worker(tid):
            try:
                for i in range(20):
                    if tid % 2:
                        store.record_response(
                            CampaignResponse(frontier=(fp(64, (tid, i)),))
                        )
                    else:
                        store.list_runs(limit=5)
                        assert store.get_baseline("main").run_id == seed.run_id
                        store.front(seed.run_id)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        run_threads(worker)
        assert not errors
        assert len(store) == 1 + 4 * 20
        store.close()
