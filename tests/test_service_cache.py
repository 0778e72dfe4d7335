"""Tests for the content-addressed evaluation cache."""

import hashlib
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.core.spec import DcimSpec
from repro.service.cache import (
    CacheStats,
    EvaluationCache,
    GenomeKeyer,
    evaluation_key,
    problem_fingerprint,
    stable_hash,
)
from repro.tech.cells import CellLibrary
from repro.model.cost import Cost


SPEC = DcimSpec(wstore=4096, precision="INT8")
LIB = CellLibrary.default()


class TestKeys:
    def test_stable_across_constructions(self):
        key_a = evaluation_key((1, 2, 3, 0), SPEC, LIB)
        key_b = evaluation_key(
            (1, 2, 3, 0), DcimSpec(wstore=4096, precision="INT8"), CellLibrary.default()
        )
        assert key_a == key_b

    def test_sensitive_to_genome(self):
        assert evaluation_key((1, 2, 3, 0), SPEC, LIB) != evaluation_key(
            (1, 2, 3, 1), SPEC, LIB
        )

    def test_sensitive_to_spec(self):
        other = DcimSpec(wstore=8192, precision="INT8")
        assert evaluation_key((1, 2, 3, 0), SPEC, LIB) != evaluation_key(
            (1, 2, 3, 0), other, LIB
        )

    def test_sensitive_to_library(self):
        tweaked = LIB.with_cell("NOR", Cost(1.5, 1.0, 1.0))
        assert evaluation_key((1, 2, 3, 0), SPEC, LIB) != evaluation_key(
            (1, 2, 3, 0), SPEC, tweaked
        )

    def test_stable_hash_ignores_key_order(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_matches_problem_evaluator_default_keys(self):
        # The public key function and the evaluator's precomputed-context
        # derivation must address the same cache entries.
        from repro.dse.problem import DcimProblem
        from repro.service.executor import ProblemEvaluator

        problem = DcimProblem(SPEC, LIB)
        evaluator = ProblemEvaluator(problem, cache=EvaluationCache())
        genome = problem.codec.enumerate()[0]
        assert evaluator.key_fn(genome) == evaluation_key(genome, SPEC, LIB)


class TestMemoryTier:
    def test_hit_miss_statistics(self):
        cache = EvaluationCache()
        assert cache.get("k") is None
        cache.put("k", (1.0, 2.0))
        assert cache.get("k") == (1.0, 2.0)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.memory_hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = EvaluationCache(max_memory_entries=2)
        cache.put("a", (1.0,))
        cache.put("b", (2.0,))
        cache.get("a")  # refresh "a": "b" is now least recently used
        cache.put("c", (3.0,))
        assert cache.get("a") == (1.0,)
        assert cache.get("c") == (3.0,)
        assert cache.get("b") is None  # evicted, no disk tier
        assert cache.stats.evictions == 1

    def test_get_many_put_many(self):
        cache = EvaluationCache()
        cache.put_many({"a": (1.0,), "b": (2.0,)})
        assert cache.get_many(["a", "missing", "b"]) == [(1.0,), None, (2.0,)]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            EvaluationCache(max_memory_entries=0)


@pytest.mark.parametrize("backend,suffix", [("sqlite", ".sqlite")])
class TestDiskTier:
    def test_persistence_round_trip(self, tmp_path, backend, suffix):
        path = tmp_path / f"cache{suffix}"
        with EvaluationCache(path) as cache:
            cache.put("k1", (1.0, -2.0))
            cache.put("k2", (3.5,))
        with EvaluationCache(path) as reopened:
            assert reopened.get("k1") == (1.0, -2.0)
            assert reopened.get("k2") == (3.5,)
            assert len(reopened) == 2

    def test_backend_guessed_from_suffix(self, tmp_path, backend, suffix):
        with EvaluationCache(tmp_path / f"cache{suffix}") as cache:
            assert cache.backend == backend

    def test_eviction_falls_back_to_disk(self, tmp_path, backend, suffix):
        path = tmp_path / f"cache{suffix}"
        with EvaluationCache(path, max_memory_entries=1) as cache:
            cache.put("a", (1.0,))
            cache.put("b", (2.0,))  # evicts "a" from memory
            assert cache.stats.evictions == 1
            assert cache.get("a") == (1.0,)
            assert cache.stats.hits == 1

    def test_thread_safety_smoke(self, tmp_path, backend, suffix):
        cache = EvaluationCache(tmp_path / f"cache{suffix}")

        def worker(base: int) -> None:
            for i in range(50):
                cache.put(f"k{base + i}", (float(i),))
                cache.get(f"k{base + i}")

        threads = [threading.Thread(target=worker, args=(n * 50,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) == 200
        cache.close()


class TestSqliteOnly:
    """Any cache path opens SQLite, except a directory or a JSONL log:
    those raise a ValueError that says what the path is."""

    def test_any_suffix_opens_sqlite(self, tmp_path):
        path = tmp_path / "evals.cache"
        with EvaluationCache(path) as cache:
            cache.put("k", (1.0,))
            assert cache.backend == "sqlite"
        assert path.read_bytes().startswith(b"SQLite format 3\x00")

    def test_existing_empty_file_opens(self, tmp_path):
        path = tmp_path / "evals.db"
        path.touch()
        with EvaluationCache(path) as cache:
            cache.put("k", (1.0,))
        with EvaluationCache(path) as reopened:
            assert reopened.get("k") == (1.0,)

    def test_jsonl_suffix_names_migrate(self, tmp_path):
        path = tmp_path / "evals.jsonl"
        with pytest.raises(ValueError, match="repro cache migrate"):
            EvaluationCache(path)
        assert not path.exists()

    def test_legacy_log_without_jsonl_suffix_names_migrate(self, tmp_path):
        path = tmp_path / "evals.cache"
        line = json.dumps({"key": "k", "objectives": [1.0]}) + "\n"
        path.write_text(line, encoding="utf-8")
        hint = re.escape(f"repro cache migrate {path} NEW.sqlite")
        with pytest.raises(ValueError, match=hint):
            EvaluationCache(path)
        assert path.read_text(encoding="utf-8") == line

    def test_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="is a directory"):
            EvaluationCache(tmp_path)


class TestGenomeKeyer:
    """The fast keyer must stay bit-identical to evaluation_key forever:
    every cache file in the wild is addressed by the old formula."""

    GOLDEN_CONTEXT = "c" * 64
    # sha256 of the literal pre-PR canonical JSON
    # {"context":"ccc...ccc","genome":[1,2,3,0]} — never regenerate this.
    GOLDEN_KEY = "d22c611dfdebcd6fd5f4eb1d7e7b29bb259aac2ee9505b1b3deff491a6d95409"

    def test_golden_digest_pinned(self):
        assert GenomeKeyer(self.GOLDEN_CONTEXT)((1, 2, 3, 0)) == self.GOLDEN_KEY

    def test_matches_literal_pre_pr_formula(self):
        keyer = GenomeKeyer(self.GOLDEN_CONTEXT)
        for genome in [(0,), (1, 2, 3, 0), (7, 0, 0, 4, 2), tuple(range(12))]:
            text = json.dumps(
                {"genome": list(genome), "context": self.GOLDEN_CONTEXT},
                sort_keys=True,
                separators=(",", ":"),
                default=str,
            )
            assert keyer(genome) == hashlib.sha256(text.encode("utf-8")).hexdigest()

    def test_matches_evaluation_key_for_problem(self):
        keyer = GenomeKeyer.for_problem(SPEC, LIB)
        assert keyer.context == stable_hash(problem_fingerprint(SPEC, LIB))
        for genome in [(1, 2, 3, 0), (2, 4, 1, 1), (0, 0, 0, 0)]:
            assert keyer(genome) == evaluation_key(genome, SPEC, LIB)

    def test_matches_on_non_int_elements(self):
        # Exotic genome element types fall through json's default=str in
        # both the old and the new path (e.g. numpy integers).
        np = pytest.importorskip("numpy")
        keyer = GenomeKeyer(self.GOLDEN_CONTEXT)
        genome = tuple(np.int64(v) for v in (1, 2, 3, 0))
        assert keyer(genome) == stable_hash(
            {"genome": list(genome), "context": self.GOLDEN_CONTEXT}
        )

    def test_exhaustive_parity_over_codec(self):
        from repro.dse.problem import DcimProblem

        problem = DcimProblem(SPEC, LIB)
        keyer = GenomeKeyer.for_problem(SPEC, LIB)
        for genome in problem.codec.enumerate():
            assert keyer(genome) == evaluation_key(genome, SPEC, LIB)


@pytest.mark.parametrize("backend,suffix", [("sqlite", ".sqlite")])
class TestBatchedDiskTier:
    def test_get_many_crosses_sqlite_chunk_boundary(self, tmp_path, backend, suffix):
        # 1200 keys spans three SELECT ... IN chunks on the sqlite tier.
        entries = {f"k{i}": (float(i),) for i in range(1200)}
        with EvaluationCache(tmp_path / f"c{suffix}") as cache:
            cache.put_many(entries)
        with EvaluationCache(tmp_path / f"c{suffix}", max_memory_entries=1) as cache:
            keys = [f"k{i}" for i in range(1200)] + ["absent"]
            results = cache.get_many(keys)
            assert results[:-1] == [(float(i),) for i in range(1200)]
            assert results[-1] is None
            assert cache.stats.disk_hits == 1200
            assert cache.stats.misses == 1

    def test_get_many_counts_each_slot(self, tmp_path, backend, suffix):
        with EvaluationCache(tmp_path / f"c{suffix}", max_memory_entries=1) as cache:
            cache.put_many({"a": (1.0,)})
            results = cache.get_many(["a", "a", "nope", "nope"])
            assert results == [(1.0,), (1.0,), None, None]
            # duplicate keys count once per slot, like a get() loop would
            assert cache.stats.hits == 2
            assert cache.stats.misses == 2

    def test_get_many_promotes_disk_hits(self, tmp_path, backend, suffix):
        with EvaluationCache(tmp_path / f"c{suffix}") as cache:
            cache.put("a", (1.0,))
        with EvaluationCache(tmp_path / f"c{suffix}") as cache:
            assert cache.get_many(["a"]) == [(1.0,)]
            assert cache.stats.disk_hits == 1
            assert cache.get("a") == (1.0,)
            assert cache.stats.memory_hits == 1  # second read from memory

    def test_put_many_round_trips_after_reopen(self, tmp_path, backend, suffix):
        with EvaluationCache(tmp_path / f"c{suffix}") as cache:
            cache.put_many({"a": (1.0, 2.0), "b": (3.0,)})
        with EvaluationCache(tmp_path / f"c{suffix}") as cache:
            assert cache.get_many(["a", "b"]) == [(1.0, 2.0), (3.0,)]


class TestBatchMetrics:
    def test_batched_ops_feed_batch_histograms(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        cache = EvaluationCache(tmp_path / "c.sqlite", registry=registry)
        cache.put_many({f"k{i}": (float(i),) for i in range(4)})
        cache.get_many(["k0", "k1", "missing"])
        text = registry.render_prometheus()
        assert 'repro_cache_batch_size_count{cache="' in text
        for op in ("get", "put"):
            assert f'op="{op}"' in text
        assert 'op="flush"' not in text  # every batch is written through
        cache.close()

    def test_per_key_ops_do_not_touch_batch_series(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        cache = EvaluationCache(tmp_path / "c.sqlite", registry=registry)
        cache.put("k", (1.0,))
        cache.get("k")
        counts = [
            line
            for line in registry.render_prometheus().splitlines()
            if line.startswith("repro_cache_batch_size_count")
        ]
        assert counts  # the series exist from construction...
        assert all(line.endswith(" 0") for line in counts)  # ...but idle
        cache.close()


class TestCompaction:
    def test_sqlite_compact_vacuums(self, tmp_path):
        path = tmp_path / "c.sqlite"
        with EvaluationCache(path) as cache:
            cache.put_many({f"k{i}": (float(i),) for i in range(16)})
            report = cache.compact()
            assert report["backend"] == "sqlite"
            assert report["bytes_after"] > 0

    def test_memory_only_compact_rejected(self):
        with pytest.raises(ValueError):
            EvaluationCache().compact()


_WRITER_SCRIPT = """
import sys
from repro.service.cache import EvaluationCache

path, base = sys.argv[1], int(sys.argv[2])
cache = EvaluationCache(path)
for start in range(0, 400, 20):
    cache.put_many(
        {f"w{base}-{start + i}": (float(base), float(start + i)) for i in range(20)}
    )
cache.close()
"""


class TestConcurrentWriters:
    def test_two_processes_share_one_wal_cache(self, tmp_path):
        """Two writers batch into one sqlite file at once: WAL mode plus
        the busy timeout means no lost entries and no 'database is
        locked' failures."""
        path = tmp_path / "shared.sqlite"
        src = str(Path(__file__).resolve().parents[1] / "src")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SCRIPT, str(path), str(base)],
                env={**os.environ, "PYTHONPATH": src},
                stderr=subprocess.PIPE,
                text=True,
            )
            for base in (1, 2)
        ]
        for proc in procs:
            _, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr
            assert "database is locked" not in stderr
        with EvaluationCache(path) as cache:
            assert len(cache) == 800
            keys = [f"w{base}-{i}" for base in (1, 2) for i in range(400)]
            results = cache.get_many(keys)
            assert all(r is not None for r in results)
            assert results[0] == (1.0, 0.0)
            assert results[-1] == (2.0, 399.0)


class TestStats:
    def test_hit_rate_idle(self):
        assert CacheStats().hit_rate == 0.0

    def test_as_dict_shape(self):
        stats = CacheStats(hits=3, misses=1)
        payload = stats.as_dict()
        assert payload["hits"] == 3
        assert payload["hit_rate"] == 0.75
