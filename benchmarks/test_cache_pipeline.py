"""Cache pipeline speedup gate: the point of the batched-cache PR.

One GA generation (512 genomes) used to cost the cache tier N disk
round trips and N commits: the pre-PR ``_SqliteStore`` ran a plain
rollback-journal connection and committed (fsync!) after every
``put``.  The batched pipeline pushes the same generation through one
chunked ``SELECT ... IN`` and one ``executemany`` transaction on a
WAL-mode connection, and must be at least **5x** faster than the
per-key reference — in practice the gap is one-to-two orders of
magnitude because the reference pays one fsync per genome.

Key derivation is reported alongside: :class:`GenomeKeyer` hashes the
canonical-JSON context prefix once and must stay bit-identical to
:func:`evaluation_key` while skipping the per-genome recanonicalise.

Measured rows land in ``results/cache_pipeline.txt``.
"""

import hashlib
import json
import sqlite3
import timeit

import pytest

from repro.core.spec import DcimSpec
from repro.obs.metrics import NULL_REGISTRY
from repro.reporting import ascii_table
from repro.service.cache import (
    EvaluationCache,
    GenomeKeyer,
    evaluation_key,
    problem_fingerprint,
    stable_hash,
)
from repro.tech.cells import CellLibrary

GENERATION = 512  # genomes per generation batch
OBJECTIVES = 4  # [A, D, E, -T]
SPEC = DcimSpec(wstore=8192, precision="INT8")
LIB = CellLibrary.default()


class _PrePrStore:
    """The pre-PR per-key SQLite tier, preserved as the reference.

    Plain rollback-journal connection, one ``SELECT`` per get and one
    ``INSERT``+``commit`` per put — exactly what
    ``_SqliteStore.get``/``put`` did before the batched pipeline.
    """

    def __init__(self, path):
        self._conn = sqlite3.connect(str(path), check_same_thread=False)
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS evaluations ("
            "key TEXT PRIMARY KEY, objectives TEXT NOT NULL)"
        )
        self._conn.commit()

    def get(self, key):
        row = self._conn.execute(
            "SELECT objectives FROM evaluations WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else tuple(json.loads(row[0]))

    def put(self, key, objectives):
        self._conn.execute(
            "INSERT OR REPLACE INTO evaluations (key, objectives) VALUES (?, ?)",
            (key, json.dumps(list(objectives))),
        )
        self._conn.commit()

    def close(self):
        self._conn.close()


def _generation():
    keys = [
        hashlib.sha256(f"genome-{i}".encode()).hexdigest()
        for i in range(GENERATION)
    ]
    values = [
        tuple(float(i + axis) for axis in range(OBJECTIVES))
        for i in range(GENERATION)
    ]
    return keys, dict(zip(keys, values))


def _best(fn, repeat=5):
    return min(timeit.repeat(fn, number=1, repeat=repeat))


@pytest.mark.bench
def test_batched_sqlite_generation_speedup(tmp_path, record):
    keys, entries = _generation()

    reference = _PrePrStore(tmp_path / "reference.sqlite")
    batched = EvaluationCache(
        tmp_path / "batched.sqlite",
        backend="sqlite",
        max_memory_entries=1,  # force every lookup through the disk tier
        registry=NULL_REGISTRY,
    )

    # Warm both tiers, then check the batched path returns the same data.
    for key, value in entries.items():
        reference.put(key, value)
    batched.put_many(entries)
    assert batched.get_many(keys) == [entries[k] for k in keys]
    assert [reference.get(k) for k in keys] == [entries[k] for k in keys]

    def per_key_generation():
        for key in keys:
            reference.get(key)
        for key, value in entries.items():
            reference.put(key, value)

    def batched_generation():
        batched.get_many(keys)
        batched.put_many(entries)

    t_ref = _best(per_key_generation, repeat=3)  # fsync-bound; 3 is plenty
    t_batch = _best(batched_generation)
    speedup = t_ref / t_batch

    # Key derivation on the same generation, bit-identical by construction.
    genomes = [(i % 8, i % 5, i % 3, i % 13) for i in range(GENERATION)]
    context = stable_hash(problem_fingerprint(SPEC, LIB))
    keyer = GenomeKeyer.for_problem(SPEC, LIB)
    assert [keyer(g) for g in genomes] == [
        evaluation_key(g, SPEC, LIB) for g in genomes
    ]
    t_full = _best(lambda: [evaluation_key(g, SPEC, LIB) for g in genomes])
    t_ctx = _best(
        lambda: [
            stable_hash({"genome": list(g), "context": context}) for g in genomes
        ]
    )
    t_keyer = _best(lambda: [keyer(g) for g in genomes])

    label = f"{GENERATION} genomes x {OBJECTIVES} objectives"
    record(
        "cache_pipeline",
        f"Cache pipeline, one generation ({label}):\n"
        + ascii_table(
            ["path", "gate", "measured"],
            [
                (
                    "per-key sqlite (pre-PR reference)",
                    "-",
                    f"{t_ref * 1e3:.2f} ms",
                ),
                (
                    "batched sqlite (get_many+put_many)",
                    ">= 5x vs per-key",
                    f"{t_batch * 1e3:.2f} ms ({speedup:.1f}x)",
                ),
            ],
        )
        + "\n\nKey derivation, one generation:\n"
        + ascii_table(
            ["path", "gate", "measured"],
            [
                ("evaluation_key (full recompute)", "-", f"{t_full * 1e3:.2f} ms"),
                ("context-cached stable_hash", "-", f"{t_ctx * 1e3:.2f} ms"),
                (
                    "GenomeKeyer (prefix-hashed)",
                    "bit-identical",
                    f"{t_keyer * 1e3:.2f} ms "
                    f"({t_full / t_keyer:.1f}x vs full, "
                    f"{t_ctx / t_keyer:.1f}x vs cached)",
                ),
            ],
        ),
    )
    reference.close()
    batched.close()
    assert speedup >= 5.0


def test_write_behind_coalesces_commits(tmp_path):
    """Write-behind buffers N puts into one flush transaction."""
    keys, entries = _generation()
    cache = EvaluationCache(
        tmp_path / "wb.sqlite",
        backend="sqlite",
        flush_every=GENERATION,
        registry=NULL_REGISTRY,
    )
    for key, value in entries.items():
        cache.put(key, value)
    assert cache.pending_writes == 0  # the 512th put triggered the flush
    cache.close()
    with EvaluationCache(tmp_path / "wb.sqlite", registry=NULL_REGISTRY) as back:
        assert len(back) == GENERATION


def test_batched_generation_benchmark(benchmark, tmp_path):
    keys, entries = _generation()
    cache = EvaluationCache(
        tmp_path / "bench.sqlite",
        backend="sqlite",
        max_memory_entries=1,
        registry=NULL_REGISTRY,
    )
    cache.put_many(entries)

    def one_generation():
        cache.get_many(keys)
        cache.put_many(entries)

    benchmark(one_generation)
    cache.close()
