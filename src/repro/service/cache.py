"""Content-addressed persistent evaluation cache.

The MOGA flow spends nearly all of its runtime in objective
evaluations, and the discrete design space means many runs — across
specs, seeds, CLI invocations, and concurrent campaigns — revisit the
same genomes.  This module provides a two-tier cache keyed on a stable
content hash of *everything an evaluation depends on*: the genome, the
:class:`~repro.core.spec.DcimSpec`, and the
:class:`~repro.tech.cells.CellLibrary`.

Tiers:

* an in-memory LRU tier (bounded, always present), and
* an optional persistent SQLite tier that survives process restarts
  and is shared between campaigns.

The cache is **batch-first**: :meth:`EvaluationCache.get_many` and
:meth:`EvaluationCache.put_many` push whole generations through the
disk tier in one round trip (a chunked ``SELECT ... WHERE key IN``
plus one ``executemany`` transaction) instead of N per-genome queries
and N commits.  Every batch is written through, so whatever a campaign
evaluated is on disk when it ends — also when it fails or is
cancelled.  The SQLite tier runs in WAL journal mode with a busy
timeout, so concurrent processes can share one cache file.

The cache lives in the process that runs the campaign: no server
exposes it, and ``repro worker`` processes evaluate uncached.

All public operations are thread-safe; campaign workers share one
cache instance.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import sqlite3
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.hashing import stable_hash
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import NULL_SPAN, get_tracer

__all__ = [
    "CacheStats",
    "EvaluationCache",
    "GenomeKeyer",
    "evaluation_key",
    "problem_fingerprint",
    "stable_hash",
]

Objectives = tuple[float, ...]

#: Keys per SQLite ``IN (...)`` clause — stays well under the default
#: SQLITE_MAX_VARIABLE_NUMBER (999) of older builds.
_SQLITE_SELECT_CHUNK = 500

#: First bytes of every SQLite database file.
_SQLITE_HEADER = b"SQLite format 3\x00"

#: Buckets for the ``repro_cache_batch_size`` histogram (keys/batch).
_BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


def problem_fingerprint(spec, library) -> dict:
    """JSON-able fingerprint of one evaluation context (spec + library).

    Uses ``dataclasses.asdict`` on the spec so newly added spec fields
    automatically invalidate old cache entries instead of aliasing them.
    """
    cells = {name: (c.area, c.delay, c.energy) for name, c in library.cells.items()}
    return {
        "spec": dataclasses.asdict(spec),
        "library": {"name": library.name, "cells": cells},
    }


def evaluation_key(genome: Sequence[int], spec, library) -> str:
    """Content-addressed cache key for one (genome, spec, library) triple.

    The (spec, library) context is hashed separately and embedded as a
    digest, so per-genome keys can be derived from a precomputed context
    hash (see ``ProblemEvaluator``) and still match this function.
    """
    return stable_hash(
        {
            "genome": list(genome),
            "context": stable_hash(problem_fingerprint(spec, library)),
        }
    )


class GenomeKeyer:
    """Fast per-genome key derivation for one evaluation context.

    Produces keys **bit-identical** to :func:`evaluation_key` (the
    golden parity tests pin this), but hashes the canonical-JSON
    context prefix exactly once: each per-genome key is one
    ``hashlib`` state copy plus one update over the genome bytes,
    instead of re-canonicalising the whole ``{context, genome}``
    payload.  This is the keying hot path of
    :class:`~repro.service.executor.ProblemEvaluator`.
    """

    __slots__ = ("context", "_prefix")

    def __init__(self, context: str) -> None:
        #: The context digest embedded in every key (for introspection).
        self.context = context
        # Canonical JSON sorts "context" before "genome", so the whole
        # serialisation up to the genome list is a constant prefix:
        #   {"context":"<digest>","genome":<list>}
        # json.dumps produces the prefix (with exact escaping), and the
        # pre-hashed state is copied per genome.
        prefix_text = (
            json.dumps({"context": context}, sort_keys=True, separators=(",", ":"))[:-1]
            + ',"genome":'
        )
        self._prefix = hashlib.sha256(prefix_text.encode("utf-8"))

    def __call__(self, genome: Sequence[int]) -> str:
        digest = self._prefix.copy()
        digest.update(
            json.dumps(
                list(genome), separators=(",", ":"), default=str
            ).encode("utf-8")
        )
        digest.update(b"}")
        return digest.hexdigest()

    @classmethod
    def for_problem(cls, spec, library) -> "GenomeKeyer":
        """Keyer addressing the same entries as :func:`evaluation_key`."""
        return cls(stable_hash(problem_fingerprint(spec, library)))


@dataclass
class CacheStats:
    """Hit/miss counters for one cache instance.

    ``hits`` counts both tiers; ``memory_hits``/``disk_hits`` break the
    total down.  ``evictions`` counts LRU entries dropped from the
    memory tier (they stay retrievable from disk when a disk tier is
    configured).
    """

    hits: int = 0
    misses: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    puts: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from either tier (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "puts": self.puts,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


class _SqliteStore:
    """SQLite disk tier: one ``evaluations(key, objectives)`` table.

    Runs in WAL journal mode with a generous busy timeout so several
    processes can ``put_many`` into one cache file concurrently:
    readers never block the writer, and a second writer waits for the
    lock instead of failing with ``database is locked``.  A whole
    batch is one ``executemany`` inside a single transaction — one
    commit (and at most one fsync) per generation rather than per
    genome.
    """

    def __init__(self, path: Path) -> None:
        # sqlite3 fails on these two with a bare "unable to open" or
        # "file is not a database"; say what the path is instead.
        if path.is_dir():
            raise ValueError(f"evaluation cache path {path} is a directory")
        legacy = path.suffix == ".jsonl"
        if not legacy and path.is_file() and path.stat().st_size:
            with path.open("rb") as handle:
                legacy = handle.read(len(_SQLITE_HEADER)) != _SQLITE_HEADER
        if legacy:
            raise ValueError(
                f"{path} names a JSONL cache log, and cache files are "
                f"SQLite only: import it with "
                f"'repro cache migrate {path} NEW.sqlite'"
            )
        self.path = path
        path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(path), check_same_thread=False)
        self._conn.execute("PRAGMA busy_timeout = 30000")
        try:
            self._conn.execute("PRAGMA journal_mode = WAL")
            # NORMAL loses at most the last transaction on power loss —
            # the right trade for a rebuildable evaluation cache.
            self._conn.execute("PRAGMA synchronous = NORMAL")
        except sqlite3.OperationalError:
            pass  # e.g. WAL-incapable filesystems; plain journal is fine
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS evaluations ("
            "key TEXT PRIMARY KEY, objectives TEXT NOT NULL)"
        )
        self._conn.commit()

    def get(self, key: str) -> Objectives | None:
        row = self._conn.execute(
            "SELECT objectives FROM evaluations WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        return tuple(json.loads(row[0]))

    def get_many(self, keys: Sequence[str]) -> dict[str, Objectives]:
        found: dict[str, Objectives] = {}
        for start in range(0, len(keys), _SQLITE_SELECT_CHUNK):
            chunk = list(keys[start : start + _SQLITE_SELECT_CHUNK])
            marks = ",".join("?" * len(chunk))
            rows = self._conn.execute(
                f"SELECT key, objectives FROM evaluations "
                f"WHERE key IN ({marks})",
                chunk,
            )
            for key, text in rows:
                found[key] = tuple(json.loads(text))
        return found

    def put(self, key: str, objectives: Objectives) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO evaluations (key, objectives) VALUES (?, ?)",
            (key, json.dumps(list(objectives))),
        )
        self._conn.commit()

    def put_many(self, entries: Mapping[str, Objectives]) -> None:
        if not entries:
            return
        self._conn.executemany(
            "INSERT OR REPLACE INTO evaluations (key, objectives) VALUES (?, ?)",
            [
                (key, json.dumps(list(objectives)))
                for key, objectives in entries.items()
            ],
        )
        self._conn.commit()

    def compact(self) -> dict:
        """VACUUM the database; returns before/after byte counts."""
        before = self.path.stat().st_size if self.path.exists() else 0
        self._conn.commit()
        self._conn.execute("VACUUM")
        return {
            "backend": "sqlite",
            "bytes_before": before,
            "bytes_after": self.path.stat().st_size,
        }

    def __len__(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM evaluations").fetchone()[0]

    def items(self) -> Iterator[tuple[str, Objectives]]:
        for key, text in self._conn.execute(
            "SELECT key, objectives FROM evaluations"
        ):
            yield key, tuple(json.loads(text))

    def close(self) -> None:
        self._conn.close()


class EvaluationCache:
    """Two-tier (memory LRU + optional disk) evaluation cache.

    Args:
        path: SQLite file of the disk tier, whatever its suffix.
            ``None`` keeps the cache memory-only.  A directory, or a
            log of the removed JSONL tier, raises :class:`ValueError`.
        max_memory_entries: LRU capacity of the memory tier.
        registry: :class:`~repro.obs.metrics.MetricsRegistry` the cache
            publishes into (defaults to the process global).  Counters
            are mirrored at scrape time through a collector — zero work
            per lookup — the disk tier's per-key get/put latencies feed
            ``repro_cache_disk_seconds`` (cold path only), and batched
            operations feed ``repro_cache_batch_seconds`` /
            ``repro_cache_batch_size``.

    The cache is agnostic to what produced the key — callers address it
    with :func:`evaluation_key`, a :class:`GenomeKeyer`, or any other
    stable string.
    """

    #: Distinguishes cache instances in the metrics ``cache=`` label.
    _instance_ids = itertools.count(1)

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        max_memory_entries: int = 262_144,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if max_memory_entries < 1:
            raise ValueError("max_memory_entries must be >= 1")
        self.max_memory_entries = max_memory_entries
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._memory: OrderedDict[str, Objectives] = OrderedDict()
        self._disk: _SqliteStore | None = None
        self.backend = "memory"
        self.path: Path | None = None
        if path is not None:
            self.path = Path(path)
            self._disk = _SqliteStore(self.path)
            self.backend = "sqlite"
        self._init_metrics(registry)

    def _init_metrics(self, registry: MetricsRegistry | None) -> None:
        registry = registry if registry is not None else get_registry()
        label = f"cache-{next(self._instance_ids)}"
        self.metrics_label = label
        labelnames = ("cache", "backend")

        def series(family):
            return family.labels(label, self.backend)

        self._m_hits = series(registry.counter(
            "repro_cache_hits_total", "Cache lookups served (both tiers)",
            labelnames,
        ))
        self._m_misses = series(registry.counter(
            "repro_cache_misses_total", "Cache lookups missed", labelnames,
        ))
        self._m_disk_hits = series(registry.counter(
            "repro_cache_disk_hits_total",
            "Cache lookups served by the disk tier", labelnames,
        ))
        self._m_puts = series(registry.counter(
            "repro_cache_puts_total", "Evaluations stored", labelnames,
        ))
        self._m_evictions = series(registry.counter(
            "repro_cache_evictions_total",
            "Memory-tier LRU evictions", labelnames,
        ))
        self._m_hit_rate = series(registry.gauge(
            "repro_cache_hit_rate",
            "Fraction of lookups served from either tier", labelnames,
        ))
        self._m_entries = series(registry.gauge(
            "repro_cache_entries", "Distinct cached evaluations", labelnames,
        ))
        self._m_disk_seconds = registry.histogram(
            "repro_cache_disk_seconds",
            "Disk-tier operation latency", ("cache", "op"),
        )
        self._m_disk_get = self._m_disk_seconds.labels(label, "get")
        self._m_disk_put = self._m_disk_seconds.labels(label, "put")
        batch_seconds = registry.histogram(
            "repro_cache_batch_seconds",
            "Latency of one batched disk-tier operation", ("cache", "op"),
        )
        batch_size = registry.histogram(
            "repro_cache_batch_size",
            "Keys per batched disk-tier operation", ("cache", "op"),
            buckets=_BATCH_SIZE_BUCKETS,
        )
        self._m_batch = {
            op: (batch_seconds.labels(label, op), batch_size.labels(label, op))
            for op in ("get", "put")
        }
        # Collector pattern: CacheStats stays the source of truth and is
        # mirrored only when something scrapes (weakly referenced, so
        # registration never keeps a finished cache alive).
        registry.register_collector(self._collect_metrics)

    def _collect_metrics(self) -> None:
        with self._lock:
            stats = dataclasses.replace(self.stats)
            entries = len(self)
        self._m_hits.set_total(stats.hits)
        self._m_misses.set_total(stats.misses)
        self._m_disk_hits.set_total(stats.disk_hits)
        self._m_puts.set_total(stats.puts)
        self._m_evictions.set_total(stats.evictions)
        self._m_hit_rate.set(stats.hit_rate)
        self._m_entries.set(entries)

    # Core operations ------------------------------------------------------
    def get(self, key: str) -> Objectives | None:
        """Look up one key; promotes disk hits into the memory tier."""
        with self._lock:
            value = self._memory.get(key)
            if value is not None:
                self._memory.move_to_end(key)
                self.stats.hits += 1
                self.stats.memory_hits += 1
                return value
            if self._disk is not None:
                started = time.perf_counter()
                value = self._disk.get(key)
                self._m_disk_get.observe(time.perf_counter() - started)
                if value is not None:
                    self.stats.hits += 1
                    self.stats.disk_hits += 1
                    self._insert_memory(key, value)
                    return value
            self.stats.misses += 1
            return None

    def put(self, key: str, objectives: Iterable[float]) -> None:
        """Store one evaluation in both tiers."""
        value = tuple(float(v) for v in objectives)
        with self._lock:
            self.stats.puts += 1
            self._insert_memory(key, value)
            if self._disk is None:
                return
            started = time.perf_counter()
            self._disk.put(key, value)
            self._m_disk_put.observe(time.perf_counter() - started)

    def get_many(self, keys: Sequence[str]) -> list[Objectives | None]:
        """Vector lookup, one slot per key (``None`` on miss).

        Memory hits are served in place; everything else goes to the
        disk tier as **one** batched query instead of one round trip
        per key.  Disk hits are promoted into the memory tier exactly
        as :meth:`get` would.
        """
        # Child span only when a trace is already ambient (a campaign
        # above us); a bare cache call never starts a trace of its own.
        span = get_tracer().start_span("cache.get_many", category="cache")
        try:
            results = self._get_many(keys)
        except BaseException as exc:
            span.end(status="error", error=f"{type(exc).__name__}: {exc}")
            raise
        if span is not NULL_SPAN:
            span.set_attributes(
                keys=len(keys),
                misses=sum(1 for value in results if value is None),
            )
        span.end()
        return results

    def _get_many(self, keys: Sequence[str]) -> list[Objectives | None]:
        results: list[Objectives | None] = [None] * len(keys)
        with self._lock:
            missing: dict[str, list[int]] = {}
            for i, key in enumerate(keys):
                value = self._memory.get(key)
                if value is not None:
                    self._memory.move_to_end(key)
                    self.stats.hits += 1
                    self.stats.memory_hits += 1
                    results[i] = value
                else:
                    missing.setdefault(key, []).append(i)
            if not missing:
                return results
            found: dict[str, Objectives] = {}
            if self._disk is not None:
                started = time.perf_counter()
                found = self._disk.get_many(list(missing))
                seconds, size = self._m_batch["get"]
                seconds.observe(time.perf_counter() - started)
                size.observe(len(missing))
            for key, slots in missing.items():
                value = found.get(key)
                if value is None:
                    self.stats.misses += len(slots)
                    continue
                self.stats.hits += len(slots)
                self.stats.disk_hits += len(slots)
                self._insert_memory(key, value)
                for i in slots:
                    results[i] = value
            return results

    def put_many(self, entries: Mapping[str, Iterable[float]]) -> None:
        """Store a whole batch: one disk transaction."""
        values = {
            key: tuple(float(v) for v in objectives)
            for key, objectives in entries.items()
        }
        if not values:
            return
        with get_tracer().start_span(
            "cache.put_many", attributes={"entries": len(values)},
            category="cache",
        ):
            self._put_many(values)

    def _put_many(self, values: Mapping[str, Objectives]) -> None:
        with self._lock:
            self.stats.puts += len(values)
            for key, value in values.items():
                self._insert_memory(key, value)
            if self._disk is None:
                return
            started = time.perf_counter()
            self._disk.put_many(values)
            seconds, size = self._m_batch["put"]
            seconds.observe(time.perf_counter() - started)
            size.observe(len(values))

    def _insert_memory(self, key: str, value: Objectives) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    # Introspection --------------------------------------------------------
    def __len__(self) -> int:
        """Number of distinct cached evaluations (disk tier wins)."""
        with self._lock:
            if self._disk is not None:
                return len(self._disk)
            return len(self._memory)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._memory:
                return True
            return self._disk is not None and self._disk.get(key) is not None

    def items(self) -> list[tuple[str, Objectives]]:
        """Snapshot of every persisted (key, objectives) pair.

        Memory-only caches list the LRU tier.  This is the source feed
        of the ``repro cache migrate`` CLI.
        """
        with self._lock:
            if self._disk is not None:
                return list(self._disk.items())
            return list(self._memory.items())

    def compact(self) -> dict:
        """Compact the disk tier (SQLite: VACUUM); returns a summary dict."""
        with self._lock:
            if self._disk is None:
                raise ValueError("memory-only cache has no disk tier to compact")
            return self._disk.compact()

    def info(self) -> dict:
        """One JSON-able report of tier sizes, layout, and live stats."""
        with self._lock:
            payload = {
                "backend": self.backend,
                "path": str(self.path) if self.path is not None else None,
                "entries": len(self),
                "memory_entries": len(self._memory),
                "max_memory_entries": self.max_memory_entries,
                "stats": self.stats.as_dict(),
            }
            if self.path is not None and self.path.exists():
                payload["disk_bytes"] = self.path.stat().st_size
            return payload

    def close(self) -> None:
        with self._lock:
            if self._disk is not None:
                self._disk.close()
                self._disk = None

    def __enter__(self) -> "EvaluationCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
