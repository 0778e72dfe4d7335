"""Persistent run registry for campaign results.

Every campaign the serving stack executes can be recorded into a
:class:`RunStore`: a single SQLite file (WAL mode, safe for threaded
writers) holding one row per run — request fingerprint, spec labels,
timing/cache statistics, terminal status — plus the merged Pareto front
as *content-addressed* design-point rows.  Identical frontier points
recorded by different runs share one ``design_points`` row, so the
registry stays compact even when hundreds of campaigns converge to the
same designs.

Named *baselines* pin a run id under a stable name (``"main"``,
``"nightly"`` ...) for the regression gate (:mod:`repro.store.gate`)
and for cross-run comparison (:mod:`repro.store.analytics`).

Two observability tables ride along: ``metrics_history`` (sampled
metric values, see :class:`~repro.obs.snapshot.MetricsSnapshotter`)
and ``trace_spans`` (finished spans from :mod:`repro.obs.trace`,
linked to their run where the trace carried a ``run_id``).  Both are
append-only with explicit pruning (``repro runs gc``).

Recording is strictly opt-in and write-only from the campaign's point
of view: a campaign run with a store produces bit-identical fronts to
one without.
"""

from __future__ import annotations

import hashlib
import json
import math
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.hashing import stable_hash
from repro.service.api import CampaignRequest, CampaignResponse, FrontierPoint

__all__ = ["MetricsSnapshot", "RunRecord", "RunStore", "point_hash"]

#: Terminal statuses a run row may carry.
RUN_STATUSES = ("done", "failed", "cancelled")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id TEXT PRIMARY KEY,
    name TEXT,
    fingerprint TEXT NOT NULL,
    status TEXT NOT NULL,
    created_at REAL NOT NULL,
    wall_time_s REAL NOT NULL DEFAULT 0.0,
    evaluations INTEGER NOT NULL DEFAULT 0,
    fresh_evaluations INTEGER NOT NULL DEFAULT 0,
    specs TEXT NOT NULL,
    request TEXT,
    cache_stats TEXT,
    error TEXT,
    problem TEXT NOT NULL DEFAULT 'dcim',
    strategy TEXT
);
CREATE INDEX IF NOT EXISTS runs_by_fingerprint ON runs(fingerprint);
CREATE INDEX IF NOT EXISTS runs_by_created ON runs(created_at);
CREATE TABLE IF NOT EXISTS design_points (
    point_hash TEXT PRIMARY KEY,
    precision TEXT NOT NULL,
    n INTEGER NOT NULL,
    h INTEGER NOT NULL,
    l INTEGER NOT NULL,
    k INTEGER NOT NULL,
    objectives TEXT NOT NULL,
    extras TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS fronts (
    run_id TEXT NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    position INTEGER NOT NULL,
    point_hash TEXT NOT NULL REFERENCES design_points(point_hash),
    PRIMARY KEY (run_id, position)
);
CREATE TABLE IF NOT EXISTS baselines (
    name TEXT PRIMARY KEY,
    run_id TEXT NOT NULL REFERENCES runs(run_id),
    updated_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS metrics_history (
    snapshot_at REAL NOT NULL,
    source TEXT NOT NULL DEFAULT '',
    metrics TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS metrics_by_time ON metrics_history(snapshot_at);
CREATE TABLE IF NOT EXISTS trace_spans (
    trace_id TEXT NOT NULL,
    span_id TEXT NOT NULL,
    parent_id TEXT,
    name TEXT NOT NULL,
    category TEXT NOT NULL DEFAULT '',
    start_time REAL NOT NULL,
    duration_s REAL NOT NULL,
    status TEXT NOT NULL DEFAULT 'ok',
    error TEXT,
    attributes TEXT NOT NULL DEFAULT '{}',
    thread TEXT,
    source TEXT NOT NULL DEFAULT '',
    run_id TEXT,
    PRIMARY KEY (trace_id, span_id)
);
CREATE INDEX IF NOT EXISTS trace_spans_by_time ON trace_spans(start_time);
CREATE INDEX IF NOT EXISTS trace_spans_by_run ON trace_spans(run_id);
CREATE TABLE IF NOT EXISTS work_units (
    run_id TEXT NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    unit_id TEXT NOT NULL,
    spec_index INTEGER NOT NULL,
    spec TEXT NOT NULL DEFAULT '',
    worker_id TEXT,
    attempts INTEGER NOT NULL DEFAULT 0,
    status TEXT NOT NULL DEFAULT '',
    wall_time_s REAL NOT NULL DEFAULT 0.0,
    evaluations INTEGER NOT NULL DEFAULT 0,
    error TEXT,
    PRIMARY KEY (run_id, unit_id)
);
CREATE INDEX IF NOT EXISTS work_units_by_worker ON work_units(worker_id);
"""

#: The ``runs`` columns a :class:`RunRecord` reads, named rather than
#: ``r.*``: databases created before the numeric-backend columns were
#: dropped still carry ``engine_backend`` and ``ga_backend``.
_SELECT_RUNS = (
    "SELECT r.run_id, r.name, r.fingerprint, r.status, r.created_at, "
    "r.wall_time_s, r.evaluations, r.fresh_evaluations, r.specs, "
    "r.cache_stats, r.error, r.problem, r.strategy, "
    "(SELECT COUNT(*) FROM fronts f WHERE f.run_id = r.run_id) AS front_size "
    "FROM runs r"
)


def _summarize_strategies(response: CampaignResponse | None) -> str | None:
    """Collapse per-spec strategies into the run row's summary value.

    All-same collapses to that strategy, a mix becomes ``"mixed"``, and
    responses without strategy info (pre-kernel records) yield ``None``.
    """
    if response is None or not response.strategies:
        return None
    unique = set(response.strategies)
    return unique.pop() if len(unique) == 1 else "mixed"


def point_hash(point: FrontierPoint) -> str:
    """Content address of one frontier point (design + objectives).

    ``extras`` participates only when non-empty, so hashes of plain
    DCIM points are identical to those recorded before problems with
    extra point state existed.
    """
    return _design_point_row(point)[0]


def _is_finite_float(value) -> bool:
    return isinstance(value, float) and math.isfinite(value)


def _design_point_row(point: FrontierPoint) -> tuple:
    """One point's ``design_points`` row, its content address first.

    The address is :func:`~repro.core.hashing.stable_hash` of the
    point's canonical JSON, and the ``objectives`` column is
    ``json.dumps`` of the objective list.  For the common point (no
    extras, ``int`` genes, finite ``float`` objectives) both are
    formatted here from one set of float reprs — ``json`` writes every
    finite float, ``np.float64`` included, as ``float.__repr__`` — which
    is byte-identical, formats each float once instead of twice, and
    skips the encoders' generic machinery.  Any other point goes
    through the general encoders.
    """
    precision, n, h, l, k = point.precision, point.n, point.h, point.l, point.k
    objectives = point.objectives
    if (
        not point.extras
        and type(precision) is str
        and type(n) is type(h) is type(l) is type(k) is int
        and all(map(_is_finite_float, objectives))
    ):
        reprs = list(map(float.__repr__, objectives))
        # Keys in sort order, no whitespace: what stable_hash builds.
        text = (
            f'{{"h":{h},"k":{k},"l":{l},"n":{n},'
            f'"objectives":[{",".join(reprs)}],'
            f'"precision":{json.dumps(precision)}}}'
        )
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return (digest, precision, n, h, l, k, f"[{', '.join(reprs)}]", "{}")
    payload = {
        "precision": precision,
        "n": n,
        "h": h,
        "l": l,
        "k": k,
        "objectives": list(objectives),
    }
    if point.extras:
        payload["extras"] = point.extras
    return (
        stable_hash(payload),
        precision,
        n,
        h,
        l,
        k,
        json.dumps(list(objectives)),
        # default=str matches stable_hash: extras that hash also store.
        json.dumps(point.extras or {}, sort_keys=True, default=str),
    )


@dataclass(frozen=True)
class RunRecord:
    """One registry row (front rows are fetched separately).

    Attributes:
        run_id: store-assigned identifier (``run-<hex>``).
        name: optional human label given at record time.
        fingerprint: content hash of the request (or spec set) that
            produced the run — identical workloads share it.
        status: terminal status (``done``/``failed``/``cancelled``).
        created_at: wall-clock epoch seconds when recorded.
        wall_time_s: campaign wall clock.
        evaluations / fresh_evaluations: unique genomes looked up /
            actually computed (cache misses).
        specs: per-spec labels (``"<wstore>:<precision>"`` for DCIM).
        front_size: merged-frontier rows recorded for this run.
        cache_stats: cache counter snapshot (``None`` when uncached).
        error: failure/cancellation detail for non-``done`` runs.
        problem: :mod:`repro.problems` registry name the run optimised;
            analytics and the regression gate only compare runs of the
            same problem.
        strategy: exploration strategy summary — ``"ga"`` or
            ``"exhaustive"`` when every spec used that strategy,
            ``"mixed"`` otherwise, ``None`` for pre-strategy rows.
    """

    run_id: str
    fingerprint: str
    status: str
    created_at: float
    name: str | None = None
    wall_time_s: float = 0.0
    evaluations: int = 0
    fresh_evaluations: int = 0
    specs: tuple[str, ...] = ()
    front_size: int = 0
    cache_stats: dict | None = None
    error: str | None = None
    problem: str = "dcim"
    strategy: str | None = None

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "name": self.name,
            "fingerprint": self.fingerprint,
            "status": self.status,
            "created_at": self.created_at,
            "wall_time_s": self.wall_time_s,
            "evaluations": self.evaluations,
            "fresh_evaluations": self.fresh_evaluations,
            "specs": list(self.specs),
            "front_size": self.front_size,
            "cache_stats": self.cache_stats,
            "error": self.error,
            "problem": self.problem,
            "strategy": self.strategy,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRecord":
        payload = dict(payload)
        payload["specs"] = tuple(payload.get("specs", ()))
        return cls(**payload)

    def describe(self) -> str:
        """One-line human rendering used by ``repro runs list``."""
        label = f" ({self.name})" if self.name else ""
        via = f" via {self.strategy}" if self.strategy else ""
        return (
            f"{self.run_id}{label}: {self.problem}, {self.status}, "
            f"{len(self.specs)} specs, front {self.front_size}, "
            f"{self.evaluations} evaluations{via}, {self.wall_time_s:.2f} s"
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """One sampled row of the ``metrics_history`` table.

    Attributes:
        snapshot_at: wall-clock epoch seconds when sampled.
        source: tag of the sampling process (e.g. ``"serve"``).
        metrics: flat ``{series: value}`` sample — the shape
            :meth:`repro.obs.metrics.MetricsRegistry.sample_values`
            produces.
    """

    snapshot_at: float
    source: str
    metrics: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "snapshot_at": self.snapshot_at,
            "source": self.source,
            "metrics": dict(self.metrics),
        }


class RunStore:
    """SQLite-backed registry of recorded campaign runs.

    Args:
        path: database file (created on first use); ``":memory:"``
            keeps the registry process-local (handy in tests).

    One connection is shared across threads (``check_same_thread=False``)
    behind an ``RLock``; the database runs in WAL mode so concurrent
    stores on the same path (other processes) read while one writes.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path) if str(path) != ":memory:" else None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            str(self.path) if self.path is not None else ":memory:",
            check_same_thread=False,
            timeout=30.0,  # wait out writers from other processes
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA foreign_keys=ON")
        self._conn.executescript(_SCHEMA)
        self._migrate()
        self._conn.commit()

    def _migrate(self) -> None:
        """Bring pre-v2 databases up to the current schema in place.

        ``CREATE TABLE IF NOT EXISTS`` leaves existing tables alone, so
        columns added since a database was created are backfilled here
        (``ALTER TABLE ADD COLUMN`` appends).  Retired columns stay in
        older databases; every read names its columns.
        """
        migrations = [
            ("runs", "problem", "TEXT NOT NULL DEFAULT 'dcim'"),
            ("design_points", "extras", "TEXT NOT NULL DEFAULT '{}'"),
            ("runs", "strategy", "TEXT"),
        ]
        for table, column, decl in migrations:
            present = {
                row[1]
                for row in self._conn.execute(f"PRAGMA table_info({table})")
            }
            if column not in present:
                try:
                    self._conn.execute(
                        f"ALTER TABLE {table} ADD COLUMN {column} {decl}"
                    )
                except sqlite3.OperationalError as exc:
                    # Two stores opening the same pre-v2 file can race
                    # the check-then-alter; the loser finds the column
                    # already added, which is the state we wanted.
                    if "duplicate column name" not in str(exc).lower():
                        raise

    # Recording ------------------------------------------------------------
    def record_response(
        self,
        response: CampaignResponse,
        request: CampaignRequest | None = None,
        *,
        specs: tuple[str, ...] | list[str] = (),
        name: str | None = None,
        fingerprint: str | None = None,
        problem: str | None = None,
    ) -> RunRecord:
        """Record one successfully finished campaign; returns its row.

        ``fingerprint`` defaults to the request's content hash (or, for
        request-less programmatic campaigns, a hash of the spec labels);
        ``problem`` defaults to the request's (or response's) problem
        name.
        """
        return self._record(
            status="done",
            response=response,
            request=request,
            specs=tuple(specs),
            name=name,
            fingerprint=fingerprint,
            problem=problem,
        )

    def record_failure(
        self,
        status: str,
        error: str,
        request: CampaignRequest | None = None,
        *,
        specs: tuple[str, ...] | list[str] = (),
        name: str | None = None,
        fingerprint: str | None = None,
        problem: str | None = None,
    ) -> RunRecord:
        """Record a failed or cancelled campaign (no front rows)."""
        if status not in ("failed", "cancelled"):
            raise ValueError(f"status must be failed/cancelled, got {status!r}")
        return self._record(
            status=status,
            response=None,
            request=request,
            specs=tuple(specs),
            name=name,
            fingerprint=fingerprint,
            error=error,
            problem=problem,
        )

    def _record(
        self,
        status: str,
        response: CampaignResponse | None,
        request: CampaignRequest | None,
        specs: tuple[str, ...],
        name: str | None,
        fingerprint: str | None,
        error: str | None = None,
        problem: str | None = None,
    ) -> RunRecord:
        if request is not None and not specs:
            from repro.problems import get_problem

            definition = get_problem(request.problem)
            labels = []
            for spec in request.specs:
                try:
                    labels.append(definition.request_label(spec))
                except Exception:  # labels must never block recording
                    labels.append("<unlabelled spec>")
            specs = tuple(labels)
        if fingerprint is None:
            fingerprint = (
                request.fingerprint()
                if request is not None
                else stable_hash({"specs": list(specs)})
            )
        if problem is None:
            if request is not None:
                problem = request.problem
            elif response is not None:
                problem = response.problem
            else:
                problem = "dcim"
        run_id = f"run-{uuid.uuid4().hex[:12]}"
        created_at = time.time()
        frontier = response.frontier if response is not None else ()
        with self._lock:
            try:
                self._insert_run_locked(
                    run_id, name, fingerprint, status, created_at,
                    response, request, specs, error, problem, frontier,
                )
                self._conn.commit()
            except Exception:
                # A half-inserted run (row without its front) must not
                # be committed later by an unrelated write.
                self._conn.rollback()
                raise
        return RunRecord(
            run_id=run_id,
            name=name,
            fingerprint=fingerprint,
            status=status,
            created_at=created_at,
            wall_time_s=response.wall_time_s if response is not None else 0.0,
            evaluations=response.evaluations if response is not None else 0,
            fresh_evaluations=(
                response.fresh_evaluations if response is not None else 0
            ),
            specs=specs,
            front_size=len(frontier),
            cache_stats=response.cache_stats if response is not None else None,
            error=error,
            problem=problem,
            strategy=_summarize_strategies(response),
        )

    def _insert_run_locked(
        self,
        run_id: str,
        name: str | None,
        fingerprint: str,
        status: str,
        created_at: float,
        response: CampaignResponse | None,
        request: CampaignRequest | None,
        specs: tuple[str, ...],
        error: str | None,
        problem: str,
        frontier,
    ) -> None:
        self._conn.execute(
            "INSERT INTO runs (run_id, name, fingerprint, status, "
            "created_at, wall_time_s, evaluations, fresh_evaluations, "
            "specs, request, cache_stats, error, problem, strategy) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                run_id,
                name,
                fingerprint,
                status,
                created_at,
                response.wall_time_s if response is not None else 0.0,
                response.evaluations if response is not None else 0,
                response.fresh_evaluations if response is not None else 0,
                json.dumps(list(specs)),
                request.to_json() if request is not None else None,
                (
                    json.dumps(response.cache_stats)
                    if response is not None and response.cache_stats is not None
                    else None
                ),
                error,
                problem,
                _summarize_strategies(response),
            ),
        )
        rows = [_design_point_row(point) for point in frontier]
        self._conn.executemany(
            "INSERT OR IGNORE INTO design_points "
            "(point_hash, precision, n, h, l, k, objectives, extras) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            rows,
        )
        self._conn.executemany(
            "INSERT INTO fronts (run_id, position, point_hash) "
            "VALUES (?, ?, ?)",
            [(run_id, position, row[0]) for position, row in enumerate(rows)],
        )

    # Lookup ---------------------------------------------------------------
    def list_runs(
        self,
        limit: int | None = None,
        status: str | None = None,
        offset: int = 0,
        problem: str | None = None,
    ) -> list[RunRecord]:
        """Recorded runs, newest first.

        Args:
            limit / offset: page through the registry (``limit=None``
                returns everything from ``offset`` on).
            status: only runs with this terminal status.
            problem: only runs of this registered problem.
        """
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        if limit is not None and limit < 0:
            # A negative LIMIT means "unbounded" to SQLite — exactly the
            # unpaginated read this parameter exists to prevent.
            raise ValueError(f"limit must be >= 0, got {limit}")
        query = _SELECT_RUNS
        params: list = []
        clauses = []
        if status is not None:
            clauses.append("r.status = ?")
            params.append(status)
        if problem is not None:
            clauses.append("r.problem = ?")
            params.append(problem)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY r.created_at DESC, r.rowid DESC"
        if limit is not None or offset:
            # SQLite requires a LIMIT clause to use OFFSET; -1 = no cap.
            query += " LIMIT ? OFFSET ?"
            params.extend([-1 if limit is None else limit, offset])
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        return [self._row_to_record(row) for row in rows]

    def get_run(self, run_id: str) -> RunRecord:
        """One run by id; raises :class:`KeyError` when unknown."""
        with self._lock:
            row = self._conn.execute(
                _SELECT_RUNS + " WHERE r.run_id = ?", (run_id,)
            ).fetchone()
        if row is None:
            raise KeyError(f"unknown run id {run_id!r}")
        return self._row_to_record(row)

    def resolve(self, ref: str) -> RunRecord:
        """A run by id, baseline name, or run name (latest wins)."""
        with self._lock:
            try:
                return self.get_run(ref)
            except KeyError:
                pass
            row = self._conn.execute(
                "SELECT run_id FROM baselines WHERE name = ?", (ref,)
            ).fetchone()
            if row is not None:
                return self.get_run(row[0])
            row = self._conn.execute(
                "SELECT run_id FROM runs WHERE name = ? "
                "ORDER BY created_at DESC, rowid DESC LIMIT 1",
                (ref,),
            ).fetchone()
            if row is not None:
                return self.get_run(row[0])
        raise KeyError(f"no run, baseline, or run name matches {ref!r}")

    def front(self, run_id: str) -> list[FrontierPoint]:
        """The recorded merged frontier of one run, in stored order."""
        self.get_run(run_id)  # raise KeyError for unknown ids
        with self._lock:
            rows = self._conn.execute(
                "SELECT p.precision, p.n, p.h, p.l, p.k, p.objectives, "
                "p.extras FROM fronts f JOIN design_points p "
                "ON p.point_hash = f.point_hash "
                "WHERE f.run_id = ? ORDER BY f.position",
                (run_id,),
            ).fetchall()
        return [
            FrontierPoint(
                precision=precision,
                n=n,
                h=h,
                l=l,
                k=k,
                objectives=tuple(json.loads(objectives)),
                extras=json.loads(extras) if extras else {},
            )
            for precision, n, h, l, k, objectives, extras in rows
        ]

    def front_hashes(self, run_id: str) -> list[str]:
        """Content hashes of one run's front rows (diff primitive)."""
        self.get_run(run_id)
        with self._lock:
            rows = self._conn.execute(
                "SELECT point_hash FROM fronts WHERE run_id = ? "
                "ORDER BY position",
                (run_id,),
            ).fetchall()
        return [row[0] for row in rows]

    # Baselines ------------------------------------------------------------
    def set_baseline(self, name: str, run_id: str) -> None:
        """Pin ``name`` to ``run_id`` (overwrites an existing pin)."""
        self.get_run(run_id)
        with self._lock:
            self._conn.execute(
                "INSERT INTO baselines (name, run_id, updated_at) "
                "VALUES (?, ?, ?) ON CONFLICT(name) DO UPDATE SET "
                "run_id = excluded.run_id, updated_at = excluded.updated_at",
                (name, run_id, time.time()),
            )
            self._conn.commit()

    def get_baseline(self, name: str) -> RunRecord:
        """The run a baseline points at; raises :class:`KeyError`."""
        with self._lock:
            row = self._conn.execute(
                "SELECT run_id FROM baselines WHERE name = ?", (name,)
            ).fetchone()
        if row is None:
            raise KeyError(f"unknown baseline {name!r}")
        return self.get_run(row[0])

    def baselines(self) -> dict[str, str]:
        """``{name: run_id}`` of every pinned baseline."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT name, run_id FROM baselines ORDER BY name"
            ).fetchall()
        return dict(rows)

    # Metrics history -------------------------------------------------------
    def append_metrics_snapshot(
        self,
        metrics: dict[str, float],
        source: str = "",
        snapshot_at: float | None = None,
    ) -> MetricsSnapshot:
        """Append one flat metrics sample; returns the stored row."""
        record = MetricsSnapshot(
            snapshot_at=time.time() if snapshot_at is None else snapshot_at,
            source=source,
            metrics=dict(metrics),
        )
        with self._lock:
            self._conn.execute(
                "INSERT INTO metrics_history (snapshot_at, source, metrics) "
                "VALUES (?, ?, ?)",
                (record.snapshot_at, record.source, json.dumps(record.metrics)),
            )
            self._conn.commit()
        return record

    def metrics_history(
        self,
        limit: int | None = None,
        source: str | None = None,
        since: float | None = None,
    ) -> list[MetricsSnapshot]:
        """Sampled metrics rows, oldest first (chart-ready order).

        ``limit`` keeps the *most recent* N rows (still returned oldest
        first); ``since`` drops rows sampled before that epoch time.
        """
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        query = "SELECT snapshot_at, source, metrics FROM metrics_history"
        params: list = []
        clauses = []
        if source is not None:
            clauses.append("source = ?")
            params.append(source)
        if since is not None:
            clauses.append("snapshot_at >= ?")
            params.append(since)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        # DESC + LIMIT selects the most recent N; reverse to oldest-first.
        query += " ORDER BY snapshot_at DESC, rowid DESC"
        if limit is not None:
            query += " LIMIT ?"
            params.append(limit)
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        return [
            MetricsSnapshot(
                snapshot_at=snapshot_at,
                source=source_tag,
                metrics=json.loads(metrics),
            )
            for snapshot_at, source_tag, metrics in reversed(rows)
        ]

    def prune_metrics_history(self, older_than_s: float) -> int:
        """Drop samples older than ``older_than_s`` seconds; returns count."""
        if older_than_s < 0:
            raise ValueError(f"older_than_s must be >= 0, got {older_than_s}")
        cutoff = time.time() - older_than_s
        with self._lock:
            cursor = self._conn.execute(
                "DELETE FROM metrics_history WHERE snapshot_at < ?", (cutoff,)
            )
            self._conn.commit()
        return cursor.rowcount

    # Trace spans -----------------------------------------------------------
    def append_trace_spans(
        self, spans: list[dict], source: str = ""
    ) -> int:
        """Persist one finished trace's spans; returns rows written.

        ``spans`` is the :meth:`repro.obs.trace.Span.to_dict` shape.
        The trace-level ``run_id`` link is pulled from the first span
        carrying a ``run_id`` attribute (the campaign/job spans set it)
        and stamped onto every row of the trace, so
        ``trace_spans_by_run`` answers "which traces touched this run".
        Re-appending a trace is idempotent (primary key upsert).
        """
        if not spans:
            return 0
        run_id = None
        for span in spans:
            candidate = (span.get("attributes") or {}).get("run_id")
            if candidate:
                run_id = str(candidate)
                break
        rows = [
            (
                span["trace_id"],
                span["span_id"],
                span.get("parent_id"),
                span["name"],
                span.get("category") or "",
                span["start_time"],
                span["duration_s"],
                span.get("status") or "ok",
                span.get("error"),
                json.dumps(span.get("attributes") or {}, default=str),
                span.get("thread"),
                source,
                run_id,
            )
            for span in spans
        ]
        with self._lock:
            self._conn.executemany(
                "INSERT OR REPLACE INTO trace_spans (trace_id, span_id, "
                "parent_id, name, category, start_time, duration_s, status, "
                "error, attributes, thread, source, run_id) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )
            self._conn.commit()
        return len(rows)

    def trace_list(
        self,
        limit: int | None = None,
        run_id: str | None = None,
        source: str | None = None,
    ) -> list[dict]:
        """Persisted traces as summary dicts, newest first.

        Each entry carries ``trace_id``, root ``name``, ``start_time``,
        end-to-end ``duration_s``, aggregate ``status``, ``span_count``,
        ``source``, and the linked ``run_id`` (when known).
        """
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        query = (
            "SELECT trace_id, MIN(start_time), "
            "MAX(start_time + duration_s) - MIN(start_time), COUNT(*), "
            "MAX(CASE WHEN status = 'error' THEN 1 ELSE 0 END), "
            "MAX(source), MAX(run_id) FROM trace_spans"
        )
        params: list = []
        clauses = []
        if run_id is not None:
            clauses.append("run_id = ?")
            params.append(run_id)
        if source is not None:
            clauses.append("source = ?")
            params.append(source)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " GROUP BY trace_id ORDER BY MIN(start_time) DESC"
        if limit is not None:
            query += " LIMIT ?"
            params.append(limit)
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
            summaries = []
            for (
                trace_id, start, duration, count, errored, src, linked
            ) in rows:
                # The trace's display name is its root span's (no parent
                # inside the trace); the earliest span is the fallback
                # for traces persisted without their root.
                name_row = self._conn.execute(
                    "SELECT name FROM trace_spans WHERE trace_id = ? "
                    "ORDER BY (parent_id IS NOT NULL), start_time LIMIT 1",
                    (trace_id,),
                ).fetchone()
                summaries.append(
                    {
                        "trace_id": trace_id,
                        "name": name_row[0] if name_row else "",
                        "start_time": start,
                        "duration_s": duration,
                        "status": "error" if errored else "ok",
                        "span_count": count,
                        "source": src or "",
                        "run_id": linked,
                    }
                )
        return summaries

    def trace_spans(self, trace_id: str) -> list[dict]:
        """One persisted trace's spans, ordered by start time."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT trace_id, span_id, parent_id, name, category, "
                "start_time, duration_s, status, error, attributes, thread, "
                "source, run_id FROM trace_spans WHERE trace_id = ? "
                "ORDER BY start_time, span_id",
                (trace_id,),
            ).fetchall()
        return [
            {
                "trace_id": row[0],
                "span_id": row[1],
                "parent_id": row[2],
                "name": row[3],
                "category": row[4],
                "start_time": row[5],
                "duration_s": row[6],
                "status": row[7],
                "error": row[8],
                "attributes": json.loads(row[9]) if row[9] else {},
                "thread": row[10],
                "source": row[11],
                "run_id": row[12],
            }
            for row in rows
        ]

    def prune_trace_spans(self, older_than_s: float) -> int:
        """Drop spans started more than ``older_than_s`` seconds ago."""
        if older_than_s < 0:
            raise ValueError(f"older_than_s must be >= 0, got {older_than_s}")
        cutoff = time.time() - older_than_s
        with self._lock:
            cursor = self._conn.execute(
                "DELETE FROM trace_spans WHERE start_time < ?", (cutoff,)
            )
            self._conn.commit()
        return cursor.rowcount

    # Distributed work units -------------------------------------------------
    def record_work_units(self, run_id: str, rows: list[dict]) -> int:
        """Persist the per-unit outcomes of one distributed run.

        ``rows`` is the :meth:`repro.service.distributed.WorkUnit.row`
        shape — which worker evaluated each unit, how many lease
        attempts it took, and the per-unit wall time.  Re-recording a
        unit upserts on ``(run_id, unit_id)``.
        """
        self.get_run(run_id)
        if not rows:
            return 0
        with self._lock:
            self._conn.executemany(
                "INSERT OR REPLACE INTO work_units (run_id, unit_id, "
                "spec_index, spec, worker_id, attempts, status, "
                "wall_time_s, evaluations, error) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    (
                        run_id,
                        row["unit_id"],
                        int(row.get("spec_index") or 0),
                        row.get("spec") or "",
                        row.get("worker_id"),
                        int(row.get("attempts") or 0),
                        row.get("status") or "",
                        float(row.get("wall_time_s") or 0.0),
                        int(row.get("evaluations") or 0),
                        row.get("error"),
                    )
                    for row in rows
                ],
            )
            self._conn.commit()
        return len(rows)

    def work_units(self, run_id: str) -> list[dict]:
        """One run's recorded work units, in spec order."""
        self.get_run(run_id)
        with self._lock:
            rows = self._conn.execute(
                "SELECT unit_id, spec_index, spec, worker_id, attempts, "
                "status, wall_time_s, evaluations, error FROM work_units "
                "WHERE run_id = ? ORDER BY spec_index, unit_id",
                (run_id,),
            ).fetchall()
        return [
            {
                "unit_id": row[0],
                "spec_index": row[1],
                "spec": row[2],
                "worker_id": row[3],
                "attempts": row[4],
                "status": row[5],
                "wall_time_s": row[6],
                "evaluations": row[7],
                "error": row[8],
            }
            for row in rows
        ]

    def worker_summary(self) -> list[dict]:
        """Aggregate per-worker totals across every recorded run."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT worker_id, COUNT(*), "
                "SUM(CASE WHEN status = 'done' THEN 1 ELSE 0 END), "
                "SUM(evaluations), SUM(wall_time_s) FROM work_units "
                "WHERE worker_id IS NOT NULL GROUP BY worker_id "
                "ORDER BY worker_id",
            ).fetchall()
        return [
            {
                "worker_id": row[0],
                "units": row[1],
                "units_done": row[2],
                "evaluations": row[3] or 0,
                "wall_time_s": row[4] or 0.0,
            }
            for row in rows
        ]

    # Maintenance ----------------------------------------------------------
    def delete_run(self, run_id: str) -> None:
        """Drop one run, its front rows, and any baselines pinning it."""
        self.get_run(run_id)
        with self._lock:
            self._conn.execute(
                "DELETE FROM baselines WHERE run_id = ?", (run_id,)
            )
            self._conn.execute("DELETE FROM runs WHERE run_id = ?", (run_id,))
            self._prune_orphan_points()
            self._conn.commit()

    def gc(
        self, keep_last: int | None = None, older_than_s: float | None = None
    ) -> int:
        """Delete old runs; baseline-pinned runs are always kept.

        Args:
            keep_last: retain this many newest runs (plus baselines).
            older_than_s: only delete runs recorded more than this many
                seconds ago.

        Returns how many runs were deleted.  At least one criterion is
        required, and neither may be negative.
        """
        if keep_last is None and older_than_s is None:
            raise ValueError("gc needs keep_last and/or older_than_s")
        if keep_last is not None and keep_last < 0:
            raise ValueError(f"keep_last must be >= 0, got {keep_last}")
        if older_than_s is not None and older_than_s < 0:
            raise ValueError(f"older_than_s must be >= 0, got {older_than_s}")
        with self._lock:
            pinned = set(self.baselines().values())
            records = self.list_runs()  # newest first
            doomed = []
            for index, record in enumerate(records):
                if record.run_id in pinned:
                    continue
                if keep_last is not None and index < keep_last:
                    continue
                if (
                    older_than_s is not None
                    and time.time() - record.created_at < older_than_s
                ):
                    continue
                doomed.append(record.run_id)
            for run_id in doomed:
                self._conn.execute(
                    "DELETE FROM runs WHERE run_id = ?", (run_id,)
                )
            self._prune_orphan_points()
            self._conn.commit()
        return len(doomed)

    def _prune_orphan_points(self) -> None:
        self._conn.execute(
            "DELETE FROM design_points WHERE point_hash NOT IN "
            "(SELECT DISTINCT point_hash FROM fronts)"
        )

    def __len__(self) -> int:
        with self._lock:
            return self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]

    def point_count(self) -> int:
        """Distinct design-point rows (shared across runs by content)."""
        with self._lock:
            return self._conn.execute(
                "SELECT COUNT(*) FROM design_points"
            ).fetchone()[0]

    def _row_to_record(self, row: tuple) -> RunRecord:
        (
            run_id,
            name,
            fingerprint,
            status,
            created_at,
            wall_time_s,
            evaluations,
            fresh_evaluations,
            specs,
            cache_stats,
            error,
            problem,
            strategy,
            front_size,
        ) = row
        return RunRecord(
            run_id=run_id,
            name=name,
            fingerprint=fingerprint,
            status=status,
            created_at=created_at,
            wall_time_s=wall_time_s,
            evaluations=evaluations,
            fresh_evaluations=fresh_evaluations,
            specs=tuple(json.loads(specs)),
            front_size=front_size,
            cache_stats=json.loads(cache_stats) if cache_stats else None,
            error=error,
            problem=problem,
            strategy=strategy,
        )

    def request_of(self, run_id: str) -> CampaignRequest | None:
        """The originating request, when one was recorded."""
        self.get_run(run_id)
        with self._lock:
            row = self._conn.execute(
                "SELECT request FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
        return CampaignRequest.from_json(row[0]) if row[0] else None

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
