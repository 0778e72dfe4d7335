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

The registry records runs, fronts and baselines only; traces live in
the tracer's bounded in-memory ring (:mod:`repro.obs.trace`, served at
``/api/traces``).  A database written while the server still persisted
trace spans, per-unit worker rows or metrics history keeps those
tables (``trace_spans``, ``work_units``, ``metrics_history``), unread.

Recording is strictly opt-in and write-only from the campaign's point
of view: a campaign run with a store produces bit-identical fronts to
one without.

Durability: the WAL connection runs with ``synchronous=NORMAL``, as the
evaluation cache's SQLite tier does, so a commit does not wait for an
fsync.  A run whose ``record_*`` call has returned survives a crash or
``kill -9`` of the process.  An OS crash or power loss can roll back
the last few recorded runs, and the file stays consistent.
"""

from __future__ import annotations

import hashlib
import json
import math
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from repro.core.hashing import stable_hash
from repro.service.api import CampaignRequest, CampaignResponse, FrontierPoint

__all__ = ["RunRecord", "RunStore", "point_hash"]

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
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
            # No fsync per commit; what that risks: the module docstring.
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA foreign_keys=ON")
            self._conn.executescript(_SCHEMA)
            self._migrate()
            self._conn.commit()
        except sqlite3.Error:  # e.g. a file that is not a database
            self._conn.close()
            raise

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
