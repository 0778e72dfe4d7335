"""Periodic metrics snapshots into the run registry.

:class:`MetricsSnapshotter` samples the process metrics registry
(:func:`~repro.obs.metrics.get_registry`) every ``interval_s`` seconds
and appends the flat ``{series: value}`` sample as one row of the
:class:`~repro.store.runstore.RunStore`'s ``metrics_history`` table.
The dashboard (``repro dashboard``) charts those rows, so the server's
traffic/cache/queue history survives restarts alongside the runs
themselves.

Snapshotting is strictly best-effort: a failed store write is counted
(:attr:`MetricsSnapshotter.errors`) and retried on the next tick, and
the daemon thread never takes the server down.
"""

from __future__ import annotations

import threading

from repro.obs.metrics import get_registry
from repro.obs.trace import normalize_source

__all__ = ["MetricsSnapshotter"]


class MetricsSnapshotter:
    """Background sampler appending registry snapshots to a store.

    Each tick samples whatever registry
    :func:`~repro.obs.metrics.get_registry` returns at that moment.

    Args:
        store: a :class:`~repro.store.runstore.RunStore` (anything with
            ``append_metrics_snapshot``).
        interval_s: seconds between snapshots.
        source: tag recorded with every row (lets one registry hold
            history from several processes/servers).  Normalised
            through :func:`repro.obs.trace.normalize_source`, so
            snapshot rows and persisted trace spans share one
            ``source`` vocabulary.

    Use as a context manager, or ``start()``/``stop()`` explicitly::

        with MetricsSnapshotter(store, interval_s=15.0):
            server.serve_forever()
    """

    def __init__(
        self,
        store,
        interval_s: float = 30.0,
        source: str = "serve",
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.store = store
        self.interval_s = interval_s
        self.source = normalize_source(source)
        #: Snapshots appended / store writes failed since construction.
        self.snapshots = 0
        self.errors = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def snapshot_once(self):
        """Sample the registry and append one history row (returns it)."""
        record = self.store.append_metrics_snapshot(
            get_registry().sample_values(), source=self.source
        )
        self.snapshots += 1
        return record

    def start(self) -> None:
        """Launch the daemon sampling thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="metrics-snapshotter", daemon=True
        )
        self._thread.start()

    def stop(self, final_snapshot: bool = True) -> None:
        """Stop the thread; by default flush one last snapshot.

        The final snapshot captures whatever happened since the last
        tick, so short-lived servers still leave history behind.
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=max(1.0, self.interval_s))
            self._thread = None
        if final_snapshot:
            try:
                self.snapshot_once()
            except Exception:
                self.errors += 1

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.snapshot_once()
            except Exception:
                # Best-effort: a locked database or closed store must
                # not kill the sampler; retry on the next tick.
                self.errors += 1

    def __enter__(self) -> "MetricsSnapshotter":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
