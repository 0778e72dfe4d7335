"""Run registry & Pareto analytics: a persistent store for campaigns.

The serving stack (:mod:`repro.service`) executes many campaigns whose
results would otherwise evaporate when the process exits.  This package
records, compares, and guards them over time:

* :mod:`repro.store.runstore` — the SQLite-backed :class:`RunStore`
  (WAL, thread-safe) recording every campaign: request fingerprint,
  spec provenance, content-addressed front rows, timing/cache stats,
  and terminal status, plus named baselines,
* :mod:`repro.store.analytics` — front-quality indicators between any
  two recorded runs (hypervolume, additive epsilon-indicator, mutual
  coverage, front diff, knee drift),
* :mod:`repro.store.gate` — the regression gate comparing a run against
  a named baseline and failing with a structured report when front
  quality degrades beyond tolerance.

Recording is opt-in: the job or command that holds a campaign's
request records its outcome after the campaign (``JobQueue(store=...)``,
``repro campaign --store PATH``), so it never changes the result.
"""

from repro._lazy import lazy_exports

__all__ = [
    "RunStore",
    "RunRecord",
    "point_hash",
    "FrontComparison",
    "compare_fronts",
    "compare_runs",
    "epsilon_indicator",
    "front_coverage",
    "knee_drift",
    "union_hypervolumes",
    "GateConfig",
    "GateReport",
    "check_regression",
]

_EXPORTS = {
    "repro.store.analytics": (
        "FrontComparison", "compare_fronts", "compare_runs", "epsilon_indicator",
        "front_coverage", "knee_drift", "union_hypervolumes",
    ),
    "repro.store.gate": ("GateConfig", "GateReport", "check_regression"),
    "repro.store.runstore": ("RunRecord", "RunStore", "point_hash"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
