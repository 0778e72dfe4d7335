"""Pareto dominance, front extraction and front quality metrics.

Implements Eq. (1) of the paper (Pareto dominance in a minimisation
context) plus the utilities the explorer and the distillation step rely
on: non-dominated filtering, hypervolume (for front-quality ablations)
and knee-point selection.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TypeVar

import numpy as np

__all__ = [
    "dominates",
    "dominance_matrix",
    "dominated_flags",
    "pareto_mask",
    "pareto_front",
    "hypervolume",
    "knee_point",
    "normalize_objectives",
]

T = TypeVar("T")

#: Candidate rows per block in :func:`dominated_flags`.  Bounds each
#: ``(n, chunk)`` boolean intermediate to ``n`` KiB, so memory grows
#: linearly, not quadratically, with the front.
_DOMINANCE_CHUNK = 1024


def dominates(u: Sequence[float], v: Sequence[float]) -> bool:
    """Eq. (1): ``u`` Pareto-dominates ``v`` (all <=, at least one <).

    Both vectors are minimised component-wise and must share a length.
    """
    if len(u) != len(v):
        raise ValueError(f"objective vectors differ in length: {len(u)} vs {len(v)}")
    not_worse = all(a <= b for a, b in zip(u, v))
    strictly_better = any(a < b for a, b in zip(u, v))
    return not_worse and strictly_better


def _points(objectives) -> np.ndarray:
    points = np.asarray(objectives, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"expected a 2-D objective array, got shape {points.shape}")
    return points


def _no_worse(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``W[i, j]``: ``rows[i] <= cols[j]`` in every objective.

    The column-fold kernel: one ``(len(rows), len(cols))`` comparison
    per objective, and-ed into a single boolean accumulator.  An
    ``(n, c, m)`` broadcast reduced over its short last axis costs
    several times more at the four objectives a DSE front has.  ``nan``
    compares False, so a row holding one is no worse than nothing and
    nothing is no worse than it.
    """
    out = np.ones((len(rows), len(cols)), dtype=bool)
    for row_values, col_values in zip(rows.T, cols.T):
        out &= row_values[:, None] <= col_values
    return out


def dominance_matrix(objectives: np.ndarray) -> np.ndarray:
    """Full ``(n, n)`` boolean matrix with ``D[i, j] = row i dominates row j``.

    One O(M·N²) column fold instead of N² Python-level comparisons;
    this is the array kernel the GA's non-dominated sort
    (:mod:`repro.dse.kernels`) is built on.  Row ``i`` dominates row
    ``j`` exactly when it is no worse everywhere and ``j`` is not also
    no worse everywhere (which would make the two rows equal), so
    ``W & ~W.T`` over the no-worse matrix ``W`` — written ``W > W.T`` on
    booleans — is Eq. (1) bit for bit.  The diagonal is always False
    (nothing dominates itself).
    """
    points = _points(objectives)
    no_worse = _no_worse(points, points)
    return no_worse > no_worse.T


def dominated_flags(objectives: np.ndarray) -> np.ndarray:
    """Boolean vector: row ``j`` is strictly dominated by some other row.

    Inputs up to :data:`_DOMINANCE_CHUNK` rows take one
    :func:`dominance_matrix`; larger ones fold column blocks of that
    many candidates, so memory stays bounded for large merged fronts.
    """
    points = _points(objectives)
    if len(points) <= _DOMINANCE_CHUNK:
        return dominance_matrix(points).any(axis=0)
    dominated = np.empty(len(points), dtype=bool)
    for start in range(0, len(points), _DOMINANCE_CHUNK):
        block = points[start:start + _DOMINANCE_CHUNK]
        beats = _no_worse(points, block) > _no_worse(block, points).T
        dominated[start:start + len(block)] = beats.any(axis=0)
    return dominated


def pareto_mask(objectives: np.ndarray) -> np.ndarray:
    """Boolean mask of non-dominated rows of an ``(n, m)`` objective array.

    Duplicate rows are all kept (none strictly dominates its twin).
    Built on :func:`dominated_flags`: a dominated dominator changes
    nothing (dominance is transitive, so anything it beats is also
    beaten by a non-dominated row), which is why one vectorised pass
    replaces the old row-by-row elimination loop exactly.
    """
    return ~dominated_flags(objectives)


def pareto_front(
    items: Sequence[T], objectives: Sequence[Sequence[float]]
) -> list[T]:
    """Return the non-dominated subset of ``items``.

    Args:
        items: candidate objects.
        objectives: one minimised objective vector per item.
    """
    if len(items) != len(objectives):
        raise ValueError("items and objectives must have the same length")
    if not items:
        return []
    mask = pareto_mask(np.asarray(objectives, dtype=float))
    return [item for item, keep in zip(items, mask) if keep]


def normalize_objectives(objectives: np.ndarray) -> np.ndarray:
    """Scale each objective column to [0, 1] (constant columns become 0)."""
    points = np.asarray(objectives, dtype=float)
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    return (points - lo) / span


def hypervolume(objectives: np.ndarray, reference: Sequence[float]) -> float:
    """Hypervolume dominated by a front w.r.t. a reference point.

    Exact inclusion-exclusion-free sweep for 2-D fronts; Monte-Carlo-free
    recursive slicing (WFG-style) for higher dimensions.  All objectives
    minimised; points beyond the reference are clipped out.
    """
    points = np.asarray(objectives, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if points.ndim != 2 or points.shape[1] != len(ref):
        raise ValueError("objectives and reference dimensionality mismatch")
    points = points[(points < ref).all(axis=1)]
    if len(points) == 0:
        return 0.0
    points = points[pareto_mask(points)]
    if points.shape[1] == 1:
        return float(ref[0] - points[:, 0].min())
    if points.shape[1] == 2:
        order = np.argsort(points[:, 0])
        pts = points[order]
        volume = 0.0
        prev_y = ref[1]
        for x, y in pts:
            volume += (ref[0] - x) * (prev_y - y)
            prev_y = y
        return float(volume)
    # WFG-style recursive slicing on the last objective.
    order = np.argsort(points[:, -1])
    pts = points[order]
    volume = 0.0
    for i, point in enumerate(pts):
        upper = ref[-1] if i == len(pts) - 1 else pts[i + 1, -1]
        slab = upper - point[-1]
        if slab <= 0:
            continue
        slice_pts = pts[: i + 1, :-1]
        volume += slab * hypervolume(slice_pts, ref[:-1])
    return float(volume)


def knee_point(objectives: np.ndarray) -> int:
    """Index of the knee of a front: closest to the normalised ideal point.

    A common automatic trade-off pick when the user gives no preference.
    """
    points = np.asarray(objectives, dtype=float)
    if points.ndim != 2 or len(points) == 0:
        raise ValueError("need a non-empty 2-D objective array")
    unit = normalize_objectives(points)
    distance = np.linalg.norm(unit, axis=1)
    return int(np.argmin(distance))
