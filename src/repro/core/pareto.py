"""Pareto dominance, front extraction and front quality metrics.

Implements Eq. (1) of the paper (Pareto dominance in a minimisation
context) plus the utilities the explorer and the distillation step rely
on: non-dominated filtering, hypervolume (for front-quality ablations)
and knee-point selection.

Two array kernels decide Eq. (1) for many rows at once.
:func:`dominated_flags` (behind :func:`pareto_mask`, :func:`pareto_front`,
:func:`hypervolume`, every merge and the GA's archive filter) compares
per-column dense ranks once an input has :data:`_RANKED_ROWS` rows:
16-bit integer comparisons make it two to three times as fast as the
``float64`` fold on the 300-700-row enumerations of a paper spec, and a
rank sum tells equal rows apart, so no transposed pass is needed.
Ranking costs a fixed ~25 us (2 vCPU, numpy 2.4), more than it saves
below about 110 rows, so smaller inputs (most of :func:`hypervolume`'s
slices) keep the float fold.  :func:`dominance_matrix` is that float
column fold and stays one: the GA's non-dominated sort builds it at 128
rows, close to that crossover, where ranking would save little.
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

#: Inputs of at least this many rows take the rank-coded path of
#: :func:`dominated_flags`; smaller ones take :func:`dominance_matrix`.
_RANKED_ROWS = 128


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


def dominance_matrix(objectives: np.ndarray) -> np.ndarray:
    """Full ``(n, n)`` boolean matrix with ``D[i, j] = row i dominates row j``.

    One O(M·N²) column fold instead of N² Python-level comparisons;
    this is the array kernel the GA's non-dominated sort
    (:mod:`repro.dse.kernels`) is built on.  The no-worse matrix ``W``
    (``W[i, j]``: row ``i`` is ``<=`` row ``j`` in every objective)
    takes one ``(n, n)`` comparison per objective, and-ed into a single
    boolean accumulator; an ``(n, n, m)`` broadcast reduced over its
    short last axis costs several times more at the four objectives a
    DSE front has.  ``nan`` compares False, so a row holding one is no
    worse than nothing and nothing is no worse than it.  Row ``i``
    dominates row ``j`` exactly when it is no worse everywhere and ``j``
    is not also no worse everywhere (which would make the two rows
    equal), so ``W & ~W.T`` — written ``W > W.T`` on booleans — is
    Eq. (1) bit for bit.  The diagonal is always False (nothing
    dominates itself).
    """
    points = _points(objectives)
    no_worse = np.ones((len(points), len(points)), dtype=bool)
    for column in points.T:
        no_worse &= column[:, None] <= column
    return no_worse > no_worse.T


def _dense_ranks(points: np.ndarray) -> np.ndarray:
    """``(m, n)`` dense ranks of the columns of a nan-free ``(n, m)`` array.

    ``R[c, i]`` is the number of distinct values of column ``c`` below
    ``points[i, c]``, so ``R[c, i] <= R[c, j]`` exactly when
    ``points[i, c] <= points[j, c]``: ties share a rank, ``-0.0`` ranks
    with ``0.0`` and the infinities rank first and last.  The dtype is
    the smallest unsigned one that holds ``n * m``, so a row's rank sum
    fits too: 16 bits for every paper-scale enumeration.
    """
    dtype = np.min_scalar_type(points.size)
    columns = points.T
    order = np.argsort(columns, axis=1)
    rows = np.arange(len(columns))[:, None]
    ordered = columns[rows, order]
    steps = np.zeros(columns.shape, dtype=dtype)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=steps[:, 1:])
    ranks = np.empty_like(steps)
    ranks[rows, order] = steps.cumsum(axis=1, dtype=dtype)
    return ranks


def dominated_flags(objectives: np.ndarray) -> np.ndarray:
    """Boolean vector: row ``j`` is strictly dominated by some other row.

    Inputs below :data:`_RANKED_ROWS` rows take one
    :func:`dominance_matrix`.  In larger ones, a row holding ``nan`` is
    set aside first: it compares False both ways, so it neither
    dominates nor is dominated.  The rest become per-column dense ranks
    (:func:`_dense_ranks`), which order exactly as the floats do.  Row
    ``i`` dominates row ``j`` when its ranks are no worse in every
    column and its rank sum is smaller; given the first, equal sums mean
    equal rows, so the sum test is the "at least one better" half of
    Eq. (1).  Candidates are folded in column blocks of
    :data:`_DOMINANCE_CHUNK`, so memory stays bounded for large merged
    fronts.
    """
    points = _points(objectives)
    if len(points) < _RANKED_ROWS:
        return dominance_matrix(points).any(axis=0)
    dominated = np.zeros(len(points), dtype=bool)
    comparable = ~np.isnan(points).any(axis=1)
    ranks = _dense_ranks(points[comparable])
    sums = ranks.sum(axis=0, dtype=ranks.dtype)
    flags = np.empty(len(sums), dtype=bool)
    for start in range(0, len(sums), _DOMINANCE_CHUNK):
        stop = start + _DOMINANCE_CHUNK
        beats = sums[:, None] < sums[start:stop]
        for column in ranks:
            beats &= column[:, None] <= column[start:stop]
        flags[start:stop] = beats.any(axis=0)
    dominated[comparable] = flags
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
