"""Vectorised NSGA-II bookkeeping kernels.

Array-form implementations of the :mod:`repro.dse.kernels.python`
reference: an O(M·N²) column-fold dominance matrix feeds the rank
peeling, crowding runs as stable argsorts per objective, and the
archive front filter is one dominance pass.  Results — values *and*
tie-breaking order — are bit-identical to the reference:

* **Ranks/fronts.**  ``fronts[0]`` is ``counts == 0`` in ascending
  index order (``np.flatnonzero``).  The reference appends a row to the
  next front the moment its *last* same-front dominator is processed,
  so each next front is ordered by ``(position of that dominator in
  the current front, row index)`` — reproduced here with a reversed
  ``argmax`` over the dominance submatrix plus one stable argsort
  (stable sorting an ascending-index array preserves the index
  tie-break).
* **Crowding.**  Sequential stable argsorts replicate the reference's
  in-place stable list sorts, so the permutation after the final
  objective — and therefore which rows sit on each boundary of the
  intermediate orders — matches exactly.  Distances are the same
  float64 ``gap / span`` sums CPython computes (IEEE-754 double ops
  round identically), and boundary assignment happens before the
  zero-span check, exactly like the reference.

``nan`` objectives are unsupported (Python's list sort and numpy's
argsort order them differently); ``inf`` values are fine — both sorts
place them consistently and the nan arithmetic they can induce in
``gap / span`` propagates identically.
"""

from __future__ import annotations

import numpy as np

from repro.core.pareto import dominance_matrix, dominated_flags

__all__ = ["nondominated_sort", "crowding", "pareto_filter"]

INFINITY = float("inf")


def nondominated_sort(
    objectives: np.ndarray,
    beats: np.ndarray | None = None,
    limit: int | None = None,
) -> tuple[list[int], list[list[int]]]:
    """Vectorised Deb sort; see the python reference for the contract.

    ``beats`` is the rows' dominance matrix (``beats[i, j]``: row ``i``
    dominates row ``j``) when the caller holds it already; the sort then
    reads nothing else.  Dominance is pairwise, so any row subset's
    matrix is the ``np.ix_`` submatrix of a superset's.  ``limit``
    stops the peeling as in the reference.
    """
    if beats is None:
        beats = dominance_matrix(np.asarray(objectives, dtype=float))
    n = len(beats)
    if n == 0:
        return [], []
    counts = beats.sum(axis=0).astype(np.int64)
    ranks = np.full(n, -1, dtype=np.int64)
    assigned = np.zeros(n, dtype=bool)
    fronts: list[list[int]] = []
    current = np.flatnonzero(counts == 0)
    rank = ranked = 0
    while current.size:
        fronts.append(current.tolist())
        ranks[current] = rank
        ranked += current.size
        if limit is not None and ranked >= limit:
            break
        assigned[current] = True
        sub = beats[current]  # (f, n): dominators drawn from this front
        dec = sub.sum(axis=0)
        counts -= dec
        newly = np.flatnonzero((counts == 0) & ~assigned & (dec > 0))
        if newly.size:
            # Position (within the current front) of each new row's
            # last dominator: argmax over the reversed rows finds the
            # last True.  Stable-sorting the ascending `newly` array by
            # that position reproduces the reference's discovery order.
            reversed_sub = sub[::-1][:, newly]
            last_pos = (len(current) - 1) - reversed_sub.argmax(axis=0)
            current = newly[np.argsort(last_pos, kind="stable")]
        else:
            current = newly
        rank += 1
    return ranks.tolist(), fronts


def crowding(
    objectives: np.ndarray, front
) -> tuple[list[int], list[float]]:
    """Vectorised crowding; see the python reference for the contract."""
    base = np.asarray(front, dtype=np.int64)
    n = base.size
    if n == 0:
        return [], []
    if n <= 2:
        return base.tolist(), [INFINITY] * n
    # (m, n): one contiguous row per objective, so each pass below
    # gathers from a 1-D column instead of fancy-indexing a 2-D array.
    columns = np.asarray(objectives, dtype=float).take(base, axis=0).T.copy()
    perm = np.arange(n)  # positions into `base`, permuted per objective
    dist = np.zeros(n)  # indexed by position in `base`
    # inf - inf produces nan exactly like the CPython reference does;
    # silence numpy's warning so the kernel is as quiet as the reference.
    with np.errstate(invalid="ignore"):
        for column in columns:
            keys = column[perm]
            order = np.argsort(keys, kind="stable")
            perm = perm[order]
            values = keys[order]
            dist[perm[0]] = INFINITY
            dist[perm[-1]] = INFINITY
            span = values[-1] - values[0]
            if span == 0:
                continue
            gaps = values[2:] - values[:-2]
            dist[perm[1:-1]] += gaps / span
    return base[perm].tolist(), dist[perm].tolist()


def pareto_filter(objectives: np.ndarray) -> list[int]:
    """Non-dominated row indices in input order, via one dominance pass."""
    obj = np.asarray(objectives, dtype=float)
    if len(obj) == 0:
        return []
    return np.flatnonzero(~dominated_flags(obj)).tolist()
