"""Pure-Python reference NSGA-II bookkeeping kernels: the test oracle.

This is the pre-kernel ``repro.dse.nsga2`` logic in index form: every
function takes a sequence of objective vectors (one tuple per
individual) plus index lists, and returns indices/values instead of
mutating objects.  No runtime path selects it — ``nsga2()`` always runs
the numpy kernels of :mod:`repro.dse.kernels.numpy`.  It stays as the
one readable statement of the tie-break orders those kernels must
reproduce bit for bit, which the hypothesis suite in
``tests/test_ga_kernel_parity.py`` and the ``benchmarks/test_ga_kernels.py``
speedup gate check by calling it directly.

Ordering contracts the numpy kernels replicate exactly:

* :func:`nondominated_sort` — front 0 in ascending index order; each
  later front in the order Deb's peeling loop discovers members, which
  is ``(position of the last same-front dominator, index)`` ascending.
  With a ``limit``, peeling stops at the first front that brings the
  ranked rows to at least ``limit``; the fronts returned are a prefix of
  the full sort's, and every later row has rank ``-1``.
* :func:`crowding` — the returned permutation is the front after the
  per-objective stable sorts (so it ends sorted by the last objective),
  exactly how the original in-place crowding assignment reordered
  fronts.
* :func:`pareto_filter` — survivors in input order; duplicate objective
  vectors are all kept (equal rows never strictly dominate).
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["nondominated_sort", "crowding", "pareto_filter"]

INFINITY = float("inf")

Vector = Sequence[float]


def _dominates(u: Vector, v: Vector) -> bool:
    """Pareto dominance (minimisation): all <=, at least one <."""
    return all(a <= b for a, b in zip(u, v)) and any(
        a < b for a, b in zip(u, v)
    )


def nondominated_sort(
    objectives: Sequence[Vector], limit: int | None = None
) -> tuple[list[int], list[list[int]]]:
    """Deb's fast non-dominated sort over objective rows.

    Returns ``(ranks, fronts)``: one 0-based rank per row, and the
    fronts as index lists (``fronts[0]`` is rank 0).  Every row appears
    in exactly one front.  With ``limit``, peeling stops once the fronts
    hold at least ``limit`` rows: the rows of the fronts not peeled are
    in no front and have rank ``-1``.
    """
    n = len(objectives)
    dominated_by: list[list[int]] = [[] for _ in range(n)]
    domination_count = [0] * n
    ranks = [-1] * n
    fronts: list[list[int]] = [[]]
    for i in range(n):
        oi = objectives[i]
        for j in range(n):
            if i == j:
                continue
            oj = objectives[j]
            if _dominates(oi, oj):
                dominated_by[i].append(j)
            elif _dominates(oj, oi):
                domination_count[i] += 1
        if domination_count[i] == 0:
            ranks[i] = 0
            fronts[0].append(i)
    current = 0
    ranked = len(fronts[0])
    while fronts[current] and (limit is None or ranked < limit):
        next_front: list[int] = []
        for i in fronts[current]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    ranks[j] = current + 1
                    next_front.append(j)
        current += 1
        fronts.append(next_front)
        ranked += len(next_front)
    return ranks, [front for front in fronts if front]


def crowding(
    objectives: Sequence[Vector], front: Sequence[int]
) -> tuple[list[int], list[float]]:
    """Crowding distances for one front of row indices.

    Returns ``(perm, dist)``: the front's indices in post-sort order
    (sequential stable sorts by each objective) and the matching
    crowding distance per position.  Boundary points get infinity, even
    for zero-span objectives; fronts of one or two members are all
    infinite and keep their input order.
    """
    order = list(front)
    n = len(order)
    if n == 0:
        return [], []
    if n <= 2:
        return order, [INFINITY] * n
    dist = {i: 0.0 for i in order}
    n_obj = len(objectives[order[0]])
    for m in range(n_obj):
        order.sort(key=lambda i: objectives[i][m])
        lo = objectives[order[0]][m]
        hi = objectives[order[-1]][m]
        dist[order[0]] = INFINITY
        dist[order[-1]] = INFINITY
        span = hi - lo
        if span == 0:
            continue
        for pos in range(1, n - 1):
            gap = objectives[order[pos + 1]][m] - objectives[order[pos - 1]][m]
            dist[order[pos]] += gap / span
    return order, [dist[i] for i in order]


def pareto_filter(objectives: Sequence[Vector]) -> list[int]:
    """Indices of non-dominated rows, in input order."""
    n = len(objectives)
    keep: list[int] = []
    for j in range(n):
        oj = objectives[j]
        if any(_dominates(objectives[i], oj) for i in range(n) if i != j):
            continue
        keep.append(j)
    return keep
