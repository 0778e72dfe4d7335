"""Independent correctness oracles for the benchmark.

Every exact front here comes from the scalar cost path
(``codec.decode(g).macro_cost(lib)`` -> ``objectives_of``, or a direct
``map_system`` call for the ``mapping`` problem) and a pairwise
dominance check written in this file, never from the batch engine or
``core.pareto`` the program uses.  The hypervolume is this file's own
sweep, so a change to the program's Pareto or hypervolume code cannot
move the yardstick it is judged by.

A design is keyed by ``(precision, n, h, l, k)`` plus ``n_macros`` for
mapping candidates; a front is a ``{key: objectives}`` dict.
"""

from __future__ import annotations

import hashlib
import json


def _dominated(rows) -> list:
    """Per row: is it dominated by any other row (all objectives minimised)?

    Compares every pair of rows: ``j`` dominates ``i`` when it is no
    worse in every objective and better in one.  Equal rows do not
    dominate each other.
    """
    import numpy as np

    r = np.asarray(rows, dtype=float)
    if len(r) == 0:
        return []
    no_worse = (r[:, None, :] <= r[None, :, :]).all(axis=2)
    better = (r[:, None, :] < r[None, :, :]).any(axis=2)
    return (no_worse & better).any(axis=0).tolist()


def nondominated(front: dict) -> dict:
    """The non-dominated subset of a ``{key: objectives}`` dict."""
    keys = list(front)
    flags = _dominated([front[k] for k in keys])
    return {k: front[k] for k, dominated in zip(keys, flags) if not dominated}


def mutually_nondominated(rows) -> bool:
    """True when no row of ``rows`` dominates another."""
    return not any(_dominated(list(rows)))


def design_key(point, n_macros: int | None = None) -> tuple:
    """Hashable identity of a design point (or a mapping candidate)."""
    precision = point.precision if isinstance(point.precision, str) else point.precision.name
    key = (precision, point.n, point.h, point.l, point.k)
    return key if n_macros is None else key + (n_macros,)


def dcim_table(spec, library, memo: dict) -> dict:
    """``{key: objectives}`` over a dcim spec's whole space, scalar path.

    A design's objectives do not depend on the spec bounds that admit
    it, so ``memo`` keeps them across specs sharing designs.
    """
    from repro.dse.genome import GenomeCodec
    from repro.dse.problem import objectives_of

    codec = GenomeCodec(spec)
    table = {}
    for genome in codec.enumerate():
        point = codec.decode(genome)
        key = design_key(point)
        if key not in memo:
            memo[key] = tuple(objectives_of(point.macro_cost(library)))
        table[key] = memo[key]
    return table


def mapping_table(spec, library) -> dict:
    """``{key: objectives}`` over a mapping spec's space, direct ``map_system``."""
    import math

    from repro.dse.genome import GenomeCodec
    from repro.tech.corners import apply_corner
    from repro.tech.pdk import load_pdk
    from repro.workloads.networks import AVAILABLE_NETWORKS
    from repro.workloads.system import map_system

    codec = GenomeCodec(spec.dcim_spec())
    layers = AVAILABLE_NETWORKS[spec.network]()
    tech = apply_corner(load_pdk(spec.pdk), spec.corner)
    max_em = int(math.log2(spec.max_macros))
    table = {}
    for genome in codec.enumerate():
        point = codec.decode(genome)
        for em in range(max_em + 1):
            mapped = map_system(
                layers, point, tech, n_macros=1 << em,
                schedule=spec.schedule, library=library,
            )
            table[design_key(point, 1 << em)] = (
                mapped.area_mm2,
                mapped.latency_us,
                mapped.energy_uj,
                -mapped.throughput_inferences_s,
            )
    return table


def hypervolume(points, reference) -> float:
    """Exact hypervolume (minimisation), at least two objectives.

    Sweeps the last objective upwards.  The other objectives span a
    grid whose cell edges are the points' coordinates; each point, as
    the sweep passes it, covers the grid orthant above its corner, and
    the covered grid volume times each slab's height sums to the
    hypervolume.  Points not strictly inside the reference box count
    for nothing.
    """
    import functools

    import numpy as np

    ref = np.asarray(reference, dtype=float)
    pts = np.asarray([p for p in points if all(a < r for a, r in zip(p, reference))])
    if len(pts) == 0:
        return 0.0
    widths, corner = [], []
    for d in range(len(ref) - 1):
        edges = np.unique(pts[:, d])
        widths.append(np.diff(np.append(edges, ref[d])))
        corner.append(np.searchsorted(edges, pts[:, d]))
    cell = functools.reduce(np.multiply.outer, widths)
    covered = np.zeros(cell.shape, dtype=bool)
    order = np.argsort(pts[:, -1], kind="stable")
    levels = np.append(pts[order, -1], ref[-1])
    volume = area = 0.0
    for rank, i in enumerate(order):
        block = tuple(slice(c[i], None) for c in corner)
        fresh = ~covered[block]
        area += float(cell[block][fresh].sum())
        covered[block] = True
        volume += area * float(levels[rank + 1] - levels[rank])
    return volume


class ExactFront:
    """One exact front plus what scoring another front against it needs."""

    def __init__(self, table: dict) -> None:
        self.table = table
        self.front = nondominated(table)
        rows = list(self.front.values())
        dims = range(len(rows[0]))
        self.lo = [min(r[d] for r in rows) for d in dims]
        span = [max(r[d] for r in rows) - self.lo[d] for d in dims]
        self.span = [s if s > 0 else 1.0 for s in span]
        self.reference = [1.1] * len(self.lo)
        self._volume: float | None = None

    def _unit(self, rows) -> list:
        return [
            tuple((v - lo) / s for v, lo, s in zip(row, self.lo, self.span))
            for row in rows
        ]

    def hv_ratio(self, front: dict) -> float:
        """Hypervolume of ``front`` over the exact front's (1.0 when equal).

        Both fronts are normalised by the exact front's ideal and nadir
        points; the reference point is 1.1 in every objective.
        """
        if front == self.front:
            return 1.0
        if self._volume is None:
            self._volume = hypervolume(self._unit(self.front.values()), self.reference)
        return hypervolume(self._unit(front.values()), self.reference) / self._volume


def merged_exact(fronts) -> ExactFront:
    """The exact cross-spec front: dominance filter over exact spec fronts."""
    union: dict = {}
    for exact in fronts:
        union.update(exact.front)
    return ExactFront(union)


def fingerprint(front: dict) -> str:
    """Short content hash of a ``{key: objectives}`` front."""
    rows = sorted([list(k), [repr(v) for v in o]] for k, o in front.items())
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
