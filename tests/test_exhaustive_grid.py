"""Whole-grid exactness: the exhaustive route against the scalar cost model.

Every Fig 7/8 grid spec (4K-1M weights x INT2/4/8/16, FP8, FP16, BF16,
default bounds) is enumerated twice: once through
``DesignSpaceExplorer.explore_exhaustive`` (batch engine, rank-coded
Pareto filter, decode of the kept genomes only) and once through the
scalar path, ``codec.decode(g).macro_cost(lib)`` -> ``objectives_of``,
filtered by a local copy of the float-fold dominance filter.  Points,
objective rows and their order must match exactly.  So must
``DcimProblem.exhaustive_front_with_objectives``, which keeps
enumeration order.
"""

import numpy as np
import pytest

from repro.core.spec import DcimSpec
from repro.dse.explorer import DesignSpaceExplorer
from repro.dse.genome import GenomeCodec
from repro.dse.problem import DcimProblem, objectives_of
from repro.tech.cells import CellLibrary

KIB = 1024
WSTORES = tuple(4 * KIB << i for i in range(9))  # 4K .. 1M
PRECISIONS = ("INT2", "INT4", "INT8", "INT16", "FP8", "FP16", "BF16")
LIB = CellLibrary.default()


def float_fold_flags(objectives) -> np.ndarray:
    """Row ``j`` is dominated: the float column fold, kept as the oracle."""
    points = np.asarray(objectives, dtype=float)
    no_worse = np.ones((len(points), len(points)), dtype=bool)
    for column in points.T:
        no_worse &= column[:, None] <= column
    return (no_worse > no_worse.T).any(axis=0)


def scalar_front(spec):
    """The exact front by the scalar model, in enumeration order."""
    codec = GenomeCodec(spec)
    points = [codec.decode(g) for g in codec.enumerate()]
    rows = [objectives_of(p.macro_cost(LIB)) for p in points]
    keep = ~float_fold_flags(rows)
    return [p for p, k in zip(points, keep) if k], [r for r, k in zip(rows, keep) if k]


@pytest.fixture(scope="module")
def explorer():
    return DesignSpaceExplorer(library=LIB)


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("wstore", WSTORES)
def test_exhaustive_front_matches_scalar_model(explorer, wstore, precision):
    spec = DcimSpec(wstore=wstore, precision=precision)
    result = explorer.explore_exhaustive(spec)
    points, rows = scalar_front(spec)
    order = np.argsort([r[0] for r in rows])  # the explorer sorts by area
    assert result.strategy == "exhaustive"
    assert result.evaluations == len(GenomeCodec(spec).enumerate())
    assert result.points == [points[i] for i in order]
    assert [tuple(r) for r in result.objectives.tolist()] == [rows[i] for i in order]


@pytest.mark.parametrize("precision", PRECISIONS + ("FP32",))
def test_problem_front_decodes_kept_genomes_in_order(precision):
    spec = DcimSpec(wstore=256 * KIB, precision=precision)
    points, rows = DcimProblem(spec, LIB).exhaustive_front_with_objectives()
    assert (points, rows) == scalar_front(spec)
