"""Pareto filter speedup gate: rank-coded flags against the float fold.

Every exhaustive spec ends in one ``dominated_flags`` call over its
whole enumeration.  On the largest paper-scale space, FP32 at 256K
weights (648 genomes), the rank-coded filter must run at least 1.5x
faster than the float column fold it replaced, and return the same
flags.  The two run interleaved, 200 rounds each, and the gate compares
their medians, so a burst of load on a shared host slows both alike.
The measured row goes to ``results/pareto_kernel.txt``.
"""

import statistics
import time

import numpy as np
import pytest

from repro.core.pareto import dominated_flags
from repro.core.spec import DcimSpec
from repro.dse.problem import DcimProblem
from repro.reporting import ascii_table

ROUNDS = 200
GATE = 1.5


def float_fold_flags(points) -> np.ndarray:
    """Row ``j`` is dominated: the float column fold, kept as the reference."""
    no_worse = np.ones((len(points), len(points)), dtype=bool)
    for column in points.T:
        no_worse &= column[:, None] <= column
    return (no_worse > no_worse.T).any(axis=0)


@pytest.mark.bench
def test_rank_coded_filter_speedup(record):
    problem = DcimProblem(DcimSpec(wstore=256 * 1024, precision="FP32"))
    points = np.asarray(problem.evaluate_batch(problem.enumerate_genomes()), dtype=float)
    assert points.shape == (648, 4)

    # Wrong-but-fast must fail before any timing happens.
    assert dominated_flags(points).tolist() == float_fold_flags(points).tolist()

    fold, ranked = [], []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        float_fold_flags(points)
        fold.append(time.perf_counter() - start)
        start = time.perf_counter()
        dominated_flags(points)
        ranked.append(time.perf_counter() - start)
    t_fold, t_ranked = statistics.median(fold), statistics.median(ranked)
    speedup = t_fold / t_ranked
    record(
        "pareto_kernel",
        f"Pareto filter, FP32 256K enumeration ({len(points)} rows x 4 objectives, "
        f"median of {ROUNDS} interleaved rounds):\n"
        + ascii_table(
            ["filter", "gate", "measured"],
            [
                ("float column fold", "-", f"{t_fold * 1e3:.3f} ms"),
                (
                    "rank-coded dominated_flags",
                    f">= {GATE}x vs float fold",
                    f"{t_ranked * 1e3:.3f} ms ({speedup:.2f}x)",
                ),
            ],
        ),
    )
    assert speedup >= GATE
