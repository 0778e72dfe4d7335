"""Array-native NSGA-II primitives.

The GA's per-generation bookkeeping — non-dominated sorting, crowding
distance, the archive front filter — is the dominant cost now that
evaluation is batched.  :class:`GAKernels` runs it on the numpy kernels
of :mod:`repro.dse.kernels.numpy`: an O(M·N²) column-fold dominance
matrix and stable argsorts per objective.  They return the same ranks,
the same front orders (including every tie-break) and the same float64
crowding values as the index-form reference in
:mod:`repro.dse.kernels.python`, the test oracle the hypothesis parity
suite and the golden-fingerprint tests compare them against.

The numpy sort also accepts a precomputed dominance matrix.  Dominance
is pairwise, so the survivors of one merged sort carry their own matrix
as its submatrix (:meth:`GAKernels.take`): ``nsga2()`` builds one
dominance matrix per generation, and keeps the population objectives
as one matrix that grows only by the children's rows
(:meth:`GAKernels.append`).  When the merged first front fills the
population, ``nsga2()`` needs no parent sort at all and takes only the
survivors' rows (``take`` with no dominance matrix).  Crowding reads
one contiguous column per objective.

The *variation* operators (tournament, uniform crossover, step
mutation) and the hash-based archive dedup live here as shared code:
they draw from the run's single ``random.Random`` stream in a frozen
order (tournament × 2, crossover, then per child mutation + repair),
and the problem's ``repair`` hook consumes that stream too, so
vectorising them would change per-seed results.  :func:`breed_offspring`
replays the draws of the per-operator functions inline — the same
``getrandbits`` rejection loops ``random.sample``/``randint`` run, on
the same stream — so it breeds the same children without a stdlib
wrapper call per draw; the per-operator functions stay as the
reference the parity tests compare against.  They operate on the
parallel rank/crowding arrays the sort kernels produce, which is what
makes the whole loop array-native.

:class:`GAKernels` is the facade ``nsga2()`` drives; it times every
sort/crowding call into the ``repro_ga_sort_seconds`` /
``repro_ga_crowding_seconds`` histograms of the process metrics
registry.  Timing happens outside all rng draws, so instrumentation
never perturbs a run.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Sequence

import numpy as np

from repro.core.pareto import dominance_matrix
from repro.dse.kernels import numpy as _kernels
from repro.obs.metrics import get_registry

__all__ = [
    "GAKernels",
    "tournament_index",
    "uniform_crossover",
    "step_mutation",
    "breed_offspring",
    "novel_genomes",
]

Genome = tuple[int, ...]


class GAKernels:
    """Sort/crowding/front kernels plus their instrumentation.

    Kernel calls are timed into the process registry as it is at
    construction (:func:`repro.obs.metrics.get_registry`); under the
    null registry every observation is a no-op.
    """

    def __init__(self) -> None:
        registry = get_registry()
        self._sort_seconds = registry.histogram(
            "repro_ga_sort_seconds",
            "Wall time of one non-dominated sort kernel call",
        )
        self._crowding_seconds = registry.histogram(
            "repro_ga_crowding_seconds",
            "Wall time of one crowding-distance kernel call",
        )

    def as_matrix(self, objectives: Sequence[Sequence[float]]) -> np.ndarray:
        """(N, M) float64 objective matrix (exact conversion from floats)."""
        if not len(objectives):
            return np.empty((0, 0), dtype=float)
        return np.asarray(objectives, dtype=float)

    def append(self, matrix, objectives: Sequence[Sequence[float]]):
        """``matrix`` with ``objectives`` appended as new rows.

        Only the new rows are converted; ``as_matrix`` of the joined
        sequences gives the same (bitwise) result.
        """
        if not len(matrix) or not len(objectives):
            return self.as_matrix([*matrix, *objectives])
        return np.concatenate((matrix, np.asarray(objectives, dtype=float)))

    def take(self, matrix, dominance, rows: Sequence[int]):
        """``(matrix, dominance)`` of the sub-population ``rows``.

        ``dominance`` is the population's matrix from
        :meth:`nondominated_sort`.  Dominance is pairwise, so the
        subset's own matrix is exactly the ``np.ix_(rows, rows)``
        submatrix: nothing is recomputed.  A ``None`` dominance (the
        caller needs no sort of the subset) stays ``None``.
        """
        index = np.asarray(rows, dtype=np.intp)
        if dominance is None:
            return matrix.take(index, axis=0), None
        # Two axis takes: several times cheaper than np.ix_ indexing.
        return (
            matrix.take(index, axis=0),
            dominance.take(index, axis=0).take(index, axis=1),
        )

    def nondominated_sort(
        self,
        matrix,
        dominance=None,
        *,
        return_dominance: bool = False,
        limit: int | None = None,
    ):
        """(ranks, fronts-as-index-lists) for an ``as_matrix`` result.

        ``dominance``: the rows' boolean dominance matrix when the
        caller holds it (a :meth:`take` result); the sort then skips
        building it.  ``return_dominance=True`` appends the matrix the
        sort used as a third element.  ``limit``: stop peeling once the
        fronts hold at least that many rows; the rows left unranked
        have rank ``-1`` and are in no front.
        """
        start = time.perf_counter()
        if dominance is None:
            dominance = dominance_matrix(matrix)
        ranks, fronts = _kernels.nondominated_sort(matrix, dominance, limit)
        self._sort_seconds.observe(time.perf_counter() - start)
        if return_dominance:
            return ranks, fronts, dominance
        return ranks, fronts

    def crowding(self, matrix, front: Sequence[int]) -> tuple[list[int], list[float]]:
        """(post-sort permutation, crowding per position) for one front."""
        start = time.perf_counter()
        result = _kernels.crowding(matrix, front)
        self._crowding_seconds.observe(time.perf_counter() - start)
        return result

    def pareto_filter(self, matrix) -> list[int]:
        """Non-dominated row indices in input order (archive front)."""
        start = time.perf_counter()
        result = _kernels.pareto_filter(matrix)
        self._sort_seconds.observe(time.perf_counter() - start)
        return result


# Variation operators ------------------------------------------------------
#
# These are deliberately *not* vectorised: they share one Random stream
# with the problem's repair hook in a frozen draw order, which is the
# bit-parity contract.  They consume the rank/crowding arrays the sort
# kernels produce.  breed_offspring inlines the draws of the three
# per-operator functions, which remain their readable reference.


def tournament_index(
    rng: random.Random, ranks: Sequence[int], crowding: Sequence[float]
) -> int:
    """Binary tournament on (rank, crowding); returns the winning index.

    Consumes exactly one ``rng.sample`` of two indices — the same draw
    the pre-kernel implementation made over the population list.
    """
    i, j = rng.sample(range(len(ranks)), 2)
    if ranks[i] != ranks[j]:
        return i if ranks[i] < ranks[j] else j
    return i if crowding[i] > crowding[j] else j


def uniform_crossover(
    rng: random.Random, mother: Genome, father: Genome, prob: float
) -> tuple[Genome, Genome]:
    """Per-gene uniform crossover (one skip draw, then one per gene)."""
    if rng.random() >= prob:
        return mother, father
    child_a = list(mother)
    child_b = list(father)
    for i in range(len(mother)):
        if rng.random() < 0.5:
            child_a[i], child_b[i] = child_b[i], child_a[i]
    return tuple(child_a), tuple(child_b)


def step_mutation(
    rng: random.Random, genome: Genome, steps: Sequence[int], prob: float
) -> Genome:
    """Random-step mutation (one gate draw per gene, one step when hit)."""
    genes = list(genome)
    for i, step in enumerate(steps):
        if rng.random() < prob:
            delta = rng.randint(-step, step)
            genes[i] += delta
    return tuple(genes)


def breed_offspring(
    rng: random.Random,
    genomes: Sequence[Genome],
    ranks: Sequence[int],
    crowding: Sequence[float],
    steps: Sequence[int],
    crossover_prob: float,
    mutation_prob: float,
    repair: Callable[[Genome, random.Random], Genome],
    count: int,
) -> list[Genome]:
    """Breed a full offspring batch from parallel population arrays.

    Per pair the rng stream is: tournament × 2, crossover draws, then
    for each child the mutation draws followed by ``repair`` (which may
    draw too).  The loop overshoots by at most one child and truncates,
    exactly like the pre-kernel implementation.

    The draws are the ones :func:`tournament_index`,
    :func:`uniform_crossover` and :func:`step_mutation` make, replayed
    inline: ``rng.sample(range(n), 2)`` and ``rng.randint(-s, s)`` run
    ``Random._randbelow``'s rejection loop on ``rng.getrandbits``, and
    ``sample``'s two algorithms are kept apart (a pool list for
    ``n <= 21``, a set of picks above).  Children, and the stream left
    behind, are identical; only the per-child wrapper calls are gone.
    ``rng`` must be a :class:`random.Random`.
    """
    n = len(ranks)
    if n < 2:
        raise ValueError("tournament selection needs at least two individuals")
    if any(step < 0 for step in steps):
        raise ValueError(f"mutation steps must be non-negative, got {list(steps)}")
    getrandbits = rng.getrandbits
    draw = rng.random
    bits = n.bit_length()
    last = n - 1
    last_bits = last.bit_length()
    pooled = n <= 21  # random.sample's list-vs-set switch for k = 2
    # (gene, randint width 2s + 1, its bit length, offset s) per gene.
    mutations = [
        (i, 2 * step + 1, (2 * step + 1).bit_length(), step)
        for i, step in enumerate(steps)
    ]

    def tournament() -> Genome:
        i = getrandbits(bits)
        while i >= n:
            i = getrandbits(bits)
        if pooled:
            # The pool moved its last index into slot i after the pick.
            j = getrandbits(last_bits)
            while j >= last:
                j = getrandbits(last_bits)
            if j == i:
                j = last
        else:
            j = getrandbits(bits)
            while j >= n or j == i:
                j = getrandbits(bits)
        if ranks[i] != ranks[j]:
            return genomes[i if ranks[i] < ranks[j] else j]
        return genomes[i if crowding[i] > crowding[j] else j]

    children: list[Genome] = []
    while len(children) < count:
        mother = tournament()
        father = tournament()
        child_a = list(mother)
        child_b = list(father)
        if draw() < crossover_prob:
            for i in range(len(mother)):
                if draw() < 0.5:
                    child_a[i], child_b[i] = child_b[i], child_a[i]
        for genes in (child_a, child_b):
            for i, width, width_bits, step in mutations:
                if draw() < mutation_prob:
                    r = getrandbits(width_bits)
                    while r >= width:
                        r = getrandbits(width_bits)
                    genes[i] += r - step
            children.append(repair(tuple(genes), rng))
    return children[:count]


def novel_genomes(
    genomes: Sequence[Genome], known: Sequence[Genome] | dict
) -> list[Genome]:
    """Hash-based archive dedup: unseen genomes in first-seen order.

    ``known`` is anything supporting ``in`` by genome (the run's
    archive dict).  Duplicates within ``genomes`` collapse to their
    first occurrence — the order the evaluator batch receives.
    """
    pending: dict[Genome, None] = {}
    for genome in genomes:
        if genome not in known and genome not in pending:
            pending[genome] = None
    return list(pending)
