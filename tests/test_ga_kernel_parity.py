"""Bit-parity and behaviour tests for the array-native GA kernels.

Four layers of evidence that vectorising the NSGA-II bookkeeping
changed nothing:

* a Hypothesis suite feeding adversarial objective matrices (ties,
  duplicate rows, infinities, zero-range columns) through the numpy
  kernels and the pure-Python reference module
  (:mod:`repro.dse.kernels.python`) and asserting bitwise-identical
  ranks, front orders and crowding values, also when the numpy sort
  reuses a superset's dominance matrix;
* exact-draw tests: ``breed_offspring`` against a loop over the
  per-operator functions and the stdlib-wrapper repair, children and
  rng state both;
* golden result fingerprints of full ``nsga2()`` runs, captured from
  the pre-kernel implementation;
* strategy/bookkeeping coverage: exhaustive-vs-GA routing, response
  surfacing, and the run-registry schema migration.
"""

import hashlib
import math
import random
import sqlite3
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pareto import dominance_matrix
from repro.core.spec import DcimSpec
from repro.dse.kernels import (
    GAKernels,
    breed_offspring,
    novel_genomes,
    step_mutation,
    tournament_index,
    uniform_crossover,
)
from repro.dse.kernels import python as py_kernels
from repro.dse.nsga2 import NSGA2Config, nsga2
from repro.dse.problem import DcimProblem
from repro.problems.mapping import MappingProblem, MappingSpec


def bits(values):
    """Bitwise float identity — nan-safe, unlike ``==``."""
    return [struct.pack("<d", float(v)) for v in values]


# Objective values that provoke every tie-break: exact ties, signed
# zeros, infinities (inf - inf => nan inside crowding) and plain floats.
OBJECTIVE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, math.inf, -math.inf]),
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, width=64
    ),
)


@st.composite
def objective_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=24))
    m = draw(st.integers(min_value=1, max_value=4))
    rows = draw(
        st.lists(
            st.tuples(*[OBJECTIVE_VALUES] * m), min_size=n, max_size=n
        )
    )
    # Duplicate some rows outright: identical objective vectors exercise
    # the mutual-non-domination and crowding-tie paths hardest.
    if rows and draw(st.booleans()):
        idx = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        rows.append(rows[idx])
    return rows


class TestKernelParity:
    """The numpy kernels agree bit-for-bit with the reference module on
    adversarial input."""

    @settings(max_examples=200, deadline=None)
    @given(objectives=objective_matrices())
    def test_nondominated_sort_identical(self, objectives):
        kernels = GAKernels()
        ranks, fronts = kernels.nondominated_sort(kernels.as_matrix(objectives))
        ref_ranks, ref_fronts = py_kernels.nondominated_sort(objectives)
        assert ranks == ref_ranks
        assert fronts == ref_fronts

    @settings(max_examples=200, deadline=None)
    @given(objectives=objective_matrices(), limit=st.integers(0, 26))
    def test_limited_sort_is_a_prefix_of_the_full_sort(self, objectives, limit):
        # nsga2() stops the survivor sort once the next population is
        # full: both kernels must peel the same fronts, each a prefix of
        # the full sort, and leave every other row at rank -1.
        kernels = GAKernels()
        ranks, fronts = kernels.nondominated_sort(
            kernels.as_matrix(objectives), limit=limit
        )
        assert (ranks, fronts) == py_kernels.nondominated_sort(objectives, limit)
        full_ranks, full_fronts = py_kernels.nondominated_sort(objectives)
        assert fronts == full_fronts[: len(fronts)]
        peeled = sum(map(len, fronts))
        assert peeled >= min(limit, len(objectives))
        if fronts:
            assert peeled - len(fronts[-1]) < limit or len(fronts) == 1
        ranked = {i for front in fronts for i in front}
        assert ranks == [
            rank if i in ranked else -1 for i, rank in enumerate(full_ranks)
        ]

    @settings(max_examples=200, deadline=None)
    @given(objectives=objective_matrices())
    def test_crowding_identical(self, objectives):
        kernels = GAKernels()
        _, fronts = py_kernels.nondominated_sort(objectives)
        for front in fronts:
            perm, dist = kernels.crowding(kernels.as_matrix(objectives), front)
            ref_perm, ref_dist = py_kernels.crowding(objectives, front)
            assert perm == ref_perm
            assert bits(dist) == bits(ref_dist)

    @settings(max_examples=200, deadline=None)
    @given(objectives=objective_matrices())
    def test_pareto_filter_identical(self, objectives):
        kernels = GAKernels()
        assert kernels.pareto_filter(
            kernels.as_matrix(objectives)
        ) == py_kernels.pareto_filter(objectives)

    @settings(max_examples=100, deadline=None)
    @given(objectives=objective_matrices(), seed=st.integers(0, 2**32 - 1))
    def test_tournament_selects_identical_indices(self, objectives, seed):
        if len(objectives) < 2:
            return
        kernels = GAKernels()
        matrix = kernels.as_matrix(objectives)
        implementations = (
            (kernels.nondominated_sort(matrix), kernels.crowding, matrix),
            (py_kernels.nondominated_sort(objectives), py_kernels.crowding,
             objectives),
        )
        results = []
        for (ranks, fronts), crowd, rows in implementations:
            crowding = [0.0] * len(objectives)
            for front in fronts:
                perm, dist = crowd(rows, front)
                for i, value in zip(perm, dist):
                    crowding[i] = value
            rng = random.Random(seed)
            results.append(
                [tournament_index(rng, ranks, crowding) for _ in range(32)]
            )
        assert results[0] == results[1]

    @settings(max_examples=200, deadline=None)
    @given(objectives=objective_matrices(), data=st.data())
    def test_sort_on_superset_dominance_submatrix(self, objectives, data):
        # nsga2() ranks the next parents with the survivors' submatrix of
        # the merged dominance matrix: it must sort exactly like the
        # survivors' own objectives, in any row order.
        import numpy as np

        if not objectives:
            return
        kernels = GAKernels()
        obj = kernels.as_matrix(objectives)
        idx = data.draw(
            st.lists(
                st.integers(0, len(objectives) - 1), unique=True, max_size=24
            )
        )
        subset = obj[idx].reshape(len(idx), obj.shape[1])
        fed = kernels.nondominated_sort(
            subset, dominance_matrix(obj)[np.ix_(idx, idx)]
        )
        assert fed == kernels.nondominated_sort(subset)
        taken, dominance = kernels.take(obj, dominance_matrix(obj), idx)
        assert bits(taken.ravel()) == bits(subset.ravel())
        assert np.array_equal(dominance, dominance_matrix(subset))

    @settings(max_examples=100, deadline=None)
    @given(objectives=objective_matrices(), cut=st.integers(0, 25))
    def test_append_matches_as_matrix(self, objectives, cut):
        if not objectives:
            return
        cut = min(cut, len(objectives))
        kernels = GAKernels()
        grown = kernels.append(
            kernels.as_matrix(objectives[:cut]), objectives[cut:]
        )
        whole = kernels.as_matrix(objectives)
        assert len(grown) == len(whole)
        for got, want in zip(grown, whole):
            assert bits(got) == bits(want)

    def test_zero_range_column_is_not_divided_by(self):
        # A constant objective column has span 0; the kernel and the
        # reference must skip it instead of dividing (the reference
        # skips before any division, so no inf/nan leaks in).
        objectives = [(1.0, 5.0), (2.0, 5.0), (3.0, 5.0)]
        for crowding in (GAKernels().crowding, py_kernels.crowding):
            perm, dist = crowding(objectives, range(len(objectives)))
            assert dist[perm.index(1)] == 1.0  # only objective 0 counts
            assert math.isinf(dist[perm.index(0)])
            assert math.isinf(dist[perm.index(2)])


class TestKernelInstrumentation:
    def test_kernels_time_into_registry(self, fresh_registry):
        registry = fresh_registry
        k = GAKernels()
        matrix = k.as_matrix([(1.0, 2.0), (2.0, 1.0)])
        k.nondominated_sort(matrix)
        k.crowding(matrix, [0, 1])
        sample = registry.sample_values()
        assert sample["repro_ga_sort_seconds_count"] == 1.0
        assert sample["repro_ga_crowding_seconds_count"] == 1.0


def stdlib_repair(codec, genome, rng):
    """``GenomeCodec.repair`` as it was before its draws were inlined:
    clip, then ``rng.shuffle`` the three exponent genes' visiting order."""
    a, b, c, k_idx = genome
    lows = (codec.min_a, 0, 0)
    highs = (codec.max_a, codec.max_b, codec.max_c)
    genes = [
        min(max(a, lows[0]), highs[0]),
        min(max(b, 0), highs[1]),
        min(max(c, 0), highs[2]),
    ]
    k_idx = min(max(k_idx, 0), len(codec.k_choices) - 1)
    delta = codec.total_exponent - sum(genes)
    order = [0, 1, 2]
    rng.shuffle(order)
    for i in order:
        if delta == 0:
            break
        if delta > 0:
            step = min(highs[i] - genes[i], delta)
        else:
            step = -min(genes[i] - lows[i], -delta)
        genes[i] += step
        delta -= step
    return (genes[0], genes[1], genes[2], k_idx)


def wrapper_breed(rng, genomes, ranks, crowding, steps, cx, mut, repair, count):
    """The breeding loop over the per-operator (stdlib-wrapper) functions."""
    children = []
    while len(children) < count:
        mother = genomes[tournament_index(rng, ranks, crowding)]
        father = genomes[tournament_index(rng, ranks, crowding)]
        for child in uniform_crossover(rng, mother, father, cx):
            child = step_mutation(rng, child, steps, mut)
            children.append(repair(child, rng))
    return children[:count]


def _dcim_case(precision, wstore):
    problem = DcimProblem(DcimSpec(wstore=wstore, precision=precision))
    codec = problem.codec
    return (
        problem.sample,
        problem.mutation_steps(),
        problem.repair,
        lambda genome, rng: stdlib_repair(codec, genome, rng),
    )


def _mapping_case():
    problem = MappingProblem(MappingSpec(network="resnet_block"))
    codec, max_em = problem.codec, problem.max_em

    def reference(genome, rng):
        base = stdlib_repair(codec, tuple(genome[:4]), rng)
        return (*base, min(max(genome[4], 0), max_em))

    return problem.sample, problem.mutation_steps(), problem.repair, reference


def _grid_case():
    problem = GoldenGridProblem()  # its repair clips and draws nothing
    return problem.sample, problem.mutation_steps(), problem.repair, problem.repair


BREED_CASES = {
    "INT2": lambda: _dcim_case("INT2", 4096),
    "INT8": lambda: _dcim_case("INT8", 65536),
    "BF16": lambda: _dcim_case("BF16", 65536),
    "FP32": lambda: _dcim_case("FP32", 256 * 1024),
    "mapping": _mapping_case,
    "no-draw repair": _grid_case,
}


class TestExactDraws:
    """``breed_offspring`` replays the stdlib draws: same children, and
    the stream left in the same state, on both sides of
    ``random.sample``'s pool/set switch (n <= 21 / n > 21)."""

    @pytest.mark.parametrize("case", sorted(BREED_CASES))
    @pytest.mark.parametrize("n", [4, 16, 21, 22, 24, 64])
    def test_children_and_stream_match_wrapper_loop(self, case, n):
        sample, steps, repair, reference_repair = BREED_CASES[case]()
        for seed in range(12):
            setup = random.Random(seed)
            genomes = [sample(setup) for _ in range(n)]
            # Few distinct ranks and crowding values force ties.
            ranks = [setup.randrange(3) for _ in range(n)]
            crowding = [
                setup.choice([0.0, 1.5, math.inf, setup.random()])
                for _ in range(n)
            ]
            cx = setup.choice([0.0, 0.9, 1.0])
            mut = setup.choice([0.0, 0.3, 1.0])
            count = n + seed % 2  # odd counts truncate the last pair
            rng = random.Random(seed + 1000)
            reference_rng = random.Random(seed + 1000)
            got = breed_offspring(
                rng, genomes, ranks, crowding, steps, cx, mut, repair, count
            )
            want = wrapper_breed(
                reference_rng, genomes, ranks, crowding, steps, cx, mut,
                reference_repair, count,
            )
            assert got == want, (case, n, seed)
            assert rng.getstate() == reference_rng.getstate(), (case, n, seed)

    def test_rejects_population_below_two(self):
        with pytest.raises(ValueError, match="at least two"):
            breed_offspring(
                random.Random(0), [(0, 0)], [0], [0.0], (1, 1), 0.9, 0.3,
                lambda genome, rng: genome, 2,
            )


class TestNovelGenomes:
    def test_dedups_against_archive_and_itself(self):
        archive = {(1, 1): None}
        batch = [(1, 1), (2, 2), (3, 3), (2, 2), (4, 4)]
        assert novel_genomes(batch, archive) == [(2, 2), (3, 3), (4, 4)]

    def test_empty(self):
        assert novel_genomes([], {}) == []


class GoldenGridProblem:
    """Synthetic bi-objective problem used to capture the golden runs."""

    def __init__(self, size=12):
        self.size = size

    def sample(self, rng: random.Random):
        return (rng.randrange(self.size), rng.randrange(self.size))

    def repair(self, genome, rng: random.Random):
        return tuple(min(max(g, 0), self.size - 1) for g in genome)

    def evaluate(self, genome):
        x, y = genome
        top = self.size - 1
        return (float(x + y), float((top - x) + (top - y)))

    def mutation_steps(self):
        return (2, 2)


def result_fingerprint(result) -> str:
    """sha256 over every genome/objective/rank/crowding of a run."""
    h = hashlib.sha256()
    for ind in result.front:
        h.update(
            repr(
                (ind.genome, ind.objectives, ind.rank, ind.crowding)
            ).encode()
        )
    h.update(b"|pop|")
    for ind in result.population:
        h.update(
            repr(
                (ind.genome, ind.objectives, ind.rank, ind.crowding)
            ).encode()
        )
    h.update(b"|hist|")
    h.update(repr(result.history).encode())
    h.update(
        repr(
            (result.evaluations, result.generations_run, result.stopped_early)
        ).encode()
    )
    return h.hexdigest()


# Captured by running the pre-kernel nsga2() implementation (the list
# based one the kernels replaced) on these exact problems and seeds.
# Any drift here means per-seed results changed — a parity break.
GOLDEN_GRID = {
    0: "554e2b806bf6c1a570e014bad71b4eec6951725b82d234191346410ee6d6b9f0",
    1: "a9be61e57b71bdbe05950a9d21f9b5db99b59e000661d54288b13fdac8f2b4b8",
    7: "90ee8822953769feccca9ecddd70af382e95bb49b688d6886675bbd47c15c2b4",
}
GOLDEN_DCIM_4096_INT8 = {
    0: "5a5e86a0b2e28e8ce293165223d02a00eb233e40dd54b756df20786420fc7f68",
    3: "a39f8af8c3c722411276126aca8641122083d82a25cddd68fd668cf7144f8bf9",
}
GOLDEN_DCIM_64K_BF16_SEED5 = (
    "997109a04d8b8f88833e05004dfa93148cd08eba9dd04dc78e0de48b338bf62b"
)
# The benchmark's GA shapes: the dcim default sizing (64 x 60) on the
# forced-GA 64K INT8 spec, and the mapping sizing (32 x 24).  Captured
# from the implementation before breeding replayed its draws inline and
# before parents reused the merged dominance matrix.
GOLDEN_DCIM_64K_INT8_64X60_SEED0 = (
    "ff5f3342274356ccadbf31ec9e7a4f1cf5140f2cf38d5a0e1dbda5d89b6068b1"
)
GOLDEN_MAPPING_RESNET_32X24_SEED0 = (
    "77802f7f4cbaffeb0981dcd085f0539964108f9a9a8900c43648830e2c83dd64"
)


class TestGoldenFingerprints:
    """Full nsga2() runs are bit-identical to the pre-kernel code."""

    def test_grid_runs(self):
        for seed, golden in GOLDEN_GRID.items():
            result = nsga2(
                GoldenGridProblem(),
                NSGA2Config(population_size=16, generations=10, seed=seed),
            )
            assert result_fingerprint(result) == golden, f"seed {seed}"

    def test_dcim_int8_runs(self):
        problem = DcimProblem(DcimSpec(wstore=4096, precision="INT8"))
        for seed, golden in GOLDEN_DCIM_4096_INT8.items():
            result = nsga2(
                problem,
                NSGA2Config(population_size=16, generations=8, seed=seed),
            )
            assert result_fingerprint(result) == golden, f"seed {seed}"

    def test_dcim_bf16_run(self):
        problem = DcimProblem(DcimSpec(wstore=65536, precision="BF16"))
        result = nsga2(
            problem, NSGA2Config(population_size=24, generations=12, seed=5)
        )
        assert result_fingerprint(result) == GOLDEN_DCIM_64K_BF16_SEED5

    def test_dcim_int8_benchmark_shape(self):
        problem = DcimProblem(DcimSpec(wstore=65536, precision="INT8"))
        result = nsga2(
            problem, NSGA2Config(population_size=64, generations=60, seed=0)
        )
        assert result_fingerprint(result) == GOLDEN_DCIM_64K_INT8_64X60_SEED0

    def test_mapping_benchmark_shape(self):
        problem = MappingProblem(MappingSpec(network="resnet_block"))
        result = nsga2(
            problem, NSGA2Config(population_size=32, generations=24, seed=0)
        )
        assert result_fingerprint(result) == GOLDEN_MAPPING_RESNET_32X24_SEED0


class TestExhaustiveStrategy:
    """Auto-routing between exhaustive enumeration and the GA."""

    SPEC = DcimSpec(wstore=4096, precision="INT8")

    def test_auto_picks_exhaustive_for_small_spaces(self):
        from repro.dse.explorer import DesignSpaceExplorer

        explorer = DesignSpaceExplorer()
        size = len(DcimProblem(self.SPEC).enumerate_genomes())
        assert size <= explorer.exhaustive_threshold
        assert explorer.select_strategy(self.SPEC) == "exhaustive"
        result = explorer.explore_auto(self.SPEC)
        assert result.strategy == "exhaustive"
        assert result.evaluations == size

    def test_threshold_zero_forces_ga(self):
        from repro.dse.explorer import DesignSpaceExplorer

        explorer = DesignSpaceExplorer(
            config=NSGA2Config(population_size=8, generations=2),
            exhaustive_threshold=0,
        )
        assert explorer.select_strategy(self.SPEC) == "ga"
        assert explorer.explore_auto(self.SPEC, seed=1).strategy == "ga"

    def test_exhaustive_front_matches_problem_baseline(self):
        from repro.dse.explorer import DesignSpaceExplorer

        problem = DcimProblem(self.SPEC)
        result = DesignSpaceExplorer().explore_exhaustive(self.SPEC)
        baseline = {
            (p.n, p.h, p.l, p.k) for p in problem.exhaustive_front()
        }
        assert {(p.n, p.h, p.l, p.k) for p in result.points} == baseline

    def test_non_enumerable_problem_raises(self):
        from repro.dse.explorer import DesignSpaceExplorer

        class Opaque:
            pass

        explorer = DesignSpaceExplorer(problem_factory=lambda spec: Opaque())
        with pytest.raises(ValueError, match="cannot enumerate"):
            explorer.explore_exhaustive(self.SPEC)

    def test_campaign_response_surfaces_strategy(self):
        from repro.service import CampaignConfig, run_campaign

        result = run_campaign([self.SPEC], CampaignConfig())
        assert result.strategies == ("exhaustive",)
        response = result.to_response()
        assert response.strategies == ("exhaustive",)
        assert response.to_dict()["strategies"] == ["exhaustive"]

    def test_exhaustive_never_beaten_by_ga(self):
        # The enumerated front is exact: no GA point may dominate it.
        from repro.core.pareto import dominates
        from repro.dse.explorer import DesignSpaceExplorer

        exact = DesignSpaceExplorer().explore_exhaustive(self.SPEC)
        ga = DesignSpaceExplorer(
            config=NSGA2Config(population_size=16, generations=8),
            exhaustive_threshold=0,
        ).explore_auto(self.SPEC, seed=0)
        exact_rows = [tuple(row) for row in exact.objectives]
        for row in ga.objectives:
            assert not any(
                dominates(tuple(row), kept) for kept in exact_rows
            )


class TestRunStoreStrategyColumns:
    def test_strategy_recorded(self, tmp_path):
        from repro.service import CampaignConfig, run_campaign
        from repro.store import RunStore

        with RunStore(tmp_path / "runs.sqlite") as store:
            result = run_campaign(
                [DcimSpec(wstore=4096, precision="INT8")],
                CampaignConfig(),
                store=store,
            )
            record = store.get_run(result.run_id)
        assert record.strategy == "exhaustive"
        assert "via exhaustive" in record.describe()
        assert record.to_dict()["strategy"] == "exhaustive"

    def test_migration_adds_columns_to_pre_kernel_db(self, tmp_path):
        from repro.service import CampaignConfig, run_campaign
        from repro.store import RunStore

        path = tmp_path / "runs.sqlite"
        with RunStore(path) as store:
            result = run_campaign(
                [DcimSpec(wstore=4096, precision="INT8")],
                CampaignConfig(),
                store=store,
            )
            run_id = result.run_id
        # Rebuild the pre-kernel schema: drop the new column outright.
        with sqlite3.connect(path) as conn:
            conn.execute("ALTER TABLE runs DROP COLUMN strategy")
        # Re-opening migrates additively; old rows read back as unknown.
        with RunStore(path) as store:
            record = store.get_run(run_id)
            assert record.strategy is None
            assert "via" not in record.describe()
