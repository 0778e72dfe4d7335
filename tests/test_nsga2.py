"""Tests for repro.dse.nsga2 on synthetic and DCIM problems."""

import importlib
import random

import pytest

from repro.core.pareto import dominates
from repro.core.spec import DcimSpec
from repro.dse.kernels import GAKernels
from repro.dse.nsga2 import NSGA2Config, nsga2
from repro.dse.problem import DcimProblem
from repro.problems.mapping import MappingProblem, MappingSpec
from repro.workloads.networks import AVAILABLE_NETWORKS

# ``repro.dse.nsga2`` the attribute is the function; this is the module.
NSGA2_MODULE = importlib.import_module("repro.dse.nsga2")


class GridProblem:
    """Synthetic bi-objective problem on an integer grid.

    Minimise (x, 10 - x) for x in [0, 10]: every point is on the true
    Pareto front, which exercises front bookkeeping; a second gene adds a
    strictly-dominated direction.
    """

    def sample(self, rng):
        return (rng.randint(0, 10), rng.randint(0, 5))

    def repair(self, genome, rng):
        x, y = genome
        return (min(max(x, 0), 10), min(max(y, 0), 5))

    def evaluate(self, genome):
        x, y = genome
        return (float(x + y), float(10 - x + y))

    def mutation_steps(self):
        return (2, 2)


def crowding_by_row(objectives):
    """Crowding distance per row of one front, through the GA kernels."""
    kernels = GAKernels()
    perm, dist = kernels.crowding(
        kernels.as_matrix(objectives), range(len(objectives))
    )
    return dict(zip(perm, dist))


class TestSortAndCrowding:
    def test_fast_sort_ranks(self):
        kernels = GAKernels()
        matrix = kernels.as_matrix(
            [(1.0, 1.0), (2.0, 2.0), (0.5, 3.0), (3.0, 3.0)]
        )
        ranks, fronts = kernels.nondominated_sort(matrix)
        assert set(fronts[0]) == {0, 2}
        assert ranks[0] == 0
        assert ranks[3] == 2  # dominated by both (1,1) and (2,2)

    def test_crowding_boundaries_infinite(self):
        by_row = crowding_by_row([(0.0, 3.0), (1.0, 2.0), (2.0, 1.0), (3.0, 0.0)])
        assert by_row[0] == float("inf")
        assert by_row[3] == float("inf")
        assert 0 < by_row[1] < float("inf")

    def test_crowding_small_front_all_infinite(self):
        by_row = crowding_by_row([(1.0, 2.0), (2.0, 1.0)])
        assert all(value == float("inf") for value in by_row.values())


class TestConfig:
    def test_rejects_odd_population(self):
        with pytest.raises(ValueError):
            NSGA2Config(population_size=7)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            NSGA2Config(crossover_prob=1.5)


class TestNsga2Synthetic:
    def test_finds_zero_y_front(self):
        result = nsga2(GridProblem(), NSGA2Config(population_size=16, generations=30, seed=7))
        # True front: y == 0 for any x; all 11 x-values non-dominated.
        assert all(g[1] == 0 for g in (ind.genome for ind in result.front))
        xs = {g[0] for g, in zip((ind.genome for ind in result.front))}
        assert len(xs) >= 8  # nearly complete coverage of the 11 points

    def test_front_mutually_nondominated(self):
        result = nsga2(GridProblem(), NSGA2Config(seed=3))
        objs = [ind.objectives for ind in result.front]
        for i, u in enumerate(objs):
            for j, v in enumerate(objs):
                if i != j:
                    assert not dominates(u, v)

    def test_deterministic_given_seed(self):
        r1 = nsga2(GridProblem(), NSGA2Config(seed=42, generations=10))
        r2 = nsga2(GridProblem(), NSGA2Config(seed=42, generations=10))
        assert [i.genome for i in r1.front] == [i.genome for i in r2.front]

    def test_history_length(self):
        result = nsga2(GridProblem(), NSGA2Config(generations=12, seed=0))
        assert len(result.history) == 12


class TestNsga2OnDcim:
    @pytest.fixture(scope="class")
    def problem(self):
        return DcimProblem(DcimSpec(wstore=16 * 1024, precision="INT8"))

    @pytest.fixture(scope="class")
    def result(self, problem):
        return nsga2(problem, NSGA2Config(population_size=32, generations=30, seed=11))

    def test_front_is_subset_of_true_front(self, problem, result):
        truth = {
            (p.n, p.h, p.l, p.k) for p in problem.exhaustive_front()
        }
        for ind in result.front:
            p = problem.decode(ind.genome)
            assert (p.n, p.h, p.l, p.k) in truth

    def test_recall_of_true_front(self, problem, result):
        truth = {(p.n, p.h, p.l, p.k) for p in problem.exhaustive_front()}
        found = {
            (p.n, p.h, p.l, p.k)
            for p in (problem.decode(i.genome) for i in result.front)
        }
        recall = len(found & truth) / len(truth)
        assert recall > 0.8

    def test_all_front_designs_meet_storage(self, problem, result):
        for ind in result.front:
            assert problem.decode(ind.genome).wstore == 16 * 1024

    def test_memoisation_bounds_evaluations(self, problem, result):
        # 30 generations x 32 offspring without caching would be ~1000
        # evaluations; the discrete space is far smaller.
        space = len(problem.codec.enumerate())
        assert result.evaluations <= space


class TestObserverAndCancellation:
    CONFIG = NSGA2Config(population_size=16, generations=10, seed=7)

    def test_observer_called_per_generation(self):
        seen = []
        nsga2(GridProblem(), self.CONFIG, observer=seen.append)
        assert [p.generation for p in seen] == list(range(1, 11))
        for progress in seen:
            assert progress.generations == 10
            assert progress.front_size > 0
            assert progress.requested >= progress.evaluations
            assert 0.0 <= progress.cache_hit_rate <= 1.0
        evals = [p.evaluations for p in seen]
        assert evals == sorted(evals)
        assert seen[-1].archive_size == seen[-1].evaluations

    def test_observer_keeps_run_bit_identical(self):
        plain = nsga2(GridProblem(), self.CONFIG)
        observed = nsga2(GridProblem(), self.CONFIG, observer=lambda p: None)
        assert [(i.genome, i.objectives) for i in observed.front] == [
            (i.genome, i.objectives) for i in plain.front
        ]
        assert observed.history == plain.history
        assert observed.evaluations == plain.evaluations
        assert observed.generations_run == plain.generations_run == 10
        assert not plain.stopped_early

    def test_should_stop_ends_run_at_generation_boundary(self):
        done = []

        def stop_after_three() -> bool:
            return len(done) >= 3

        result = nsga2(
            GridProblem(),
            self.CONFIG,
            observer=done.append,
            should_stop=stop_after_three,
        )
        assert result.stopped_early
        assert result.generations_run == 3
        assert len(result.history) == 3
        assert result.front  # the prefix's archive front is still returned

    def test_stopped_prefix_matches_shorter_run(self):
        # Cancelling after k generations must equal a run configured
        # with k generations: same seed, same rng consumption order.
        done = []
        stopped = nsga2(
            GridProblem(),
            self.CONFIG,
            observer=done.append,
            should_stop=lambda: len(done) >= 4,
        )
        short = nsga2(
            GridProblem(),
            NSGA2Config(population_size=16, generations=4, seed=7),
        )
        assert [(i.genome, i.objectives) for i in stopped.front] == [
            (i.genome, i.objectives) for i in short.front
        ]
        assert stopped.history == short.history

    def test_should_stop_immediately(self):
        result = nsga2(GridProblem(), self.CONFIG, should_stop=lambda: True)
        assert result.stopped_early
        assert result.generations_run == 0
        assert result.history == []
        assert result.front  # initial population is still evaluated


def parent_rankings(monkeypatch, problem, config):
    """Run ``nsga2`` and return, per generation, the parents' genomes,
    ranks and crowding as breeding received them, and the number of
    parent sorts the run made."""
    seen = []
    breed = NSGA2_MODULE.breed_offspring

    def spy_breed(rng, genomes, ranks, crowding, *rest):
        seen.append((list(genomes), list(ranks), list(crowding)))
        return breed(rng, genomes, ranks, crowding, *rest)

    sorts = []
    sort = GAKernels.nondominated_sort

    def spy_sort(self, matrix, dominance=None, **options):
        if not options:  # the merged sort passes return_dominance/limit
            sorts.append(len(matrix))
        return sort(self, matrix, dominance, **options)

    monkeypatch.setattr(NSGA2_MODULE, "breed_offspring", spy_breed)
    monkeypatch.setattr(GAKernels, "nondominated_sort", spy_sort)
    nsga2(problem, config)
    monkeypatch.undo()
    return seen, len(sorts)


def full_ranking(problem, genomes):
    """Ranks and crowding per row from a fresh sort of ``genomes``."""
    kernels = GAKernels()
    matrix = kernels.as_matrix([problem.evaluate(g) for g in genomes])
    ranks, fronts = kernels.nondominated_sort(matrix)
    crowding = [0.0] * len(genomes)
    for front in fronts:
        perm, dist = kernels.crowding(matrix, front)
        for i, value in zip(perm, dist):
            crowding[i] = value
    return ranks, crowding


BENCHMARK_SHAPES = [
    *(
        pytest.param(
            DcimProblem(DcimSpec(wstore=wstore, precision=precision)),
            NSGA2Config(population_size=64, generations=60, seed=1),
            id=f"dcim-{wstore}:{precision}",
        )
        for wstore, precision in ((65536, "INT8"), (65536, "BF16"), (262144, "FP32"))
    ),
    *(
        pytest.param(
            MappingProblem(MappingSpec(network=network)),
            NSGA2Config(population_size=32, generations=24, seed=1),
            id=f"mapping-{network}",
        )
        for network in sorted(AVAILABLE_NETWORKS)
    ),
]


class TestOneFrontParents:
    """When one front fills the next population, ``nsga2`` ranks the
    parents without a sort; the ranking must be the sort's."""

    @pytest.mark.parametrize("problem, config", BENCHMARK_SHAPES)
    def test_benchmark_shapes(self, monkeypatch, problem, config):
        seen, sorts = parent_rankings(monkeypatch, problem, config)
        assert len(seen) == config.generations
        for genomes, ranks, crowding in seen:
            assert (ranks, crowding) == full_ranking(problem, genomes)
        assert sorts < config.generations  # the skip was taken

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_populations_of_several_fronts(self, monkeypatch, seed):
        problem = GridProblem()
        config = NSGA2Config(population_size=16, generations=10, seed=seed)
        seen, sorts = parent_rankings(monkeypatch, problem, config)
        several = 0
        for genomes, ranks, crowding in seen:
            assert (ranks, crowding) == full_ranking(problem, genomes)
            several += max(ranks) > 0
        assert several > 1
        # Every population of several fronts was sorted; some were not.
        assert several <= sorts < config.generations
