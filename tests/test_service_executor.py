"""Tests for the serial batch executor and the cached evaluator."""

import pytest

from repro.core.spec import DcimSpec
from repro.dse.nsga2 import NSGA2Config, nsga2
from repro.dse.problem import DcimProblem
from repro.service.cache import EvaluationCache
from repro.service.executor import ProblemEvaluator, SerialExecutor, chunked

SPEC = DcimSpec(wstore=4096, precision="INT8")
SMALL_GA = NSGA2Config(population_size=16, generations=6, seed=5)


@pytest.fixture(scope="module")
def problem():
    return DcimProblem(SPEC)


@pytest.fixture(scope="module")
def genomes(problem):
    return problem.codec.enumerate()


class TestChunking:
    def test_chunked_partitions(self):
        assert chunked([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]

    def test_chunked_rejects_zero(self):
        with pytest.raises(ValueError):
            chunked([1], 0)


class TestBackendsAgree:
    def test_empty_batch(self, problem):
        assert SerialExecutor().evaluate_batch(problem, []) == []
        assert SerialExecutor(chunk_size=4).evaluate_batch(problem, []) == []


class _CountingExecutor:
    """Serial executor that records how many genomes it evaluated."""

    name = "counting"

    def __init__(self):
        self.calls = 0
        self.genomes = 0

    def evaluate_batch(self, problem, genomes):
        self.calls += 1
        self.genomes += len(genomes)
        return [problem.evaluate(g) for g in genomes]

    def close(self):
        pass


class TestProblemEvaluator:
    def test_batch_dedup(self, problem, genomes):
        counting = _CountingExecutor()
        evaluator = ProblemEvaluator(problem, executor=counting)
        batch = [genomes[0], genomes[1], genomes[0], genomes[1], genomes[0]]
        results = evaluator.evaluate_batch(batch)
        assert counting.genomes == 2  # two unique genomes
        assert results[0] == results[2] == results[4]
        assert len(results) == len(batch)

    def test_cache_short_circuits_executor(self, problem, genomes):
        cache = EvaluationCache()
        counting = _CountingExecutor()
        evaluator = ProblemEvaluator(problem, cache=cache, executor=counting)
        first = evaluator.evaluate_batch(genomes[:8])
        again = evaluator.evaluate_batch(genomes[:8])
        assert again == first
        assert counting.genomes == 8  # second batch fully cache-served
        assert cache.stats.hits == 8

    def test_cache_disabled_without_fingerprint(self):
        class Opaque:
            def evaluate(self, genome):
                return (float(sum(genome)),)

        evaluator = ProblemEvaluator(Opaque(), cache=EvaluationCache())
        assert evaluator.cache is None  # no spec/library to key on
        assert evaluator.evaluate_batch([(1, 2)]) == [(3.0,)]

    def test_results_in_input_order(self, problem, genomes):
        evaluator = ProblemEvaluator(problem)
        expected = [problem.evaluate(g) for g in genomes[:10]]
        assert evaluator.evaluate_batch(genomes[:10]) == expected


class _SpyCache(EvaluationCache):
    """Counts batched cache calls without changing behavior."""

    def __init__(self):
        super().__init__()
        self.get_many_calls = 0
        self.put_many_calls = 0

    def get_many(self, keys):
        self.get_many_calls += 1
        return super().get_many(keys)

    def put_many(self, entries):
        self.put_many_calls += 1
        return super().put_many(entries)


class TestBatchedCacheTraffic:
    def test_one_get_many_and_one_put_many_per_batch(self, problem, genomes):
        cache = _SpyCache()
        evaluator = ProblemEvaluator(problem, cache=cache)
        evaluator.evaluate_batch(genomes[:12])
        assert cache.get_many_calls == 1
        assert cache.put_many_calls == 1

    def test_fully_warm_batch_skips_put_many(self, problem, genomes):
        cache = _SpyCache()
        evaluator = ProblemEvaluator(problem, cache=cache)
        evaluator.evaluate_batch(genomes[:12])
        evaluator.evaluate_batch(genomes[:12])
        assert cache.get_many_calls == 2
        assert cache.put_many_calls == 1  # nothing new to store


class TestNsga2AcrossBackends:
    """The acceptance bar: any evaluator reproduces the plain front."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return nsga2(DcimProblem(SPEC), SMALL_GA)

    def _front(self, result):
        return [ind.genome for ind in result.front]

    def test_injected_serial_evaluator_identical(self, baseline):
        problem = DcimProblem(SPEC)
        evaluator = ProblemEvaluator(problem, cache=EvaluationCache())
        result = nsga2(problem, SMALL_GA, evaluator=evaluator)
        assert self._front(result) == self._front(baseline)
        assert result.evaluations == baseline.evaluations

    def test_warm_cache_identical_and_fully_served(self, baseline):
        cache = EvaluationCache()
        problem = DcimProblem(SPEC)
        nsga2(problem, SMALL_GA, evaluator=ProblemEvaluator(problem, cache=cache))
        counting = _CountingExecutor()
        warm = nsga2(
            problem,
            SMALL_GA,
            evaluator=ProblemEvaluator(problem, cache=cache, executor=counting),
        )
        assert self._front(warm) == self._front(baseline)
        assert counting.genomes == 0  # every genome came from the cache
