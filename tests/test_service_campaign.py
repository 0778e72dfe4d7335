"""Tests for multi-spec campaign runs: sharding, caching, front merges."""

import pytest

from repro.core.pareto import dominates
from repro.core.spec import DcimSpec
from repro.dse.explorer import DesignSpaceExplorer
from repro.dse.nsga2 import NSGA2Config
from repro.dse.problem import DcimProblem
from repro.problems import REGISTRY, register_problem
from repro.problems.dcim import DcimProblemDefinition
from repro.service.cache import EvaluationCache
from repro.service.campaign import CampaignConfig, run_campaign
from repro.service.executor import SerialExecutor

SPECS = [
    DcimSpec(wstore=4096, precision="INT4"),
    DcimSpec(wstore=4096, precision="INT8"),
]
SMALL_GA = NSGA2Config(population_size=16, generations=8)


def small_config(**overrides) -> CampaignConfig:
    # These tests exercise the GA path (events, sharding, cancellation
    # windows), so opt out of the exhaustive-enumeration default.
    overrides.setdefault("exhaustive_threshold", 0)
    return CampaignConfig(nsga2=SMALL_GA, seed=3, **overrides)


def front_keys(result):
    return [(p.precision.name, p.n, p.h, p.l, p.k) for p in result.merged_points]


class TestMergeCorrectness:
    @pytest.fixture(scope="class")
    def campaign(self):
        return run_campaign(SPECS, small_config())

    def test_matches_explorer_merge(self, campaign):
        explorer = DesignSpaceExplorer(config=SMALL_GA)
        results = [explorer.explore(s, seed=3 + i) for i, s in enumerate(SPECS)]
        merged = DesignSpaceExplorer.merge_fronts(results)
        assert set(front_keys(campaign)) == {
            (p.precision.name, p.n, p.h, p.l, p.k) for p in merged
        }

    def test_merged_front_mutually_nondominated(self, campaign):
        rows = [tuple(r) for r in campaign.merged_objectives]
        for i, u in enumerate(rows):
            for j, v in enumerate(rows):
                if i != j:
                    assert not dominates(u, v)

    def test_merged_front_spans_inputs(self, campaign):
        union = {
            (r.spec.precision.name, p.n, p.h, p.l, p.k)
            for r in campaign.results
            for p in r.points
        }
        assert set(front_keys(campaign)) <= union

    def test_objectives_sorted_by_area(self, campaign):
        areas = [row[0] for row in campaign.merged_objectives]
        assert areas == sorted(areas)

    def test_evaluations_accumulate(self, campaign):
        assert campaign.evaluations == sum(r.evaluations for r in campaign.results)
        assert campaign.wall_time_s > 0


class TestOneProblemPerSpec:
    """Every spec builds one problem and enumerates its space at most once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        from repro.dse.genome import GenomeCodec
        from repro.problems.dcim import DcimProblemDefinition

        counts = {"make_problem": 0, "enumerate": 0}
        make_problem = DcimProblemDefinition.make_problem
        enumerate_space = GenomeCodec.enumerate

        def counting_make_problem(self, *args, **kwargs):
            counts["make_problem"] += 1
            return make_problem(self, *args, **kwargs)

        def counting_enumerate(self):
            counts["enumerate"] += 1
            return enumerate_space(self)

        monkeypatch.setattr(DcimProblemDefinition, "make_problem", counting_make_problem)
        monkeypatch.setattr(GenomeCodec, "enumerate", counting_enumerate)
        return counts

    @pytest.mark.parametrize(
        "threshold, strategy, enumerations",
        [
            (512, "exhaustive", 2),  # the sizing enumeration is explored
            (8, "ga", 2),  # sized once, too large: the GA runs
            (0, "ga", 0),  # forced GA never sizes the space
        ],
    )
    def test_counts_per_route(self, counts, threshold, strategy, enumerations):
        result = run_campaign(SPECS, small_config(exhaustive_threshold=threshold))
        assert result.strategies == (strategy, strategy)
        assert counts == {"make_problem": 2, "enumerate": enumerations}

    def test_plan_carries_the_exhaustive_enumeration(self):
        explorer = DesignSpaceExplorer()
        plan = explorer.plan(SPECS[0])
        assert plan.strategy == "exhaustive"
        assert plan.genomes == plan.problem.enumerate_genomes()
        result = explorer.explore_exhaustive(SPECS[0], plan=plan)
        assert result.evaluations == len(plan.genomes)
        baseline = explorer.explore_exhaustive(SPECS[0])
        assert result.points == baseline.points
        assert (result.objectives == baseline.objectives).all()


class TestExecutorChunks:
    def test_chunked_executor_bit_identical(self):
        plain = run_campaign(SPECS, small_config())
        chunked = run_campaign(
            SPECS, small_config(), executor=SerialExecutor(chunk_size=7)
        )
        assert front_keys(plain) == front_keys(chunked)
        assert plain.merged_objectives.tolist() == chunked.merged_objectives.tolist()


class NoEngineDefinition(DcimProblemDefinition):
    """A definition written against today's ``make_problem`` signature."""

    name = "dcim_no_engine"

    def make_problem(self, spec, library=None):
        return DcimProblem(spec, library)


class EngineKeywordDefinition(DcimProblemDefinition):
    """A definition still written against the signature that took the
    retired ``engine`` keyword."""

    name = "dcim_engine_keyword"

    def make_problem(self, spec, library=None, engine="auto"):
        return DcimProblem(spec, library)


class TestProblemDefinitionSignatures:
    @pytest.mark.parametrize(
        "definition", [NoEngineDefinition, EngineKeywordDefinition]
    )
    def test_campaign_builds_problems_from_spec_and_library(self, definition):
        register_problem(definition())
        try:
            result = run_campaign(SPECS, small_config(problem=definition.name))
        finally:
            REGISTRY._definitions.pop(definition.name, None)
        reference = run_campaign(SPECS, small_config())
        assert result.problem == definition.name
        assert front_keys(result) == front_keys(reference)
        assert result.merged_objectives.tolist() == (
            reference.merged_objectives.tolist()
        )


class TestSharding:
    def test_parallel_specs_match_sequential(self):
        sequential = run_campaign(SPECS, small_config(workers=1))
        sharded = run_campaign(SPECS, small_config(workers=2))
        assert front_keys(sequential) == front_keys(sharded)

    def test_shared_executor_left_open(self):
        class ClosingExecutor(SerialExecutor):
            closed = False

            def close(self):
                self.closed = True

        executor = ClosingExecutor()
        run_campaign(SPECS, small_config(), executor=executor)
        # The caller owns the executor: the campaign must not close it.
        assert not executor.closed
        problem = DcimProblem(SPECS[0])
        genome = problem.codec.enumerate()[0]
        assert executor.evaluate_batch(problem, [genome])

    def test_rejects_empty_campaign(self):
        with pytest.raises(ValueError):
            run_campaign([], small_config())

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            CampaignConfig(workers=0)


class TestWarmCache:
    def test_second_run_hits_over_90_percent(self, tmp_path):
        path = tmp_path / "campaign.sqlite"
        with EvaluationCache(path) as cache:
            cold = run_campaign(SPECS, small_config(), cache=cache)
        assert cold.cache_stats.misses > 0
        # Fresh process-equivalent: reopen the persisted cache.
        with EvaluationCache(path) as cache:
            warm = run_campaign(SPECS, small_config(), cache=cache)
        assert warm.cache_stats.hit_rate >= 0.9
        assert warm.cache_stats.misses == 0
        assert warm.fresh_evaluations == 0
        assert cold.fresh_evaluations == cold.evaluations
        assert front_keys(cold) == front_keys(warm)

    def test_cache_stats_are_per_campaign(self):
        cache = EvaluationCache()
        first = run_campaign(SPECS, small_config(), cache=cache)
        second = run_campaign(SPECS, small_config(), cache=cache)
        # The second campaign's snapshot counts only its own lookups.
        assert second.cache_stats.misses == 0
        assert second.cache_stats.hits == first.cache_stats.misses

    def test_uncached_campaign_reports_none(self):
        result = run_campaign(SPECS[:1], small_config())
        assert result.cache_stats is None


def spy_on_cache(cache, monkeypatch) -> list[str]:
    """Record every batched lookup and store the cache receives."""
    calls: list[str] = []
    for name in ("get_many", "put_many"):
        original = getattr(cache, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cache, name, spy)
    return calls


class TestExhaustiveRouteBypassesCache:
    """The exhaustive route evaluates its enumeration without the cache."""

    #: 4K INT8 enumerates under the default threshold; 256K FP32 does not.
    MIXED = [
        DcimSpec(wstore=4096, precision="INT8"),
        DcimSpec(wstore=256 * 1024, precision="FP32"),
    ]

    def test_all_exhaustive_campaign_never_touches_the_cache(
        self, tmp_path, monkeypatch
    ):
        config = CampaignConfig(seed=3)  # default threshold
        plain = run_campaign(SPECS, config)
        path = tmp_path / "evals.sqlite"
        with EvaluationCache(path) as cache:
            calls = spy_on_cache(cache, monkeypatch)
            cached = run_campaign(SPECS, config, cache=cache)
        assert cached.strategies == ("exhaustive", "exhaustive")
        assert calls == []
        with EvaluationCache(path) as reopened:
            assert len(reopened) == 0
        assert front_keys(cached) == front_keys(plain)
        assert cached.merged_objectives.tolist() == plain.merged_objectives.tolist()
        assert cached.evaluations == plain.evaluations
        assert cached.fresh_evaluations == cached.evaluations
        assert cached.to_response().fresh_evaluations == cached.evaluations

    def test_mixed_campaign_counts_exhaustive_genomes_as_fresh(self, tmp_path):
        config = CampaignConfig(nsga2=SMALL_GA, seed=3)
        path = tmp_path / "mixed.sqlite"
        with EvaluationCache(path) as cache:
            cold = run_campaign(self.MIXED, config, cache=cache)
        assert cold.strategies == ("exhaustive", "ga")
        exhaustive, ga = cold.results
        # Only the GA spec consulted the cache.
        assert cold.cache_stats.misses == ga.evaluations
        assert cold.cache_stats.hits == 0
        assert cold.fresh_evaluations == ga.evaluations + exhaustive.evaluations
        with EvaluationCache(path) as cache:
            assert len(cache) == ga.evaluations
            warm = run_campaign(self.MIXED, config, cache=cache)
        assert warm.cache_stats.misses == 0
        assert warm.cache_stats.hits == ga.evaluations
        assert warm.fresh_evaluations == exhaustive.evaluations
        assert front_keys(warm) == front_keys(cold)

    def test_exhaustive_spec_done_reports_no_hit_rate(self):
        from repro.service.events import EventKind

        cache = EvaluationCache()
        events = []
        run_campaign(
            self.MIXED,
            CampaignConfig(nsga2=SMALL_GA, seed=3, workers=2),
            cache=cache,
            observer=events.append,
        )
        rates = {
            e.spec: e.cache_hit_rate
            for e in events
            if e.kind is EventKind.SPEC_DONE
        }
        assert rates["4096:INT8"] is None
        assert rates["262144:FP32"] is not None

    def test_all_exhaustive_campaign_done_reports_no_hit_rate(self):
        from repro.service.events import EventKind

        events = []
        run_campaign(
            SPECS,
            CampaignConfig(seed=3),
            cache=EvaluationCache(),
            observer=events.append,
        )
        done = [e for e in events if e.kind is EventKind.CAMPAIGN_DONE]
        assert [e.cache_hit_rate for e in done] == [None]

    def test_thread_backend_matches_serial_and_traces_chunks(self):
        """A chunked executor on the exhaustive route matches one batch
        per spec and traces each spec's batch as one span under it."""
        from repro.obs.trace import Tracer, set_tracer

        serial = run_campaign(SPECS, CampaignConfig(seed=3))
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            threaded = run_campaign(
                SPECS,
                CampaignConfig(seed=3),
                cache=EvaluationCache(),
                executor=SerialExecutor(chunk_size=32),
            )
        finally:
            set_tracer(previous)
        assert threaded.strategies == ("exhaustive", "exhaustive")
        assert front_keys(threaded) == front_keys(serial)
        assert threaded.merged_objectives.tolist() == serial.merged_objectives.tolist()
        (record,) = tracer.finished()
        spans = record.spans
        exhaustive_ids = {s.span_id for s in spans if s.name == "spec.exhaustive"}
        chunks = [s for s in spans if s.name == "executor.chunk"]
        assert len(exhaustive_ids) == 2
        assert len(chunks) == 2  # one span per batch, however chunked
        assert all(c.parent_id in exhaustive_ids for c in chunks)
        assert all(c.attributes["backend"] == "serial" for c in chunks)
        assert sum(c.attributes["genomes"] for c in chunks) == threaded.evaluations
        assert not any(s.name.startswith("cache.") for s in spans)


class TestWriteBehind:
    """Every cache batch is written through, so a campaign that stops
    early still leaves its completed evaluations on disk."""

    def test_cancelled_campaign_flushes_completed_work(self, tmp_path):
        from repro.service.events import CampaignCancelled, EventKind

        path = tmp_path / "cancelled.sqlite"
        seen = {"generations": 0}

        def observer(event):
            if event.kind is EventKind.GENERATION_DONE:
                seen["generations"] += 1

        with EvaluationCache(path) as cache:
            with pytest.raises(CampaignCancelled):
                run_campaign(
                    SPECS,
                    small_config(),
                    cache=cache,
                    observer=observer,
                    should_stop=lambda: seen["generations"] >= 2,
                )
            stored = len(cache)
        assert stored > 0  # completed evaluations survived the cancel
        with EvaluationCache(path) as reopened:
            assert len(reopened) == stored  # ...and are really on disk


class TestObserverAndCancellation:
    def test_observer_never_changes_results(self):
        events = []
        plain = run_campaign(SPECS, small_config())
        observed = run_campaign(SPECS, small_config(), observer=events.append)
        assert front_keys(plain) == front_keys(observed)
        assert (
            plain.merged_objectives.tolist()
            == observed.merged_objectives.tolist()
        )
        assert plain.evaluations == observed.evaluations

    def test_event_stream_shape(self):
        from repro.service.events import EventKind

        events = []
        run_campaign(SPECS, small_config(), observer=events.append)
        kinds = [e.kind for e in events]
        assert kinds.count(EventKind.SPEC_STARTED) == len(SPECS)
        assert kinds.count(EventKind.SPEC_DONE) == len(SPECS)
        assert kinds.count(EventKind.GENERATION_DONE) == (
            len(SPECS) * SMALL_GA.generations
        )
        assert kinds[-1] is EventKind.CAMPAIGN_DONE
        done = events[-1]
        assert done.front_size > 0
        assert done.wall_time_s > 0
        labels = {e.spec for e in events if e.spec}
        assert labels == {"4096:INT4", "4096:INT8"}

    def test_threaded_workers_emit_full_stream(self):
        import threading
        from repro.service.events import EventKind

        events = []
        lock = threading.Lock()

        def observer(event):
            with lock:
                events.append(event)

        run_campaign(SPECS, small_config(workers=2), observer=observer)
        kinds = [e.kind for e in events]
        assert kinds.count(EventKind.GENERATION_DONE) == (
            len(SPECS) * SMALL_GA.generations
        )
        assert kinds[-1] is EventKind.CAMPAIGN_DONE

    def test_should_stop_raises_campaign_cancelled(self):
        from repro.service.events import CampaignCancelled, EventKind

        events = []
        seen = {"generations": 0}

        def stop_after_two() -> bool:
            return seen["generations"] >= 2

        def observer(event):
            events.append(event)
            if event.kind is EventKind.GENERATION_DONE:
                seen["generations"] += 1

        with pytest.raises(CampaignCancelled):
            run_campaign(
                SPECS,
                small_config(),
                observer=observer,
                should_stop=stop_after_two,
            )
        kinds = [e.kind for e in events]
        assert EventKind.CAMPAIGN_DONE not in kinds
        assert kinds.count(EventKind.GENERATION_DONE) < (
            len(SPECS) * SMALL_GA.generations
        )

    def test_cached_campaign_reports_cache_hit_rate(self):
        from repro.service.events import EventKind

        cache = EvaluationCache()
        run_campaign(SPECS, small_config(), cache=cache)
        events = []
        run_campaign(SPECS, small_config(), cache=cache, observer=events.append)
        rates = [
            e.cache_hit_rate
            for e in events
            if e.kind is EventKind.GENERATION_DONE
        ]
        # Warm cache: by the end everything is served from it.
        assert rates[-1] > 0.9
