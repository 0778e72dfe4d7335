"""Tests for repro.dse.explorer and repro.dse.distill."""

import pytest

from repro.core.pareto import dominates
from repro.core.spec import DcimSpec
from repro.dse import (
    DesignSpaceExplorer,
    NSGA2Config,
    Requirements,
    distill,
    select,
)
from repro.model.cost import Cost
from repro.tech import GENERIC28
from repro.tech.cells import CellLibrary


@pytest.fixture(scope="module")
def explorer():
    return DesignSpaceExplorer(config=NSGA2Config(population_size=32, generations=25, seed=5))


@pytest.fixture(scope="module")
def int_result(explorer):
    return explorer.explore(DcimSpec(wstore=16 * 1024, precision="INT8"))


@pytest.fixture(scope="module")
def fp_result(explorer):
    return explorer.explore(DcimSpec(wstore=16 * 1024, precision="BF16"))


class TestExplorer:
    def test_front_sorted_by_area(self, int_result):
        areas = [o[0] for o in int_result.objectives]
        assert areas == sorted(areas)

    def test_points_meet_spec(self, int_result):
        for p in int_result.points:
            assert p.wstore == 16 * 1024
            assert p.l <= 64 and p.h <= 2048

    def test_hypervolume_positive(self, int_result):
        assert int_result.front_hypervolume() > 0

    def test_exhaustive_matches_ga_closely(self, explorer):
        spec = DcimSpec(wstore=16 * 1024, precision="INT8")
        exact = explorer.explore_exhaustive(spec)
        ga = explorer.explore(spec, seed=9)
        exact_set = {(p.n, p.h, p.l, p.k) for p in exact.points}
        ga_set = {(p.n, p.h, p.l, p.k) for p in ga.points}
        # The GA's archive front is the true front of the *visited*
        # subspace: high recall and high precision, not exact equality.
        recall = len(ga_set & exact_set) / len(exact_set)
        precision = len(ga_set & exact_set) / len(ga_set)
        assert recall > 0.8
        assert precision > 0.9

    def test_merge_fronts_cross_architecture(self, explorer, int_result, fp_result):
        merged = explorer.merge_fronts([int_result, fp_result])
        assert merged
        archs = {p.arch for p in merged}
        # Both architectures survive the merge: FP trades area for
        # capability, INT stays smaller, so neither dominates the other
        # everywhere.
        assert archs == {"int-mul", "fp-prealign"}

    def test_merged_mutually_nondominated(self, explorer, int_result, fp_result):
        merged = explorer.merge_fronts([int_result, fp_result])
        from repro.dse.problem import objectives_of

        objs = [objectives_of(p.macro_cost()) for p in merged]
        for i, u in enumerate(objs):
            for j, v in enumerate(objs):
                if i != j:
                    assert not dominates(u, v)

    def test_explore_many(self, explorer):
        specs = [
            DcimSpec(wstore=4 * 1024, precision="INT4"),
            DcimSpec(wstore=4 * 1024, precision="INT8"),
        ]
        results = explorer.explore_many(specs, seed=1)
        assert len(results) == 2
        assert results[0].spec.precision.name == "INT4"


class TestDistill:
    def test_unconstrained_keeps_everything(self, int_result):
        pairs = distill(int_result.points, GENERIC28)
        assert len(pairs) == len(int_result.points)

    def test_area_budget_filters(self, int_result):
        all_pairs = distill(int_result.points, GENERIC28)
        cutoff = sorted(m.layout_area_mm2 for _, m in all_pairs)[len(all_pairs) // 2]
        pairs = distill(
            int_result.points, GENERIC28, Requirements(max_area_mm2=cutoff)
        )
        assert 0 < len(pairs) < len(all_pairs)
        assert all(m.layout_area_mm2 <= cutoff for _, m in pairs)

    def test_min_tops_filters(self, int_result):
        all_pairs = distill(int_result.points, GENERIC28)
        median_tops = sorted(m.tops for _, m in all_pairs)[len(all_pairs) // 2]
        pairs = distill(
            int_result.points, GENERIC28, Requirements(min_tops=median_tops)
        )
        assert all(m.tops >= median_tops for _, m in pairs)

    def test_impossible_requirements_empty(self, int_result):
        pairs = distill(
            int_result.points, GENERIC28, Requirements(max_area_mm2=1e-9)
        )
        assert pairs == []


#: Every Fig 7/8 grid spec (4K-1M weights x 7 precisions) plus FP32 256K.
GRID_SPECS = [
    DcimSpec(wstore=4 * 1024 << i, precision=p)
    for i in range(9)
    for p in ("INT2", "INT4", "INT8", "INT16", "FP8", "FP16", "BF16")
] + [DcimSpec(wstore=256 * 1024, precision="FP32")]


@pytest.mark.parametrize(
    "library",
    [CellLibrary.default(), CellLibrary.default().with_cell("FA", Cost(6.3, 3.7, 9.1))],
    ids=["default", "with_cell"],
)
def test_distill_equals_scalar_metrics_on_exact_fronts(library):
    """Costed through the engine memo, every pair equals
    ``(point, point.metrics(tech, library))``, with and without budgets."""
    explorer = DesignSpaceExplorer(library)
    assert len(GRID_SPECS) == 64
    for spec in GRID_SPECS:
        points = explorer.explore_exhaustive(spec).points
        expected = [(p, p.metrics(GENERIC28, library)) for p in points]
        assert distill(points, GENERIC28, None, library) == expected
        areas = sorted(m.layout_area_mm2 for _, m in expected)
        efficiencies = sorted(m.tops_per_watt for _, m in expected)
        budget = Requirements(
            max_area_mm2=areas[len(areas) * 3 // 4],
            min_tops_per_watt=efficiencies[len(efficiencies) // 4],
        )
        admitted = [pm for pm in expected if budget.admits(pm[1])]
        assert 0 < len(admitted) <= len(expected)
        assert distill(points, GENERIC28, budget, library) == admitted


class TestSelect:
    def test_each_strategy_returns_member(self, int_result):
        pairs = distill(int_result.points, GENERIC28)
        from repro.dse.distill import SELECTION_STRATEGIES

        for strategy in SELECTION_STRATEGIES:
            point, metrics = select(pairs, strategy)
            assert (point, metrics) in pairs

    def test_min_area_is_minimal(self, int_result):
        pairs = distill(int_result.points, GENERIC28)
        _, m = select(pairs, "min_area")
        assert m.layout_area_mm2 == min(x.layout_area_mm2 for _, x in pairs)

    def test_max_tops_is_maximal(self, int_result):
        pairs = distill(int_result.points, GENERIC28)
        _, m = select(pairs, "max_tops")
        assert m.tops == max(x.tops for _, x in pairs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no designs"):
            select([])

    def test_unknown_strategy_rejected(self, int_result):
        pairs = distill(int_result.points, GENERIC28)
        with pytest.raises(ValueError, match="unknown strategy"):
            select(pairs, "coolest")
