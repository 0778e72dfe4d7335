"""Tests for the built-in ``"mapping"`` problem, end to end."""

import random

import pytest

from repro.dse.nsga2 import NSGA2Config, nsga2
from repro.problems import get_problem
from repro.problems.mapping import (
    MAPPING_OBJECTIVES,
    MappingProblem,
    MappingSpec,
    SystemPoint,
)
from repro.service import CampaignConfig, CampaignRequest, run_campaign
from repro.service.campaign import execute_request
from repro.store import RunStore
from repro.workloads.networks import AVAILABLE_NETWORKS
from repro.workloads.system import map_system

TINY = CampaignConfig(
    nsga2=NSGA2Config(population_size=12, generations=4),
    problem="mapping",
)


def record_campaign(path, *flags: str, name: str):
    """Run a tiny ``repro campaign --store`` and return its recorded run."""
    from repro.cli import main

    assert main([
        "campaign", *flags, "--population", "12", "--generations", "3",
        "--store", str(path), "--name", name,
    ]) == 0
    with RunStore(path) as store:
        return next(r for r in store.list_runs() if r.name == name)


def tiny_mapping_request(**overrides) -> CampaignRequest:
    payload = dict(
        problem="mapping",
        specs=({"network": "tiny_cnn", "precision": "INT8"},),
        population_size=12,
        generations=3,
        seed=1,
    )
    payload.update(overrides)
    return CampaignRequest(**payload)


class TestMappingSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown network"):
            MappingSpec(network="nope")
        with pytest.raises(ValueError, match="unknown schedule"):
            MappingSpec(network="tiny_cnn", schedule="warp")
        with pytest.raises(ValueError, match="max_macros"):
            MappingSpec(network="tiny_cnn", max_macros=0)
        with pytest.raises(ValueError):
            MappingSpec(network="tiny_cnn", precision="NOPE")

    def test_dcim_spec_derived_from_network(self):
        spec = MappingSpec(network="tiny_cnn").dcim_spec()
        # Largest tiny_cnn layer has 64*128*9 = 73728 weights.
        assert spec.wstore == 131072
        explicit = MappingSpec(network="tiny_cnn", wstore=4096).dcim_spec()
        assert explicit.wstore == 4096


class TestMappingProblem:
    def test_genome_shape_and_repair(self):
        problem = MappingProblem(MappingSpec(network="tiny_cnn", wstore=4096))
        rng = random.Random(0)
        genome = problem.sample(rng)
        assert len(genome) == 5
        assert 0 <= genome[4] <= problem.max_em
        wild = (99, -5, 0, 99, 99)
        repaired = problem.repair(wild, rng)
        assert problem.codec.is_feasible(repaired[:4])
        assert 0 <= repaired[4] <= problem.max_em

    def test_decode_and_macro_count_power_of_two(self):
        problem = MappingProblem(
            MappingSpec(network="tiny_cnn", wstore=4096, max_macros=8)
        )
        rng = random.Random(1)
        for _ in range(20):
            point = problem.decode(problem.sample(rng))
            assert isinstance(point, SystemPoint)
            assert point.n_macros in (1, 2, 4, 8)
            assert point.schedule == "sequential"

    def test_scalar_equals_batch(self):
        problem = MappingProblem(MappingSpec(network="tiny_cnn", wstore=4096))
        rng = random.Random(2)
        genomes = [problem.sample(rng) for _ in range(8)]
        assert problem.evaluate_batch(genomes) == [
            problem.evaluate(g) for g in genomes
        ]

    def test_objectives_shape_and_sign(self):
        problem = MappingProblem(MappingSpec(network="tiny_cnn", wstore=4096))
        objectives = problem.evaluate(problem.sample(random.Random(3)))
        assert len(objectives) == len(MAPPING_OBJECTIVES)
        area, latency, energy, neg_throughput = objectives
        assert area > 0 and latency > 0 and energy > 0
        assert neg_throughput < 0

    def test_more_macros_trade_area_for_latency(self):
        problem = MappingProblem(
            MappingSpec(network="tiny_cnn", wstore=4096, max_macros=8)
        )
        base = problem.repair((3, 5, 4, 0, 0), random.Random(4))
        one = problem.evaluate((*base[:4], 0))
        eight = problem.evaluate((*base[:4], 3))
        assert eight[0] == pytest.approx(one[0] * 8)  # area scales
        assert eight[1] <= one[1]  # latency never worse

    def test_nsga2_runs_deterministically(self):
        problem = MappingProblem(MappingSpec(network="tiny_cnn", wstore=4096))
        config = NSGA2Config(population_size=12, generations=4, seed=5)
        a = nsga2(problem, config)
        b = nsga2(problem, config)
        assert [i.genome for i in a.front] == [i.genome for i in b.front]
        assert [i.objectives for i in a.front] == [
            i.objectives for i in b.front
        ]


def map_system_table(problem: MappingProblem) -> dict:
    """``{genome: objectives}`` over the whole space, by direct ``map_system``."""
    table = {}
    for design in problem.codec.enumerate():
        point = problem.codec.decode(design)
        cost = point.macro_cost(problem.library)
        for em in range(problem.max_em + 1):
            mapped = map_system(
                problem.layers,
                point,
                problem.tech,
                n_macros=1 << em,
                schedule=problem.spec.schedule,
                library=problem.library,
                cost=cost,
            )
            table[(*design, em)] = (
                mapped.area_mm2,
                mapped.latency_us,
                mapped.energy_uj,
                -mapped.throughput_inferences_s,
            )
    return table


@pytest.fixture(
    scope="module",
    params=[
        (network, schedule)
        for network in sorted(AVAILABLE_NETWORKS)
        for schedule in ("sequential", "pipelined")
    ],
    ids=lambda param: ":".join(param),
)
def whole_space(request):
    network, schedule = request.param
    spec = MappingSpec(network=network, schedule=schedule)
    return spec, map_system_table(MappingProblem(spec))


class TestPerDesignEvaluation:
    """Each design is mapped once per instance; every genome still
    equals ``map_system`` exactly."""

    def test_one_batch_equals_map_system(self, whole_space):
        spec, table = whole_space
        genomes = list(table)
        assert MappingProblem(spec).evaluate_batch(genomes) == [
            table[g] for g in genomes
        ]

    def test_shuffled_batches_through_one_instance(self, whole_space):
        spec, table = whole_space
        genomes = list(table)
        random.Random(7).shuffle(genomes)
        problem = MappingProblem(spec)
        for start in range(0, len(genomes), 7):
            batch = genomes[start : start + 7]
            assert problem.evaluate_batch(batch) == [table[g] for g in batch]

    def test_evaluate_equals_map_system(self, whole_space):
        spec, table = whole_space
        problem = MappingProblem(spec)
        for genome, objectives in table.items():
            assert problem.evaluate(genome) == objectives

    def test_costs_only_unseen_designs_once_per_batch(self, monkeypatch):
        problem = MappingProblem(MappingSpec(network="tiny_cnn", wstore=4096))
        calls = []
        real = problem.engine.macro_costs

        def spy(points):
            calls.append(len(points))
            return real(points)

        monkeypatch.setattr(problem.engine, "macro_costs", spy)
        designs = problem.codec.enumerate()[:3]
        first = [(*designs[0], 0), (*designs[1], 1), (*designs[0], 2)]
        problem.evaluate_batch(first)
        assert calls == [2]
        problem.evaluate_batch([(*designs[1], 0), (*designs[2], 0), (*designs[2], 1)])
        assert calls == [2, 1]
        problem.evaluate_batch(first)
        assert calls == [2, 1]
        assert problem.evaluate_batch([]) == []
        assert calls == [2, 1]


class TestInfeasibleGenomes:
    def problem(self):
        return MappingProblem(MappingSpec(network="tiny_cnn", wstore=4096))

    @pytest.mark.parametrize("em", [-1, 4])
    def test_macro_count_out_of_range(self, em):
        problem = self.problem()
        genome = (*problem.codec.enumerate()[0], em)
        assert problem.max_em == 3
        for call in (problem.evaluate, lambda g: problem.evaluate_batch([g])):
            with pytest.raises(ValueError) as info:
                call(genome)
            assert str(info.value) == f"infeasible genome {genome}"

    def test_infeasible_design(self):
        problem = self.problem()
        genome = (99, 0, 0, 0, 0)
        for call in (problem.evaluate, lambda g: problem.evaluate_batch([g])):
            with pytest.raises(ValueError) as info:
                call(genome)
            assert str(info.value) == "infeasible genome (99, 0, 0, 0)"

    def test_design_error_comes_before_macro_count_error(self):
        problem = self.problem()
        bad_em = (*problem.codec.enumerate()[0], 9)
        with pytest.raises(ValueError, match=r"^infeasible genome \(99, 0, 0, 0\)$"):
            problem.evaluate_batch([bad_em, (99, 0, 0, 0, 0)])

    def test_a_failed_batch_leaves_the_instance_exact(self):
        problem = self.problem()
        table = map_system_table(problem)
        good = list(table)[:5]
        with pytest.raises(ValueError):
            problem.evaluate_batch([*good, (*good[0][:4], 9)])
        with pytest.raises(ValueError):
            problem.evaluate_batch([*good, (99, 0, 0, 0, 0)])
        assert problem.evaluate_batch(good) == [table[g] for g in good]


class TestMappingCampaigns:
    def test_run_campaign_end_to_end(self):
        spec = MappingSpec(network="tiny_cnn", wstore=4096)
        result = run_campaign([spec], TINY)
        assert result.problem == "mapping"
        assert len(result.merged_points) > 0
        assert all(isinstance(p, SystemPoint) for p in result.merged_points)
        response = result.to_response()
        assert response.problem == "mapping"
        point = response.frontier[0]
        assert point.extras["n_macros"] >= 1
        assert point.extras["schedule"] == "sequential"

    def test_execute_request_deterministic(self):
        request = tiny_mapping_request()
        a = execute_request(request)
        b = execute_request(request)
        assert [p.to_dict() for p in a.frontier] == [
            p.to_dict() for p in b.frontier
        ]

    def test_response_json_round_trip_keeps_extras(self):
        from repro.service.api import CampaignResponse

        response = execute_request(tiny_mapping_request())
        clone = CampaignResponse.from_json(response.to_json())
        assert clone == response
        assert clone.frontier[0].extras == response.frontier[0].extras

    def test_store_records_problem_and_extras(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        record = record_campaign(
            path, "--problem", "mapping", "--spec", "tiny_cnn:INT8", name="map"
        )
        assert record.problem == "mapping"
        assert record.specs == ("tiny_cnn:INT8:sequential",)
        with RunStore(path) as store:
            front = store.front(record.run_id)
            assert front and front[0].extras["n_macros"] >= 1
            # problem filter in pagination
            assert store.list_runs(problem="mapping")[0].run_id \
                == record.run_id
            assert store.list_runs(problem="dcim") == []

    def test_compare_refuses_cross_problem_runs(self, tmp_path):
        from repro.store import compare_runs

        path = tmp_path / "runs.sqlite"
        dcim_run = record_campaign(path, "--spec", "4096:INT8", name="dcim-run")
        map_run = record_campaign(
            path, "--problem", "mapping", "--spec", "tiny_cnn:INT8",
            name="map-run",
        )
        with RunStore(path) as store:
            with pytest.raises(ValueError, match="different problems"):
                compare_runs(store, dcim_run.run_id, map_run.run_id)

    def test_mapping_through_job_queue(self):
        from repro.service.jobs import JobQueue, JobStatus

        queue = JobQueue()
        job_id = queue.submit(tiny_mapping_request())
        job = queue.run_next()
        assert job.status is JobStatus.DONE
        response = queue.result(job_id)
        assert response.problem == "mapping"
        assert response.frontier[0].extras["n_macros"] >= 1

    def test_definition_point_row_matches_columns(self):
        definition = get_problem("mapping")
        problem = MappingProblem(MappingSpec(network="tiny_cnn", wstore=4096))
        genome = problem.sample(random.Random(6))
        point = problem.decode(genome)
        row = definition.point_row(point, problem.evaluate(genome))
        assert len(row) == len(definition.point_columns())


class TestMappingReports:
    def test_reports_show_extras_only_when_present(self, tmp_path):
        from repro.reporting.runs import run_report_csv

        path = tmp_path / "runs.sqlite"
        map_run = record_campaign(
            path, "--problem", "mapping", "--spec", "tiny_cnn:INT8", name="map"
        )
        dcim_run = record_campaign(path, "--spec", "4096:INT8", name="dcim")
        with RunStore(path) as store:
            map_csv = run_report_csv(
                store.get_run(map_run.run_id), store.front(map_run.run_id)
            )
            dcim_csv = run_report_csv(
                store.get_run(dcim_run.run_id), store.front(dcim_run.run_id)
            )
        # mapping rows carry extras; dcim keeps the pre-v2 layout
        assert map_csv.splitlines()[0] \
            == "run_id,precision,n,h,l,k,extras,objectives"
        assert "n_macros=" in map_csv
        assert dcim_csv.splitlines()[0] \
            == "run_id,precision,n,h,l,k,objectives"
