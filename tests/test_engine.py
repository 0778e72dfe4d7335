"""Batch cost engine: batch/scalar parity and front-end behaviour.

The load-bearing guarantee of :mod:`repro.model.engine` is that the
batch engine returns objective vectors *bit-identical* to the seed scalar
path (``GenomeCodec.decode`` → ``DesignPoint.macro_cost`` →
``objectives_of``): persisted cache entries and per-seed NSGA-II
trajectories must not move when the engine changes.  Every comparison
here is exact equality on floats, never ``approx``.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spec import DcimSpec
from repro.dse.genome import GenomeCodec, divisors
from repro.dse.problem import DcimProblem, objectives_of
from repro.model.engine import CostEngine
from repro.model import engine as engine_module
from repro.model.cost import Cost
from repro.model.floating import fp_macro_cost, validate_fp_params
from repro.model.integer import int_macro_cost, validate_int_params
from repro.tech.cells import CellLibrary

LIB = CellLibrary.default()

PRECISIONS = ["INT2", "INT4", "INT8", "INT16", "FP8", "BF16", "FP16", "FP32"]


def scalar_objectives(problem, genomes):
    """The seed evaluation path, kept verbatim as the parity reference."""
    codec, lib = problem.codec, problem.library
    return [objectives_of(codec.decode(g).macro_cost(lib)) for g in genomes]


def make_spec(wstore, precision):
    """A spec, or None when the codec rejects the combination."""
    spec = DcimSpec(wstore=wstore, precision=precision)
    try:
        GenomeCodec(spec)
    except ValueError:
        return None
    return spec


class TestBatchScalarParity:
    """The acceptance-criterion tests: exact equality with the seed path."""

    @pytest.mark.parametrize("precision", ["INT4", "INT8", "BF16", "FP16"])
    def test_full_space_bit_identical(self, precision):
        problem = DcimProblem(DcimSpec(wstore=4096, precision=precision), LIB)
        genomes = problem.codec.enumerate()
        assert problem.evaluate_batch(genomes) == scalar_objectives(problem, genomes)

    @settings(max_examples=40, deadline=None)
    @given(
        wstore_exp=st.integers(min_value=9, max_value=18),
        precision=st.sampled_from(PRECISIONS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_random_specs_bit_identical(self, wstore_exp, precision, seed):
        spec = make_spec(2**wstore_exp, precision)
        if spec is None:  # combination the exponent encoding rejects
            return
        problem = DcimProblem(spec, LIB)
        rng = random.Random(seed)
        genomes = [problem.sample(rng) for _ in range(12)]
        assert problem.evaluate_batch(genomes) == scalar_objectives(problem, genomes)

    def test_scalar_evaluate_is_a_batch_of_one(self):
        problem = DcimProblem(DcimSpec(wstore=4096, precision="INT8"), LIB)
        for genome in problem.codec.enumerate()[:8]:
            assert problem.evaluate(genome) == problem.evaluate_batch([genome])[0]

    def test_duplicate_genomes_keep_input_order(self):
        problem = DcimProblem(DcimSpec(wstore=4096, precision="INT8"), LIB)
        a, b = problem.codec.enumerate()[:2]
        batch = problem.evaluate_batch([a, b, a, b, b])
        assert batch[0] == batch[2] == problem.evaluate(a)
        assert batch[1] == batch[3] == batch[4] == problem.evaluate(b)


class TestBatchCostColumns:
    def test_columns_match_macro_cost(self):
        problem = DcimProblem(DcimSpec(wstore=4096, precision="BF16"), LIB)
        genomes = problem.codec.enumerate()[:16]
        points = problem.codec.decode_batch(genomes)
        batch = problem.engine.evaluate_points(points)
        assert batch.arch == "fp-prealign"
        assert len(batch) == len(points)
        costs = [p.macro_cost(LIB) for p in points]
        assert batch.area == tuple(c.area for c in costs)
        assert batch.delay == tuple(c.delay for c in costs)
        assert batch.energy_per_pass == tuple(c.energy_per_pass for c in costs)
        assert batch.cycles_per_pass == tuple(c.cycles_per_pass for c in costs)
        assert batch.ops_per_pass == tuple(c.ops_per_pass for c in costs)
        assert batch.sram_bits == tuple(c.sram_bits for c in costs)
        assert batch.throughput() == tuple(c.throughput for c in costs)

    def test_column_types_are_plain_python(self):
        problem = DcimProblem(DcimSpec(wstore=4096, precision="INT8"), LIB)
        genomes = problem.codec.enumerate()[:4]
        points = problem.codec.decode_batch(genomes)
        batch = problem.engine.evaluate_points(points)
        assert all(type(a) is float for a in batch.area)
        assert all(type(c) is int for c in batch.cycles_per_pass)
        for row in batch.objectives():
            assert all(type(v) is float for v in row)

    def test_mixed_precision_batch_groups_and_scatters(self):
        int_points = DcimProblem(
            DcimSpec(wstore=4096, precision="INT8"), LIB
        ).exhaustive_front()[:3]
        fp_points = DcimProblem(
            DcimSpec(wstore=4096, precision="BF16"), LIB
        ).exhaustive_front()[:3]
        mixed = [int_points[0], fp_points[0], int_points[1], fp_points[1],
                 fp_points[2], int_points[2]]
        engine = CostEngine(LIB)
        batch = engine.evaluate_points(mixed)
        assert batch.arch == "mixed"
        expected = [objectives_of(p.macro_cost(LIB)) for p in mixed]
        assert batch.objectives() == expected

    def test_empty_batches(self):
        problem = DcimProblem(DcimSpec(wstore=4096, precision="INT8"), LIB)
        assert problem.evaluate_batch([]) == []
        assert len(problem.engine.evaluate_points([])) == 0
        assert problem.engine.evaluate_points([]).objectives() == []


class TestMacroCostWrapper:
    @pytest.mark.parametrize("precision", ["INT8", "BF16"])
    def test_macro_costs_identical_to_design_point(self, precision):
        problem = DcimProblem(DcimSpec(wstore=4096, precision=precision), LIB)
        points = problem.codec.decode_batch(problem.codec.enumerate()[:12])
        assert problem.engine.macro_costs(points) == [
            p.macro_cost(LIB) for p in points
        ]

    def test_component_memo_is_shared_across_calls(self):
        problem = DcimProblem(DcimSpec(wstore=4096, precision="INT8"), LIB)
        points = problem.codec.decode_batch(problem.codec.enumerate())
        problem.engine.macro_costs(points)
        memo_size = len(problem.engine._memo)
        problem.engine.macro_costs(points)  # second pass: no new entries
        assert len(problem.engine._memo) == memo_size
        assert memo_size < 6 * len(points)  # far fewer uniques than genomes


class TestDecodeBatch:
    def test_decode_batch_matches_scalar_decode(self):
        codec = GenomeCodec(DcimSpec(wstore=8192, precision="INT8"))
        genomes = codec.enumerate()
        assert codec.decode_batch(genomes) == [codec.decode(g) for g in genomes]

    def test_decode_params_match_decoded_points(self):
        codec = GenomeCodec(DcimSpec(wstore=8192, precision="FP16"))
        genomes = codec.enumerate()
        n, h, l, k = codec.decode_params(genomes)
        points = codec.decode_batch(genomes)
        assert n == [p.n for p in points]
        assert h == [p.h for p in points]
        assert l == [p.l for p in points]
        assert k == [p.k for p in points]

    def test_infeasible_genome_raises_everywhere(self):
        problem = DcimProblem(DcimSpec(wstore=4096, precision="INT8"), LIB)
        bad = (0, 0, 0, 0)  # violates a + b + c == log2(Wstore)
        with pytest.raises(ValueError, match="infeasible"):
            problem.codec.decode_params([bad])
        with pytest.raises(ValueError, match="infeasible"):
            problem.evaluate_batch([bad])
        with pytest.raises(ValueError, match="infeasible"):
            problem.evaluate(bad)


def per_row_validation(n, h, l, k, fp, widths):
    """Reference check: one scalar validator call per distinct row, in
    first-occurrence order."""
    validate = validate_fp_params if fp else validate_int_params
    for params in dict.fromkeys(zip(n, h, l, k)):
        validate(*params, *widths)


def raised(call):
    """``(type, message)`` of what ``call()`` raises, or None."""
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


#: The column value that makes a row rejected, per kind, given the
#: batch's ``(Bx, Bw)``; ``k = 3`` divides no power-of-two width.
REJECTED = {
    "k = 0": lambda bx, bw: {"k": 0},
    "k > Bx": lambda bx, bw: {"k": bx + 1},
    "Bx % k": lambda bx, bw: {"k": 3},
    "N % Bw": lambda bx, bw: {"n": bw * 4 + 1},
    "N < 1": lambda bx, bw: {"n": 0},
    "H < 1": lambda bx, bw: {"h": -2},
    "L < 1": lambda bx, bw: {"l": 0},
}


@st.composite
def batches_with_rejects(draw):
    """A valid batch with duplicates, rejected rows at random positions,
    and sometimes a width below 1."""
    fp = draw(st.booleans())
    if fp:
        be = draw(st.sampled_from([-1, 0, 1, 5, 8, 8, 8]))
        bm = draw(st.sampled_from([0, 4, 8, 8, 11, 24]))
        widths, bx, bw = (be, bm), bm, bm
    else:
        bx = draw(st.sampled_from([-1, 0, 2, 4, 8, 8, 16]))
        bw = draw(st.sampled_from([0, 2, 4, 8, 8, 16]))
        widths = (bx, bw)
    legal_k = divisors(bx) if bx >= 1 else [1, 2]
    pool = [
        (max(bw, 1) << draw(st.integers(0, 5)), 1 << draw(st.integers(0, 7)),
         1 << draw(st.integers(0, 5)), draw(st.sampled_from(legal_k)))
        for _ in range(draw(st.integers(1, 6)))
    ]
    rows = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(draw(st.integers(1, 30)))]
    for kind in draw(st.lists(st.sampled_from(sorted(REJECTED)), max_size=3)):
        n, h, l, k = draw(st.sampled_from(pool))
        bad = {"n": n, "h": h, "l": l, "k": k, **REJECTED[kind](max(bx, 1), max(bw, 1))}
        rows.insert(draw(st.integers(0, len(rows))), (bad["n"], bad["h"], bad["l"], bad["k"]))
    n, h, l, k = (list(column) for column in zip(*rows))
    return fp, widths, n, h, l, k


class TestColumnValidation:
    """Column-wise checks raise exactly what the per-row loop raised."""

    @given(batches_with_rejects())
    @settings(max_examples=300, deadline=None)
    def test_same_error_as_per_row_loop(self, batch):
        fp, widths, n, h, l, k = batch
        engine = CostEngine(LIB)
        if fp:
            evaluate = lambda: engine.evaluate_fp(n, h, l, k, be=widths[0], bm=widths[1])
        else:
            evaluate = lambda: engine.evaluate_int(n, h, l, k, bx=widths[0], bw=widths[1])
        expected = raised(lambda: per_row_validation(n, h, l, k, fp, widths))
        assert raised(evaluate) == expected
        if expected is None:
            batch = evaluate()
            if fp:
                costs = [fp_macro_cost(LIB, n=a, h=b, l=c, k=d, be=widths[0], bm=widths[1])
                         for a, b, c, d in zip(n, h, l, k)]
            else:
                costs = [int_macro_cost(LIB, n=a, h=b, l=c, k=d, bx=widths[0], bw=widths[1])
                         for a, b, c, d in zip(n, h, l, k)]
            assert batch.area == tuple(c.area for c in costs)
            assert batch.delay == tuple(c.delay for c in costs)
            assert batch.energy_per_pass == tuple(c.energy_per_pass for c in costs)
            assert batch.cycles_per_pass == tuple(c.cycles_per_pass for c in costs)
            assert batch.ops_per_pass == tuple(c.ops_per_pass for c in costs)
            assert batch.sram_bits == tuple(c.sram_bits for c in costs)

    @pytest.mark.parametrize("kind", sorted(REJECTED))
    def test_each_rejected_kind_after_valid_duplicates(self, kind):
        valid = (32, 64, 4, 2)
        bad = dict(zip("nhlk", valid), **REJECTED[kind](8, 8))
        rows = [valid, valid, tuple(bad[p] for p in "nhlk"), valid]
        n, h, l, k = (list(c) for c in zip(*rows))
        expected = raised(lambda: per_row_validation(n, h, l, k, False, (8, 8)))
        assert expected is not None and expected[0] is ValueError
        engine = CostEngine(LIB)
        assert raised(lambda: engine.evaluate_int(n, h, l, k, bx=8, bw=8)) == expected

    @pytest.mark.parametrize("bx,bw", [(8, 0), (0, 8), (0, 0), (-4, 8)])
    def test_widths_below_one_raise_value_error(self, bx, bw):
        # Bw = 0 must not reach a modulo: the message is the scalar one.
        engine = CostEngine(LIB)
        with pytest.raises(ValueError, match="all integer-macro parameters must be >= 1"):
            engine.evaluate_int([8, 16], [1, 1], [1, 1], [1, 1], bx=bx, bw=bw)

    def test_fp_widths_below_one(self):
        engine = CostEngine(LIB)
        with pytest.raises(ValueError, match="exponent width BE must be >= 1, got 0"):
            engine.evaluate_fp([8], [1], [1], [1], be=0, bm=8)
        with pytest.raises(ValueError, match="all integer-macro parameters must be >= 1"):
            engine.evaluate_fp([8], [1], [1], [1], be=5, bm=0)


#: The component models the engine memoises (names in its module).
COMPONENT_MODELS = (
    "mux",
    "multiplier_1xn",
    "adder_tree",
    "shift_accumulator",
    "result_fusion",
    "input_buffer",
    "prealignment",
    "int_to_fp_converter",
    "register_bank",
)


def count_component_calls(monkeypatch) -> list[str]:
    """Record every component-model call the engine makes from now on."""
    calls: list[str] = []
    for name in COMPONENT_MODELS:
        model = getattr(engine_module, name)

        def counted(*args, _name=name, _model=model):
            calls.append(_name)
            return _model(*args)

        monkeypatch.setattr(engine_module, name, counted)
    return calls


class TestSharedComponentTable:
    """Engines over libraries of equal content share one component table."""

    @pytest.mark.parametrize("precision", ["INT8", "BF16"])
    def test_second_problem_makes_no_component_call(self, monkeypatch, precision):
        spec = DcimSpec(wstore=65536, precision=precision)
        first = DcimProblem(spec, CellLibrary.default())
        genomes = first.codec.enumerate()
        expected = first.evaluate_batch(genomes)
        calls = count_component_calls(monkeypatch)
        # A new default() object per problem, as every campaign builds.
        second = DcimProblem(spec, CellLibrary.default())
        assert second.library is not first.library
        assert second.evaluate_batch(genomes) == expected
        assert second.evaluate_batch(genomes[::7]) == expected[::7]
        assert calls == []

    def test_with_cell_library_keeps_its_own_costs(self, monkeypatch):
        spec = DcimSpec(wstore=4096, precision="INT8")
        default = DcimProblem(spec, CellLibrary.default())
        genomes = default.codec.enumerate()
        default_objectives = default.evaluate_batch(genomes)
        calls = count_component_calls(monkeypatch)
        tweaked = CellLibrary.default().with_cell("FA", Cost(6.3, 3.7, 9.1))
        problem = DcimProblem(spec, tweaked)
        got = problem.evaluate_batch(genomes)
        assert calls, "a library with other cells must not reuse the default table"
        assert got == [
            objectives_of(problem.codec.decode(g).macro_cost(tweaked))
            for g in genomes
        ]
        assert got != default_objectives
        assert default.evaluate_batch(genomes) == default_objectives

    def test_threads_filling_one_table_agree(self):
        # Service workers build engines on threads; concurrent first
        # fills of one cold table must leave every result exact.
        import sys
        import threading

        spec = DcimSpec(wstore=65536, precision="BF16")
        cells = dict(CellLibrary.default().with_cell("HA", Cost(4.4, 2.6, 7.0)).cells)
        genomes = GenomeCodec(spec).enumerate()
        reference = [
            objectives_of(GenomeCodec(spec).decode(g).macro_cost(CellLibrary(cells=cells)))
            for g in genomes
        ]
        results, errors = [], []

        def work():
            try:
                problem = DcimProblem(spec, CellLibrary(cells=dict(cells)))
                results.append(problem.evaluate_batch(genomes))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == [reference] * 4


class TestEngineLifecycle:
    def test_engine_survives_pickling(self):
        """A problem (and its engine) pickles with default pickling."""
        problem = DcimProblem(DcimSpec(wstore=4096, precision="INT8"), LIB)
        genomes = problem.codec.enumerate()[:8]
        before = problem.evaluate_batch(genomes)
        clone = pickle.loads(pickle.dumps(problem))
        assert clone.evaluate_batch(genomes) == before

    def test_problem_defaults_keep_equality_semantics(self):
        spec = DcimSpec(wstore=4096, precision="INT8")
        assert DcimProblem(spec, LIB) == DcimProblem(spec, LIB)
