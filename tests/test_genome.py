"""Tests for repro.dse.genome."""

import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.precision import STANDARD_PRECISIONS
from repro.core.spec import DcimSpec, DesignPoint
from repro.dse.genome import GenomeCodec, divisors


class TestDivisors:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (1, [1]),
            (8, [1, 2, 4, 8]),
            (11, [1, 11]),          # FP16 mantissa datapath width
            (24, [1, 2, 3, 4, 6, 8, 12, 24]),  # FP32 mantissa width
        ],
    )
    def test_values(self, n, expected):
        assert divisors(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            divisors(0)

    @given(st.integers(min_value=1, max_value=5000))
    def test_all_divide(self, n):
        for d in divisors(n):
            assert n % d == 0


def codec(wstore=64 * 1024, precision="INT8", **kw):
    return GenomeCodec(DcimSpec(wstore=wstore, precision=precision, **kw))


def reference_repair(c, genome, rng):
    """Gene-name keyed repair, as first written: the per-seed reference."""
    a, b, c_gene, k_idx = genome
    a = min(max(a, c.min_a), c.max_a)
    b = min(max(b, 0), c.max_b)
    c_gene = min(max(c_gene, 0), c.max_c)
    k_idx = min(max(k_idx, 0), len(c.k_choices) - 1)
    lows = {"a": c.min_a, "b": 0, "c": 0}
    highs = {"a": c.max_a, "b": c.max_b, "c": c.max_c}
    genes = {"a": a, "b": b, "c": c_gene}
    delta = c.total_exponent - (a + b + c_gene)
    names = ["a", "b", "c"]
    rng.shuffle(names)
    for name in names:
        if delta == 0:
            break
        if delta > 0:
            step = min(highs[name] - genes[name], delta)
        else:
            step = -min(genes[name] - lows[name], -delta)
        genes[name] += step
        delta -= step
    return (genes["a"], genes["b"], genes["c"], k_idx)


class TestCodecBounds:
    def test_paper_n_bound(self):
        # N > 4*Bw means N = Bw * 2^a with 2^a > 4, i.e. a >= 3.
        assert codec().min_a == 3

    def test_exponent_budget(self):
        assert codec(wstore=64 * 1024).total_exponent == 16

    def test_l_and_h_bounds(self):
        c = codec()
        assert 2**c.max_c <= 64
        assert 2**c.max_h if False else 2**c.max_b <= 2048

    def test_rejects_non_power_of_two_wstore(self):
        with pytest.raises(ValueError, match="power of two"):
            codec(wstore=5000)

    def test_rejects_impossible_spec(self):
        # Wstore so large the bounded space cannot hold it.
        with pytest.raises(ValueError):
            codec(wstore=2**40, max_h=64, max_l=4, max_n=1024)

    @pytest.mark.parametrize("max_n", [33, 40, 48, 63])
    def test_rejects_max_n_below_every_legal_n(self, max_n):
        # INT8 needs N = 8*2^a > 32, so the smallest legal N is 64: a
        # max_n in 33-63 passes DcimSpec but leaves the space empty.
        spec = DcimSpec(wstore=4096, precision="INT8", max_n=max_n)
        with pytest.raises(ValueError, match=f"max_n={max_n} admits no N"):
            GenomeCodec(spec)

    def test_smallest_legal_max_n_is_accepted(self):
        c = codec(wstore=4096, max_n=64)
        assert c.min_a == c.max_a == 3
        assert {c.decode(g).n for g in c.enumerate()} == {64}

    def test_max_n_bound_respected(self):
        c = codec(max_n=1024)
        for g in c.enumerate():
            assert c.decode(g).n <= 1024

    def test_fp_k_choices_follow_mantissa(self):
        c = codec(precision="FP16")
        assert c.k_choices == [1, 11]
        c32 = codec(precision="FP32")
        assert 3 in c32.k_choices  # 24 has non-power-of-two divisors


class TestSampleRepairDecode:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_sample_always_feasible(self, seed):
        c = codec()
        g = c.sample(random.Random(seed))
        assert c.is_feasible(g)
        point = c.decode(g)
        assert point.wstore == 64 * 1024

    @given(
        st.tuples(
            st.integers(min_value=-5, max_value=30),
            st.integers(min_value=-5, max_value=30),
            st.integers(min_value=-5, max_value=30),
            st.integers(min_value=-5, max_value=30),
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_repair_always_feasible(self, genome, seed):
        c = codec()
        repaired = c.repair(genome, random.Random(seed))
        assert c.is_feasible(repaired)

    @given(
        st.sampled_from(
            [
                dict(),
                dict(precision="BF16", wstore=1024 * 1024),
                dict(precision="FP32", wstore=4096, max_l=8),
                dict(precision="INT2", wstore=2**20, max_n=64, min_n_factor=0),
            ]
        ),
        st.tuples(*[st.integers(min_value=-5, max_value=30)] * 4),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_repair_matches_reference_and_rng_stream(self, kw, genome, seed):
        c = codec(**kw)
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert c.repair(genome, rng) == reference_repair(c, genome, ref_rng)
        assert rng.getstate() == ref_rng.getstate()

    def test_bounds_are_computed_once(self, monkeypatch):
        from repro.dse import genome as genome_mod

        calls = []

        def counting_divisors(n):
            calls.append(n)
            return divisors(n)

        monkeypatch.setattr(genome_mod, "divisors", counting_divisors)
        c = codec()
        rng = random.Random(0)
        for g in c.enumerate():
            c.decode(c.repair(g, rng))
        c.decode_params(c.enumerate())
        c.sample(rng)
        assert calls == [8]

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_repair_is_identity_on_feasible(self, seed):
        c = codec()
        g = c.sample(random.Random(seed))
        assert c.repair(g, random.Random(0)) == g

    def test_decode_satisfies_spec(self):
        spec = DcimSpec(wstore=64 * 1024, precision="INT8")
        c = GenomeCodec(spec)
        for g in c.enumerate():
            point = c.decode(g)
            assert point.satisfies(spec)

    def test_decode_rejects_infeasible(self):
        with pytest.raises(ValueError):
            codec().decode((0, 0, 0, 0))

    def test_encode_roundtrip(self):
        c = codec()
        for g in c.enumerate()[:20]:
            assert c.encode(c.decode(g)) == g

    def test_fp_decode_constraint(self):
        # Eq. (3): N * H * L / BM == Wstore.
        c = codec(precision="BF16")
        point = c.decode(c.enumerate()[0])
        assert point.n * point.h * point.l // 8 == 64 * 1024


#: Bounds the decode parity check covers: (max_l, max_h, min_n_factor,
#: max_n), crossed with every standard precision and five Wstores.
BOUND_GRID = list(itertools.product((1, 8, 64), (4, 2048), (0, 4), (None, 4096)))


class TestDecodeSkipsRevalidation:
    """``decode`` builds its point unvalidated; it must equal the validated one."""

    @pytest.mark.parametrize("precision", sorted(STANDARD_PRECISIONS) + ["INT3", "INT6"])
    def test_every_genome_equals_validated_design_point(self, precision):
        checked = 0
        for wstore, (max_l, max_h, factor, max_n) in itertools.product(
            (2**9, 2**12, 2**16, 2**20, 2**23), BOUND_GRID
        ):
            try:
                c = codec(wstore, precision, max_l=max_l, max_h=max_h,
                          min_n_factor=factor, max_n=max_n)
            except ValueError:  # bounds that admit no design
                continue
            for g in c.enumerate():
                a, b, c_gene, k_idx = g
                point = c.decode(g)
                validated = DesignPoint(
                    precision, c.weight_bits * 2**a, 2**b, 2**c_gene, c.k_choices[k_idx]
                )
                assert point == validated
                assert hash(point) == hash(validated)
                assert repr(point) == repr(validated)
                checked += 1
        assert checked > 1000

    def test_decoded_point_behaves_like_a_constructed_one(self):
        c = codec(precision="BF16")
        point = c.decode(c.enumerate()[5])
        point.validate()
        clone = pickle.loads(pickle.dumps(point))
        assert clone == point and {point, clone} == {point}
        with pytest.raises(AttributeError):
            point.n = 1  # still frozen

    @pytest.mark.parametrize(
        "genome", [(0, 0, 0, 0), (2, 2, 2, 0), (3, 6, 7, -1), (3, 6, 7, 4), (17, 0, -1, 0)]
    )
    def test_infeasible_genomes_still_raise(self, genome):
        with pytest.raises(ValueError, match="infeasible genome"):
            codec().decode(genome)


class TestEnumerate:
    def test_all_unique_and_feasible(self):
        c = codec()
        genomes = c.enumerate()
        assert len(genomes) == len(set(genomes))
        assert all(c.is_feasible(g) for g in genomes)

    def test_space_covers_fig6_structure(self):
        # The Fig. 6 structure (N=32, H=128, L=16) exists at 8K weights
        # when the N bound is relaxed (Fig. 6 predates the DSE bound).
        c = codec(wstore=8 * 1024, precision="INT8", min_n_factor=0)
        shapes = {(p.n, p.h, p.l) for p in map(c.decode, c.enumerate())}
        assert (32, 128, 16) in shapes
