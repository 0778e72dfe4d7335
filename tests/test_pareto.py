"""Tests for repro.core.pareto (Eq. 1 and front utilities)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pareto
from repro.core.pareto import (
    dominance_matrix,
    dominated_flags,
    dominates,
    hypervolume,
    knee_point,
    normalize_objectives,
    pareto_front,
    pareto_mask,
)

vectors = st.lists(
    st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=3, max_size=3),
    min_size=1,
    max_size=40,
)


@st.composite
def adversarial_matrices(draw):
    """Objective rows full of ties, duplicates, infinities and nan."""
    m = draw(st.integers(min_value=1, max_value=4))
    value = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 2.0, math.inf, -math.inf, math.nan]),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    rows = draw(st.lists(st.tuples(*[value] * m), min_size=0, max_size=30))
    if rows and draw(st.booleans()):
        rows.append(rows[draw(st.integers(0, len(rows) - 1))])
    return np.array(rows, dtype=float).reshape(len(rows), m)


class TestDominates:
    def test_strict_domination(self):
        assert dominates([1, 1], [2, 2])

    def test_partial_improvement_dominates(self):
        assert dominates([1, 2], [2, 2])

    def test_equal_does_not_dominate(self):
        assert not dominates([1, 1], [1, 1])

    def test_tradeoff_does_not_dominate(self):
        assert not dominates([1, 3], [2, 2])
        assert not dominates([2, 2], [1, 3])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates([1], [1, 2])

    @given(vectors)
    @settings(max_examples=50, deadline=None)
    def test_antisymmetric(self, points):
        for u in points:
            for v in points:
                assert not (dominates(u, v) and dominates(v, u))


class TestDominanceKernel:
    """The column-fold kernel against the pairwise Eq. (1) reference."""

    @given(adversarial_matrices())
    @settings(max_examples=200, deadline=None)
    def test_matrix_is_pairwise_eq1(self, points):
        expected = [[dominates(u, v) for v in points] for u in points]
        assert dominance_matrix(points).tolist() == expected

    @given(adversarial_matrices(), st.integers(min_value=1, max_value=7))
    @settings(max_examples=200, deadline=None)
    def test_blocked_flags_match_pairwise(self, points, chunk):
        # Any chunk size smaller than the input exercises the blocked
        # path that otherwise runs only past _DOMINANCE_CHUNK rows.
        expected = [any(dominates(u, v) for u in points) for v in points]
        original = pareto._DOMINANCE_CHUNK
        pareto._DOMINANCE_CHUNK = chunk
        try:
            assert dominated_flags(points).tolist() == expected
        finally:
            pareto._DOMINANCE_CHUNK = original
        assert dominated_flags(points).tolist() == expected


def float_fold_flags(points) -> np.ndarray:
    """Row ``j`` is dominated: the float column fold, kept as the oracle."""
    points = np.asarray(points, dtype=float)
    no_worse = np.ones((len(points), len(points)), dtype=bool)
    for column in points.T:
        no_worse &= column[:, None] <= column
    return (no_worse > no_worse.T).any(axis=0)


@st.composite
def enumeration_sized_matrices(draw):
    """Up to 700 rows, as many as a paper spec enumerates: few distinct
    values per column, duplicated rows, and nan, +-inf and -0.0."""
    n = draw(st.integers(min_value=0, max_value=700))
    m = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    specials = draw(
        st.lists(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]), max_size=5)
    )
    distinct = draw(st.integers(min_value=1, max_value=60))
    palette = np.concatenate([rng.normal(scale=1e3, size=distinct), specials])
    points = rng.choice(palette, size=(n, m))
    if n:
        copies = rng.integers(0, n, size=n // 4)
        points[rng.integers(0, n, size=n // 4)] = points[copies]
    return points


class TestRankedFlags:
    """The rank-coded ``dominated_flags`` against the float-fold oracle."""

    @given(enumeration_sized_matrices(), st.integers(min_value=1, max_value=300))
    @settings(max_examples=100, deadline=None)
    def test_enumeration_sizes_match_float_fold(self, points, chunk):
        expected = float_fold_flags(points).tolist()
        assert dominated_flags(points).tolist() == expected
        original = pareto._DOMINANCE_CHUNK
        pareto._DOMINANCE_CHUNK = chunk
        try:
            assert dominated_flags(points).tolist() == expected
        finally:
            pareto._DOMINANCE_CHUNK = original

    @given(adversarial_matrices(), st.integers(min_value=1, max_value=7))
    @settings(max_examples=200, deadline=None)
    def test_small_inputs_ranked_match_pairwise(self, points, chunk):
        # Below _RANKED_ROWS the float fold answers; forcing the ranks
        # on tiny inputs covers empty, one-row and all-nan matrices.
        expected = [any(dominates(u, v) for u in points) for v in points]
        ranked_rows, block = pareto._RANKED_ROWS, pareto._DOMINANCE_CHUNK
        pareto._RANKED_ROWS, pareto._DOMINANCE_CHUNK = 0, chunk
        try:
            assert dominated_flags(points).tolist() == expected
        finally:
            pareto._RANKED_ROWS, pareto._DOMINANCE_CHUNK = ranked_rows, block

    def test_ties_signed_zero_and_infinities_rank_exactly(self):
        rows = [
            [0.0, 1.0], [-0.0, 1.0], [-math.inf, 2.0], [math.inf, -math.inf],
            [math.nan, 0.0], [1.0, 1.0], [0.0, 1.0], [math.inf, math.inf],
        ]
        points = np.array(rows * 20)  # 160 rows: the ranked path
        assert len(points) >= pareto._RANKED_ROWS
        assert dominated_flags(points).tolist() == float_fold_flags(points).tolist()


class TestParetoMask:
    def test_simple_front(self):
        pts = np.array([[1, 4], [2, 2], [4, 1], [3, 3], [5, 5]])
        mask = pareto_mask(pts)
        assert mask.tolist() == [True, True, True, False, False]

    def test_duplicates_kept(self):
        pts = np.array([[1, 1], [1, 1], [2, 2]])
        assert pareto_mask(pts).tolist() == [True, True, False]

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            pareto_mask(np.array([1.0, 2.0]))

    @given(vectors)
    @settings(max_examples=50, deadline=None)
    def test_front_members_mutually_nondominated(self, points):
        pts = np.array(points, dtype=float)
        mask = pareto_mask(pts)
        front = pts[mask]
        for i in range(len(front)):
            for j in range(len(front)):
                if i != j:
                    assert not dominates(front[i], front[j])

    @given(vectors)
    @settings(max_examples=50, deadline=None)
    def test_dominated_points_have_dominator_on_front(self, points):
        pts = np.array(points, dtype=float)
        mask = pareto_mask(pts)
        front = pts[mask]
        for i, keep in enumerate(mask):
            if not keep:
                assert any(dominates(f, pts[i]) for f in front)


class TestParetoFront:
    def test_returns_items(self):
        items = ["a", "b", "c"]
        objs = [[1, 2], [2, 1], [3, 3]]
        assert pareto_front(items, objs) == ["a", "b"]

    def test_empty(self):
        assert pareto_front([], []) == []

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pareto_front(["a"], [])


class TestHypervolume:
    def test_single_point_2d(self):
        assert hypervolume(np.array([[1.0, 1.0]]), [2.0, 2.0]) == pytest.approx(1.0)

    def test_two_point_staircase(self):
        pts = np.array([[1.0, 2.0], [2.0, 1.0]])
        # Union of (1..3)x(2..3) and (2..3)x(1..3) = 1*1 + 1*2 = 3.
        assert hypervolume(pts, [3.0, 3.0]) == pytest.approx(3.0)

    def test_points_outside_reference_ignored(self):
        pts = np.array([[5.0, 5.0]])
        assert hypervolume(pts, [2.0, 2.0]) == 0.0

    def test_3d_cube(self):
        pts = np.array([[0.0, 0.0, 0.0]])
        assert hypervolume(pts, [1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_3d_staircase(self):
        pts = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        # Two 1x1x2 boxes overlapping in 1x1x... carefully: ref (2,2,2).
        # Box A: x in (0,2), y in (1,2), z in (0,2) -> 2*1*2 = 4
        # Box B: x in (1,2), y in (0,2), z in (0,2) -> 1*2*2 = 4
        # Overlap: x in (1,2), y in (1,2), z in (0,2) -> 1*1*2 = 2
        assert hypervolume(pts, [2.0, 2.0, 2.0]) == pytest.approx(6.0)

    @given(vectors)
    @settings(max_examples=30, deadline=None)
    def test_monotone_under_point_addition(self, points):
        pts = np.array(points, dtype=float)
        ref = [101.0, 101.0, 101.0]
        hv_all = hypervolume(pts, ref)
        hv_one = hypervolume(pts[:1], ref)
        assert hv_all >= hv_one - 1e-9


class TestKneePoint:
    def test_picks_balanced_solution(self):
        pts = np.array([[0.0, 1.0], [1.0, 0.0], [0.2, 0.2]])
        assert knee_point(pts) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            knee_point(np.empty((0, 2)))


class TestNormalize:
    def test_unit_box(self):
        pts = np.array([[0.0, 10.0], [5.0, 20.0], [10.0, 30.0]])
        unit = normalize_objectives(pts)
        assert unit.min() == 0.0
        assert unit.max() == 1.0

    def test_constant_column(self):
        pts = np.array([[1.0, 5.0], [2.0, 5.0]])
        unit = normalize_objectives(pts)
        assert np.all(unit[:, 1] == 0.0)
