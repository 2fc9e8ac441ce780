import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import reference_radius_counts

from tvmhrv import (
    EmptyInputError,
    QUADRANTS,
    PlotPoints,
    RRSeries,
    radius_census,
    second_order_diff,
)
from tvmhrv.errors import NoPointInRadiusError
from tvmhrv.sodp import mean_distance_d, radius_counts

# Frozen with the straight-line reference in oracle.py.
THREE_POINTS_MEAN_DISTANCE = 21.796145384105944

FIVE = RRSeries([800, 810, 790, 805, 795])


def five_points():
    return second_order_diff(FIVE)


def xy(points):
    return list(zip(points.x.tolist(), points.y.tolist()))


# Dyadic values keep sums/differences exact in binary floating point, which
# the bitwise translation-invariance property needs.
dyadic_intervals = st.lists(
    st.integers(min_value=1, max_value=2**14).map(lambda n: n / 8.0),
    min_size=3,
    max_size=40,
)
dyadic_shift = st.integers(min_value=0, max_value=2**20).map(lambda n: n / 8.0)
pow2_scale = st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0])


class TestSecondOrderDiff:
    def test_constant_series_on_axis(self):
        points = second_order_diff(RRSeries([800, 800, 800, 800]))
        assert xy(points) == [(0.0, 0.0), (0.0, 0.0)]
        assert points.code.tolist() == [QUADRANTS.index("axis")] * 2

    def test_five_interval_example(self):
        assert xy(five_points()) == [
            (10.0, -20.0),
            (-20.0, 15.0),
            (15.0, -10.0),
        ]

    def test_minimum_length_series(self):
        points = second_order_diff(RRSeries([800, 810, 790]))
        assert xy(points) == [(10.0, -20.0)]

    def test_point_count_and_indices(self):
        points = second_order_diff(RRSeries(range(100, 150)))
        assert len(points) == 48
        assert points.x.dtype == points.y.dtype == np.float64
        assert points.code.dtype == np.int8
        assert points.x.shape == points.y.shape == points.code.shape == (48,)

    def test_no_series_is_empty_input(self):
        with pytest.raises(EmptyInputError, match="at least one series"):
            second_order_diff()

    def test_columns_of_different_lengths_rejected(self):
        with pytest.raises(ValueError):
            PlotPoints(x=[1.0, 2.0], y=[1.0])

    def test_reconstruction_invariant(self):
        iv = FIVE.intervals
        points = five_points()
        for i in range(len(points)):
            assert points.x[i] == iv[i + 1] - iv[i]
            assert points.y[i] == iv[i + 2] - iv[i + 1]

    @settings(deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(min_value=300.0, max_value=1500.0), min_size=3, max_size=40),
            min_size=1,
            max_size=6,
        )
    )
    def test_several_series_give_each_series_points_in_turn(self, runs):
        # 3 intervals give one point; no point spans two series.
        recordings = [RRSeries(values) for values in runs]
        together = second_order_diff(*recordings)
        alone = [second_order_diff(rec) for rec in recordings]
        for name in ("x", "y", "code"):
            want = np.concatenate([getattr(points, name) for points in alone])
            assert getattr(together, name).tobytes() == want.tobytes()
            assert getattr(together, name).dtype == want.dtype


class TestQuadrants:
    @pytest.mark.parametrize(
        ("x", "y", "expected"),
        [
            (1.0, 1.0, "I"),
            (-1.0, 1.0, "II"),
            (-1.0, -1.0, "III"),
            (1.0, -1.0, "IV"),
            (0.0, 1.0, "axis"),
            (1.0, 0.0, "axis"),
            (0.0, 0.0, "axis"),
        ],
    )
    def test_sign_rules(self, x, y, expected):
        assert QUADRANTS[PlotPoints(x=[x], y=[y]).code[0]] == expected


class TestCtm:
    def test_all_points_at_origin(self):
        points = second_order_diff(RRSeries([800] * 10))
        assert radius_census(points, [0.001])[0].ctm == 1.0

    def test_small_radius_excludes_all(self):
        assert radius_census(five_points(), [3.0])[0].ctm == 0.0

    def test_large_radius_includes_all(self):
        assert radius_census(five_points(), [30.0])[0].ctm == 1.0

    def test_boundary_point_excluded(self):
        # Strict inequality: distance exactly r does not count.
        points = PlotPoints(x=[3.0], y=[4.0])
        assert radius_census(points, [5.0])[0].ctm == 0.0
        assert radius_census(points, [5.0000001])[0].ctm == 1.0

    def test_empty_points_rejected(self):
        with pytest.raises(EmptyInputError):
            radius_census(PlotPoints(x=[], y=[]), [3.0])

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            radius_census(five_points(), [0.0])


class TestCctm:
    def test_five_interval_example(self):
        assert radius_census(five_points(), [30.0])[0].cctm == (0.0, 1 / 3, 0.0, 2 / 3)

    def test_on_axis_points_belong_to_no_quadrant(self):
        points = second_order_diff(RRSeries([800] * 10))
        assert radius_census(points, [1.0])[0].cctm == (0.0, 0.0, 0.0, 0.0)
        assert radius_census(points, [1.0])[0].ctm == 1.0

    def test_single_point_quadrant_one(self):
        assert radius_census(PlotPoints(x=[1.0], y=[1.0]), [2.0])[0].cctm == (1.0, 0.0, 0.0, 0.0)


class TestMeanDistance:
    def test_five_interval_example(self):
        assert radius_census(five_points(), [30.0])[0].d == pytest.approx(
            THREE_POINTS_MEAN_DISTANCE, abs=1e-9
        )

    def test_all_at_origin(self):
        points = second_order_diff(RRSeries([800] * 5))
        assert radius_census(points, [1.0])[0].d == 0.0

    def test_no_point_in_radius(self):
        assert radius_census(five_points(), [3.0])[0].d is None
        # mean_distance_d, kept for perfbench's tracer, raises there instead.
        with pytest.raises(NoPointInRadiusError):
            mean_distance_d(five_points(), 3.0)

    def test_empty_input_distinct_error(self):
        with pytest.raises(EmptyInputError):
            mean_distance_d(PlotPoints(x=[], y=[]), 3.0)


class TestRadiusCounts:
    def test_counts_match_ratios(self):
        counts = radius_census(five_points(), [30.0])[0]
        assert counts.within == 3
        assert counts.quadrant == (0, 1, 0, 2)
        assert counts.on_axis == 0
        assert counts.total == 3
        # radius_counts, kept for perfbench's tracer, is the census at one radius.
        assert radius_counts(five_points(), 30.0) == counts

    @given(dyadic_intervals, st.floats(min_value=0.1, max_value=300.0))
    def test_quadrant_sum_identity(self, values, r):
        counts = radius_census(second_order_diff(RRSeries(values)), [r])[0]
        assert sum(counts.quadrant) + counts.on_axis == counts.within
        assert 0 <= counts.within <= counts.total


@given(dyadic_intervals, dyadic_shift)
def test_translation_invariance_is_exact(values, shift):
    p1 = second_order_diff(RRSeries(values))
    p2 = second_order_diff(RRSeries([v + shift for v in values]))
    assert xy(p1) == xy(p2)
    assert p1.code.tolist() == p2.code.tolist()


@given(dyadic_intervals, pow2_scale, st.floats(min_value=0.1, max_value=100.0))
def test_scale_equivariance_is_exact(values, c, r):
    """Power-of-two scaling is exact, so scaled points and CTM match bitwise."""
    p1 = second_order_diff(RRSeries(values))
    p2 = second_order_diff(RRSeries([c * v for v in values]))
    assert xy(p2) == [(c * x, c * y) for x, y in xy(p1)]
    assert radius_census(p2, [c * r])[0].ctm == radius_census(p1, [r])[0].ctm
    assert radius_census(p2, [c * r])[0].cctm == radius_census(p1, [r])[0].cctm


@settings(max_examples=200)
@given(
    dyadic_intervals,
    st.floats(min_value=0.01, max_value=200.0),
    st.floats(min_value=0.01, max_value=200.0),
)
def test_ctm_monotone_in_radius(values, r1, r2):
    lo, hi = sorted((r1, r2))
    points = second_order_diff(RRSeries(values))
    assert radius_census(points, [lo])[0].ctm <= radius_census(points, [hi])[0].ctm


@given(dyadic_intervals)
def test_ctm_reaches_one_for_large_radius(values):
    points = second_order_diff(RRSeries(values))
    assert radius_census(points, [1e9])[0].ctm == 1.0


@given(dyadic_intervals, st.floats(min_value=0.1, max_value=300.0))
def test_cctm_bounded_by_ctm(values, r):
    points = second_order_diff(RRSeries(values))
    total = radius_census(points, [r])[0].ctm
    for component in radius_census(points, [r])[0].cctm:
        assert 0.0 <= component <= total <= 1.0


# Coordinates with exact zeros (on-axis points and the origin) and repeats.
coordinate = st.one_of(
    st.just(0.0),
    st.sampled_from([1.0, -1.0, 3.0, -4.0]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


@st.composite
def points_and_radii(draw):
    """A point set and radii in any order, with repeats, radii below the
    smallest and above the largest distance, and radii equal to a distance."""
    base = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=40))
    # Scaled copies take some sets past 128 points, where numpy's pairwise sum splits.
    scales = draw(st.lists(st.sampled_from([1.0, 0.5, 3.0, -7.0]), min_size=1, max_size=8))
    x = [a * c for c in scales for a, _ in base]
    y = [b * c for c in scales for _, b in base]
    distances = [math.sqrt(a * a + b * b) for a, b in zip(x, y)]
    exact = [d for d in distances if d > 0]
    radius = st.one_of(
        st.floats(min_value=1e-9, max_value=1e9),
        st.sampled_from([1e-9, 1e9, min(distances) / 2 or 1e-9, max(distances) * 2 or 1e9]),
        *([st.sampled_from(exact)] if exact else []),
    )
    radii = draw(st.lists(radius, max_size=25))
    radii += draw(st.lists(st.sampled_from(radii), max_size=5)) if radii else []
    return x, y, draw(st.permutations(radii))


@settings(max_examples=200)
@given(points_and_radii())
def test_census_matches_one_full_mask_per_radius(case):
    xs, ys, radii = case
    points = PlotPoints(x=xs, y=ys)
    x, y = np.array(xs), np.array(ys)
    d = np.sqrt(x * x + y * y)
    census = radius_census(points, radii)
    assert len(census) == len(radii)
    for r, counts in zip(radii, census):
        within, quad, axis = reference_radius_counts(xs, ys, r)
        assert (counts.within, list(counts.quadrant), counts.on_axis) == (within, quad, axis)
        assert counts.total == len(xs)
        inside = d[d < r]
        if inside.size:
            assert float.hex(counts.d) == float.hex(float(np.mean(inside)))
        else:
            assert counts.d is None


@pytest.mark.parametrize(
    ("radii", "bad"),
    [
        ([3.0, -1.0], "-1.0"),
        ([float("nan")], "nan"),
        ([float("nan"), -1.0], "nan"),
        ([3.0, float("inf")], "inf"),
    ],
    ids=["negative-after-good", "nan", "nan-before-negative", "inf-after-good"],
)
def test_census_names_the_first_bad_radius(radii, bad):
    with pytest.raises(ValueError) as info:
        radius_census(five_points(), radii)
    assert str(info.value) == f"radius must be finite and > 0, got {bad}"
