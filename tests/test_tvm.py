import importlib.util
import math
import random
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import (
    reference_pipeline,
    reference_radius_counts,
    reference_sodp,
    reference_tvm_coordinates,
)
from tvmhrv import (
    EmptyInputError,
    IndicatorParams,
    LiftedPoints,
    PlotPoints,
    RRSeries,
    SubspaceGrid,
    build_grid,
    build_tvm_points,
    indicator_of,
    point_distances,
    quadrant_etv,
    radius_census,
    report,
    second_order_diff,
    split_segments,
    temporal_variation_entropy,
)
from tvmhrv import tvm
from tvmhrv.series import MAX_INTERVAL

# Frozen with the straight-line reference in oracle.py.
THREE_POINT_MEAN_LE = 21.796145384105944
THREE_POINT_L = (0.736120380354845, 0.7589610278435809, 0.6957429890593272)
THREE_POINT_Z = (7.36120380354845, -3.7948051392179045, -3.4787149452966357)
SINGLE_POINT_L = 0.7310585786300049  # 1 / (1 + e^-1)
MANUAL_GRID_ETV = 0.3732832227558448

dyadic_intervals = st.lists(
    st.integers(min_value=1, max_value=2**14).map(lambda n: n / 8.0),
    min_size=3,
    max_size=40,
)
dyadic_shift = st.integers(min_value=0, max_value=2**20).map(lambda n: n / 8.0)
divisions_st = st.tuples(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
)


def plot(*pairs):
    """Hand-built plot points from (x, y) pairs."""
    return PlotPoints(x=[float(x) for x, _ in pairs], y=[float(y) for _, y in pairs])


def lift(values):
    return build_tvm_points(second_order_diff(RRSeries(values)))


def etv(values, divisions=(10, 10, 10)):
    """(global, per-quadrant) E_TV of a series, as report() gives them."""
    rep = report(RRSeries(values), IndicatorParams(divisions=divisions))
    return rep.etv_global, rep.etv_quadrant


def columns(lifted):
    """Every per-point column of lifted points, as lists."""
    base = lifted.base
    return [a.tolist() for a in (base.x, base.y, base.code, lifted.d_co, lifted.le, lifted.l, lifted.z)]


def xyz(lifted):
    """The three columns that build_grid bins."""
    return lifted.base.x, lifted.base.y, lifted.z


EMPTY = LiftedPoints(base=PlotPoints(x=[], y=[]), l=np.zeros(0), z=np.zeros(0), sizes=np.array([0]))


class TestBuildTvmPoints:
    def test_three_point_example(self):
        points = lift([800, 810, 790, 805, 795])
        assert points.d_co.tolist() == [10.0, -5.0, -5.0]
        assert points.le.tolist() == point_distances(points.base).tolist()
        assert sum(points.le.tolist()) / 3 == pytest.approx(THREE_POINT_MEAN_LE, abs=1e-12)
        for l, z, l_exp, z_exp in zip(points.l, points.z, THREE_POINT_L, THREE_POINT_Z):
            assert l == pytest.approx(l_exp, abs=1e-12)
            assert z == pytest.approx(z_exp, abs=1e-12)
        # Same values at coarser precision.
        assert points.l[0] == pytest.approx(0.7361, abs=1e-3)
        assert points.z[0] == pytest.approx(7.361, abs=1e-3)

    def test_degenerate_all_origin(self):
        points = lift([800] * 6)
        assert len(points) == 4
        assert set(points.d_co.tolist()) == set(points.le.tolist()) == {0.0}
        assert set(points.l.tolist()) == {0.5}
        assert set(points.z.tolist()) == {0.0}

    def test_single_point(self):
        points = build_tvm_points(plot((3, 4)))
        assert points.le.tolist() == [5.0]
        assert points.d_co.tolist() == [1.0]
        assert points.l[0] == pytest.approx(SINGLE_POINT_L, abs=1e-15)
        assert points.z[0] == pytest.approx(SINGLE_POINT_L, abs=1e-5)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            build_tvm_points(PlotPoints(x=[], y=[]))

    def test_derived_fields(self):
        points = build_tvm_points(plot((-3, 4), (6, -8)))
        assert points.d_co.tolist() == [1.0, 2.0]
        assert points.le.tolist() == [5.0, 10.0]
        assert points.z.tolist() == (points.d_co * points.l).tolist()

    def test_far_outlier_rounds_l_to_one(self):
        # One point 38 times the mean distance: exp(-38) is below half an
        # ulp of 1, so l rounds to exactly 1.0, as in the oracle.
        values = [800.0] * 39 + [1600.0]
        points = lift(values)
        _, _, _, ls, zs = reference_tvm_coordinates(*reference_sodp(values))
        assert points.l.tolist() == ls
        assert points.l[-1] == 1.0
        assert points.z.tolist() == zs
        ref_global, ref_quadrant = reference_pipeline(values, (10, 10, 10))
        got_global, got_quadrant = etv(values)
        assert got_global == pytest.approx(ref_global, rel=1e-9)
        assert list(got_quadrant) == pytest.approx(ref_quadrant, rel=1e-9)


class TestBuildGrid:
    def test_single_cell(self):
        points = build_tvm_points(plot((1, 2), (-1, 3), (2, -2)))
        grid = build_grid(*xyz(points), (1, 1, 1))
        assert grid.divisions.tolist() == [[1, 1, 1]]
        assert grid.sizes.tolist() == [3]
        assert grid.occupied.tolist() == [1]
        assert grid.cells.tolist() == [0]
        assert grid.counts.tolist() == [3]
        assert grid.abs_z_sums.tolist() == [math.fsum(np.abs(points.z).tolist())]

    def test_x_binning_by_hand(self):
        # x in {0, 1, 2}, two x-bins [0,1) and [1,2]; y and z collapse.
        points = build_tvm_points(plot((0, 5), (1, 5), (2, 5)))
        grid = build_grid(*xyz(points), (2, 1, 1))
        assert grid.divisions.tolist() == [[2, 1, 1]]
        assert grid.cells.tolist() == [0, 1]
        assert grid.counts.tolist() == [1, 2]

    def test_zero_extent_z_axis_collapses_alone(self):
        # |y| == |x| everywhere, so z is identically 0 while x and y vary.
        points = build_tvm_points(plot((1, 1), (2, 2), (-3, 3)))
        grid = build_grid(*xyz(points), (2, 2, 4))
        assert grid.divisions.tolist() == [[2, 2, 1]]

    def test_identical_points_collapse_every_axis(self):
        points = build_tvm_points(plot(*[(2, 3)] * 5))
        grid = build_grid(*xyz(points), (4, 4, 4))
        assert grid.divisions.tolist() == [[1, 1, 1]]
        assert grid.n_cells == 1
        assert grid.counts.tolist() == [5]

    def test_bounds_are_exact_extremes(self):
        # The cuboid spans the set's own extremes: on each axis, the smallest
        # point lands in bin 0 and the largest in the last bin. x = 1 and y = 1
        # lie on a bin edge of [-3, 5] in 4 bins and [-2, 7] in 3: a hi past
        # the largest point would drop them into the bin below.
        points = build_tvm_points(plot((-3, 1), (5, -2), (1, 7)))
        assert np.argsort(points.z).tolist() == [1, 0, 2]  # z: lowest at point 2, highest at 3
        grid = build_grid(*xyz(points), (4, 3, 3))
        assert grid.divisions.tolist() == [[4, 3, 3]]
        bins = np.stack(np.unravel_index(grid.cells, (4, 3, 3)), axis=1)
        assert bins.tolist() == [[0, 1, 0], [2, 2, 2], [3, 0, 0]]  # points 1, 3 and 2

    def test_maximum_point_included(self):
        # The top of the last bin is closed, so the max lands inside.
        points = build_tvm_points(plot((0, 5), (1, 5), (2, 5)))
        grid = build_grid(*xyz(points), (4, 1, 1))
        assert grid.counts.sum() == 3
        assert grid.cells.max() == 3

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            build_grid(*xyz(EMPTY), (2, 2, 2))

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, -2, 1), (1, 1, 1.5)])
    def test_bad_divisions(self, bad):
        points = build_tvm_points(plot((1, 2)))
        with pytest.raises(ValueError):
            build_grid(*xyz(points), bad)

    @pytest.mark.parametrize("bad", [(2**21,) * 3, (1, 1, 2**63 - 1), (1, 1, 2**53 + 1)])
    def test_divisions_the_cell_index_cannot_hold(self, bad):
        # 2**21 per axis gives 2**63 cells, one more than an int64 index counts;
        # above 2**53 per axis, float64 no longer holds every bin index.
        points = build_tvm_points(plot((1, 2), (-1, 3), (2, -2)))
        with pytest.raises(ValueError, match=rf"got \({bad[0]}, {bad[1]}, {bad[2]}\)"):
            build_grid(*xyz(points), bad)

    def test_divisions_at_the_float_exact_bound(self):
        points = build_tvm_points(plot((0, 5), (1, 5), (2, 5)))
        grid = build_grid(*xyz(points), (2**53, 1, 1))
        assert grid.cells.tolist() == [0, 2**52, 2**53 - 1]

    def test_report_rejects_divisions_past_the_cell_index(self):
        with pytest.raises(ValueError, match=r"got \(2097152, 2097152, 2097152\)"):
            report(RRSeries([800, 810, 790, 805, 795]), IndicatorParams(divisions=(2**21,) * 3))


class TestEntropy:
    def test_single_cell_grid_is_zero(self):
        points = build_tvm_points(plot((1, 2), (-1, 3), (2, -2)))
        assert temporal_variation_entropy(build_grid(*xyz(points), (1, 1, 1))) == [0.0]

    def test_constant_series_is_zero(self):
        assert etv([800] * 20, (3, 3, 3)) == (0.0, (0.0, 0.0, 0.0, 0.0))

    def test_hand_built_grid(self):
        # Two occupied cells out of two: n = (1, 2), |z| mass (0.5, 0.375).
        grid = SubspaceGrid(
            sizes=np.array([3]),
            divisions=np.array([[2, 1, 1]]),
            occupied=np.array([2]),
            cells=np.array([0, 1]),
            counts=np.array([1, 2]),
            abs_z_sums=np.array([0.5, 0.375]),
        )
        assert temporal_variation_entropy(grid) == [pytest.approx(MANUAL_GRID_ETV, rel=1e-12)]

    def test_seeded_series_matches_brute_force(self):
        rng = random.Random(424242)
        values = [round(rng.uniform(600, 1100), 3) for _ in range(200)]
        got_global, got_quadrant = etv(values, (3, 3, 3))
        ref_global, ref_quadrant = reference_pipeline(values, (3, 3, 3))
        assert got_global == pytest.approx(ref_global, rel=1e-9)
        for got, want in zip(got_quadrant, ref_quadrant):
            assert got == pytest.approx(want, rel=1e-9)


def assert_matches_oracle(values, divisions, radii):
    """Points, radius counts and E_TV of a series against tests/oracle.py.

    Coordinates, distances and counts must be equal; l, z and E_TV, whose
    sums the oracle takes in plain order, agree to 1e-9 relative.
    """
    points = lift(values)
    xs, ys = reference_sodp(values)
    d_cos, les, _, ls, zs = reference_tvm_coordinates(xs, ys)
    assert points.base.x.tolist() == xs
    assert points.base.y.tolist() == ys
    assert points.d_co.tolist() == d_cos
    assert points.le.tolist() == les
    np.testing.assert_allclose(points.l, ls, rtol=1e-9, atol=0)
    np.testing.assert_allclose(points.z, zs, rtol=1e-9, atol=0)
    for r in radii:
        counts = radius_census(points.base, [r])[0]
        within, quadrant, on_axis = reference_radius_counts(xs, ys, r)
        assert (counts.within, list(counts.quadrant), counts.on_axis) == (within, quadrant, on_axis)
    got_global, got_quadrant = etv(values, divisions)
    ref_global, ref_quadrant = reference_pipeline(values, divisions)
    assert got_global == pytest.approx(ref_global, rel=1e-9, abs=0)
    assert list(got_quadrant) == pytest.approx(ref_quadrant, rel=1e-9, abs=0)


class TestOracleAgreement:
    def test_seeded_20k_interval_series(self):
        # Mean-reverting walk around 800 ms with millisecond-fraction values.
        rng = random.Random(20261018)
        values, v = [], 800.0
        for _ in range(20_000):
            v = 800.0 + 0.9 * (v - 800.0) + rng.gauss(0.0, 25.0)
            values.append(round(max(v, 300.0), 3))
        assert_matches_oracle(values, (10, 10, 10), radii=(3.0, 6.0, 50.0))

    @pytest.mark.parametrize("scale", [1e-300, 1e-160])
    def test_tiny_intervals(self, scale):
        # At 1e-300 every x*x underflows to 0, so all distances and mean_le
        # are 0; at 1e-160 the squares are subnormal.
        rng = random.Random(7)
        values = [scale * rng.uniform(1.0, 2.0) for _ in range(300)]
        assert_matches_oracle(values, (4, 5, 6), radii=(scale, 1.0))

    def test_intervals_at_the_upper_bound(self):
        rng = random.Random(8)
        values = [
            MAX_INTERVAL * rng.uniform(0.5, 1.0) if rng.random() < 0.5 else rng.uniform(1.0, 1e3)
            for _ in range(300)
        ]
        values[0] = values[-1] = MAX_INTERVAL
        assert_matches_oracle(values, (4, 5, 6), radii=(1e3, MAX_INTERVAL))


class TestQuadrantEtv:
    def test_single_quadrant_occupied(self):
        points = build_tvm_points(plot((1, 2), (2, 1), (0.5, 1.5), (1.2, 2.2)))
        q = quadrant_etv(points.base, points.z, (2, 2, 2))
        assert q[1] == q[2] == q[3] == 0.0

    def test_mirrored_set_has_equal_quadrant_entropies(self):
        base = [(0.3, 1.7), (1.1, 0.9), (2.3, 0.4), (0.7, 2.9), (1.9, 2.1)]
        mirrored = []
        for x, y in base:
            mirrored += [(x, y), (-x, y), (-x, -y), (x, -y)]
        points = build_tvm_points(plot(*mirrored))
        q = quadrant_etv(points.base, points.z, (3, 3, 3))
        assert q[0] > 0.0
        for other in q[1:]:
            assert other == pytest.approx(q[0], abs=1e-12)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            quadrant_etv(EMPTY.base, EMPTY.z, (2, 2, 2))


class TestPipeline:
    def test_constant_series(self):
        assert etv([800] * 10) == (0.0, (0.0, 0.0, 0.0, 0.0))

    def test_single_cell_divisions_force_zero(self):
        assert etv([800, 810, 790, 805, 795], (1, 1, 1))[0] == 0.0

    def test_point_count(self):
        assert len(lift(range(500, 530))) == 28


@settings(deadline=None)
@given(dyadic_intervals, dyadic_shift, divisions_st)
def test_pipeline_translation_invariance_bitwise(values, shift, divisions):
    shifted = [v + shift for v in values]
    assert etv(shifted, divisions) == etv(values, divisions)
    assert columns(lift(shifted)) == columns(lift(values))


@settings(deadline=None)
@given(dyadic_intervals, st.sampled_from([0.5, 2.0, 10.0]), divisions_st)
def test_pipeline_scale_equivariance(values, c, divisions):
    g1, q1 = etv(values, divisions)
    g2, q2 = etv([c * v for v in values], divisions)
    assert g2 == pytest.approx(c * g1, rel=1e-9, abs=1e-12)
    for got, want in zip(q2, q1):
        assert got == pytest.approx(c * want, rel=1e-9, abs=1e-12)


@settings(deadline=None)
@given(dyadic_intervals, divisions_st)
# One point 38 mean distances out, where l rounds to exactly 1.0.
@example([800.0] * 39 + [1600.0], (5, 5, 5))
def test_pipeline_invariants(values, divisions):
    etv_global, etv_quadrant = etv(values, divisions)
    assert etv_global >= 0.0
    assert all(v >= 0.0 for v in etv_quadrant)
    p = lift(values)
    # l rounds to exactly 1.0 only beyond about 36.7 mean distances.
    assert np.all((0.5 <= p.l) & (p.l <= 1.0))
    mean_le = math.fsum(p.le.tolist()) / len(p)
    assert np.all(p.l[p.le < 36 * mean_le] < 1.0)
    same_sign = np.copysign(1.0, p.z) == np.copysign(1.0, p.d_co)
    assert np.all(same_sign | ((p.z == 0.0) & (p.d_co == 0.0)))
    assert np.all(np.abs(p.z) <= np.abs(p.d_co))


@settings(deadline=None)
@given(dyadic_intervals, divisions_st, st.randoms(use_true_random=False))
def test_grid_statistics_ignore_point_order(values, divisions, rnd):
    points = lift(values)
    order = list(range(len(points)))
    rnd.shuffle(order)
    g1 = build_grid(*xyz(points), divisions)
    g2 = build_grid(*(column[np.array(order)] for column in xyz(points)), divisions)
    assert g1.divisions.tolist() == g2.divisions.tolist()
    assert g1.cells.tolist() == g2.cells.tolist()
    assert g1.counts.tolist() == g2.counts.tolist()
    assert g1.abs_z_sums.tolist() == g2.abs_z_sums.tolist()
    assert temporal_variation_entropy(g1) == temporal_variation_entropy(g2)


@settings(deadline=None)
@given(dyadic_intervals, divisions_st)
def test_grid_columns_match_per_point_binning(values, divisions):
    # Each point binned on its own in plain Python, as tests/oracle.py bins.
    points = lift(values)
    coords = [a.tolist() for a in (points.base.x, points.base.y, points.z)]
    axes = []
    for column, requested in zip(coords, divisions):
        lo, hi = min(column), max(column)
        axes.append((lo, hi, 1 if hi == lo else requested))
    members = {}
    for i, point in enumerate(zip(*coords)):
        key = 0
        for value, (lo, hi, k) in zip(point, axes):
            ix = 0 if k == 1 else min(int((value - lo) / (hi - lo) * k), k - 1)
            key = key * k + ix
        members.setdefault(key, []).append(abs(coords[2][i]))
    grid = build_grid(*xyz(points), divisions)
    assert grid.divisions.tolist() == [[k for _, _, k in axes]]
    assert grid.cells.tolist() == sorted(members)
    assert grid.counts.tolist() == [len(members[key]) for key in sorted(members)]
    assert grid.abs_z_sums.tolist() == [math.fsum(members[key]) for key in sorted(members)]
    assert grid.cells.dtype == grid.counts.dtype == np.int64
    assert grid.abs_z_sums.dtype == np.float64


@given(dyadic_intervals, divisions_st)
def test_grid_count_conservation(values, divisions):
    series = RRSeries(values)
    points = build_tvm_points(second_order_diff(series))
    grid = build_grid(*xyz(points), divisions)
    assert grid.counts.sum() == grid.sizes.sum() == len(series) - 2


@pytest.mark.parametrize(
    "sizes, want",
    [
        ([3, 3, 3, 3], [(0, 3), (3, 4)]),
        ([12, 1, 1], [(0, 1), (1, 3)]),
        ([1, 12, 1], [(0, 1), (1, 2), (2, 3)]),
        ([0, 10, 0, 1], [(0, 3), (3, 4)]),
        ([], []),
    ],
)
def test_batches_hold_whole_sets_up_to_the_budget(sizes, want):
    with mock.patch.object(tvm, "BATCH_POINTS", 10):
        assert list(tvm.batches(sizes)) == want


@settings(deadline=None)
@given(st.lists(dyadic_intervals, min_size=1, max_size=5), divisions_st)
def test_grid_of_several_sets_is_each_sets_own_grid(runs, divisions):
    sets = [lift(values) for values in runs]
    x, y, z = (np.concatenate(column) for column in zip(*map(xyz, sets)))
    grid = build_grid(x, y, z, divisions, [len(s) for s in sets])
    alone = [build_grid(*xyz(s), divisions) for s in sets]
    assert grid.sizes.tolist() == [len(s) for s in sets]
    assert grid.divisions.tolist() == [g.divisions[0].tolist() for g in alone]
    assert grid.occupied.tolist() == [len(g.cells) for g in alone]
    for name in ("cells", "counts", "abs_z_sums"):
        assert getattr(grid, name).tolist() == [v for g in alone for v in getattr(g, name).tolist()]
    assert grid.n_cells == sum(g.n_cells for g in alone)
    assert temporal_variation_entropy(grid) == [temporal_variation_entropy(g)[0] for g in alone]



def int64_grid(x, y, z, divisions, sizes, rows):
    """build_grid's fields, binned as it once did: all three columns gathered
    through rows at once, and every key and bin index an int64."""
    x, y, z = x[rows], y[rows], z[rows]
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    k, keys = [], np.zeros(z.size, dtype=np.int64)
    for values, requested in zip((x, y, z), divisions):
        lo, hi = np.minimum.reduceat(values, starts), np.maximum.reduceat(values, starts)
        flat = hi == lo
        span = np.where(flat, 1.0, hi - lo)
        index = ((values - np.repeat(lo, sizes)) / np.repeat(span, sizes) * requested).astype(np.int64)
        k.append(np.where(flat, 1, requested))
        keys = keys * np.repeat(k[-1], sizes) + np.minimum(index, requested - 1)
    set_of = np.repeat(np.arange(sizes.size), sizes)
    order = np.lexsort((keys, set_of))
    keys, abs_z, set_of = keys[order], np.abs(z[order]), set_of[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]) | (set_of[1:] != set_of[:-1])
    cell_starts = np.flatnonzero(first)
    counts = np.diff(cell_starts, append=keys.size)
    ends = np.cumsum(counts).tolist()
    return {
        "sizes": sizes.tolist(),
        "divisions": np.array(k).T.tolist(),
        "occupied": np.add.reduceat(first, starts, dtype=np.int64).tolist(),
        "cells": keys[cell_starts].tolist(),
        "counts": counts.tolist(),
        "abs_z_sums": hexes(math.fsum(abs_z[e - n : e].tolist()) for e, n in zip(ends, counts)),
    }


# Cell counts on either side of 2**8, 2**16 and 2**32, where the key type
# widens; a whole float-exact axis; and the most cells below 2**63.
KEY_TYPE_EDGES = [
    (255, 1, 1), (256, 1, 1), (16, 16, 1), (1, 257, 1),
    (65535, 1, 1), (1, 65536, 1), (1, 256, 256), (65537, 1, 1),
    (65535, 65537, 1), (1, 1, 2**32), (1, 2**16, 2**16), (641, 1, 6700417),
    (2**53, 1, 1), (1, 1, 2**53), (2097151,) * 3,
]
grid_sets = st.lists(
    st.lists(st.tuples(*[st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-1e3, 1e3))] * 3),
             min_size=1, max_size=12),
    min_size=1,
    max_size=4,
)


@settings(deadline=None, max_examples=300)
@given(
    grid_sets,
    st.one_of(st.sampled_from(KEY_TYPE_EDGES), divisions_st),
    st.integers(0, 5),
    st.booleans(),
    st.randoms(use_true_random=False),
)
@example([[(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)]], (255, 1, 1), 0, False, random.Random(0))
@example([[(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)]], (2097151,) * 3, 1, True, random.Random(0))
def test_narrow_keys_bin_as_the_int64_gather_path(sets, divisions, pad, as_index, rnd):
    points = [p for s in sets for p in s]
    sizes = [len(s) for s in sets]
    n = len(points)
    # pad points around the sets that the grid must not see.
    pool = [(-7e3, 7e3, 1e4)] * pad + points + [(9e3, -9e3, -1e4)] * pad
    if as_index:
        moved = list(range(len(pool)))
        rnd.shuffle(moved)
        pool = [pool[i] for i in moved]
        rows = np.argsort(moved)[pad : pad + n]  # where each point of the sets went
    else:
        rows = slice(pad, pad + n)
    x, y, z = (np.array(column, dtype=np.float64) for column in zip(*pool))
    if as_index:
        grid = build_grid(x, y, z, divisions, sizes, rows)
    else:
        grid = build_grid(x[rows], y[rows], z[rows], divisions, sizes)
    want = int64_grid(x, y, z, divisions, sizes, rows)
    assert grid.cells.dtype == np.int64
    assert {
        "sizes": grid.sizes.tolist(),
        "divisions": grid.divisions.tolist(),
        "occupied": grid.occupied.tolist(),
        "cells": grid.cells.tolist(),
        "counts": grid.counts.tolist(),
        "abs_z_sums": hexes(grid.abs_z_sums.tolist()),
    } == want

def hexes(values) -> list[str]:
    return [float.hex(v) for v in values]


def test_fsums_across_chunk_edges():
    c = tvm.CHUNK
    sizes = np.array([1, c - 1, c, c + 1, 3 * c + 7])
    rng = np.random.default_rng(24)
    values = rng.standard_normal(sizes.sum()) * 10.0 ** rng.integers(-8, 9, sizes.sum())
    assert list(tvm._floats(values)) == values.tolist()
    ends = np.cumsum(sizes).tolist()
    want = [math.fsum(values[end - n : end].tolist()) for end, n in zip(ends, sizes.tolist())]
    assert hexes(tvm._fsums(values, sizes)) == hexes(want)


FSUM = math.fsum
TINY = 2.0**-1074


def fsum_results(values: np.ndarray, sizes) -> list:
    """math.fsum of each consecutive run of sizes[k] values, as its hex or the error type it raises."""
    results, end = [], 0
    for n in sizes:
        try:
            results.append(float.hex(FSUM(values[end : end + n].tolist())))
        except (ValueError, OverflowError) as error:
            results.append(type(error))
        end += n
    return results


def vector_sums(values: np.ndarray, sizes) -> tuple[object, int]:
    """tvm._fsums with every call of one value or more in vector passes: its
    sums as hexes (or the error type it raises), and the sets it gave to math.fsum."""
    with mock.patch.object(tvm, "VECTOR_SUMS", 1), mock.patch("math.fsum", wraps=FSUM) as fsum:
        try:
            sums = hexes(tvm._fsums(values, np.array(sizes, dtype=np.int64)).tolist())
        except (ValueError, OverflowError) as error:
            sums = type(error)
    return sums, fsum.call_count


def assert_vector_sums_are_fsums(sets) -> None:
    """The kernel gives each set's fsum bit for bit, or fsum's first error."""
    sizes = [len(s) for s in sets]
    values = np.concatenate([np.asarray(s, dtype=np.float64) for s in sets] + [np.zeros(0)])
    want = fsum_results(values, sizes)
    errors = [w for w in want if isinstance(w, type)]
    assert vector_sums(values, sizes)[0] == (errors[0] if errors else want)


@pytest.mark.parametrize(
    "sets",
    [
        pytest.param([[0.0], [-0.0], [0.0, -0.0, 0.0], [-0.0, -0.0]], id="signed-zeros"),
        pytest.param([[TINY], [TINY] * 3, [2.0**-1030, 3 * TINY, 2.0**-1022 - TINY]], id="subnormals"),
        pytest.param([[math.inf, 1.0], [math.nan], [2.0, math.nan, math.inf], [1.0, 2.0]], id="inf-nan"),
        pytest.param([[1.0], [math.inf, -math.inf]], id="inf-minus-inf"),
        pytest.param([[1.0], [1e308, 1e308]], id="overflow"),
        # 1 + 2**-53 lies halfway between 1 and its successor and rounds to the even one.
        pytest.param([[1.0, 2.0**-53], [1.0 + 2.0**-52, 2.0**-53], [2.0**53, 1.0], [3.0, 2.0**-52]], id="midpoints"),
        pytest.param([[1.0, 2.0**-53, 2.0**-200], [2.0**-200, 2.0**53, 1.0]], id="past-midpoints"),
        pytest.param([[], [2.0, -1.0], [], [1.0, -1.0]], id="empty-and-signed"),
        # sigma is 2**60. The r add up to 64 * 126 + 32 + 2**-44, whose last
        # bit lies below the partial sums' ulps: without it the sum is a tie.
        pytest.param([[2.0**52 + 5 * 256 + 126] * 64 + [288.0 + 2.0**-44]], id="lost-low-bits"),
        # sigma is 4, so the r are 2**-51 and 2**-53 + 2**-104, whose float sum
        # drops its half-ulp 2**-104 to the even side and lands the result on a
        # tie. An error bound of at most 2**-104 (a sixteenth of the kernel's)
        # rounds back onto that sum at both ends and lets it stand.
        pytest.param(
            [[1.0 + 2.0**-51, 2.0**-53 + 2.0**-104], [2.0**-652 + 2.0**-703, 2.0**-599 + 2.0**-650]],
            id="low-sum-rounds-to-a-tie",
        ),
        # Values that cancel far above sigma, which a sum of 0.3 sets: the sign
        # screen alone keeps them from the passes.
        pytest.param([[0.1, 2.0**60, 0.2, -(2.0**60)], [200.0, 200.0, -(2.0**60)]], id="large-negative"),
    ],
)
def test_vector_sums_at_the_edges_are_fsums(sets):
    assert_vector_sums_are_fsums(sets)


def test_vector_sums_across_chunk_edges():
    c = tvm.CHUNK
    sizes = [1, c - 1, c, c + 1, 3 * c + 7, 2, 1]
    rng = np.random.default_rng(35)
    values = rng.random(sum(sizes)) * 2.0 ** rng.integers(-30, 31, sum(sizes))
    assert vector_sums(values, sizes) == (fsum_results(values, sizes), 0)
    assert hexes(tvm._fsums(values, np.array(sizes)).tolist()) == fsum_results(values, sizes)


def spread_set(size: int, low: int, span: int, zeros: float, seed: int) -> np.ndarray:
    """size values >= 0 in random order, their exponents spread over 2**low to 2**(low + span)."""
    rng = np.random.default_rng(seed)
    exponents = rng.integers(low, min(low + span, 1000), size, endpoint=True)
    values = np.ldexp(rng.random(size) + 0.5, exponents)
    values[rng.random(size) < zeros] = 0.0
    return values


def tie_set(mantissa: int, k: int, pieces: int, past: int | None, seed: int) -> np.ndarray:
    """x = mantissa * 2**k and pieces values that add up to half its ulp exactly,
    so that the sum is a midpoint; past it by 2**(k - 1 - past) if past is given."""
    c = (pieces - 1).bit_length()
    piece = 2.0 ** (k - 1 - c)
    values = [math.ldexp(mantissa, k)] + [piece] * (pieces - 1) + [piece * (2**c - pieces + 1)]
    if past is not None:
        values.append(2.0 ** (k - 1 - past))
    return np.random.default_rng(seed).permutation(values)


any_float = st.one_of(
    st.floats(),
    st.floats(min_value=0.0),
    st.sampled_from([0.0, -0.0, TINY, 2.0**-1022, 2.0**-900, 2.0**1000, math.inf, math.nan]),
)
seeds = st.integers(0, 2**32 - 1)
sum_sets = st.lists(
    st.one_of(
        st.lists(any_float, max_size=10).map(np.array),
        st.builds(
            spread_set,
            st.builds(lambda e, f: min(2**17, int(2**e * (1 + f))), st.integers(0, 17), st.floats(0, 1)),
            st.integers(-1074, 1000),
            st.integers(0, 2000),
            st.sampled_from([0.0, 0.5]),
            seeds,
        ),
        st.builds(
            tie_set,
            st.integers(2**52, 2**53 - 1),
            st.integers(-1000, 960),
            st.integers(1, 2**17),
            st.one_of(st.none(), st.integers(1, 60)),
            seeds,
        ),
    ),
    min_size=1,
    max_size=4,
)


@settings(deadline=None)
@given(sum_sets)
@example([np.array([1.0, 2.0**-53, 2.0**-200])])
@example([np.array([2.0**-200, 2.0**-53, 1.0 + 2.0**-51, 0.0])])
@example([tie_set(2**52, -52, 3, 40, 0), spread_set(2**17, -20, 40, 0.0, 1)])
def test_vector_sums_are_fsums_bit_for_bit(sets):
    assert_vector_sums_are_fsums(sets)


@pytest.mark.parametrize("extra", [-1, 0, 1, tvm.CHUNK + 3])
def test_lift_across_chunk_edges_equals_per_value_exp(extra):
    n = tvm.CHUNK + extra
    rng = np.random.default_rng(n)
    points = PlotPoints(x=rng.normal(0.0, 40.0, n), y=rng.normal(0.0, 40.0, n))
    lifted = build_tvm_points(points)
    le = point_distances(points).tolist()
    mean_le = math.fsum(le) / n
    l = [1.0 / (1.0 + math.exp(-v / mean_le)) for v in le]
    d_co = (np.abs(points.y) - np.abs(points.x)).tolist()
    assert hexes(lifted.l.tolist()) == hexes(l)
    assert hexes(lifted.z.tolist()) == hexes(d * w for d, w in zip(d_co, l))


def copying_lift(points, sizes, quadrant):
    """(l, z) by the lift's expressions before it worked in place, set by set."""
    sizes = np.asarray(sizes, dtype=np.int64)
    le = point_distances(points)
    ends = np.cumsum(sizes).tolist()
    mean_le = np.array([math.fsum(le[e - n : e].tolist()) / n for e, n in zip(ends, sizes)])
    if quadrant is not None:
        keep = points.code == quadrant
        sizes = np.add.reduceat(keep, np.cumsum(sizes) - sizes, dtype=np.int64)
        points = PlotPoints(x=points.x[keep], y=points.y[keep])
        le = le[keep]
    d_co = np.abs(points.y) - np.abs(points.x)
    zero = mean_le == 0.0
    scale = np.repeat(np.where(zero, 1.0, mean_le), sizes)
    e = np.array([math.exp(v) for v in (-le / scale).tolist()], dtype=np.float64)
    e += 1.0
    l = np.divide(1.0, e, out=e)
    z = d_co * l
    zero = np.repeat(zero, sizes)
    return np.where(zero, 0.5, l), np.where(zero, 0.0, z)


# Zeros, and magnitudes whose squares underflow, give sets whose mean_le is 0.
coordinate = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-170, -2e-170]),
    st.floats(min_value=-1e3, max_value=1e3),
)
point_sets = st.lists(
    st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=8), min_size=1, max_size=5
)


@settings(deadline=None)
@given(point_sets, st.sampled_from([None, 0, 1, 2, 3]))
@example([[(0.0, 0.0)] * 3, [(1.0, 2.0), (-3.0, 4.0)]], None)
@example([[(1e-170, -2e-170), (0.0, 5e-324)], [(3.0, -4.0)]], 3)
def test_in_place_lift_is_bit_identical_to_the_copying_lift(sets, quadrant):
    points = plot(*[pair for s in sets for pair in s])
    sizes = [len(s) for s in sets]
    lifted = build_tvm_points(points, sizes, quadrant)
    l, z = copying_lift(points, sizes, quadrant)
    assert lifted.l.tobytes() == l.tobytes()
    assert lifted.z.tobytes() == z.tobytes()
    base = lifted.base
    assert lifted.d_co.tobytes() == (np.abs(base.y) - np.abs(base.x)).tobytes()
    assert lifted.le.tobytes() == point_distances(base).tobytes()


def checkout_module(relative: str):
    """A module of this checkout outside the package, by its path from the root."""
    path = Path(__file__).resolve().parents[1] / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_like_recordings() -> dict[str, RRSeries]:
    """100k-interval recordings: the benchmark's seed-1 steady and erratic
    ones, and make_demo_data.py's, to 1 us as it writes them and to 1 ms."""
    corpus = checkout_module("perfbench/corpus.py")
    demo = checkout_module("scripts/make_demo_data.py")
    recordings = {
        f"bench {group}": RRSeries(np.array(corpus.recording_text(1, group, 0, 100_000).split(), dtype=float))
        for group in corpus.GROUPS
    }
    rng = random.Random(1)
    for group, maker in (("steady", demo.steady_series), ("erratic", demo.erratic_series)):
        values = maker(rng, 100_000)
        recordings[f"demo {group}"] = RRSeries(np.array([f"{v:.3f}" for v in values], dtype=float))
        recordings[f"demo {group} ms"] = RRSeries(np.round(values))
    return recordings


def test_vector_sums_rarely_fall_back():
    kernel = tvm._fsums
    sets, fallbacks = Counter(), Counter()

    def counted(values, sizes):
        with mock.patch("math.fsum", wraps=FSUM) as fsum:
            sums = kernel(values, sizes)
        caller = sys._getframe(1).f_code.co_name
        sets[caller] += sizes.size
        fallbacks[caller] += fsum.call_count
        return sums

    with mock.patch.object(tvm, "_fsums", counted), mock.patch.object(tvm, "VECTOR_SUMS", 1):
        for name, rec in bench_like_recordings().items():
            for run in ("whole", "segments of 300"):
                sets.clear(), fallbacks.clear()
                if run == "whole":
                    report(rec)
                else:
                    indicator_of(split_segments(rec, 300), "etv_global")
                assert sets["build_tvm_points"] > 0 and sets["build_grid"] > 0
                assert fallbacks["build_tvm_points"] == 0, (name, run)
                assert fallbacks["build_grid"] <= 0.15 * sets["build_grid"], (name, run, fallbacks, sets)


def traced_peak_and_held(call) -> tuple[int, int]:
    """The traced peak of call and the memory its result holds: what dropping
    the result frees, so that caches the call filled do not count."""
    tracemalloc.start()
    try:
        result = call()
        traced, peak = tracemalloc.get_traced_memory()
        del result
        return peak, traced - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def traced_peak(call) -> int:
    return traced_peak_and_held(call)[0]


# 100k intervals of a random walk in ms, as a 24-hour recording has.
WALK = np.round(np.random.default_rng(1).normal(0.0, 30.0, 99_999))


def test_lift_and_grid_peak_at_three_and_a_quarter_float_columns():
    points = PlotPoints(x=WALK[:-1], y=WALK[1:])
    lifted = build_tvm_points(points)
    build_grid(*xyz(build_tvm_points(plot((1, 2), (3, -4)))))  # imports and first calls
    column = 8 * len(points)
    peak, held = traced_peak_and_held(lambda: build_tvm_points(points))
    # The lift keeps l and z, and a little for the sizes and the containers.
    assert peak <= 3.25 * column
    assert 2 * column <= held <= 2 * column + 4096
    assert traced_peak(lambda: build_grid(*xyz(lifted))) <= 2.4 * column


def test_report_peaks_within_four_and_a_half_float_columns():
    # The points of the same walk: whole-ms intervals of at least 300 ms.
    walk = np.concatenate(([0.0], np.cumsum(WALK)))
    series = RRSeries(walk - walk.min() + 300.0)
    report(RRSeries([800, 810, 790, 805, 795]))  # imports and first calls
    column = 8 * (len(series) - 2)
    assert traced_peak(lambda: report(series)) <= 4.5 * column
