"""Second-order difference plot and its radius-based indicators.

A point is built from three successive intervals:

    x = intervals[i+1] - intervals[i]
    y = intervals[i+2] - intervals[i+1]

CTM is the fraction of points strictly inside radius r around the origin,
CCTM splits that count by quadrant (denominator stays the total point
count; on-axis points belong to no quadrant), and D is the mean distance of
the qualifying points. All radius comparisons are strict (< r), so boundary
points are excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import EmptyInputError, NoPointInRadiusError
from .series import RRSeries


# Quadrant labels, in the order of the int8 quadrant codes 0-4.
QUADRANTS = ("I", "II", "III", "IV", "axis")


@dataclass(frozen=True, eq=False)
class PlotPoints:
    """The plot points of one recording, as columns in index order.

    Point i comes from intervals i, i+1 and i+2. `x` and `y` are float64
    arrays; `code` is derived from them: the int8 quadrant code of each
    point, 0-3 for quadrants I-IV and 4 for points on an axis.
    """

    x: np.ndarray
    y: np.ndarray
    code: np.ndarray = field(init=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError(f"x and y must be 1-D of one length, got {x.shape} and {y.shape}")
        code = np.full(x.size, 4, dtype=np.int8)
        code[(x > 0) & (y > 0)] = 0
        code[(x < 0) & (y > 0)] = 1
        code[(x < 0) & (y < 0)] = 2
        code[(x > 0) & (y < 0)] = 3
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "code", code)

    def __len__(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class RadiusCounts:
    """Integer census of points strictly inside radius r, and their mean distance.

    within == sum(quadrant) + on_axis holds exactly; total is the full point
    count (the CTM/CCTM denominator). d is the mean distance D of the points
    inside r, None when there are none.
    """

    within: int
    quadrant: tuple[int, int, int, int]
    on_axis: int
    total: int
    d: float | None

    @property
    def ctm(self) -> float:
        return self.within / self.total

    @property
    def cctm(self) -> tuple[float, float, float, float]:
        q, n = self.quadrant, self.total
        return (q[0] / n, q[1] / n, q[2] / n, q[3] / n)


def second_order_diff(*recordings: RRSeries) -> PlotPoints:
    """Build the n-2 plot points of a series of n intervals, in index order.

    Given several series, their points follow one another, each series'
    in index order; no point spans two series.
    """
    if not recordings:
        raise EmptyInputError("need at least one series")
    diffs = [np.diff(rec.intervals) for rec in recordings]
    if len(diffs) == 1:  # views, where concatenate would copy
        return PlotPoints(x=diffs[0][:-1], y=diffs[0][1:])
    return PlotPoints(
        x=np.concatenate([d[:-1] for d in diffs]), y=np.concatenate([d[1:] for d in diffs])
    )


def point_distances(points: PlotPoints) -> np.ndarray:
    """Distances from the origin for every point, as a float64 array.

    sqrt(x*x + y*y), each step rounded as numpy rounds it, in one buffer.
    """
    d = points.x * points.x
    d += points.y * points.y
    return np.sqrt(d, out=d)


def check_radius(r: float) -> float:
    """r, if it is a finite radius > 0; else ValueError naming it."""
    if not (r > 0 and math.isfinite(r)):
        raise ValueError(f"radius must be finite and > 0, got {r}")
    return r


def radius_census(points: PlotPoints, radii: Sequence[float]) -> list[RadiusCounts]:
    """Counts of the points with distance < r, and their mean distance D, per radius.

    The radii, in any order, are checked up front and then visited from the
    largest down: each cuts its inside set, in index order, from the one
    above it, so D is the mean of the same array as distances[distances < r].
    """
    if len(points) == 0:
        raise EmptyInputError("need at least one plot point")
    radii = list(map(check_radius, radii))
    distances, codes = point_distances(points), points.code
    out = [None] * len(radii)
    for k in sorted(range(len(radii)), key=radii.__getitem__, reverse=True):
        inside = distances < radii[k]
        distances, codes = distances[inside], codes[inside]
        by_code = np.bincount(codes, minlength=5).tolist()
        d = float(np.mean(distances)) if distances.size else None
        out[k] = RadiusCounts(distances.size, tuple(by_code[:4]), by_code[4], len(points), d)
    return out


def radius_counts(points: PlotPoints, r: float) -> RadiusCounts:
    """Count the points with distance < r, split by quadrant."""
    return radius_census(points, [r])[0]


def mean_distance_d(points: PlotPoints, r: float) -> float:
    """Mean distance from the origin over the points with distance < r."""
    d = radius_census(points, [r])[0].d
    if d is None:
        raise NoPointInRadiusError(f"no point lies strictly inside radius {r}")
    return d
