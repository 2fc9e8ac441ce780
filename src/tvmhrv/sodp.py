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
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import EmptyInputError, NoPointInRadiusError
from .series import RRSeries


class Quadrant(str, Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    ON_AXIS = "axis"


def classify_quadrant(x: float, y: float) -> Quadrant:
    if x > 0 and y > 0:
        return Quadrant.I
    if x < 0 and y > 0:
        return Quadrant.II
    if x < 0 and y < 0:
        return Quadrant.III
    if x > 0 and y < 0:
        return Quadrant.IV
    return Quadrant.ON_AXIS


@dataclass(frozen=True)
class SodpPoint:
    """One scatter point; `index` is the position of the first source interval."""

    x: float
    y: float
    index: int
    quadrant: Quadrant = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "quadrant", classify_quadrant(self.x, self.y))

    @property
    def distance(self) -> float:
        """Euclidean distance from the origin."""
        return math.sqrt(self.x * self.x + self.y * self.y)


@dataclass(frozen=True)
class RadiusCounts:
    """Integer census of points strictly inside radius r.

    within == sum(quadrant) + on_axis holds exactly; total is the full point
    count (the CTM/CCTM denominator).
    """

    within: int
    quadrant: tuple[int, int, int, int]
    on_axis: int
    total: int

    @property
    def ctm(self) -> float:
        return self.within / self.total

    @property
    def cctm(self) -> tuple[float, float, float, float]:
        q, n = self.quadrant, self.total
        return (q[0] / n, q[1] / n, q[2] / n, q[3] / n)


def second_order_diff(series: RRSeries) -> list[SodpPoint]:
    """Build the n-2 plot points of a series, in index order."""
    iv = series.intervals
    return [
        SodpPoint(x=iv[i + 1] - iv[i], y=iv[i + 2] - iv[i + 1], index=i)
        for i in range(len(iv) - 2)
    ]


def point_distances(points: Sequence[SodpPoint]) -> np.ndarray:
    """Distances from the origin for every point, as a float64 array."""
    x = np.array([p.x for p in points], dtype=np.float64)
    y = np.array([p.y for p in points], dtype=np.float64)
    return np.sqrt(x * x + y * y)


# Quadrant code of a point: 0-3 for quadrants I-IV, 4 for on-axis points.
_QUADRANT_CODE = {q: code for code, q in enumerate(Quadrant)}


def quadrant_codes(points: Sequence[SodpPoint]) -> np.ndarray:
    """Quadrant code of every point, as an int8 array."""
    return np.fromiter(
        (_QUADRANT_CODE[p.quadrant] for p in points), dtype=np.int8, count=len(points)
    )


def radius_census(
    distances: np.ndarray, codes: np.ndarray, r: float
) -> tuple[RadiusCounts, float | None]:
    """Counts of the points with distance < r and their mean distance D.

    `distances` and `codes` come from point_distances and quadrant_codes of
    the same points; D is None when no point lies inside r.
    """
    if distances.size == 0:
        raise EmptyInputError("need at least one plot point")
    if not (r > 0):
        raise ValueError(f"radius must be > 0, got {r}")
    inside = distances < r
    within = int(np.count_nonzero(inside))
    quadrant = tuple(int(np.count_nonzero(inside & (codes == k))) for k in range(4))
    counts = RadiusCounts(
        within=within, quadrant=quadrant, on_axis=within - sum(quadrant), total=distances.size
    )
    d = float(np.mean(distances[inside])) if within else None
    return counts, d


def _census(points: Sequence[SodpPoint], r: float) -> tuple[RadiusCounts, float | None]:
    return radius_census(point_distances(points), quadrant_codes(points), r)


def radius_counts(points: Sequence[SodpPoint], r: float) -> RadiusCounts:
    """Count the points with distance < r, split by quadrant."""
    return _census(points, r)[0]


def ctm(points: Sequence[SodpPoint], r: float) -> float:
    """Central tendency measure: fraction of points with distance < r."""
    return radius_counts(points, r).ctm


def cctm(points: Sequence[SodpPoint], r: float) -> tuple[float, float, float, float]:
    """Per-quadrant CTM components; denominator is the total point count."""
    return radius_counts(points, r).cctm


def mean_distance_d(points: Sequence[SodpPoint], r: float) -> float:
    """Mean distance from the origin over the points with distance < r."""
    d = _census(points, r)[1]
    if d is None:
        raise NoPointInRadiusError(f"no point lies strictly inside radius {r}")
    return d
