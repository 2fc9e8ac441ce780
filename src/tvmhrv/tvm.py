"""Three-dimensional second-order difference plot and its entropy indicator.

Each plot point gains a third coordinate fusing two views of the local RR
dynamics: d_co = |y| - |x| (is the change accelerating toward the vertical
or the horizontal axis?) and a sigmoid-scaled Euclidean distance

    le = sqrt(x^2 + y^2)
    l  = 1 / (1 + exp(-le / mean_le))        # in [0.5, 1); rounds to 1
                                             # once le > ~37 mean_le
    z  = d_co * l

where mean_le is taken over the whole point set. The cuboid spanned by the
per-axis extremes of (x, y, z) is cut into equal subspaces and the temporal
variation entropy sums, over subspaces,

    n_i * (sum of |z| in the cell) * p_i * (-ln p_i),   p_i = |n_i - m| / M

with m = M / N the average occupancy over all N cells (empty ones included)
and the usual 0*log(0) = 0 convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyInputError
from .sodp import PlotPoints, point_distances

DEFAULT_DIVISIONS = (10, 10, 10)
# The most divisions per axis: float64 holds every integer up to 2**53.
MAX_AXIS_DIVISIONS = 2**53


@dataclass(frozen=True, eq=False)
class LiftedPoints:
    """Plot points lifted to three dimensions, as float64 columns.

    `base` holds x, y and the quadrant codes; d_co, le, l and z are aligned
    with it point by point.
    """

    base: PlotPoints
    d_co: np.ndarray
    le: np.ndarray
    l: np.ndarray
    z: np.ndarray

    def __len__(self) -> int:
        return len(self.base)


@dataclass(frozen=True, eq=False)
class SubspaceGrid:
    """Bounding cuboid of a point set, cut into equal-width subspaces.

    `divisions` are the effective per-axis bin counts: an axis whose extent
    is zero collapses to a single bin whatever was requested. The occupied
    cells are three aligned columns in ascending cell order: `cells` holds
    the C-order flat index of each cell's (ix, iy, iz) over `divisions`,
    `counts` its point count and `abs_z_sums` the sum of its points' |z|.
    Empty cells are not stored; they still count toward `n_cells`.
    """

    bounds: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]
    divisions: tuple[int, int, int]
    cells: np.ndarray
    counts: np.ndarray
    abs_z_sums: np.ndarray
    total_points: int

    @property
    def n_cells(self) -> int:
        nx, ny, nz = self.divisions
        return nx * ny * nz


def build_tvm_points(points: PlotPoints) -> LiftedPoints:
    """Lift plot points to 3-D; mean_le is computed once over all inputs.

    If every distance is 0 (all points at the origin, or distances that
    underflow), mean_le is 0: l is then 0.5 and z is 0 for all points.
    """
    if len(points) == 0:
        raise EmptyInputError("need at least one plot point")
    d_co = np.abs(points.y) - np.abs(points.x)
    le = point_distances(points)
    # fsum is correctly rounded, so mean_le does not depend on point order.
    mean_le = math.fsum(le.tolist()) / le.size
    if mean_le == 0.0:
        l = np.full(le.size, 0.5)
        z = np.zeros(le.size)
    else:
        # Scalar math.exp, not np.exp: numpy's exp differs from libm by an ulp
        # on some inputs, and the exported l and z would change with it.
        e = np.fromiter(map(math.exp, (-le / mean_le).tolist()), np.float64, le.size)
        l = 1.0 / (1.0 + e)
        z = d_co * l
    return LiftedPoints(base=points, d_co=d_co, le=le, l=l, z=z)


def _axis_index(
    values: np.ndarray, requested: int
) -> tuple[tuple[float, float], int, np.ndarray]:
    """(lo, hi) bounds, effective bin count and bin index of each value."""
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return (lo, hi), 1, np.zeros(values.size, dtype=np.int64)
    # Half-open equal-width bins; the clamp closes the last bin at the top.
    index = ((values - lo) / (hi - lo) * requested).astype(np.int64)
    return (lo, hi), requested, np.minimum(index, requested - 1)


def build_grid(
    x: np.ndarray, y: np.ndarray, z: np.ndarray, divisions: tuple[int, int, int] = DEFAULT_DIVISIONS
) -> SubspaceGrid:
    """Bin the points (x[i], y[i], z[i]) into the cuboid spanned by their extremes.

    x, y and z are aligned float64 arrays of one length.
    """
    if z.size == 0:
        raise EmptyInputError("need at least one 3-D point")
    for d in divisions:
        if int(d) != d or d < 1:
            raise ValueError(f"divisions must be integers >= 1, got {divisions}")
    # Each bin index is computed in float64 and the flat cell index is an int64.
    if max(divisions) > MAX_AXIS_DIVISIONS or math.prod(map(int, divisions)) >= 2**63:
        raise ValueError(
            f"divisions must be at most 2**53 per axis and give fewer than 2**63 cells, "
            f"got {divisions}"
        )

    bounds, k, index = zip(*(_axis_index(v, int(d)) for v, d in zip((x, y, z), divisions)))
    keys = np.ravel_multi_index(index, k)
    # A stable sort's order is fully determined, so sorting the keys in the
    # narrowest type that holds them (uint16 for 1,000 cells, which numpy
    # radix-sorts) gives the same order as sorting them as int64.
    order = np.argsort(keys.astype(np.min_scalar_type(math.prod(k) - 1)), kind="stable")
    keys = keys[order]
    # Each run of equal keys is one occupied cell; edges bound the runs.
    edges = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), keys.size]
    abs_z = np.abs(z[order]).tolist()
    return SubspaceGrid(
        bounds=bounds,
        divisions=k,
        cells=keys[edges[:-1]],
        counts=np.diff(edges),
        # fsum is correctly rounded, so cell sums do not depend on point order.
        abs_z_sums=np.array([math.fsum(abs_z[i:j]) for i, j in zip(edges, edges[1:])]),
        total_points=z.size,
    )


def temporal_variation_entropy(grid: SubspaceGrid) -> float:
    """E_TV of a grid; natural log, 0*log(0) terms contribute nothing."""
    if grid.total_points < 1:
        raise EmptyInputError("grid holds no points")
    m_total = grid.total_points
    m_bar = m_total / grid.n_cells
    terms = []
    for count, abs_z_sum in zip(grid.counts.tolist(), grid.abs_z_sums.tolist(), strict=True):
        p = abs(count - m_bar) / m_total
        if p == 0.0:
            continue
        terms.append(count * abs_z_sum * p * (-math.log(p)))
    # fsum is correctly rounded, so the terms' order does not matter.
    return math.fsum(terms)


def quadrant_etv(
    points: LiftedPoints,
    divisions: tuple[int, int, int] = DEFAULT_DIVISIONS,
    quadrants: Sequence[int] = range(4),
    empty: list[int] | None = None,
) -> tuple[float, ...]:
    """E_TV per quadrant, each over a fresh grid spanning only that quadrant.

    The sigmoid scale l keeps its global mean_le; only the spatial filtering
    and bounding box are quadrant-local. An empty quadrant reports 0.

    quadrants names the quadrants to compute by code (0-3 for I-IV), and the
    result holds theirs in that order; by default all four. The codes of the
    empty ones among them are appended to empty if given.
    """
    if len(points) == 0:
        raise EmptyInputError("need at least one 3-D point")
    x, y, z = points.base.x, points.base.y, points.z
    out = []
    for code in quadrants:
        m = points.base.code == code
        if m.any():
            out.append(temporal_variation_entropy(build_grid(x[m], y[m], z[m], divisions)))
        else:
            out.append(0.0)
            if empty is not None:
                empty.append(code)
    return tuple(out)
