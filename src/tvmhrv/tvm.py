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

Every step takes consecutive point sets (the segments or recordings of a
batch, or the quadrants of one recording), each with its own mean_le,
cuboid and sums, so that many small sets share one vectorised pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterator, Sequence

import numpy as np

from .errors import EmptyInputError
from .sodp import PlotPoints, point_distances

DEFAULT_DIVISIONS = (10, 10, 10)
# The most divisions per axis: float64 holds every integer up to 2**53.
MAX_AXIS_DIVISIONS = 2**53
# The most points that several point sets are binned and scored together in
# (a larger set takes a batch of its own). Batches save the per-set call
# overhead; a batch of a whole group of recordings would raise peak memory.
BATCH_POINTS = 2048
# The most values handed to Python as floats at a time: a list of a whole
# 100k-point column would take 3.2 MB, four times the column.
CHUNK = 4096
# The fewest values that _fsums sums in vector passes: below, math.fsum one
# value at a time costs less than the passes' fixed cost (about 40 us).
VECTOR_SUMS = 1024


def batches(sizes: Sequence[int]) -> Iterator[tuple[int, int]]:
    """(first, stop) of each run of consecutive whole sets, in order.

    A run holds at most BATCH_POINTS points in all, or is one set that holds
    more on its own.
    """
    first = total = 0
    for i, n in enumerate(sizes):
        if total + n > BATCH_POINTS and i > first:
            yield first, i
            first, total = i, 0
        total += n
    if first < len(sizes):
        yield first, len(sizes)


def _set_sizes(sizes: Sequence[int] | None, n: int) -> np.ndarray:
    """sizes as an int64 array, checked to split n points into sets of one point or more.

    None is one set of all n points.
    """
    if sizes is None:
        return np.array([n])
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.ndim != 1 or sizes.size == 0 or sizes.min() < 1 or sizes.sum() != n:
        raise ValueError(f"set sizes must be >= 1 and add up to the {n} points")
    return sizes


def _per_point(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per-set values, one per point of each set; one set's broadcast as they are."""
    return values if sizes.size == 1 else np.repeat(values, sizes)


def _floats(values: np.ndarray) -> Iterator[float]:
    """The values of a 1-D array as Python floats, in order, CHUNK at a time."""
    return chain.from_iterable(values[i : i + CHUNK].tolist() for i in range(0, values.size, CHUNK))


def _fsums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """math.fsum of each consecutive run of sizes[k] values (sizes >= 0), bit for bit.

    fsum is correctly rounded, so any correctly rounded sum has its bits,
    whatever the order of the values. Per set of n values >= 0 (Rump, Ogita
    and Oishi, "Accurate floating-point summation", 2008):
    - sigma is a power of two above twice the set's float sum, so above its
      exact sum and every value, and each value v splits exactly into
      q = (sigma + v) - sigma, on the grid of 2**-52 sigma, and r = v - q,
      |r| <= 2**-53 sigma;
    - the q add up exactly in any order. The r add up to within
      n**2 sigma 2**-106 of their exact sum, or to it if n sigma is at most
      2**106 ulps of the set's least value, as every r lies on that grid;
    - the set's sum, q sum + r sum, stands if the r sum is exact, or if the
      q sum plus either end of the r sum's error interval rounds to it too
      (a filter in the manner of Shewchuk, 1997).
    Every other set is math.fsum's: one holding a value < 0, inf or NaN, one
    whose float sum is at most 2**-900 (all zeros too) or at least 2**1000,
    and one whose sum lies at or next to a rounding tie. The values are read CHUNK at a time.
    A call of fewer than VECTOR_SUMS values is all math.fsum's.
    """
    if values.size < VECTOR_SUMS:
        floats = iter(values.tolist())
        return np.array([math.fsum(islice(floats, k)) for k in sizes.tolist()])
    filled = np.flatnonzero(sizes)
    ends = np.cumsum(sizes)[filled]
    starts = ends - sizes[filled]
    n = sizes[filled].astype(np.float64)
    sums = np.zeros(sizes.size)
    # Sets with a value out of range give inf and NaN here, and then go to fsum.
    with np.errstate(all="ignore"):
        low = np.minimum.reduceat(values, starts)
        total = np.add.reduceat(values, starts)  # within n ulps of the exact sum
        sigma = np.spacing(total) * 2.0**54  # a power of two, 2 to 4 times total
        q_sums, r_sums = np.zeros(n.size), np.zeros(n.size)
        q_buf, r_buf = np.empty(CHUNK), np.empty(CHUNK)
        heads = np.arange(0, int(ends[-1]), CHUNK)
        tails = np.minimum(heads + CHUNK, ends[-1])
        # The sets that hold the first and the last value of each chunk.
        firsts = np.searchsorted(ends, heads, side="right").tolist()
        lasts = np.searchsorted(ends, tails, side="left").tolist()
        for a, b, s, t in zip(heads.tolist(), tails.tolist(), firsts, lasts):
            v, q, r = values[a:b], q_buf[: b - a], r_buf[: b - a]
            if s == t:
                sig, at = sigma[s], [0]
            else:  # where each of the chunk's sets starts and ends in it
                at, stop = starts[s : t + 1] - a, ends[s : t + 1] - a
                at[0], stop[-1] = 0, b - a
                sig = np.repeat(sigma[s : t + 1], stop - at)
            np.add(v, sig, out=q)
            q -= sig
            np.subtract(v, q, out=r)
            q_sums[s : t + 1] += np.add.reduceat(q, at)
            r_sums[s : t + 1] += np.add.reduceat(r, at)
        sums[filled] = q_sums + r_sums
        # Four times the error bound, so that the ends stay outside it as they round.
        bound = n * n * sigma * 2.0**-104
        ok = (low >= 0.0) & (total > 2.0**-900) & (total < 2.0**1000)
        ok &= (q_sums + (r_sums - bound) == q_sums + (r_sums + bound)) | (n * sigma * 2.0**-106 <= np.spacing(low))
    bad = np.flatnonzero(~ok)
    if bad.size:
        sums[filled[bad]] = [math.fsum(_floats(values[a:b])) for a, b in zip(starts[bad].tolist(), ends[bad].tolist())]
    return sums


@dataclass(frozen=True, eq=False)
class LiftedPoints:
    """Plot points lifted to three dimensions, as float64 columns.

    `base` holds x, y and the quadrant codes; l and z are aligned with it,
    and d_co and le are computed from it on each read. `sizes` counts the
    points of each consecutive set they were lifted in.
    """

    base: PlotPoints
    l: np.ndarray
    z: np.ndarray
    sizes: np.ndarray

    def __len__(self) -> int:
        return len(self.base)

    @property
    def d_co(self) -> np.ndarray:
        return np.abs(self.base.y) - np.abs(self.base.x)

    @property
    def le(self) -> np.ndarray:
        return point_distances(self.base)


@dataclass(frozen=True, eq=False)
class SubspaceGrid:
    """Bounding cuboids of consecutive point sets, each cut into equal-width subspaces.

    Per set s: `sizes[s]` points and the effective per-axis bin counts
    `divisions[s]` (an axis whose extent is zero collapses to a single bin
    whatever was requested). The occupied cells are three aligned columns,
    set by set (`occupied[s]` cells each) and in ascending cell order
    within a set: `cells` holds the C-order flat index of each cell's (ix,
    iy, iz) over its set's divisions, `counts` its point count and
    `abs_z_sums` the math.fsum of its points' |z|, which does not depend
    on their order. Empty cells are not stored; they still count toward
    `n_cells`.
    """

    sizes: np.ndarray
    divisions: np.ndarray
    occupied: np.ndarray
    cells: np.ndarray
    counts: np.ndarray
    abs_z_sums: np.ndarray

    @property
    def n_cells(self) -> int:
        """The cells of every set, empty ones included."""
        return sum(math.prod(k) for k in self.divisions.tolist())


def build_tvm_points(
    points: PlotPoints, sizes: Sequence[int] | None = None, quadrant: int | None = None
) -> LiftedPoints:
    """Lift plot points to 3-D; mean_le is computed once over each point set.

    sizes counts the points of consecutive sets (each >= 1); by default all
    points are one set. Given a quadrant code (0-3 for I-IV), only that
    quadrant's points are lifted, still with their whole set's mean_le, and
    the result holds them alone: its sizes count each set's points in the
    quadrant, 0 included.

    If every distance of a set is 0 (all points at the origin, or distances
    that underflow), its mean_le is 0: l is then 0.5 and z is 0 for all its
    points.
    """
    if len(points) == 0:
        raise EmptyInputError("need at least one plot point")
    sizes = _set_sizes(sizes, len(points))
    le = point_distances(points)
    mean_le = _fsums(le, sizes) / sizes
    if quadrant is not None:
        keep = points.code == quadrant
        sizes = np.add.reduceat(keep, np.cumsum(sizes) - sizes, dtype=np.int64)
        points = PlotPoints(x=points.x[keep], y=points.y[keep])
        le = le[keep]
    zero = mean_le == 0.0
    # -le / scale, in le's own buffer as le / -scale: division rounds alike for either sign.
    le /= _per_point(np.where(zero, -1.0, -mean_le), sizes)
    # Scalar math.exp, not np.exp: numpy's exp differs from libm by an ulp on
    # some inputs, and the exported l and z would change with it.
    l = np.fromiter(map(math.exp, _floats(le)), np.float64, le.size)
    del le
    l += 1.0
    np.divide(1.0, l, out=l)
    z = np.abs(points.y)
    z -= np.abs(points.x)  # d_co
    z *= l
    # Where mean_le is 0, every le is 0 and l is 0.5 already; d_co may not be 0 (squares underflow).
    if zero.any():
        np.copyto(z, 0.0, where=_per_point(zero, sizes))
    return LiftedPoints(base=points, l=l, z=z, sizes=sizes)


def check_divisions(divisions: Sequence[int]) -> tuple[int, int, int]:
    """divisions as a tuple of ints, if build_grid can bin by them; else ValueError."""
    # The range test comes first: int() of an inf or NaN raises an error of its own.
    if len(divisions) != 3 or any(not 1 <= d < math.inf or int(d) != d for d in divisions):
        raise ValueError(f"divisions must be three integers >= 1, got {divisions}")
    # The flat cell index is an int64 and each bin index is computed in float64.
    if math.prod(map(int, divisions)) >= 2**63:
        raise ValueError(f"divisions must give fewer than 2**63 cells, got {divisions}")
    if max(divisions) > MAX_AXIS_DIVISIONS:
        raise ValueError(f"divisions must be at most 2**53 per axis, got {divisions}")
    return tuple(map(int, divisions))


def build_grid(
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    divisions: tuple[int, int, int] = DEFAULT_DIVISIONS,
    sizes: Sequence[int] | None = None,
    rows: np.ndarray | None = None,
) -> SubspaceGrid:
    """Bin consecutive point sets, each into the cuboid spanned by its own extremes.

    x, y and z are aligned float64 arrays of one length; point i is
    (x[i], y[i], z[i]). rows, if given, is an index array that picks the
    points, in its order, and each axis is gathered through it in turn.
    sizes counts the points of each set in turn (each >= 1); by default all
    points are one set. Each cell's |z| sum is math.fsum's, from _fsums over
    the |z| in cell order.
    """
    n = z.size if rows is None else rows.size
    if n == 0:
        raise EmptyInputError("need at least one 3-D point")
    divisions = check_divisions(divisions)
    sizes = _set_sizes(sizes, n)
    starts = np.cumsum(sizes) - sizes

    # keys becomes each point's C-order flat cell index, one axis at a time,
    # in the narrowest type that holds every cell index (uint16 for 1,000
    # cells, which a stable sort radix-sorts). Every operand takes that type:
    # uint64 with int64 would make float64.
    key_type = np.min_scalar_type(math.prod(divisions) - 1)
    k, keys = [], np.zeros(n, dtype=key_type)
    scratch, index = np.empty(n), np.empty(n, dtype=key_type)
    for axis, requested in zip((x, y, z), divisions):
        values = axis if rows is None else axis[rows]
        lo, hi = np.minimum.reduceat(values, starts), np.maximum.reduceat(values, starts)
        # A set of zero extent on this axis takes one bin: its values all
        # equal lo, so a span of 1 puts them in bin 0.
        flat = hi == lo
        span = np.where(flat, 1.0, hi - lo)
        # Half-open equal-width bins; the clamp closes the last bin at the top.
        # Clamped before the cast, so that the top bin's index fits the type.
        np.subtract(values, _per_point(lo, sizes), out=scratch)
        scratch /= _per_point(span, sizes)
        scratch *= requested
        np.minimum(scratch, requested - 1, out=scratch)
        np.copyto(index, scratch, casting="unsafe")  # truncates, as astype(np.int64) does
        k.append(np.where(flat, 1, requested))
        keys *= _per_point(k[-1].astype(key_type), sizes)
        keys += index
    del scratch, index
    divisions = np.array(k).T
    order = np.argsort(keys, kind="stable")
    if sizes.size > 1:
        # Then by set, stably: each set keeps its place, its points in cell order.
        set_of = np.repeat(np.arange(sizes.size, dtype=np.min_scalar_type(sizes.size - 1)), sizes)
        order = order[np.argsort(set_of[order], kind="stable")]
    keys = keys[order]
    abs_z = values[order]  # values holds z's points now
    del order, values
    np.abs(abs_z, out=abs_z)
    # Each run of equal keys within a set is one occupied cell.
    first = np.ones(n, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    first[starts] = True
    cell_starts = np.flatnonzero(first)
    counts = np.diff(cell_starts, append=n)
    cells = keys[cell_starts].astype(np.int64)
    del keys
    # Each cell's run of |z| in one call, one-point cells too: their sum is their value.
    abs_z_sums = _fsums(abs_z, counts)
    return SubspaceGrid(
        sizes=sizes,
        divisions=divisions,
        occupied=np.add.reduceat(first, starts, dtype=np.int64),
        cells=cells,
        counts=counts,
        abs_z_sums=abs_z_sums,
    )


def temporal_variation_entropy(grid: SubspaceGrid) -> list[float]:
    """E_TV of each point set of a grid; natural log, 0*log(0) terms contribute nothing."""
    sizes = grid.sizes.tolist()
    if min(sizes, default=0) < 1:
        raise EmptyInputError("grid holds a set of no points")
    # m_total / n_cells per set in Python ints: a cell count above 2**53 is
    # not exact as a float.
    m_bar = [m / math.prod(k) for m, k in zip(sizes, grid.divisions.tolist())]
    cell_set = np.repeat(np.arange(len(sizes)), grid.occupied)
    p = np.abs(grid.counts - np.array(m_bar)[cell_set]) / grid.sizes[cell_set]
    live = p != 0.0
    p = p[live]
    log_p = np.fromiter(map(math.log, _floats(p)), np.float64, p.size)
    terms = grid.counts[live] * grid.abs_z_sums[live] * p * -log_p
    return _fsums(terms, np.bincount(cell_set[live], minlength=len(sizes))).tolist()


def etv_of_sets(
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    sizes: Sequence[int],
    divisions: tuple[int, int, int] = DEFAULT_DIVISIONS,
    order: np.ndarray | None = None,
) -> list[float]:
    """E_TV of consecutive point sets, each over the grid of its own cuboid.

    x, y and z are aligned float64 arrays whose points lie set by set, or
    in the order of the index array order if given; sizes counts each
    set's points. An empty set's E_TV is 0. The other sets go through
    build_grid and temporal_variation_entropy together, a batch of them at
    a time, as batches() groups them.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.sum() != (z.size if order is None else order.size):
        raise ValueError("set sizes must add up to the points")
    filled = sizes[sizes > 0]
    ends = np.cumsum(filled).tolist()
    values = []
    for first, stop in batches(filled.tolist()):
        i, j = ends[first] - int(filled[first]), ends[stop - 1]
        if order is None:  # views of the batch's points
            grid = build_grid(x[i:j], y[i:j], z[i:j], divisions, filled[first:stop])
        else:
            grid = build_grid(x, y, z, divisions, filled[first:stop], order[i:j])
        values += temporal_variation_entropy(grid)
    filled_values = iter(values)
    return [next(filled_values) if n else 0.0 for n in sizes.tolist()]


def quadrant_etv(
    points: PlotPoints, z: np.ndarray, divisions: tuple[int, int, int] = DEFAULT_DIVISIONS
) -> tuple[float, float, float, float]:
    """E_TV of quadrants I-IV, each over a fresh grid spanning only that quadrant.

    points are the plot points of one set and z their lifted coordinate.
    The sigmoid scale l keeps its global mean_le; only the spatial filtering
    and bounding box are quadrant-local. An empty quadrant reports 0. One
    stable sort by code lines the quadrants up for etv_of_sets to score.
    """
    if len(points) == 0:
        raise EmptyInputError("need at least one 3-D point")
    counts = np.bincount(points.code, minlength=5)
    order = np.argsort(points.code, kind="stable")[: len(points) - counts[4]]
    return tuple(etv_of_sets(points.x, points.y, z, counts[:4], divisions, order))
