"""Brute-force reference evaluator used by the test suite.

Straight-line re-derivation of every quantity the library computes, written
first and kept deliberately free of any import from the library so the two
sides cannot share a bug. Pure Python + math only; plain loops everywhere.
"""

import math
import re

# The largest interval a recording may hold.
MAX_INTERVAL = 1e150

# ASCII whitespace as str.split() takes it (\x1c-\x1f included), and commas.
SEPARATORS = re.compile(r"[\s\x1c-\x1f,]+", re.ASCII)


def reference_rr_file(path):
    """Scan an RR text file line by line, as the input format specifies.

    Returns (values, None), or (None, fault) for the first fault met:
    ("utf8", None, the decoder's reason) for text that is not UTF-8, or
    ("parse", line, token) / ("range", line, token) for a token that is not a
    number / a number outside (0, MAX_INTERVAL]. Lines starting with '#' after
    any whitespace are comments.
    """
    values = []
    with open(path, encoding="utf-8-sig") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if line.lstrip().startswith("#"):
                    continue
                # Only commas and ASCII whitespace separate tokens, on every line.
                for token in filter(None, SEPARATORS.split(line)):
                    # float() takes '_' and non-ASCII digits; a number may hold neither.
                    if "_" in token or not token.isascii():
                        return None, ("parse", lineno, token)
                    try:
                        value = float(token)
                    except ValueError:
                        return None, ("parse", lineno, token)
                    if not 0.0 < value <= MAX_INTERVAL:
                        return None, ("range", lineno, token)
                    values.append(value)
        except UnicodeDecodeError as exc:
            return None, ("utf8", None, exc.reason)
    return values, None


def reference_sodp(intervals):
    """(x, y) coordinate lists of the second-order difference plot."""
    xs = []
    ys = []
    for i in range(len(intervals) - 2):
        xs.append(intervals[i + 1] - intervals[i])
        ys.append(intervals[i + 2] - intervals[i + 1])
    return xs, ys


def reference_radius_counts(xs, ys, r):
    """(within, [q1, q2, q3, q4], on_axis) counts of points with distance < r."""
    within = 0
    quad = [0, 0, 0, 0]
    axis = 0
    for x, y in zip(xs, ys):
        if math.sqrt(x * x + y * y) < r:
            within += 1
            if x > 0 and y > 0:
                quad[0] += 1
            elif x < 0 and y > 0:
                quad[1] += 1
            elif x < 0 and y < 0:
                quad[2] += 1
            elif x > 0 and y < 0:
                quad[3] += 1
            else:
                axis += 1
    return within, quad, axis


def reference_ctm(xs, ys, r):
    within, _, _ = reference_radius_counts(xs, ys, r)
    return within / len(xs)


def reference_cctm(xs, ys, r):
    _, quad, _ = reference_radius_counts(xs, ys, r)
    n = len(xs)
    return [quad[0] / n, quad[1] / n, quad[2] / n, quad[3] / n]


def reference_mean_distance(xs, ys, r):
    """Mean distance of points strictly inside radius r, or None if none qualify."""
    total = 0.0
    count = 0
    for x, y in zip(xs, ys):
        d = math.sqrt(x * x + y * y)
        if d < r:
            total += d
            count += 1
    if count == 0:
        return None
    return total / count


def reference_tvm_coordinates(xs, ys):
    """Per-point (d_co, le, l, z) lists plus the mean Euclidean distance."""
    d_cos = []
    les = []
    for x, y in zip(xs, ys):
        d_cos.append(abs(y) - abs(x))
        les.append(math.sqrt(x * x + y * y))
    mean_le = sum(les) / len(les)
    ls = []
    zs = []
    for d_co, le in zip(d_cos, les):
        if mean_le == 0.0:
            l = 0.5
            z = 0.0
        else:
            l = 1.0 / (1.0 + math.exp(-le / mean_le))
            z = d_co * l
        ls.append(l)
        zs.append(z)
    return d_cos, les, mean_le, ls, zs


def reference_etv(xs, ys, zs, divisions):
    """Temporal variation entropy over the bounding-cuboid subspace grid.

    Equal-width half-open bins per axis, last bin closed so the maximum lands
    inside; an axis whose extent is zero collapses to a single bin.
    """
    m_total = len(xs)
    axes = []
    for values, requested in zip((xs, ys, zs), divisions):
        lo = min(values)
        hi = max(values)
        k = 1 if hi == lo else requested
        axes.append((lo, hi, k))

    counts = {}
    z_mass = {}
    for x, y, z in zip(xs, ys, zs):
        key = []
        for value, (lo, hi, k) in zip((x, y, z), axes):
            if k == 1:
                key.append(0)
            else:
                idx = int((value - lo) / (hi - lo) * k)
                if idx > k - 1:
                    idx = k - 1
                key.append(idx)
        key = tuple(key)
        counts[key] = counts.get(key, 0) + 1
        z_mass[key] = z_mass.get(key, 0.0) + abs(z)

    n_cells = axes[0][2] * axes[1][2] * axes[2][2]
    m_bar = m_total / n_cells
    entropy = 0.0
    for key, n_i in counts.items():
        p = abs(n_i - m_bar) / m_total
        if p == 0.0:
            continue
        entropy += n_i * z_mass[key] * p * (-math.log(p))
    return entropy


def reference_quadrant_etv(xs, ys, zs, divisions):
    """Per-quadrant E_TV; each quadrant is re-gridded over its own points."""
    out = []
    for quadrant in range(4):
        qx, qy, qz = [], [], []
        for x, y, z in zip(xs, ys, zs):
            if quadrant == 0 and x > 0 and y > 0:
                pass
            elif quadrant == 1 and x < 0 and y > 0:
                pass
            elif quadrant == 2 and x < 0 and y < 0:
                pass
            elif quadrant == 3 and x > 0 and y < 0:
                pass
            else:
                continue
            qx.append(x)
            qy.append(y)
            qz.append(z)
        if not qx:
            out.append(0.0)
        else:
            out.append(reference_etv(qx, qy, qz, divisions))
    return out


def reference_pipeline(intervals, divisions):
    """End-to-end reference: intervals -> (etv_global, [etv per quadrant])."""
    xs, ys = reference_sodp(intervals)
    _, _, _, _, zs = reference_tvm_coordinates(xs, ys)
    return reference_etv(xs, ys, zs, divisions), reference_quadrant_etv(xs, ys, zs, divisions)
