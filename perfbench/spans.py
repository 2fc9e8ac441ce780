"""Span records, the layer map, and the per-layer metrics derived from spans.

A span is one call of a traced package function: its name
(`<module>.<function>`), start and end in nanoseconds, the index of the
enclosing span (-1 for none) and the work counts taken at that boundary.
This module is the one place that knows which functions are traced and
which metric each feeds; `child.py` installs the wrappers and `run.py`
turns the recorded spans into metrics.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int
    counts: dict


# Functions wrapped in the traced run, by module of the package.
TRACED = {
    "series": ("load_rr_series", "load_dataset_group", "split_segments"),
    "sodp": ("second_order_diff", "radius_counts", "mean_distance_d", "point_distances"),
    "tvm": ("build_tvm_points", "build_grid", "temporal_variation_entropy", "quadrant_etv"),
    "analysis": ("report", "sweep_r"),
    "cluster": ("kmeans_1d", "rand_accuracy"),
    "cli": ("main",),
}

# Work counts taken from a traced call's arguments and result.
COUNTERS = {
    "series.load_rr_series": lambda args, res: {"intervals": len(res)},
    "sodp.second_order_diff": lambda args, res: {"points": len(res)},
    "tvm.build_grid": lambda args, res: {
        "cells_occupied": len(res.cells),
        "cells_total": res.n_cells,
    },
    "cluster.kmeans_1d": lambda args, res: {
        "iterations": res.iterations,
        "features": len(args[0]),
    },
}

# Layer time metric -> spans whose self times it sums.
LAYER_TIMES = {
    "series.load_s": ("series.load_rr_series", "series.load_dataset_group"),
    "series.segment_s": ("series.split_segments",),
    "sodp.points_s": ("sodp.second_order_diff",),
    # point_distances is the radius step of mean_distance_d and of sweep_r.
    "sodp.radius_s": ("sodp.radius_counts", "sodp.mean_distance_d", "sodp.point_distances"),
    "tvm.lift_s": ("tvm.build_tvm_points",),
    "tvm.grid_s": ("tvm.build_grid",),
    "tvm.etv_s": ("tvm.temporal_variation_entropy",),
    "tvm.quadrant_s": ("tvm.quadrant_etv",),
    "analysis.report_self_s": ("analysis.report",),
    "analysis.sweep_s": ("analysis.sweep_r",),
    "cluster.kmeans_s": ("cluster.kmeans_1d", "cluster.rand_accuracy"),
    "cli.self_s": ("cli.main",),
}

# Layer count metric -> (span name, counter key); key None counts the spans.
LAYER_COUNTS = {
    "series.intervals": ("series.load_rr_series", "intervals"),
    "sodp.points": ("sodp.second_order_diff", "points"),
    "tvm.grids": ("tvm.build_grid", None),
    "tvm.cells_occupied": ("tvm.build_grid", "cells_occupied"),
    "tvm.cells_total": ("tvm.build_grid", "cells_total"),
    "analysis.reports": ("analysis.report", None),
    "cluster.iterations": ("cluster.kmeans_1d", "iterations"),
    "cluster.features": ("cluster.kmeans_1d", "features"),
}


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0
        reach = span.start
        for child in sorted(children[i], key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append(span.end - span.start - covered)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self times in seconds and work counts of one traced run."""
    self_ns = defaultdict(int)
    for span, ns in zip(spans, self_times(spans)):
        self_ns[span.name] += ns
    metrics = {
        metric: sum(self_ns[name] for name in names) / 1e9
        for metric, names in LAYER_TIMES.items()
    }
    for metric, (name, key) in LAYER_COUNTS.items():
        metrics[metric] = sum(
            1 if key is None else s.counts[key] for s in spans if s.name == name
        )
    return metrics
