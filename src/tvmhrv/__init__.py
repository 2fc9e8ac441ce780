"""Temporal variation measure analysis of RR-interval series.

Second-order difference plot indicators (CTM, CCTM, D), the 3-D plot with
its temporal variation entropy, deterministic k-means/RI evaluation, and
batch analysis helpers.
"""

import logging

from .analysis import (
    ALL_INDICATORS,
    RADIUS_INDICATORS,
    IndicatorParams,
    IndicatorReport,
    SummaryStats,
    indicator_of,
    indicator_value,
    report,
    summarize,
    summarize_reports,
    sweep_r,
)
from .cluster import (
    KMeansResult,
    kmeans_1d,
    pairwise_classify,
    rand_accuracy,
)
from .errors import (
    DistinctValuesError,
    EmptyDirectoryError,
    EmptyInputError,
    NoPointInRadiusError,
    RRParseError,
    RRValidationError,
    TooShortSeriesError,
    TvmhrvError,
)
from .series import (
    RRSeries,
    load_dataset_group,
    load_recordings,
    load_rr_series,
    split_segments,
)
from .sodp import (
    QUADRANTS,
    PlotPoints,
    RadiusCounts,
    mean_distance_d,
    point_distances,
    radius_census,
    radius_counts,
    second_order_diff,
)
from .tvm import (
    DEFAULT_DIVISIONS,
    LiftedPoints,
    SubspaceGrid,
    build_grid,
    build_tvm_points,
    etv_of_sets,
    quadrant_etv,
    temporal_variation_entropy,
)

__version__ = "0.1.0"

# Warnings go to the "tvmhrv" logger; the library prints nothing unless the
# application (the CLI, for one) gives that logger a handler.
logging.getLogger(__name__).addHandler(logging.NullHandler())
