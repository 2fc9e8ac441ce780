"""Per-recording indicator reports, radius sweeps, group statistics, and the
CSV/JSON writer that every output goes through."""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import EmptyInputError
from .series import RRSeries
from .sodp import RadiusCounts, check_radius, radius_census, second_order_diff
from .tvm import (
    DEFAULT_DIVISIONS,
    batches,
    build_tvm_points,
    check_divisions,
    etv_of_sets,
    quadrant_etv,
)

RADIUS_INDICATORS = ("ctm", "d", "cctm1", "cctm2", "cctm3", "cctm4")
ENTROPY_INDICATORS = ("etv_global", "etv1", "etv2", "etv3", "etv4")
ALL_INDICATORS = RADIUS_INDICATORS + ENTROPY_INDICATORS

# All emitted numbers are fixed at 9 significant digits for byte-stable files.
def format_value(v: float) -> str:
    return format(v, ".9g")


def round_sig(v: float) -> float:
    """Round to the float nearest the 9-significant-digit decimal."""
    return float(format_value(v))


@contextmanager
def _output(path):
    """Stdout for None; otherwise a file that appears at path only once written in full.

    The text goes to a temporary file beside path that then replaces it, so
    a failed write leaves no partial file and an existing one as it was. A
    symbolic link, device or pipe at path is written through in place. An
    OSError names path: a write's names no file, and the temporary file is
    not the one asked for.
    """
    if path is None:
        yield sys.stdout
        return
    path = Path(path)
    in_place = path.is_symlink() or (path.exists() and not path.is_file())
    target = path if in_place else path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with target.open("w", newline="") as fh:
            yield fh
        if not in_place:
            if path.exists():
                shutil.copymode(path, target)  # opening path for writing would keep its mode
            os.replace(target, path)
    except BaseException as exc:
        if not in_place:
            with suppress(OSError):  # a failed cleanup must not replace the error it follows
                target.unlink()
        if isinstance(exc, OSError) and exc.filename in (None, str(target)):
            exc.filename = str(path)
        raise


# Rows of array columns that the writers format at a time.
BLOCK_ROWS = 2048


def _csv_row(row: Sequence) -> list:
    return [
        format_value(float(v)) if isinstance(v, (float, np.floating)) else "" if v is None else v
        for v in row
    ]


def _of_width(rows: Iterable[Sequence], width: int) -> Iterator[Sequence]:
    for i, row in enumerate(rows, 1):
        if len(row) != width:
            raise ValueError(f"row {i} has {len(row)} fields under a header of {width}")
        yield row


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence] = (), columns=None) -> None:
    """Write a header and rows of raw values as CSV to path, or stdout if None.

    Floats, numpy's included, go through format_value, None becomes an empty
    field and anything else is written as it is. Rows are formatted one at a
    time, so a generator is never materialized. A row whose width is not the
    header's raises ValueError naming it; a file at path is then left absent
    or as it was, but on stdout the rows before it stay printed.

    columns, if given in place of rows, are 1-D numpy arrays of ints >= 0 or
    float64 and (codes, labels) pairs, one per header name and all of one
    length, as coltext.Rows takes them; it raises TypeError or ValueError
    for anything else before path is opened. Their rows go out BLOCK_ROWS at
    a time, the floats that Rows declines through format_value. The text is
    what csv.writer writes.
    """
    if columns is not None:
        from .coltext import Rows  # here, so that only column writes build its tables
        block_text = Rows(
            columns, ["," if j else "" for j in range(len(header))], "\n", format_value, json=False
        )
    with _output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if columns is None:
            writer.writerows(map(_csv_row, _of_width(rows, len(header))))
            return
        for start in range(0, block_text.n, BLOCK_ROWS):
            fh.write(block_text(start, min(start + BLOCK_ROWS, block_text.n)))


def _round_floats(node) -> None:
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, v in items:
        if isinstance(v, float):
            node[key] = round_sig(v)
        elif isinstance(v, tuple):
            node[key] = v = list(v)
            _round_floats(v)
        elif isinstance(v, (dict, list)):
            _round_floats(v)


def _json_scalar(v: float) -> str:
    return json.dumps(round_sig(v))


def _records_json(text: str, records) -> Iterator[str]:
    """text, a payload's JSON whose last value is [], with the coltext.Rows records in that list.

    The records come BLOCK_ROWS to a chunk.
    """
    n = records.n
    blocks = (records(i, min(i + BLOCK_ROWS, n)) for i in range(0, n, BLOCK_ROWS))
    first = next(blocks, None)
    if first is None:
        yield text
        return
    yield text[:-3]  # text ends in "[]\n}"
    yield first[1:]  # the first record takes no comma
    yield from blocks
    yield "\n  ]\n}"


def write_json(path, payload: dict | list, records=None) -> None:
    """Write payload as indented JSON to path, or stdout if None.

    Every float in it goes through round_sig; ints, strings and None are
    written as they are. The rounding happens in place (tuples become
    lists), so pass a payload built for this call, not one shared with a
    result object. The payload is formatted whole by json.

    records, if given, is (header, columns) and payload a dict without the
    key "points". The file is then that of payload with "points" added
    last, holding one object per row of the columns, which maps each header
    name to the row's value. The columns follow write_csv's rule, checked
    before path is opened. The records are formatted BLOCK_ROWS at a time,
    straight from the columns, by coltext.Rows with json's text of each
    value: the floats it declines go through _json_scalar.
    """
    if records is None:
        _round_floats(payload)
        chunks = [json.dumps(payload, indent=2)]
    else:
        if "points" in payload:
            raise ValueError("records key 'points' is also a key of the payload")
        header, columns = records
        before = [
            (",\n      " if j else ",\n    {\n      ") + encode_basestring_ascii(name) + ": "
            for j, name in enumerate(header)
        ]
        from .coltext import Rows  # here, so that only column writes build its tables
        rows = Rows(columns, before, "\n    }", _json_scalar, json=True)
        head = {**payload, "points": []}
        _round_floats(head)
        chunks = _records_json(json.dumps(head, indent=2), rows)
    with _output(path) as fh:
        for chunk in chunks:
            fh.write(chunk)
        fh.write("\n")


@dataclass(frozen=True)
class IndicatorParams:
    """Radii and grid divisions behind one report; defaults follow r=3 / r=6."""

    r_ctm: float = 3.0
    r_d: float = 6.0
    divisions: tuple[int, int, int] = DEFAULT_DIVISIONS

    def __post_init__(self):
        check_radius(self.r_ctm)
        check_radius(self.r_d)
        object.__setattr__(self, "divisions", check_divisions(self.divisions))


@dataclass(frozen=True)
class IndicatorReport:
    """Every scalar indicator of one recording."""

    source_id: str
    ctm: float
    cctm: tuple[float, float, float, float]
    d: float | None
    etv_global: float
    etv_quadrant: tuple[float, float, float, float]
    # Points per quadrant I-IV; an empty quadrant's E_TV is reported as 0.
    quadrant_points: tuple[int, int, int, int]


def report(series: RRSeries, params: IndicatorParams = IndicatorParams()) -> IndicatorReport:
    """Compute all indicators of one recording."""
    points = second_order_diff(series)
    near, far = radius_census(points, (params.r_ctm, params.r_d))
    z = build_tvm_points(points).z  # the grids bin z alone, so l goes at once
    return IndicatorReport(
        source_id=series.source_id,
        ctm=near.ctm,
        cctm=near.cctm,
        d=far.d,
        etv_global=etv_of_sets(points.x, points.y, z, [len(points)], params.divisions)[0],
        etv_quadrant=quadrant_etv(points, z, params.divisions),
        quadrant_points=tuple(np.bincount(points.code, minlength=5)[:4].tolist()),
    )


def indicator_of(
    recordings: Sequence[RRSeries],
    indicator: str,
    params: IndicatorParams = IndicatorParams(),
    empty: list[RRSeries] | None = None,
) -> list[float | None]:
    """One named indicator of each recording, computing only what it needs.

    Each value is indicator_value(report(rec, params), indicator), bit for
    bit: a radius indicator takes the census at its one radius, etv_global
    the global grid and etvN the grid of quadrant N alone, whose points
    alone are lifted. The E_TVs of consecutive recordings are computed
    together, up to tvm.BATCH_POINTS points at a time (tvm.batches). Under
    etvN, each recording whose quadrant N has no point is appended to empty
    if given, its E_TV then being 0.
    """
    _check_indicator(indicator)
    if indicator in RADIUS_INDICATORS:
        r = params.r_d if indicator == "d" else params.r_ctm
        return [
            indicator_value(radius_census(second_order_diff(rec), (r,))[0], indicator)
            for rec in recordings
        ]
    quadrant = None if indicator == "etv_global" else int(indicator[3:]) - 1
    sizes = [len(rec) - 2 for rec in recordings]
    values = []
    for first, stop in batches(sizes):
        batch = recordings[first:stop]
        lifted = build_tvm_points(second_order_diff(*batch), sizes[first:stop], quadrant)
        base = lifted.base
        values += etv_of_sets(base.x, base.y, lifted.z, lifted.sizes, params.divisions)
        if empty is not None:
            empty += [rec for rec, n in zip(batch, lifted.sizes.tolist()) if n == 0]
    return values


def _check_indicator(indicator: str) -> None:
    if indicator not in ALL_INDICATORS:
        raise ValueError(f"unknown indicator {indicator!r}; expected one of {ALL_INDICATORS}")


def indicator_value(rep: IndicatorReport | RadiusCounts, indicator: str) -> float | None:
    """One named indicator of a report, or a radius indicator of a RadiusCounts."""
    _check_indicator(indicator)
    if indicator == "ctm":
        return rep.ctm
    if indicator == "d":
        return rep.d
    if indicator == "etv_global":
        return rep.etv_global
    if indicator.startswith("cctm"):
        return rep.cctm[int(indicator[4:]) - 1]
    return rep.etv_quadrant[int(indicator[3:]) - 1]


def sweep_r(
    recordings: Iterable[RRSeries],
    indicator: str,
    r_values: Sequence[float],
) -> tuple[float | None, ...]:
    """Mean indicator value over one group's recordings at each radius of an ascending grid.

    recordings is any iterable, read once after the arguments are checked.
    Each mean is np.mean of the values in source_id order; it is None where
    no recording has a value at that radius (e.g. D with no point inside r).
    """
    r_values = tuple(float(r) for r in r_values)
    if not r_values:
        raise ValueError("r_values must be non-empty")
    if any(b <= a for a, b in zip(r_values, r_values[1:])):
        raise ValueError(f"r_values must be strictly ascending, got {r_values}")
    if indicator not in RADIUS_INDICATORS:
        raise ValueError(
            f"unknown radius indicator {indicator!r}; expected one of {RADIUS_INDICATORS}"
        )

    def swept(rec: RRSeries) -> tuple[str, list[float | None]]:
        census = radius_census(second_order_diff(rec), r_values)
        return rec.source_id, [indicator_value(counts, indicator) for counts in census]

    # map holds no recording while the next one is read.
    per_recording = sorted(map(swept, recordings), key=lambda pair: pair[0])
    if not per_recording:
        raise EmptyInputError("need at least one recording")
    row = []
    for at_r in zip(*(by_radius for _, by_radius in per_recording)):
        values = [v for v in at_r if v is not None]
        row.append(float(np.mean(values)) if values else None)
    return tuple(row)


@dataclass(frozen=True)
class SummaryStats:
    """Five-number summary plus mean/std and the raw per-recording values."""

    n: int
    mean: float
    std: float
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    values: tuple[float, ...] = field(repr=False)


def summarize(values: Sequence[float]) -> SummaryStats:
    """Sample statistics: n-1 std (0 for a single value), linear quartiles."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise EmptyInputError("cannot summarize zero values")
    q1, median, q3 = np.percentile(arr, (25.0, 50.0, 75.0))
    # Summation rounding can push the raw mean an ulp past the extremes.
    mean = min(max(float(np.mean(arr)), float(arr.min())), float(arr.max()))
    return SummaryStats(
        n=int(arr.size),
        mean=mean,
        std=float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        maximum=float(arr.max()),
        values=tuple(float(v) for v in arr),
    )


def summarize_reports(name: str, reports: Sequence[IndicatorReport]) -> dict[str, SummaryStats]:
    """Summarize every indicator across the reports of the group called name.

    The reports should share one IndicatorParams. They are taken in
    source_id order, so the result does not depend on the order they come
    in. Reports whose D is absent are left out of the D statistics; an
    indicator with no values at all is omitted from the result.
    """
    if not reports:
        raise EmptyInputError(f"dataset group {name!r} has no recordings")
    reports = sorted(reports, key=lambda rep: rep.source_id)
    stats = {}
    for indicator in ALL_INDICATORS:
        values = [v for rep in reports if (v := indicator_value(rep, indicator)) is not None]
        if values:
            stats[indicator] = summarize(values)
    return stats
