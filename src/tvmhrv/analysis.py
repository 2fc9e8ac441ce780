"""Per-recording indicator reports, radius sweeps, group statistics, and the
CSV/JSON writer that every output goes through."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import shutil
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import EmptyInputError
from .series import RRSeries
from .sodp import RadiusCounts, radius_census, second_order_diff
from .tvm import (
    DEFAULT_DIVISIONS,
    LiftedPoints,
    build_grid,
    build_tvm_points,
    quadrant_etv,
    temporal_variation_entropy,
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
    symbolic link, device or pipe at path is written through in place.
    """
    if path is None:
        yield sys.stdout
        return
    path = Path(path)
    if path.is_symlink() or (path.exists() and not path.is_file()):
        with path.open("w", newline="") as fh:
            yield fh
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", newline="") as fh:
            yield fh
        if path.exists():
            shutil.copymode(path, tmp)  # opening path for writing would keep its mode
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            exc.filename = str(path)  # name the file asked for, not the temporary one
        raise


# Rows of array columns that the writers format with one `%` at a time.
BLOCK_ROWS = 8192


def _column_slots(header: Sequence[str], columns: Sequence[np.ndarray]) -> list[str]:
    """Each column's % slot; the columns must be aligned 1-D int, float64 or str arrays.

    Raises TypeError for any other column, and ValueError unless there is one
    header name per column and every column has the same length.
    """
    slots = []
    for j, col in enumerate(columns):
        kind = col.dtype.kind if isinstance(col, np.ndarray) and col.ndim == 1 else None
        if kind in ("i", "u"):
            slots.append("%d")
        elif kind == "f" and col.dtype == np.float64:
            slots.append("%.9g")
        elif kind == "U":
            slots.append("%s")
        else:
            what = type(col).__name__
            if isinstance(col, np.ndarray):
                what = f"{col.ndim}-D {col.dtype} array"
            raise TypeError(
                f"columns must be 1-D numpy arrays of ints, float64 or str; column {j} is a {what}"
            )
    if len(header) != len(columns):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    lengths = sorted({len(col) for col in columns})
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal length: {lengths}")
    return slots


def _blocks(columns: Sequence[np.ndarray]) -> Iterator[tuple[int, int]]:
    """(start, stop) of each block of up to BLOCK_ROWS rows of aligned columns."""
    n = len(columns[0]) if columns else 0
    for start in range(0, n, BLOCK_ROWS):
        yield start, min(start + BLOCK_ROWS, n)


def _interleave(values: list[list]) -> list:
    """The rows of aligned equal-length columns, flattened row by row."""
    k = len(values)
    flat = [None] * (k * len(values[0]))
    for j, column in enumerate(values):
        flat[j::k] = column
    return flat


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


def _csv_plain(strings: Iterable[str], width: int) -> bool:
    """Whether csv.writer writes each string as it is, as a field of a row of width fields."""
    rows = [[s] * width for s in strings]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue() == "".join(",".join(row) + "\n" for row in rows)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence] = (), columns=None) -> None:
    """Write a header and rows of raw values as CSV to path, or stdout if None.

    Floats, numpy's included, go through format_value, None becomes an empty
    field and anything else is written as it is. Rows are formatted one at a
    time, so a generator is never materialized. A row whose width is not the
    header's raises ValueError naming it; a file at path is then left absent
    or as it was, but on stdout the rows before it stay printed.

    columns, if given in place of rows, are 1-D numpy arrays of ints, float64
    or str, one per header name and all of one length; anything else raises
    TypeError or ValueError before path is opened. Their rows go out
    BLOCK_ROWS at a time, each block through one `%` of a repeated row
    template: '%.9g' % v is format_value's conversion. A block holding a
    string that CSV must quote is written row by row instead. Either way the
    text is what csv.writer writes.
    """
    slots = None if columns is None else _column_slots(header, columns)
    with _output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if slots is None:
            writer.writerows(map(_csv_row, _of_width(rows, len(header))))
            return
        template = ",".join(slots) + "\n"
        str_columns = [j for j, slot in enumerate(slots) if slot == "%s"]
        for start, stop in _blocks(columns):
            values = [col[start:stop].tolist() for col in columns]
            if _csv_plain(set().union(*(values[j] for j in str_columns)), len(slots)):
                fh.write(template * (stop - start) % tuple(_interleave(values)))
            else:
                writer.writerows(map(_csv_row, zip(*values)))


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
    """The text json gives round_sig(v)."""
    v = round_sig(v)
    if math.isfinite(v):
        return float.__repr__(v)
    return "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"


# A float's JSON slot by the kind _json_kinds gives it.
_JSON_FLOAT_SLOTS = np.array(["%.9g", "%.1f", "%s"], dtype=object)


def _json_kinds(v: np.ndarray) -> np.ndarray:
    """Per value: 0 where '%.9g' % v is v's JSON text, 1 where '%.1f' % v is, else 2.

    1 is an integral |v| < 1e9. 2 is every other value whose 9-digit form
    may lack a '.' or take an exponent: non-finite, |v| < 1e-3, |v| >= 1e8,
    or within |v| * 1e-8 of an integer. Only _json_scalar writes those.
    """
    a = np.abs(v)
    with np.errstate(invalid="ignore"):
        whole = (v == np.rint(v)) & (a < 1e9)
        plain = (a >= 1e-3) & (a < 1e8) & (np.abs(v - np.rint(v)) > a * 1e-8)
    return whole + 2 * ~(plain | whole)


def _json_block(pieces: list[str], columns: Sequence[np.ndarray], start: int, stop: int) -> str:
    """The records of rows start to stop of array columns, through one `%`.

    pieces is one record's template: literal text, then each column's slot
    after its own literal. A float that '%.9g' would not write as json does
    gets a '%.1f' or '%s' slot of its own, and for '%s' its _json_scalar text.
    """
    k = len(columns)
    values, patched = [], {}
    for j, col in enumerate(columns):
        part = col[start:stop]
        column = part.tolist()
        if pieces[2 * j + 1] == "%s":
            column = list(map(encode_basestring_ascii, column))
        elif pieces[2 * j + 1] == "%.9g":
            kinds = _json_kinds(part)
            if kinds.any():
                patched[j] = _JSON_FLOAT_SLOTS[kinds].tolist()
                for i in np.flatnonzero(kinds == 2).tolist():
                    column[i] = _json_scalar(column[i])
        values.append(column)
    block = pieces * (stop - start)
    for j, slots in patched.items():
        block[2 * j + 1 :: 2 * k + 1] = slots
    return "".join(block) % tuple(_interleave(values))


def _records_json(text: str, header: Sequence[str], columns, slots: list[str]) -> Iterator[str]:
    """text, a payload's JSON whose last value is [], with the columns' records in that list.

    The records come BLOCK_ROWS to a chunk.
    """
    pieces = []  # one record's template: each slot after its own literal, then the close
    for j, (name, slot) in enumerate(zip(header, slots)):
        name = encode_basestring_ascii(name).replace("%", "%%")
        pieces += [(",\n      " if j else ",\n    {\n      ") + name + ": ", slot]
    pieces.append("\n    }")
    blocks = (_json_block(pieces, columns, *rows) for rows in _blocks(columns))
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

    records, if given, is (key, header, columns) and payload a dict without
    key. The file is then that of payload with key added last, holding one
    object per row of the columns, which maps each header name to the row's
    value. The columns follow write_csv's rule, checked before path is
    opened. The records are formatted BLOCK_ROWS at a time, straight from
    the columns, each block through one `%`: ints take '%d', strings their
    JSON text and floats '%.9g', except the few values whose JSON text that
    is not (an integral float takes '%.1f', and a value near an integer,
    below 1e-3, from 1e8 up or not finite takes _json_scalar's text).
    """
    if records is None:
        _round_floats(payload)
        chunks = [json.dumps(payload, indent=2)]
    else:
        key, header, columns = records
        if key in payload:
            raise ValueError(f"records key {key!r} is also a key of the payload")
        slots = _column_slots(header, columns)
        head = {**payload, key: []}
        _round_floats(head)
        chunks = _records_json(json.dumps(head, indent=2), header, columns, slots)
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
        if not (self.r_ctm > 0 and self.r_d > 0):
            raise ValueError("radii must be > 0")
        if len(self.divisions) != 3 or any(int(d) != d or d < 1 for d in self.divisions):
            raise ValueError(f"divisions must be three integers >= 1, got {self.divisions}")
        object.__setattr__(self, "divisions", tuple(int(d) for d in self.divisions))


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
    lifted = build_tvm_points(points)
    return IndicatorReport(
        source_id=series.source_id,
        ctm=near.ctm,
        cctm=near.cctm,
        d=far.d,
        etv_global=_global_etv(lifted, params.divisions),
        etv_quadrant=quadrant_etv(lifted, params.divisions),
        quadrant_points=tuple(np.bincount(points.code, minlength=5)[:4].tolist()),
    )


def _global_etv(lifted: LiftedPoints, divisions: tuple[int, int, int]) -> float:
    return temporal_variation_entropy(
        build_grid(lifted.base.x, lifted.base.y, lifted.z, divisions)
    )


def indicator_of(
    series: RRSeries,
    indicator: str,
    params: IndicatorParams = IndicatorParams(),
    empty: list[int] | None = None,
) -> float | None:
    """One named indicator of a recording, computing only what it needs.

    The value is indicator_value(report(series, params), indicator), bit for
    bit: a radius indicator takes the census at its one radius, etv_global
    the global grid and etvN the grid of quadrant N alone. For etvN, the
    quadrant's code (N - 1) is appended to empty if given and the quadrant
    has no point, its E_TV then being 0.
    """
    _check_indicator(indicator)
    points = second_order_diff(series)
    if indicator in RADIUS_INDICATORS:
        r = params.r_d if indicator == "d" else params.r_ctm
        return indicator_value(radius_census(points, (r,))[0], indicator)
    lifted = build_tvm_points(points)
    if indicator == "etv_global":
        return _global_etv(lifted, params.divisions)
    code = int(indicator[3:]) - 1
    return quadrant_etv(lifted, params.divisions, (code,), empty)[0]


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
    groups: Mapping[str, Sequence[RRSeries]],
    indicator: str,
    r_values: Sequence[float],
) -> dict[str, tuple[float | None, ...]]:
    """Mean indicator value per group at each radius of an ascending grid.

    groups maps each group name to its recordings, as load_groups gives it.
    The rows are keyed by group name, in name order, one entry per radius. An
    entry is None where no recording of that group produced a value at that
    radius (e.g. D with no point inside r).
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
    if not groups:
        raise EmptyInputError("need at least one dataset group")

    rows: dict[str, tuple[float | None, ...]] = {}
    for name in sorted(groups):
        if not groups[name]:
            raise EmptyInputError(f"dataset group {name!r} has no recordings")
        per_recording = []  # one value per radius, one list per recording
        for rec in sorted(groups[name], key=lambda s: s.source_id):
            census = radius_census(second_order_diff(rec), r_values)
            per_recording.append([indicator_value(counts, indicator) for counts in census])
        row = []
        for at_r in zip(*per_recording):
            values = [v for v in at_r if v is not None]
            row.append(float(np.mean(values)) if values else None)
        rows[name] = tuple(row)
    return rows


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
