"""RR-interval series: loading, validation and segmentation.

Accepted on-disk format is UTF-8 text (a leading byte-order mark is skipped)
holding numbers separated by commas and/or ASCII whitespace: one interval per
line, or a CSV row/column. A number is ASCII decimal text, as float() reads it
but with no '_'. Blank lines and comment lines (whose first non-blank
character is '#') are skipped; only comments may hold non-ASCII text. Values
are taken in whatever unit the file holds them; nothing converts them.

A file's text is read once and parsed by one np.fromstring call; only a text
that fails a check is walked line by line, to name its first bad value.
"""

from __future__ import annotations

import logging
import os
import re
from dataclasses import InitVar, dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    EmptyDirectoryError,
    RRParseError,
    RRValidationError,
    TooShortSeriesError,
    TvmhrvError,
)

RR_EXTENSIONS = (".txt", ".csv")

log = logging.getLogger("tvmhrv")

# Largest accepted interval: successive differences then stay below 1e150 in
# magnitude, so x*x + y*y cannot overflow on the way to a point's distance.
MAX_INTERVAL = 1e150

# Tokens are separated, on every line, by the ASCII whitespace str.split()
# takes and by commas. np.fromstring(text, sep=" ") skips the first six
# between numbers; the one-pass parse turns the others into spaces.
_NUMPY_SPACES = " \t\n\v\f\r"
_OTHER_SEPARATORS = "\x1c\x1d\x1e\x1f,"
_SEPARATOR_RUNS = re.compile(f"[{re.escape(_NUMPY_SPACES + _OTHER_SEPARATORS)}]+")
# A line whose first non-blank character is '#', up to its line end.
_COMMENT_LINE = re.compile(r"^[^\S\n]*#.*", re.MULTILINE)


@dataclass(frozen=True, eq=False)
class RRSeries:
    """An ordered sequence of interval durations, each in (0, MAX_INTERVAL].

    `intervals` is a read-only 1-D float64 array, copied from the input
    (load_rr_series hands over the array it has parsed instead).
    """

    intervals: np.ndarray
    source_id: str = ""
    # Set only by load_rr_series, for an array nothing else refers to: kept, not copied.
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned):
        intervals = (np.asarray if _owned else np.array)(self.intervals, dtype=np.float64)
        if intervals.ndim != 1:
            raise ValueError(
                f"series {self.source_id!r}: intervals must be 1-D, got shape {intervals.shape}"
            )
        intervals.flags.writeable = False
        object.__setattr__(self, "intervals", intervals)
        if intervals.size < 3:
            raise TooShortSeriesError(
                f"series {self.source_id!r} has {intervals.size} intervals; need at least 3"
            )
        valid = (intervals > 0.0) & (intervals <= MAX_INTERVAL)
        if not valid.all():
            i = int(np.argmin(valid))
            raise RRValidationError(
                f"series {self.source_id!r}: interval {i} is {float(intervals[i])!r}; "
                f"intervals must be > 0 and <= {MAX_INTERVAL:g}"
            )

    def __len__(self) -> int:
        return self.intervals.size


def _scan_lines(path: Path, text: str) -> np.ndarray:
    """The values of a text with its comment lines blanked, as float() reads
    each token; raises the error for the first bad token, naming its line."""
    values = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        # A non-ASCII space does not separate tokens: it makes its token a bad one.
        for token in filter(None, _SEPARATOR_RUNS.split(line)):
            try:
                if "_" in token or not token.isascii():
                    raise ValueError  # float() would take them
                if 0.0 < (value := float(token)) <= MAX_INTERVAL:
                    values.append(value)
                    continue
                error = RRValidationError
                problem = f"interval {token!r} must be > 0 and <= {MAX_INTERVAL:g}"
            except ValueError:
                error, problem = RRParseError, f"cannot parse {token!r} as a number"
            raise error(f"{path}: line {lineno}: {problem}", path=path, line=lineno)
    return np.array(values, dtype=np.float64)


def load_rr_series(path) -> RRSeries:
    """Load one RR recording from a text file; source_id is the file stem."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise RRParseError(f"{path}: not UTF-8 text ({exc.reason})", path=path) from None
    if "#" in text:
        text = _COMMENT_LINE.sub("", text)
    # Each step rebinds text, so no older copy of it stays alive.
    try:
        if not text.isascii() or "_" in text:
            raise ValueError  # float() would take them in a number
        for sep in _OTHER_SEPARATORS:
            if sep in text:  # a scan is cheaper than a copy
                text = text.replace(sep, " ")
        # np.fromstring reads a text of whitespace alone as [-1.0].
        values = np.empty(0)
        if text and not text.isspace():
            values = np.fromstring(text, sep=" ")
        if not ((values > 0.0) & (values <= MAX_INTERVAL)).all():
            raise ValueError
    except ValueError:
        # Also where numpy declines a token float() reads: only speed is lost.
        values = _scan_lines(path, text)
    if values.size < 3:
        raise TooShortSeriesError(f"{path}: found {values.size} intervals; need at least 3")
    return RRSeries(intervals=values, source_id=path.stem, _owned=True)


def input_files(path: Path) -> list[Path]:
    """The recording files one input names, sorted by name.

    A directory names the regular .txt/.csv files in it (a subdirectory is
    not one, whatever its name); any other path names itself.
    """
    if not path.is_dir():
        return [path]
    files = sorted(
        (p for p in path.iterdir() if p.suffix.lower() in RR_EXTENSIONS and p.is_file()),
        key=lambda p: p.name,
    )
    if not files:
        raise EmptyDirectoryError(f"{path}: no .txt or .csv recordings found")
    return files


def check_group_names(paths: Iterable) -> dict[str, Path]:
    """Each path's group name, in the order given, mapped to its path.

    A group is a directory, named after the last component of its absolute
    path: `.` and `..` name their directory, and a symlink in the path keeps
    its own name. Inside a symlinked directory, `.` and `..` are resolved by
    the kernel, so there `.` names the link's target. Raises
    NotADirectoryError for a path that is not a directory, and TvmhrvError
    for one with no last component (such as `/`) or, naming both paths, for
    two paths that give one name. Group names key the output of sweep and
    classify. No file is read.
    """
    seen: dict[str, Path] = {}
    for path in map(Path, paths):
        if not path.is_dir():
            raise NotADirectoryError(f"{path} is not a directory")
        name = os.path.basename(os.path.abspath(path))
        if not name:
            raise TvmhrvError(f"{path} has no last component to name its group")
        if name in seen:
            raise TvmhrvError(f"inputs {seen[name]} and {path} are both named {name!r}")
        seen[name] = path
    return seen


def load_dataset_group(directory) -> tuple[RRSeries, ...]:
    """The recordings of one directory, sorted by source_id; kept only because
    perfbench/spans.py traces it by name (until ROADMAP item 1's stage hook)."""
    (path,) = check_group_names([directory]).values()
    return tuple(sorted(load_recordings(input_files(path)), key=lambda s: s.source_id))


def check_segment_len(length: int) -> int:
    """length, if segments may be cut to it (>= 3 intervals); else ValueError."""
    if length < 3:
        raise ValueError(f"segment length must be >= 3, got {length}")
    return length


def load_recordings(files: Iterable, segment_len: int | None = None) -> Iterator[RRSeries]:
    """An iterator over each file's recording, or its segments, in file order; nothing sorts them.

    A file is read when its first recording is asked for, and nothing of it
    is held here once its last is handed out. With segment_len, checked by
    check_segment_len before any file is read, a partial tail is dropped
    with a warning on the `tvmhrv` logger naming the file, before its first
    segment is handed out, and a recording shorter than one segment raises
    TooShortSeriesError naming its file.
    """
    if segment_len is None:
        return map(load_rr_series, files)
    check_segment_len(segment_len)
    return chain.from_iterable(_load_segments(file, segment_len) for file in files)


def _load_segments(file, segment_len: int) -> list[RRSeries]:
    """The segments of one file; the whole recording is dropped on return."""
    rec = load_rr_series(file)
    if len(rec) < segment_len:
        raise TooShortSeriesError(
            f"{file}: found {len(rec)} intervals, fewer than one segment of {segment_len}"
        )
    if tail := len(rec) % segment_len:
        log.warning(
            "%s: dropped the last %d of %d intervals, fewer than one segment of %d",
            file, tail, len(rec), segment_len,
        )
    return split_segments(rec, segment_len)


def split_segments(series: RRSeries, length: int) -> list[RRSeries]:
    """Cut a recording into consecutive non-overlapping segments.

    Each segment has exactly `length` intervals; a trailing partial window is
    dropped. Segment ids are `source#000`, `source#001`, ..., with the index
    zero-padded to at least 3 digits and to the width of the last index, so
    they sort in time order.
    """
    n = len(series) // check_segment_len(length)
    width = max(3, len(str(n - 1)))
    segments = []
    for k in range(n):
        chunk = series.intervals[k * length : (k + 1) * length]
        segments.append(RRSeries(intervals=chunk, source_id=f"{series.source_id}#{k:0{width}d}"))
    return segments
