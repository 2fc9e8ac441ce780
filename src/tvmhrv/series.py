"""RR-interval series: loading, validation and segmentation.

Accepted on-disk format is UTF-8 text (a leading byte-order mark is
skipped) holding numbers separated by commas and/or ASCII whitespace: one
interval per line, or a CSV row/column. A number is ASCII decimal text, as
float() reads it but with no '_'. Blank lines and comment lines (whose
first non-blank character is '#') are skipped; only comments may hold
non-ASCII text. Values are taken in whatever unit the file holds them;
nothing converts them.

A file is read once, in blocks of BLOCK_CHARS characters each carried on to
the next line end. A block's comment lines are blanked, and its numbers are
parsed straight into float64 values. Only a block that fails a check is
walked line by line, to name the line of its first bad value.
"""

from __future__ import annotations

import logging
import os
import re
from dataclasses import InitVar, dataclass
from pathlib import Path
from typing import Iterable

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

# Characters the block parser reads at a time.
BLOCK_CHARS = 1 << 16

_ASCII_SEPARATORS = re.compile(r"[\s,]+", re.ASCII)
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


def _bad_value(path: Path, block: str, first_line: int) -> RRParseError | RRValidationError:
    """The error for the first bad token of a block that failed its checks,
    naming its line; first_line is the number of the block's first line."""
    for lineno, line in enumerate(block.split("\n"), start=first_line):
        # Only commas and ASCII whitespace separate tokens, so a non-ASCII
        # space stays in its token and makes that token a bad one.
        if line.isascii():
            tokens = line.replace(",", " ").split()
        else:
            tokens = filter(None, _ASCII_SEPARATORS.split(line))
        for token in tokens:
            try:
                if "_" in token or not token.isascii():
                    raise ValueError  # float() would take them
                if 0.0 < float(token) <= MAX_INTERVAL:
                    continue
                error = RRValidationError
                problem = f"interval {token!r} must be > 0 and <= {MAX_INTERVAL:g}"
            except ValueError:
                error, problem = RRParseError, f"cannot parse {token!r} as a number"
            return error(f"{path}: line {lineno}: {problem}", path=path, line=lineno)


def load_rr_series(path) -> RRSeries:
    """Load one RR recording from a text file; source_id is the file stem."""
    path = Path(path)
    arrays = []  # one per block
    lineno = 1  # the number of the current block's first line
    with path.open(encoding="utf-8-sig") as fh:
        try:
            # A block ends on a line end, so no token or comment is cut.
            while block := fh.read(BLOCK_CHARS) + fh.readline():
                if "#" in block:
                    block = _COMMENT_LINE.sub("", block)
                try:
                    if not block.isascii() or "_" in block:
                        raise ValueError  # float() would take them in a number
                    values = np.fromiter(map(float, block.replace(",", " ").split()), np.float64)
                    if not ((values > 0.0) & (values <= MAX_INTERVAL)).all():
                        raise ValueError
                except ValueError:
                    raise _bad_value(path, block, lineno) from None
                arrays.append(values)
                lineno += block.count("\n")
        except UnicodeDecodeError as exc:
            raise RRParseError(f"{path}: not UTF-8 text ({exc.reason})", path=path) from None
    n = sum(map(len, arrays))
    if n < 3:
        raise TooShortSeriesError(f"{path}: found {n} intervals; need at least 3")
    return RRSeries(intervals=np.concatenate(arrays), source_id=path.stem, _owned=True)


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
    its own name. Raises NotADirectoryError for a path that is not a directory,
    and TvmhrvError for one with no last component (such as `/`) or,
    naming both paths, for two paths that give one name. Group names key
    the output of sweep and classify. No file is read.
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
    """The recordings of one directory, as load_groups gives them.

    Kept only because perfbench/spans.py traces it by name, until the stage
    hook of ROADMAP item 1 replaces that tracer's function patching.
    """
    return next(iter(load_groups([directory]).values()))


def load_recordings(files: Iterable, segment_len: int | None = None) -> list[RRSeries]:
    """Load each file as a recording, and return them sorted by source_id.

    With segment_len, every recording is cut by split_segments; a partial
    tail is dropped with a warning on the `tvmhrv` logger naming the file,
    and a recording shorter than one segment raises TooShortSeriesError
    naming its file.
    """
    recordings = []
    for file in files:
        rec = load_rr_series(file)
        if segment_len is None:
            recordings.append(rec)
        elif len(rec) < segment_len:
            raise TooShortSeriesError(
                f"{file}: found {len(rec)} intervals, fewer than one "
                f"segment of {segment_len}"
            )
        else:
            recordings.extend(split_segments(rec, segment_len))
            if tail := len(rec) % segment_len:
                log.warning(
                    "%s: dropped the last %d of %d intervals, fewer than one segment of %d",
                    file, tail, len(rec), segment_len,
                )
    recordings.sort(key=lambda s: s.source_id)
    return recordings


def load_groups(
    paths: Iterable, segment_len: int | None = None
) -> dict[str, tuple[RRSeries, ...]]:
    """Each directory's group name, in the order given, mapped to its recordings.

    Every path is named by check_group_names before any file is read. A
    group's recordings are its .txt/.csv files, loaded by load_recordings.
    """
    return {
        name: tuple(load_recordings(input_files(path), segment_len))
        for name, path in check_group_names(paths).items()
    }


def split_segments(series: RRSeries, length: int) -> list[RRSeries]:
    """Cut a recording into consecutive non-overlapping segments.

    Each segment has exactly `length` intervals; a trailing partial window is
    dropped. Segment ids are `source#000`, `source#001`, ..., with the index
    zero-padded to at least 3 digits and to the width of the last index, so
    they sort in time order.
    """
    if length < 3:
        raise ValueError(f"segment length must be >= 3, got {length}")
    n = len(series) // length
    width = max(3, len(str(n - 1)))
    segments = []
    for k in range(n):
        chunk = series.intervals[k * length : (k + 1) * length]
        segments.append(RRSeries(intervals=chunk, source_id=f"{series.source_id}#{k:0{width}d}"))
    return segments
