"""RR-interval series: loading, validation and segmentation.

Accepted on-disk format is UTF-8 text (a leading byte-order mark is
skipped) holding numbers separated by commas and/or ASCII whitespace: one
interval per line, or a CSV row/column. A number is ASCII decimal text, as
float() reads it but with no '_'. Blank lines and lines starting with '#'
are skipped; only those comments may hold non-ASCII text. Values are
taken in whatever unit the file holds them; nothing converts them.

A file is parsed in blocks of BLOCK_CHARS characters straight into one
float64 array. The line scanner `_read_rr_file` is the specification: it
reads a file that holds a comment, and names the line of the first bad
value when the block parser finds one.
"""

from __future__ import annotations

import itertools
import logging
import re
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import (
    EmptyDirectoryError,
    RRParseError,
    RRValidationError,
    TooShortSeriesError,
)

RR_EXTENSIONS = (".txt", ".csv")

log = logging.getLogger("tvmhrv")

# Largest accepted interval: successive differences then stay below 1e150 in
# magnitude, so x*x + y*y cannot overflow on the way to a point's distance.
MAX_INTERVAL = 1e150

# Characters the block parser reads at a time.
BLOCK_CHARS = 1 << 16

_ASCII_SEPARATORS = re.compile(r"[\s,]+", re.ASCII)


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


@dataclass(frozen=True, eq=False)
class DatasetGroup:
    """A named collection of recordings, e.g. one directory of RR files."""

    name: str
    recordings: tuple[RRSeries, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not self.name:
            raise ValueError("dataset group name must be non-empty")
        object.__setattr__(self, "recordings", tuple(self.recordings))

    def __len__(self) -> int:
        return len(self.recordings)


def _tokens(line: str) -> list[str]:
    """A line's tokens. Only commas and ASCII whitespace separate them, so a
    non-ASCII space stays in its token and makes that token a bad one."""
    if line.isascii():
        return line.replace(",", " ").split()
    return [token for token in _ASCII_SEPARATORS.split(line) if token]


def _read_rr_file(path: Path) -> list[float]:
    """The values of an RR file, scanned line by line; slow, but it names lines."""
    values: list[float] = []
    with path.open(encoding="utf-8-sig") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if line.lstrip().startswith("#"):
                    continue
                for token in _tokens(line):
                    try:
                        if "_" in token or not token.isascii():
                            raise ValueError  # float() would take them
                        value = float(token)
                    except ValueError:
                        raise RRParseError(
                            f"{path}: line {lineno}: cannot parse {token!r} as a number",
                            path=path,
                            line=lineno,
                        ) from None
                    if not 0.0 < value <= MAX_INTERVAL:
                        raise RRValidationError(
                            f"{path}: line {lineno}: interval {token!r} must be > 0 "
                            f"and <= {MAX_INTERVAL:g}",
                            path=path,
                            line=lineno,
                        )
                    values.append(value)
        except UnicodeDecodeError as exc:
            raise RRParseError(f"{path}: not UTF-8 text ({exc.reason})", path=path) from None
    return values


def _token_blocks(fh: TextIO) -> Iterator[list[str]]:
    """The tokens of fh's text, one list per block of BLOCK_CHARS characters.

    A token cut by the end of a block is carried into the next list. A token
    longer than a block raises ValueError, as carrying it on would make the
    parse quadratic, and so does a block holding '_' or a non-ASCII
    character, which float() would take in a number.
    """
    head = ""  # the start of a token cut by the end of the last block
    while block := fh.read(BLOCK_CHARS):
        if not block.isascii() or "_" in block:
            raise ValueError("text outside the number grammar")
        if len(head) > BLOCK_CHARS:
            raise ValueError("a token longer than a block")
        text = head + block
        tokens = text.replace(",", " ").split()
        head = tokens.pop() if tokens and not (text[-1].isspace() or text[-1] == ",") else ""
        yield tokens
    if head:
        yield [head]


def load_rr_series(path) -> RRSeries:
    """Load one RR recording from a text file; source_id is the file stem."""
    path = Path(path)
    with path.open(encoding="utf-8-sig") as fh:
        tokens = itertools.chain.from_iterable(_token_blocks(fh))
        try:
            values = np.fromiter(map(float, tokens), np.float64)
        except ValueError:
            # A token float rejects (a comment's '#' is one), text that is not
            # UTF-8 (UnicodeDecodeError is a ValueError) or a token too long.
            values = None
    if values is None or not ((values > 0.0) & (values <= MAX_INTERVAL)).all():
        # The line scanner skips comments, and names the file and line of a bad value.
        values = _read_rr_file(path)
    if len(values) < 3:
        raise TooShortSeriesError(
            f"{path}: found {len(values)} intervals; need at least 3"
        )
    return RRSeries(intervals=values, source_id=path.stem, _owned=True)


def input_files(path: Path, allow_files: bool = False) -> list[Path]:
    """The recording files one input names, sorted by name.

    A directory names its .txt/.csv files. A file names itself when
    allow_files is set and is rejected as not a directory otherwise.
    """
    if not path.is_dir():
        if allow_files:
            return [path]
        raise NotADirectoryError(f"{path} is not a directory")
    files = sorted(
        (p for p in path.iterdir() if p.suffix.lower() in RR_EXTENSIONS),
        key=lambda p: p.name,
    )
    if not files:
        raise EmptyDirectoryError(f"{path}: no .txt or .csv recordings found")
    return files


def load_dataset_group(directory) -> DatasetGroup:
    """Load every .txt/.csv file in a directory, sorted by source_id."""
    return load_groups([directory])[0]


def load_groups(
    paths: Iterable,
    segment_len: int | None = None,
    allow_files: bool = False,
) -> list[DatasetGroup]:
    """Load one dataset group per path, with recordings sorted by source_id.

    A directory gives the group of its .txt/.csv files, named after it. A
    file gives a one-recording group named after its stem when allow_files
    is set, and is rejected as not a directory otherwise. With segment_len,
    every recording is cut by split_segments; a partial tail is dropped with
    a warning on the `tvmhrv` logger naming the file, and a recording
    shorter than one segment raises TooShortSeriesError naming its file.
    """
    groups = []
    for path in map(Path, paths):
        recordings = []
        for file in input_files(path, allow_files):
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
        name = path.name if path.is_dir() else path.stem
        groups.append(DatasetGroup(name=name, recordings=tuple(recordings)))
    return groups


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
