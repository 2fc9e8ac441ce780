"""Exception types raised across the package."""

from __future__ import annotations


class TvmhrvError(Exception):
    """Base class for all package-specific errors."""


class _FileLineError(TvmhrvError):
    """An error that may name the file and line at fault (None where unknown)."""

    def __init__(self, message: str, path=None, line: int | None = None):
        super().__init__(message)
        self.path = path
        self.line = line


class RRParseError(_FileLineError):
    """An RR text file is not UTF-8, or a token in it is not a number."""


class RRValidationError(_FileLineError):
    """An interval value violates the RR-series invariants (> 0, <= MAX_INTERVAL)."""


class TooShortSeriesError(TvmhrvError):
    """Fewer than 3 intervals: no second-order difference point exists."""


class EmptyDirectoryError(TvmhrvError):
    """A dataset directory contains no loadable recordings."""


class EmptyInputError(TvmhrvError):
    """An operation that needs at least one point/recording got none."""


class NoPointInRadiusError(TvmhrvError):
    """No point lies strictly inside the radius; raised only by sodp.mean_distance_d."""


class DistinctValuesError(TvmhrvError):
    """k-means needs at least k distinct feature values."""
