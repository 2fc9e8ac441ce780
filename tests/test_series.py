import logging
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import reference_rr_file

from tvmhrv import (
    EmptyDirectoryError,
    RRParseError,
    RRSeries,
    RRValidationError,
    TooShortSeriesError,
    TvmhrvError,
    load_dataset_group,
    load_recordings,
    load_rr_series,
    split_segments,
)
from tvmhrv import series as series_module
from tvmhrv.series import MAX_INTERVAL, check_group_names, input_files

SRC = Path(__file__).resolve().parents[1] / "src"


def write(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadRRSeries:
    def test_line_per_interval(self, tmp_path):
        path = write(tmp_path, "rec.txt", "800\n810\n790\n805\n795\n")
        series = load_rr_series(path)
        assert series.intervals.tolist() == [800.0, 810.0, 790.0, 805.0, 795.0]
        assert series.source_id == "rec"

    def test_single_csv_row(self, tmp_path):
        path = write(tmp_path, "rec.csv", "0.80, 0.81, 0.79\n")
        series = load_rr_series(path)
        assert series.intervals.tolist() == [0.80, 0.81, 0.79]

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "rec.txt", "# header\n\n800\n# mid\n810\n\n790\n")
        assert load_rr_series(path).intervals.tolist() == [800.0, 810.0, 790.0]

    def test_leading_byte_order_mark_skipped(self, tmp_path):
        path = write(tmp_path, "rec.txt", "\ufeff800\n810\n790\n")
        assert load_rr_series(path).intervals.tolist() == [800.0, 810.0, 790.0]

    def test_space_separated_values(self, tmp_path):
        path = write(tmp_path, "rec.txt", "800 810\n790  805, 795\n")
        assert load_rr_series(path).intervals.tolist() == [800.0, 810.0, 790.0, 805.0, 795.0]

    def test_tab_separated_values(self, tmp_path):
        path = write(tmp_path, "rec.txt", "800\t810\t790\n")
        assert load_rr_series(path).intervals.tolist() == [800.0, 810.0, 790.0]

    def test_utf16_file_is_a_parse_error_naming_file(self, tmp_path):
        path = tmp_path / "rec.txt"
        path.write_text("800\n810\n790\n", encoding="utf-16")
        with pytest.raises(RRParseError) as err:
            load_rr_series(path)
        assert "rec.txt" in str(err.value)

    def test_negative_value_names_line(self, tmp_path):
        path = write(tmp_path, "rec.txt", "800\n-5\n700\n")
        with pytest.raises(RRValidationError) as err:
            load_rr_series(path)
        assert err.value.line == 2

    def test_non_numeric_token_names_line(self, tmp_path):
        path = write(tmp_path, "rec.txt", "800\n810\noops\n790\n")
        with pytest.raises(RRParseError) as err:
            load_rr_series(path)
        assert err.value.line == 3
        assert "oops" in str(err.value)

    def test_nan_token_rejected(self, tmp_path):
        path = write(tmp_path, "rec.txt", "800\nnan\n700\n")
        with pytest.raises(RRValidationError) as err:
            load_rr_series(path)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "text, token, line",
        [
            ("800\n8_10\n790\n805\n", "8_10", 2),
            ("800\n\u0668\u0662\u0660\n790\n805\n", "\u0668\u0662\u0660", 2),
            ("800, 8_10, \u0668\u0662\u0660, 790, 805\n", "8_10", 1),
            ("800\n810\n790 1_000\n", "1_000", 3),
            # A non-ASCII space separates nothing: it is part of the token.
            ("800\n810\u00a0790\n805\n", "810\u00a0790", 2),
            ("800\n810\n\u00a0\n805\n", "\u00a0", 3),
            ("800\n810\n790\u2028\n805\n", "790\u2028", 3),
            # \x1c-\x1f separate tokens whether or not their line holds non-ASCII text.
            ("800\n810\n790\x1c1_0\n", "1_0", 3),
            ("800\n810\n790\x1c1_0 \u00e9\n", "1_0", 3),
            ("800\n810\n790\x1f1_0 \u00e9\n", "1_0", 3),
        ],
    )
    # The line of a bad token is counted over the whole file: 4 or 65,536
    # good lines come before the text.
    @pytest.mark.parametrize("lead", [4, 65536])
    def test_token_outside_the_ascii_grammar_names_line(self, tmp_path, text, token, line, lead):
        path = tmp_path / "rec.txt"
        path.write_text("800\n" * lead + text, encoding="utf-8")
        line += lead
        with pytest.raises(RRParseError) as err:
            load_rr_series(path)
        assert str(err.value) == f"{path}: line {line}: cannot parse {token!r} as a number"
        assert (err.value.path, err.value.line) == (path, line)
        assert reference_rr_file(path) == (None, ("parse", line, token))

    def test_comment_may_hold_non_ascii_text(self, tmp_path):
        path = tmp_path / "rec.txt"
        path.write_text("# \u00e9t\u00e9 \u2603 8_10\n800\n810\n  # \u0668\u0662\u0660\n790\n", encoding="utf-8")
        assert load_rr_series(path).intervals.tolist() == [800.0, 810.0, 790.0]

    def test_value_above_bound_names_line(self, tmp_path):
        path = write(tmp_path, "rec.txt", "800\n1e151\n700\n")
        with pytest.raises(RRValidationError) as err:
            load_rr_series(path)
        assert err.value.line == 2
        assert "rec.txt" in str(err.value)

    def test_value_at_bound_accepted(self, tmp_path):
        path = write(tmp_path, "rec.txt", f"{MAX_INTERVAL!r}\n1\n{MAX_INTERVAL!r}\n")
        assert load_rr_series(path).intervals.tolist() == [MAX_INTERVAL, 1.0, MAX_INTERVAL]

    def test_too_short_file(self, tmp_path):
        path = write(tmp_path, "rec.txt", "800\n810\n")
        with pytest.raises(TooShortSeriesError):
            load_rr_series(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_rr_series(tmp_path / "nope.txt")


class TestRRSeriesInvariants:
    def test_too_short_construction(self):
        with pytest.raises(TooShortSeriesError):
            RRSeries([800, 810])

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan"), 1e200])
    def test_bad_interval_rejected(self, bad):
        with pytest.raises(RRValidationError):
            RRSeries([800.0, bad, 900.0])

    def test_first_bad_interval_named_with_its_repr(self):
        with pytest.raises(RRValidationError, match=r"series 'rec': interval 2 is -1\.0;"):
            RRSeries([800.0, 810.0, -1.0, 0.0, float("nan")], source_id="rec")

    def test_length(self):
        assert len(RRSeries([1, 2, 3, 4])) == 4


class TestIntervalsArray:
    def test_float64_and_read_only(self):
        series = RRSeries([800, 810, 790])
        assert series.intervals.dtype == np.float64
        assert series.intervals.shape == (3,)
        with pytest.raises(ValueError):
            series.intervals[0] = 1.0

    @pytest.mark.parametrize("container", [list, np.array])
    def test_copied_from_the_input(self, container):
        values = container([800.0, 810.0, 790.0])
        series = RRSeries(values)
        values[0] = 1.0
        assert series.intervals.tolist() == [800.0, 810.0, 790.0]

    def test_read_only_view_of_a_caller_array_copied(self):
        # A float64 array the caller cannot write through may still change under it.
        values = np.array([800.0, 810.0, 790.0])
        view = values[:]
        view.flags.writeable = False
        series = RRSeries(view)
        values[0] = 1.0
        assert series.intervals.tolist() == [800.0, 810.0, 790.0]
        assert not np.shares_memory(series.intervals, values)

    def test_loaded_series_read_only(self, tmp_path):
        path = tmp_path / "rec.txt"
        path.write_text("800\n810\n790\n")
        series = load_rr_series(path)
        assert series.intervals.dtype == np.float64 and series.intervals.flags.owndata
        with pytest.raises(ValueError):
            series.intervals[0] = 1.0

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            RRSeries([[800.0, 810.0, 790.0], [800.0, 810.0, 790.0]])


class TestDatasetGroup:
    """A dataset group: one directory's recordings, under the directory's name."""

    def test_loads_all_files_in_name_order(self, tmp_path):
        ddir = tmp_path / "nsr2db"
        ddir.mkdir()
        for name in ("b.txt", "a.txt", "c.csv", "a-b.txt"):
            write(ddir, name, "800\n810\n790\n")
        write(ddir, "ignored.dat", "not rr data")
        recordings = load_dataset_group(ddir)
        # Sorted by source id: "a-b.txt" comes before "a.txt" by file name,
        # but "a" before "a-b" by id. load_recordings keeps file order.
        assert [rec.source_id for rec in recordings] == ["a", "a-b", "b", "c"]
        assert list(check_group_names([ddir])) == ["nsr2db"]
        loaded = list(load_recordings(input_files(ddir)))
        assert [r.source_id for r in loaded] == ["a-b", "a", "b", "c"]
        assert [
            (r.source_id, r.intervals.tolist())
            for r in sorted(loaded, key=lambda r: r.source_id)
        ] == [(r.source_id, r.intervals.tolist()) for r in recordings]

    def test_malformed_file_named_in_error(self, tmp_path):
        ddir = tmp_path / "grp"
        ddir.mkdir()
        write(ddir, "good.txt", "800\n810\n790\n")
        write(ddir, "zbad.txt", "800\nwat\n790\n")
        with pytest.raises(RRParseError) as err:
            load_dataset_group(ddir)
        assert "zbad.txt" in str(err.value)

    def test_empty_directory(self, tmp_path):
        ddir = tmp_path / "empty"
        ddir.mkdir()
        with pytest.raises(EmptyDirectoryError):
            load_dataset_group(ddir)

    def test_only_regular_files_are_recordings(self, tmp_path):
        ddir = tmp_path / "grp"
        (ddir / "x.txt").mkdir(parents=True)
        (ddir / "y.CSV").mkdir()
        with pytest.raises(EmptyDirectoryError):
            load_dataset_group(ddir)
        write(ddir, "rec.txt", "800\n810\n790\n")
        assert [p.name for p in input_files(ddir)] == ["rec.txt"]
        assert [rec.source_id for rec in load_dataset_group(ddir)] == ["rec"]

    def test_not_a_directory(self, tmp_path):
        with pytest.raises(NotADirectoryError):
            load_dataset_group(tmp_path / "missing")
        # Checked before any file is read: an error naming bad.txt would mean a read.
        write(tmp_path, "bad.txt", "800\noops\n790\n")
        for other in (tmp_path / "missing", tmp_path / "bad.txt"):
            for check, paths in (
                (check_group_names, [tmp_path, other]),
                (load_dataset_group, other),
            ):
                with pytest.raises(NotADirectoryError) as err:
                    check(paths)
                assert str(err.value) == f"{other} is not a directory"

    def test_empty_name_rejected(self, tmp_path):
        write(tmp_path, "bad.txt", "800\noops\n790\n")  # an error naming it would mean a read
        for check, paths in (
            (check_group_names, ["/"]),
            (check_group_names, [tmp_path, "/"]),
            (load_dataset_group, "/"),
        ):
            with pytest.raises(TvmhrvError) as err:
                check(paths)
            assert str(err.value) == "/ has no last component to name its group"


class TestSegments:
    def test_split_exact(self):
        series = RRSeries(range(1, 13), source_id="rec")
        segments = split_segments(series, 4)
        assert [s.source_id for s in segments] == ["rec#000", "rec#001", "rec#002"]
        assert segments[1].intervals.tolist() == [5.0, 6.0, 7.0, 8.0]
        for k, segment in enumerate(segments):
            assert segment.intervals.tolist() == series.intervals[4 * k : 4 * k + 4].tolist()

    def test_ids_sort_in_time_order_past_999_segments(self):
        series = RRSeries([800.0] * 3030, source_id="rec")
        ids = [s.source_id for s in split_segments(series, 3)]
        assert ids == sorted(ids)
        assert ids[0] == "rec#0000" and ids[-1] == "rec#1009"

    def test_ids_keep_three_digits_up_to_1000_segments(self):
        series = RRSeries([800.0] * 3000, source_id="rec")
        ids = [s.source_id for s in split_segments(series, 3)]
        assert ids[0] == "rec#000" and ids[-1] == "rec#999"

    def test_partial_tail_dropped(self):
        series = RRSeries(range(1, 12), source_id="rec")
        assert len(split_segments(series, 4)) == 2

    def test_shorter_than_window_yields_nothing(self):
        series = RRSeries([1, 2, 3], source_id="rec")
        assert split_segments(series, 5) == []

    def test_window_below_three_rejected(self):
        with pytest.raises(ValueError):
            split_segments(RRSeries([1, 2, 3]), 2)


def test_parse_and_validation_errors_name_file_and_line_and_are_siblings():
    for cls, other in ((RRParseError, RRValidationError), (RRValidationError, RRParseError)):
        err = cls("bad value", path="rec.txt", line=3)
        assert (str(err), err.path, err.line) == ("bad value", "rec.txt", 3)
        assert isinstance(err, TvmhrvError) and not isinstance(err, other)
        assert (cls("bad value").path, cls("bad value").line) == (None, None)


class TestGroupNames:
    def test_repeated_name_names_both_paths(self, tmp_path):
        a, b = tmp_path / "a" / "data", tmp_path / "b" / "data"
        a.mkdir(parents=True)
        b.mkdir(parents=True)
        with pytest.raises(TvmhrvError) as err:
            check_group_names([a, tmp_path / "a", b])
        assert str(err.value) == f"inputs {a} and {b} are both named 'data'"

    def test_dot_and_dotdot_name_their_directory(self, tmp_path, monkeypatch):
        inner = tmp_path / "outer" / "inner"
        inner.mkdir(parents=True)
        monkeypatch.chdir(inner)
        assert list(check_group_names([".", Path("..")])) == ["inner", "outer"]
        with pytest.raises(TvmhrvError, match="both named 'inner'"):
            check_group_names([".", "../inner/."])

    def test_a_symlinked_group_keeps_its_own_name(self, tmp_path):
        (tmp_path / "data").mkdir()
        (tmp_path / "alias").symlink_to(tmp_path / "data")
        names = check_group_names([tmp_path / "alias", tmp_path / "data", tmp_path / "alias/.."])
        assert list(names) == ["alias", "data", tmp_path.name]
        assert names["alias"] == tmp_path / "alias"

    def test_dot_inside_a_symlinked_directory_names_the_target(self, tmp_path, monkeypatch):
        # The working directory is kept with links resolved, so `.` and `..`
        # name the link's target and its parent, not the link.
        target = tmp_path / "real" / "data"
        target.mkdir(parents=True)
        (tmp_path / "alias").symlink_to(target)
        monkeypatch.chdir(tmp_path / "alias")
        assert list(check_group_names([".", ".."])) == ["data", "real"]


class TestLoadGroups:
    """A group directory's recordings: check_group_names names it, input_files
    finds its files and load_recordings loads them."""

    @pytest.fixture
    def grp(self, tmp_path):
        ddir = tmp_path / "grp"
        ddir.mkdir()
        write(ddir, "b.txt", "".join(f"{800 + i}\n" for i in range(11)))
        write(ddir, "a.csv", "800,810,790,805,795,801")
        return ddir

    def test_directory_group_sorted_by_source_id(self, grp):
        assert list(check_group_names([grp])) == ["grp"]
        assert [rec.source_id for rec in load_dataset_group(grp)] == ["a", "b"]

    def test_segments_with_partial_tail_dropped(self, grp):
        recordings = load_recordings(input_files(grp), segment_len=5)
        assert [rec.source_id for rec in recordings] == ["a#000", "b#000", "b#001"]
        files = [grp / "b.txt", grp / "a.csv"]
        recordings = list(load_recordings(files, 5))
        assert [rec.source_id for rec in recordings] == ["b#000", "b#001", "a#000"]
        recordings.sort(key=lambda rec: rec.source_id)
        assert [rec.source_id for rec in recordings] == ["a#000", "b#000", "b#001"]

    def test_partial_tails_logged_not_printed(self, grp, caplog, capsys):
        with caplog.at_level(logging.WARNING, logger="tvmhrv"):
            list(load_recordings(input_files(grp), segment_len=5))
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("tvmhrv", logging.WARNING,
             f"{grp / name}: dropped the last 1 of {n} intervals, fewer than one segment of 5")
            for name, n in (("a.csv", 6), ("b.txt", 11))
        ]
        assert capsys.readouterr().err == ""

    def test_library_prints_nothing_by_default(self, grp):
        # A fresh interpreter with no logging set up: without the package's
        # NullHandler, Python would print the tail warnings to stderr.
        code = (
            "import pathlib, tvmhrv; "
            f"list(tvmhrv.load_recordings(sorted(pathlib.Path({str(grp)!r}).iterdir()), 5))"
        )
        pythonpath = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert done.stderr == ""

    @pytest.mark.parametrize("length", [2, 0, -3])
    def test_segment_len_is_checked_before_any_file_is_read(self, tmp_path, length):
        missing = tmp_path / "missing.txt"
        with pytest.raises(ValueError, match=rf"^segment length must be >= 3, got {length}$"):
            load_recordings([missing], segment_len=length)

    def test_recording_shorter_than_segment_names_file(self, grp):
        with pytest.raises(TooShortSeriesError) as err:
            list(load_recordings(input_files(grp), segment_len=7))
        assert "a.csv" in str(err.value)

    def test_a_file_is_a_recording_not_a_group(self, grp):
        assert input_files(grp / "b.txt") == [grp / "b.txt"]
        assert [rec.source_id for rec in load_recordings(input_files(grp / "b.txt"))] == ["b"]
        with pytest.raises(NotADirectoryError):
            check_group_names([grp / "b.txt"])

    def test_one_group_per_path_in_order(self, grp, tmp_path):
        other = tmp_path / "other"
        other.mkdir()
        write(other, "z.txt", "800\n810\n790\n")
        assert list(check_group_names([other, grp])) == ["other", "grp"]

    def test_each_file_is_read_when_its_first_recording_is_asked_for(self, grp, caplog):
        bad = write(grp, "c.txt", "800\noops\n790\n")
        recordings = load_recordings(input_files(grp), segment_len=5)
        with caplog.at_level(logging.WARNING, logger="tvmhrv"):
            assert next(recordings).source_id == "a#000"
            # The tail is logged before the file's first segment is handed out.
            assert [r.getMessage() for r in caplog.records] == [
                f"{grp / 'a.csv'}: dropped the last 1 of 6 intervals, fewer than one segment of 5"
            ]
        assert [next(recordings).source_id for _ in range(2)] == ["b#000", "b#001"]
        with pytest.raises(RRParseError) as err:
            next(recordings)
        assert str(err.value) == f"{bad}: line 2: cannot parse 'oops' as a number"

    @pytest.mark.parametrize("segment_len", [None, 5])
    def test_nothing_of_a_file_is_held_once_its_recordings_are_handed_out(
        self, grp, segment_len, monkeypatch
    ):
        write(grp, "c.txt", "".join(f"{800 + i}\n" for i in range(7)))
        read, handed_out = [], []
        load = series_module.load_rr_series

        def tracked_load(file):
            alive = [ref() for ref in read + handed_out if ref() is not None]
            assert alive == [], f"{file} read while {alive} are held"
            rec = load(file)
            read.append(weakref.ref(rec))
            return rec

        def source_id(rec):
            handed_out.append(weakref.ref(rec))
            return rec.source_id

        monkeypatch.setattr(series_module, "load_rr_series", tracked_load)
        ids = list(map(source_id, load_recordings(input_files(grp), segment_len)))
        assert len(read) == 3 and len(ids) == len(handed_out)


@given(
    st.lists(
        st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False),
        min_size=3,
        max_size=50,
    )
)
def test_save_load_round_trip(tmp_path_factory, values):
    """Intervals written one repr per line load back as the exact floats."""
    path = tmp_path_factory.mktemp("rt") / "series.txt"
    path.write_text("".join(f"{v!r}\n" for v in values))
    assert load_rr_series(path).intervals.tolist() == values


def _outcome(load, path):
    """('ok', float64 bytes) or (error type, message, path, line)."""
    try:
        return ("ok", np.asarray(load(path), dtype=np.float64).tobytes())
    except (RRParseError, RRValidationError, TooShortSeriesError) as exc:
        return (type(exc), str(exc), getattr(exc, "path", None), getattr(exc, "line", None))


def _expected(path):
    """_outcome's tuple for the line scanner's reading of path."""
    values, fault = reference_rr_file(path)
    if fault is None:
        if len(values) < 3:
            return (TooShortSeriesError, f"{path}: found {len(values)} intervals; need at least 3",
                    None, None)
        return ("ok", np.asarray(values, dtype=np.float64).tobytes())
    kind, line, detail = fault
    if kind == "utf8":
        return (RRParseError, f"{path}: not UTF-8 text ({detail})", path, None)
    if kind == "parse":
        return (RRParseError, f"{path}: line {line}: cannot parse {detail!r} as a number",
                path, line)
    return (RRValidationError,
            f"{path}: line {line}: interval {detail!r} must be > 0 and <= 1e+150", path, line)


GOOD_TOKENS = st.one_of(
    st.sampled_from(["800", "810.5", "1e3", "0.8", ".5", "7.", "+3", "1_000", repr(MAX_INTERVAL)]),
    st.floats(min_value=1e-3, max_value=1e5).map(repr),
    st.floats(min_value=1e-3, max_value=1e5).map(lambda v: f"{v:.3f}"),
)
BAD_TOKENS = st.sampled_from(
    # np.fromstring reads "nan(1)" as nan, where float() raises.
    ["0", "-5", "nan", "nan(1)", "inf", "1e151", "oops", "8OO", "1e", "--1", "\x00", "80\x000",
     "8\x1b0"]
)
# str.split() separates on \x0b, \x0c and \x1c-\x1f too, and so does the format.
SEPARATORS = st.sampled_from(
    [",", ", ", " ", "  ", "\t", " ,\t", "\n", "\r\n", "\r", "\n\n", "\r\n\r\n", "\n \n",
     "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", " \x1f\n", ",\x0c"]
)
RARELY = st.sampled_from([False, False, False, True])
# Put before a token. A comment line may hold any text and may be indented
# with any whitespace; a '#' after a value on its line is a bad token.
COMMENTS = st.sampled_from(
    [
        "\n# a comment, 800\n",
        "\n  # indented with spaces, 1_000\n",
        "\n\t#\tindented with a tab\n",
        "\r\n\u00a0# indented with a no-break space\r\n",
        "\n\x0b\u3000# indented with other whitespace\n",
        "\n\x1f# indented with a unit separator\n",
        "\n# \u00e9t\u00e9 \u2603 \u0668\u0662\u0660 8_10\n",
        "\n#\n",
        "\n# " + "a longer comment, " * 3 + "\n",
        "\n800 # after a value\n",
    ]
)


def _fail_fromstring(*args, **kwargs):
    raise ValueError("string or file could not be read to its end due to unmatched data")


def _reads_prefix(*prefix):
    """np.fromstring as numpy 1.x reads unmatched data: a DeprecationWarning,
    hidden by default, and the values read before the bad token."""

    def fromstring(*args, **kwargs):
        warnings.warn("string or file could not be read to its end due to unmatched data",
                      DeprecationWarning, stacklevel=2)
        return np.array(prefix, dtype=np.float64)

    return fromstring


_warn_fromstring = _reads_prefix(800.0, 810.0, 790.0)


@settings(max_examples=300, deadline=None)
@given(
    tokens=st.lists(st.one_of(*[GOOD_TOKENS] * 5, BAD_TOKENS), max_size=30),
    separators=st.lists(SEPARATORS, min_size=30, max_size=30),
    bom=st.booleans(),
    lead=st.sampled_from(["", "\n", " ", "\r\n", "# header\n", "\x1c"]),
    end=st.sampled_from(["", "\n", "\r\n", "\r", ",", " \n\n", "\x1e"]),
    comments=st.lists(st.tuples(st.integers(0, 31), COMMENTS), max_size=4),
    last_comment=st.sampled_from(["", "", "", "\n# end", "\n  # the end \u2603"]),
    bad_byte_at=RARELY.flatmap(lambda yes: st.integers(0, 400) if yes else st.none()),
    numpy_fails=st.sampled_from([None, None, None, _fail_fromstring, _warn_fromstring]),
)
@example(
    tokens=["800", "1e151", "700"], separators=["\n"] * 30, bom=False, lead="", end="\n",
    comments=[], last_comment="", bad_byte_at=None, numpy_fails=None,
)
@example(
    tokens=["800", "810", "790"], separators=["\x1f"] * 30, bom=False, lead="", end="\n",
    comments=[], last_comment="", bad_byte_at=None, numpy_fails=_fail_fromstring,
)
@example(
    tokens=["800", "810", "790", "oops", "805"], separators=["\n"] * 30, bom=False, lead="",
    end="\n", comments=[], last_comment="", bad_byte_at=None, numpy_fails=_warn_fromstring,
)
@example(
    tokens=["800", "8OO", "810", "790"], separators=["\n"] * 30, bom=False, lead="", end="\n",
    comments=[], last_comment="", bad_byte_at=None, numpy_fails=_reads_prefix(800.0),
)
def test_parser_matches_the_line_scanner(
    tmp_path_factory, tokens, separators, bom, lead, end, comments, last_comment, bad_byte_at,
    numpy_fails,
):
    """The parser gives the line scanner's values bit for bit, or its error,
    also when np.fromstring declines a text, or reads only part of it."""
    parts = [lead]
    for k, token in enumerate(tokens):
        parts += [comment for at, comment in comments if at == k]
        parts += [token, separators[k]] if k < len(tokens) - 1 else [token]
    parts += [comment for at, comment in comments if at >= len(tokens)]
    # A comment may end the file with no line end after it.
    text = "".join(parts) + end + last_comment
    data = ("\ufeff" if bom else "").encode() + text.encode()
    if bad_byte_at is not None:
        at = min(bad_byte_at, len(data))
        data = data[:at] + b"\xff" + data[at:]
    path = tmp_path_factory.mktemp("parse") / "rec.txt"
    path.write_bytes(data)
    expected = _expected(path)
    with pytest.MonkeyPatch.context() as mp:
        if numpy_fails:
            mp.setattr(np, "fromstring", numpy_fails)
        assert _outcome(lambda p: load_rr_series(p).intervals, path) == expected


@pytest.fixture
def one_pass(monkeypatch):
    """The paths opened for reading; a test using it fails if its file
    goes to the per-line walk that names the line of a bad value."""
    opened = []
    path_open = Path.open

    def recording_open(path, mode="r", *args, **kwargs):
        if mode == "r":
            opened.append(path)
        return path_open(path, mode, *args, **kwargs)

    def fail(path, text):
        raise AssertionError(f"{path} went to the per-line walk")

    monkeypatch.setattr(Path, "open", recording_open)
    monkeypatch.setattr(series_module, "_scan_lines", fail)
    return opened


@pytest.mark.parametrize(
    "text",
    ["", "\n \t\r\n", "\x0b\x0c\x1c\x1d\x1e\x1f\n", "# only a comment\n", "  # one\n\n# two"],
)
def test_text_with_no_number_is_too_short(tmp_path, monkeypatch, one_pass, text):
    # np.fromstring(" ", sep=" ") gives [-1.0], so such a text must not reach it.
    def fail(*args, **kwargs):
        raise AssertionError("np.fromstring called on a text with no number")

    monkeypatch.setattr(np, "fromstring", fail)
    path = tmp_path / "rec.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(TooShortSeriesError) as err:
        load_rr_series(path)
    assert str(err.value) == f"{path}: found 0 intervals; need at least 3"
    assert one_pass == [path]


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", ",\x1f "])
def test_every_ascii_space_separates_in_one_pass(tmp_path, one_pass, sep):
    path = write(tmp_path, "rec.txt", sep.join(["800", "810.5", "790", "1e3"]) + "\n")
    assert load_rr_series(path).intervals.tolist() == [800.0, 810.5, 790.0, 1000.0]
    assert one_pass == [path]


def test_one_row_csv_load_peaks_under_three_arrays(tmp_path):
    # A file with no line end is read like any other: no token list or
    # per-part array of it is held beside the text and the values.
    values = np.random.default_rng(5).uniform(400.0, 1400.0, 100_000).round(3).tolist()
    path = write(tmp_path, "rec.csv", ",".join(map(repr, values)))
    load_rr_series(path)  # first calls
    tracemalloc.start()
    try:
        series = load_rr_series(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.intervals.tolist() == values
    assert peak <= 3 * series.intervals.nbytes, peak / series.intervals.nbytes


class TestBlockParser:
    """Texts read in one pass: mixed separators and CRLF pairs, a one-row CSV,
    comment lines anywhere, a long token; and bad tokens at the end of a text
    or after a value on its line, each named by its line."""

    def test_tokens_carried_across_block_ends(self, tmp_path, one_pass):
        path = tmp_path / "rec.txt"
        path.write_bytes(b"\xef\xbb\xbf800.5\r\n810.25,790\t805.125\r\n\r\n795")
        assert load_rr_series(path).intervals.tolist() == [800.5, 810.25, 790.0, 805.125, 795.0]
        assert one_pass == [path]

    def test_one_row_csv_over_many_blocks(self, tmp_path, one_pass):
        values = [round(600 + (k * 37) % 500 + k / 1000, 3) for k in range(5000)]
        path = write(tmp_path, "rec.csv", ",".join(map(repr, values)))
        assert load_rr_series(path).intervals.tolist() == values
        assert one_pass == [path]

    def test_comment_after_the_first_block(self, tmp_path, one_pass):
        path = write(tmp_path, "rec.txt", "800\n" * 10 + "# a note\n" + "810\n" * 10)
        assert load_rr_series(path).intervals.tolist() == [800.0] * 10 + [810.0] * 10
        assert one_pass == [path]

    @pytest.mark.parametrize(
        "text",
        [
            "# header\n" + "800\n" * 10 + "810\n" * 10,
            "800\n" * 10 + "\t # \u00e9t\u00e9 1_000\n" + "810\n" * 10,
            "800\n" * 10 + "810\n" * 10 + "# end",
        ],
    )
    def test_comment_lines_read_in_one_pass(self, tmp_path, one_pass, text):
        path = tmp_path / "rec.txt"
        path.write_text(text, encoding="utf-8")
        assert load_rr_series(path).intervals.tolist() == [800.0] * 10 + [810.0] * 10
        assert one_pass == [path]

    # 4 or 65,536 good lines come before the bad one.
    @pytest.mark.parametrize("lead", [4, 65536])
    def test_hash_after_a_value_is_a_bad_token(self, tmp_path, lead):
        path = write(tmp_path, "rec.txt", "800\n" * lead + "800\n810 # a note\n790\n")
        with pytest.raises(RRParseError) as err:
            load_rr_series(path)
        assert str(err.value) == f"{path}: line {lead + 2}: cannot parse '#' as a number"

    @pytest.mark.parametrize(
        "last, error, message",
        [
            ("oops", RRParseError, "line 21: cannot parse 'oops' as a number"),
            ("-1", RRValidationError, "line 21: interval '-1' must be > 0 and <= 1e+150"),
        ],
    )
    def test_error_in_the_last_block_names_its_line(self, tmp_path, last, error, message):
        path = write(tmp_path, "rec.txt", "800\n" * 20 + last)
        with pytest.raises(error) as err:
            load_rr_series(path)
        assert str(err.value) == f"{path}: {message}"
        assert (err.value.path, err.value.line) == (path, 21)

    def test_token_longer_than_a_block_parses_in_one_pass(self, tmp_path, one_pass):
        path = write(tmp_path, "rec.txt", "800\n" + "0" * 20 + "810\n790\n")
        assert load_rr_series(path).intervals.tolist() == [800.0, 810.0, 790.0]
        assert one_pass == [path]
