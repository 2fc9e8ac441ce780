import csv
import errno
import importlib.util
import io
import json
import math
import os
import random
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr
from decimal import ROUND_FLOOR, Decimal
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tvmhrv import (
    ALL_INDICATORS,
    RADIUS_INDICATORS,
    EmptyInputError,
    IndicatorParams,
    RRSeries,
    indicator_of,
    indicator_value,
    report,
    summarize,
    summarize_reports,
    sweep_r,
)
from tvmhrv import analysis, tvm
from tvmhrv.analysis import ENTROPY_INDICATORS
from tvmhrv.analysis import format_value, round_sig, write_csv, write_json
from tvmhrv.cli import main
from tvmhrv.sodp import QUADRANTS, radius_census, second_order_diff

FIVE = RRSeries([800, 810, 790, 805, 795], source_id="five")
CONSTANT = RRSeries([800] * 12, source_id="flat")


def jittery(seed: int, n: int = 40, spread: float = 40.0) -> list:
    """Deterministic wobbly series without any random module involved."""
    return [800.0 + spread * math.sin(0.7 * i + seed) for i in range(n)]


class TestReport:
    def test_constant_series(self):
        rep = report(CONSTANT)
        assert rep.ctm == 1.0
        assert rep.cctm == (0.0, 0.0, 0.0, 0.0)
        assert rep.d == 0.0
        assert rep.etv_global == 0.0
        assert rep.etv_quadrant == (0.0, 0.0, 0.0, 0.0)

    def test_five_interval_example(self):
        rep = report(FIVE, IndicatorParams(r_ctm=3.0))
        assert rep.ctm == 0.0

    def test_absent_d_when_radius_too_small(self):
        rep = report(FIVE, IndicatorParams(r_ctm=3.0, r_d=3.0))
        assert rep.d is None

    def test_minimum_length_series_end_to_end(self):
        rep = report(RRSeries([800, 810, 790], source_id="tiny"))
        assert rep.source_id == "tiny"
        assert rep.etv_global == 0.0  # a single point is its own single cell

    def test_indicator_value_mapping(self):
        rep = report(FIVE, IndicatorParams(r_ctm=30.0, r_d=30.0))
        assert indicator_value(rep, "ctm") == rep.ctm
        assert indicator_value(rep, "cctm2") == rep.cctm[1]
        assert indicator_value(rep, "d") == rep.d
        assert indicator_value(rep, "etv_global") == rep.etv_global
        assert indicator_value(rep, "etv4") == rep.etv_quadrant[3]
        with pytest.raises(ValueError):
            indicator_value(rep, "sd1")

    @pytest.mark.parametrize("name", ["etv0", "etv5", "cctm0", "cctm9", "etv", "ctm1"])
    def test_indicator_value_rejects_names_off_the_list(self, name):
        # etv0 used to read etv_quadrant[-1], the quadrant IV value.
        rep = report(FIVE)
        with pytest.raises(ValueError, match="unknown indicator"):
            indicator_value(rep, name)
        with pytest.raises(ValueError, match="unknown indicator"):
            indicator_of([FIVE], name)


def bits(value):
    """A float's exact bits (0.0 and -0.0 apart), or None."""
    return None if value is None else value.hex()


class TestIndicatorOf:
    @given(
        st.lists(st.floats(min_value=300.0, max_value=1500.0), min_size=3, max_size=60),
        st.floats(min_value=0.01, max_value=400.0),
        st.floats(min_value=0.01, max_value=400.0),
        st.tuples(*[st.integers(min_value=1, max_value=6)] * 3),
    )
    def test_equals_the_report_bit_for_bit(self, values, r_ctm, r_d, divisions):
        series = RRSeries(values, source_id="s")
        params = IndicatorParams(r_ctm=r_ctm, r_d=r_d, divisions=divisions)
        rep = report(series, params)
        for name in ALL_INDICATORS:
            assert bits(indicator_of([series], name, params)[0]) == bits(indicator_value(rep, name))

    @pytest.mark.parametrize("name", ALL_INDICATORS)
    @pytest.mark.parametrize(
        "series, params",
        [
            (CONSTANT, IndicatorParams()),  # every point at the origin: mean_le == 0
            (RRSeries(list(range(700, 720)), source_id="rise"), IndicatorParams()),  # I only
            (FIVE, IndicatorParams(r_ctm=30.0, r_d=3.0)),  # no point inside r_d: D is None
            (RRSeries([800, 810, 790], source_id="tiny"), IndicatorParams()),
        ],
        ids=["constant", "one_quadrant", "no_d", "one_point"],
    )
    def test_degenerate_series(self, series, params, name):
        want = indicator_value(report(series, params), name)
        assert bits(indicator_of([series], name, params)[0]) == bits(want)

    def test_empty_quadrant_named(self):
        rise = RRSeries(list(range(700, 720)), source_id="rise")
        named = {}
        for name in ALL_INDICATORS:
            empty = []
            indicator_of([rise], name, IndicatorParams(), empty)
            if empty:
                named[name] = empty
        assert named == {"etv2": [rise], "etv3": [rise], "etv4": [rise]}  # etv_global none


# Recordings of every shape the batched E_TV must get right.
batch_recordings = st.lists(
    st.one_of(
        st.lists(st.floats(min_value=300.0, max_value=1500.0), min_size=3, max_size=40),
        st.integers(3, 30).map(lambda n: [800.0] * n),  # every point at the origin: mean_le == 0
        st.integers(3, 30).map(lambda n: [700.0 + i * (i + 1) / 2 for i in range(n)]),  # I only
        st.lists(st.floats(min_value=300.0, max_value=1500.0), min_size=3, max_size=3),  # 1 point
        st.lists(st.sampled_from([800.0, 810.0]), min_size=3, max_size=20),  # collapsed axes
    ),
    max_size=12,
).map(lambda runs: [RRSeries(values, source_id=f"r{i}") for i, values in enumerate(runs)])
batch_divisions = st.one_of(
    st.tuples(*[st.integers(min_value=1, max_value=6)] * 3),
    st.sampled_from([(2**53, 1, 1), (1, 2**53, 1), (1, 1, 2**53), (2097151,) * 3]),
)


@settings(deadline=None)
@given(batch_recordings, batch_divisions, st.sampled_from([1, 5, 40, 2048]))
@example(
    [RRSeries([800.0 + 10 * math.sin(i + k) for i in range(12)], source_id=f"r{k}") for k in range(9)],
    (10, 10, 10),
    20,
)
def test_batched_entropies_equal_the_report_bit_for_bit(recordings, divisions, budget):
    # A budget below a set's size puts each set in a batch of its own.
    params = IndicatorParams(divisions=divisions)
    reports = [report(rec, params) for rec in recordings]
    with mock.patch.object(tvm, "BATCH_POINTS", budget):
        for name in ENTROPY_INDICATORS:
            empty = []
            got = indicator_of(recordings, name, params, empty)
            assert [bits(v) for v in got] == [bits(indicator_value(r, name)) for r in reports]
            if name == "etv_global":
                assert empty == []
            else:
                q = int(name[3:]) - 1
                assert empty == [rec for rec, r in zip(recordings, reports) if not r.quadrant_points[q]]


class TestParams:
    def test_defaults_follow_reported_choices(self):
        params = IndicatorParams()
        assert params.r_ctm == 3.0
        assert params.r_d == 6.0
        assert params.divisions == (10, 10, 10)

    @pytest.mark.parametrize(
        "kwargs", [{"r_ctm": 0.0}, {"r_d": -1.0}, {"divisions": (0, 1, 1)}, {"r_ctm": math.inf}]
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IndicatorParams(**kwargs)

    @pytest.mark.parametrize(
        "divisions", [(0, 1, 1), (1, 1, 1.5), (1, 1), (2**21,) * 3, (1, 1, 2**53 + 1)]
    )
    def test_divisions_follow_the_grid_rule(self, divisions):
        with pytest.raises(ValueError) as grid_error:
            tvm.build_grid(np.zeros(1), np.zeros(1), np.zeros(1), divisions)
        with pytest.raises(ValueError) as params_error:
            IndicatorParams(divisions=divisions)
        assert str(params_error.value) == str(grid_error.value)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_divisions_break_the_grid_rule(self, bad):
        # Each division is tested before int() sees it, which raises its own errors.
        rule = r"^divisions must be three integers >= 1, got \(1, (inf|-inf|nan), 1\)$"
        with pytest.raises(ValueError, match=rule):
            tvm.build_grid(np.zeros(1), np.zeros(1), np.zeros(1), (1, bad, 1))
        with pytest.raises(ValueError, match=rule):
            IndicatorParams(divisions=(1, bad, 1))


class TestSweep:
    def test_single_recording_equals_report(self):
        row = sweep_r([FIVE], "ctm", [3.0])
        assert row == (report(FIVE, IndicatorParams(r_ctm=3.0)).ctm,)

    @given(
        st.lists(st.floats(min_value=300.0, max_value=1500.0), min_size=3, max_size=40),
        st.floats(min_value=0.01, max_value=400.0),
    )
    @example(values=[800, 810, 790, 805, 795], r=3.0)  # no point inside r: D is None
    def test_single_recording_equals_report_for_every_radius_indicator(self, values, r):
        series = RRSeries(values, source_id="solo")
        rep = report(series, IndicatorParams(r_ctm=r, r_d=r))
        for indicator in RADIUS_INDICATORS:
            (swept,) = sweep_r([series], indicator, [r])
            assert swept == indicator_value(rep, indicator), indicator

    def test_ctm_rows_non_decreasing(self):
        groups = {
            "a": (RRSeries(jittery(1)),),
            "b": (RRSeries(jittery(2, spread=5.0)),),
        }
        for recordings in groups.values():
            row = sweep_r(recordings, "ctm", [0.5, 1.0, 2.0, 5.0, 20.0, 100.0])
            assert list(row) == sorted(row)

    def test_constant_dataset_is_all_ones(self):
        assert sweep_r((CONSTANT, CONSTANT), "ctm", [0.5, 1.0, 3.0]) == (1.0, 1.0, 1.0)

    def test_d_absent_entries_do_not_abort(self):
        row = sweep_r([FIVE], "d", [1.0, 30.0])
        assert row[0] is None
        assert row[1] == pytest.approx(21.796145384105944, abs=1e-9)

    def test_group_mean_is_np_mean_in_source_id_order(self):
        # numpy sums 8 or more values pairwise; here that differs, bit for bit,
        # from a running sum and from np.mean in the reverse order.
        recs = [RRSeries(jittery(k, spread=5.0 + 3 * k), source_id=f"r{k}") for k in range(9)]
        values = [
            indicator_value(radius_census(second_order_diff(rec), (10.0,))[0], "ctm")
            for rec in recs
        ]
        running = 0.0
        for v in values:
            running += v
        assert np.mean(values) not in (running / len(values), np.mean(values[::-1]))
        for recordings in (recs[::-1], iter(recs[::-1])):
            (mean,) = sweep_r(recordings, "ctm", [10.0])
            assert mean == np.mean(values)

    def test_unknown_indicator_rejected(self):
        with pytest.raises(ValueError):
            sweep_r([FIVE], "etv_global", [1.0])

    def test_requires_recordings(self):
        for recordings in ([], iter(())):
            with pytest.raises(EmptyInputError, match="need at least one recording"):
                sweep_r(recordings, "ctm", [1.0])

    def test_recordings_are_read_once_after_the_arguments_are_checked(self):
        def unread():
            raise AssertionError("recordings read before the arguments were checked")
            yield

        for indicator, grid in (("ctm", []), ("ctm", [2.0, 1.0]), ("etv1", [1.0])):
            with pytest.raises(ValueError):
                sweep_r(unread(), indicator, grid)
        reads = []

        def counted():
            for rec in (FIVE, CONSTANT):
                reads.append(rec.source_id)
                yield rec

        row = sweep_r(counted(), "ctm", [3.0, 30.0])
        assert reads == ["five", "flat"]
        assert row == sweep_r([FIVE, CONSTANT], "ctm", [3.0, 30.0])

    def test_table_validates_ascending_radii(self):
        group = [FIVE]
        with pytest.raises(ValueError, match="strictly ascending"):
            sweep_r(group, "ctm", [2.0, 1.0])
        with pytest.raises(ValueError, match="strictly ascending"):
            sweep_r(group, "ctm", [1.0, 1.0])
        with pytest.raises(ValueError, match="non-empty"):
            sweep_r(group, "ctm", [])

    @pytest.mark.parametrize("grid", [[2.0, 1.0], []])
    def test_bad_grid_rejected_before_any_census(self, grid, monkeypatch):
        def census(*args):
            raise AssertionError("radius_census ran before the grid was checked")

        monkeypatch.setattr(analysis, "radius_census", census)
        with pytest.raises(ValueError, match="r_values must be"):
            sweep_r([FIVE], "ctm", grid)


class TestSummarize:
    def test_two_values(self):
        stats = summarize([1.0, 3.0])
        assert stats.mean == 2.0
        assert stats.std == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert (stats.minimum, stats.maximum) == (1.0, 3.0)

    def test_single_value(self):
        stats = summarize([7.0])
        assert stats.mean == 7.0
        assert stats.std == 0.0
        assert stats.q1 == stats.median == stats.q3 == 7.0

    def test_linear_interpolation_quartiles(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.q1 == 1.75
        assert stats.median == 2.5
        assert stats.q3 == 3.25

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_summary_ordering(self, values):
        stats = summarize(values)
        assert stats.minimum <= stats.q1 <= stats.median <= stats.q3 <= stats.maximum
        assert stats.minimum <= stats.mean <= stats.maximum
        assert stats.n == len(values)


def summarize_group(group, params=IndicatorParams()):
    ((name, recordings),) = group.items()
    return summarize_reports(name, [report(rec, params) for rec in recordings])


class TestAggregate:
    def test_identical_recordings_zero_std(self):
        group = {"same": (CONSTANT, CONSTANT, CONSTANT)}
        summary = summarize_group(group)
        for stats in summary.values():
            assert stats.std == 0.0
            assert stats.n == 3

    def test_matches_per_recording_reports(self):
        recs = (
            RRSeries(jittery(3), source_id="r1"),
            RRSeries(jittery(4), source_id="r2"),
        )
        params = IndicatorParams(r_ctm=30.0, r_d=60.0)
        summary = summarize_group({"pair": recs}, params)
        values = [report(rec, params).ctm for rec in recs]
        assert summary["ctm"].mean == pytest.approx(sum(values) / 2, abs=1e-15)
        assert summary["ctm"].values == tuple(values)

    def test_d_omitted_when_never_defined(self):
        group = {"far": (FIVE,)}
        summary = summarize_group(group, IndicatorParams(r_ctm=3.0, r_d=1.0))
        assert "d" not in summary
        assert "ctm" in summary

    def test_order_independence(self):
        r1 = RRSeries(jittery(5), source_id="a")
        r2 = RRSeries(jittery(6), source_id="b")
        s1 = summarize_group({"g": (r1, r2)})
        s2 = summarize_group({"g": (r2, r1)})
        assert s1 == s2

    def test_empty_group_rejected(self):
        with pytest.raises(EmptyInputError):
            summarize_group({"g": ()})


def rows_then_failure():
    yield ["a", 1.0]
    raise RuntimeError("row source failed")


class TestWriteCsv:
    def test_failed_write_leaves_no_file(self, tmp_path):
        out = tmp_path / "table.csv"
        with pytest.raises(RuntimeError):
            write_csv(out, ["name", "value"], rows_then_failure())
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        out = tmp_path / "table.csv"
        out.write_text("old\n")
        with pytest.raises(RuntimeError):
            write_csv(out, ["name", "value"], rows_then_failure())
        assert list(tmp_path.iterdir()) == [out]
        assert out.read_text() == "old\n"

    def test_missing_directory_error_names_the_target(self, tmp_path):
        out = tmp_path / "missing" / "table.csv"
        with pytest.raises(FileNotFoundError) as info:
            write_csv(out, ["name"], [["a"]])
        assert str(out) in str(info.value) and ".tmp" not in str(info.value)

    def test_file_in_the_path_error_names_the_target(self, tmp_path):
        # The temporary file cannot be made under a regular file, and removing
        # it then fails too; that second error must not replace the first.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "table.csv"
        with pytest.raises(NotADirectoryError) as info:
            write_csv(out, ["name"], [["a"]])
        assert str(out) in str(info.value) and ".tmp" not in str(info.value)
        assert list(tmp_path.iterdir()) == [blocker]

    def test_new_file_mode_as_open_gives(self, tmp_path):
        reference = tmp_path / "reference"
        reference.open("w").close()
        out = tmp_path / "table.csv"
        write_csv(out, ["name"], [["a"]])
        assert out.read_text() == "name\na\n"
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)

    def test_existing_file_keeps_its_mode(self, tmp_path):
        out = tmp_path / "table.csv"
        out.write_text("old\n")
        out.chmod(0o640)
        write_csv(out, ["name"], [["a"]])
        assert out.read_text() == "name\na\n"
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize(
        ("rows", "message", "printed"),
        [
            ([[1.0, 2.0], [3.0]], "row 1 has 2 fields under a header of 1", "a\n"),
            ([[1.0], [2.0], []], "row 3 has 0 fields under a header of 1", "a\n1\n2\n"),
        ],
        ids=["wide-first-row", "empty-third-row"],
    )
    def test_row_of_another_width_is_a_value_error(self, tmp_path, capsys, rows, message, printed):
        with pytest.raises(ValueError, match=f"^{message}$"):
            write_csv(None, ["a"], rows)
        assert capsys.readouterr().out == printed  # rows before the bad one stay printed
        out = tmp_path / "table.csv"
        with pytest.raises(ValueError, match=f"^{message}$"):
            write_csv(out, ["a"], rows)
        assert list(tmp_path.iterdir()) == []
        out.write_text("old\n")
        with pytest.raises(ValueError, match=f"^{message}$"):
            write_csv(out, ["a"], rows)
        assert list(tmp_path.iterdir()) == [out]
        assert out.read_text() == "old\n"

    def test_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        write_csv(link, ["name"], [["a"]])
        assert link.is_symlink()
        assert target.read_text() == "name\na\n"


class FullAfter:
    """A text file that takes k characters, then raises OSError(ENOSPC) as a full disk does."""

    def __init__(self, fh, k: int):
        self.fh, self.room = fh, k

    def write(self, text: str) -> int:
        if len(text) > self.room:
            self.fh.write(text[: self.room])
            self.room = 0
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= len(text)
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()


def disk_full_after(k: int):
    """A patch under which each file opened for writing takes k characters, then fails."""
    real_open = Path.open

    def open_(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        return FullAfter(fh, k) if "w" in mode else fh

    return mock.patch.object(Path, "open", open_)


# Each form of the two writers, on enough rows for several writes.
WRITER_FORMS = {
    "csv-rows": lambda path: write_csv(path, ["name", "value"], [["a", 1.5], ["b,c", None]] * 9),
    "csv-columns": lambda path: write_csv(path, edge_table()[0], columns=edge_table()[1]),
    "json-payload": lambda path: write_json(path, {"values": [1.5, None, "a"] * 9}),
    "json-records": lambda path: write_json(path, {"source_id": "rec"}, records=edge_table()),
}


@settings(max_examples=200, deadline=None)
@given(form=st.sampled_from(sorted(WRITER_FORMS)), old=st.booleans(), data=st.data())
def test_a_write_that_fails_part_way_leaves_the_old_file(form, old, data):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "BLOCK_ROWS", 4)  # records in several chunks
        WRITER_FORMS[form](Path(tmp, "full"))
        text = Path(tmp, "full").read_text()
        k = data.draw(st.integers(min_value=0, max_value=len(text)), label="k")
        out = Path(tmp, "out")
        if old:
            out.write_text("old\n")
        try:
            with disk_full_after(k):
                WRITER_FORMS[form](out)
        except OSError as exc:
            assert k < len(text)
            assert (exc.errno, exc.filename) == (errno.ENOSPC, str(out))
            assert sorted(os.listdir(tmp)) == ["full", "out"][: 1 + old]
            assert not old or out.read_text() == "old\n"
        else:
            assert k == len(text)
            assert sorted(os.listdir(tmp)) == ["full", "out"]
            assert out.read_text() == text


CORPUS = Path(__file__).resolve().parent / "fixtures" / "corpus"


@settings(max_examples=60, deadline=None)
@given(
    argv=st.sampled_from([
        ["indicators", str(CORPUS / "steady"), "--out", "{out}/indicators.csv"],
        ["indicators", str(CORPUS / "steady"), "--format", "json", "--out", "{out}/ind.json"],
        ["points", str(CORPUS / "steady" / "rec00.txt"), "--out", "{out}"],
        ["points", str(CORPUS / "steady" / "rec00.txt"), "--format", "json", "--out", "{out}"],
    ]),
    old=st.booleans(),
    data=st.data(),
)
def test_main_exits_1_when_the_disk_fills(argv, old, data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [token.replace("{out}", tmp) for token in argv]
        with redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        texts = {path.name: path.read_text() for path in Path(tmp).iterdir()}
        k = data.draw(st.integers(min_value=0, max_value=max(map(len, texts.values()))), label="k")
        if not old:
            for name in texts:
                Path(tmp, name).unlink()
        err = io.StringIO()
        with disk_full_after(k), redirect_stderr(err):
            code = main(argv)
        left = {path.name: path.read_text() for path in Path(tmp).iterdir()}
        assert all(texts[name] == text for name, text in left.items())  # whole, old or new
        if code == 0:
            assert all(len(text) <= k for text in texts.values()) and left == texts
            return
        assert code == 1
        (line,) = err.getvalue().splitlines()
        failed = next(name for name in texts if line.endswith(f"'{Path(tmp, name)}'"))
        assert line.startswith(f"tvmhrv: error: [Errno {errno.ENOSPC}] ")
        assert len(texts[failed]) > k and (failed in left) == old


# Every kind of scalar a payload may hold; st.floats() includes NaN, infinities,
# -0.0 and subnormals.
SCALARS = st.one_of(st.floats(), st.integers(), st.text(), st.none(), st.booleans())


# Floats whose JSON text '%.9g' does not give, and their neighbours.
EDGE_FLOATS = [
    3.0, -7.0, 800.0, 123456789.0, 999999999.0, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
    1e-4, 5e-4, 9.9999e-4, 1e-3, 0.9999999999, 9.9999999996, 99999999.95, 999999999.5, 1e9,
    1e16, 1.5e300, 800.25, math.nan, math.inf, -math.inf,
]
# Labels as the point export writes them, and others the writers take: non-empty
# printable ASCII without ',', '"' or '\\', which csv.writer writes as they are.
LABELS = ["I", "II", "III", "IV", "axis", " I ", "'q'", "a;b", "x" * 300]
# Labels the writers refuse, by the rule each breaks.
REFUSED_LABELS = {
    "empty": "", "comma": "a,b", "quote": 'say "x"', "backslash": "a\\b", "newline": "two\nlines",
    "tab": "tab\t", "nul": "nul\0", "control": "\x01", "non-ascii": "été",
}
LABEL_TEXT = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0x7E, exclude_characters=',"\\'), min_size=1
)


def labelled(column: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """A str array as a (codes, labels) column, by np.unique."""
    labels, codes = np.unique(column, return_inverse=True)
    return codes, labels.tolist()


def values_of(column) -> list:
    """A column's row values as Python objects."""
    if isinstance(column, tuple):
        codes, labels = column
        return [labels[c] for c in codes.tolist()]
    return column.tolist()


@st.composite
def array_columns(draw):
    """A header and aligned int64 (>= 0), float64 and (codes, labels) columns of str arrays."""
    kinds = draw(st.lists(st.sampled_from(["int", "float", "str"]), max_size=5))
    header = draw(st.lists(st.text(), min_size=len(kinds), max_size=len(kinds), unique=True))
    n = draw(st.integers(min_value=0, max_value=12))
    values = {
        "int": st.integers(min_value=0, max_value=2**63 - 1),
        "float": st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)),
        "str": st.one_of(st.sampled_from(LABELS), LABEL_TEXT),
    }
    dtypes = {"int": np.int64, "float": np.float64, "str": str}
    columns = [
        np.array(draw(st.lists(values[kind], min_size=n, max_size=n)), dtype=dtypes[kind])
        for kind in kinds
    ]
    return header, [labelled(col) if col.dtype.kind == "U" else col for col in columns]


def edge_table():
    """Every edge float in a float64 column, first, beside an int64 index."""
    floats = np.array(EDGE_FLOATS, dtype=np.float64)
    index = np.arange(len(floats), dtype=np.int64)
    return ["index", "value %s"], [index, floats]


class TestBlockPath:
    """Array columns, BLOCK_ROWS rows to a coltext block, against the per-value writers."""

    @given(table=array_columns(), block_rows=st.integers(min_value=1, max_value=5))
    @example(table=edge_table(), block_rows=1)
    @example(table=edge_table(), block_rows=4)
    @example(table=(["q"], [labelled(np.array(["I", "x" * 300, "IV", "x"]))]), block_rows=2)
    @example(table=(["n"], [np.array([], dtype=np.float64)]), block_rows=3)
    def test_csv_equals_csv_writer(self, table, block_rows):
        header, columns = table
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*map(values_of, columns)):
            writer.writerow([format_value(v) if isinstance(v, float) else v for v in row])
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "BLOCK_ROWS", block_rows)
            out = Path(tmp, "block.csv")
            write_csv(out, header, columns=columns)
            with out.open(newline="") as fh:
                assert fh.read() == expected.getvalue()

    @given(
        head=st.dictionaries(st.text().filter(lambda k: k != "points"), SCALARS, max_size=2),
        table=array_columns(),
        block_rows=st.integers(min_value=1, max_value=5),
    )
    @example(head={"source_id": "rec"}, table=edge_table(), block_rows=1)
    @example(head={"source_id": "rec"}, table=edge_table(), block_rows=4)
    @example(head={"source_id": "rec"}, table=(["x"], [np.array([], dtype=np.int64)]), block_rows=2)
    def test_json_equals_the_dict_tree(self, head, table, block_rows):
        header, columns = table
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "BLOCK_ROWS", block_rows)
            streamed, tree = Path(tmp, "streamed.json"), Path(tmp, "tree.json")
            write_json(streamed, head, records=(header, columns))
            points = [dict(zip(header, row)) for row in zip(*map(values_of, columns))]
            write_json(tree, {**head, "points": points})
            assert streamed.read_bytes() == tree.read_bytes()

    def test_plain_columns_skip_the_per_value_path(self, tmp_path, monkeypatch):
        def fail(value):
            raise AssertionError("formatted one value at a time")

        for name in ("_csv_row", "format_value", "_json_scalar"):
            monkeypatch.setattr(analysis, name, fail)
        header = ["index", "x", "quadrant"]
        columns = [
            np.arange(4),
            np.array([800.25, 3.0, -0.0, -12.5]),  # '%.1f' writes the integral ones
            labelled(np.array(["I", "IV", "axis", "II"])),
        ]
        write_csv(tmp_path / "p.csv", header, columns=columns)
        write_json(tmp_path / "p.json", {}, records=(header, columns))
        assert (tmp_path / "p.csv").read_text().splitlines()[1:] == [
            "0,800.25,I", "1,3,IV", "2,-0,axis", "3,-12.5,II",
        ]
        assert [list(p.values()) for p in json.loads((tmp_path / "p.json").read_text())["points"]] == [
            [0, 800.25, "I"], [1, 3.0, "IV"], [2, -0.0, "axis"], [3, -12.5, "II"],
        ]


class TestWriterInputs:
    """What the column writers accept: aligned 1-D arrays of ints >= 0 or float64, and
    (codes, labels)."""

    @pytest.mark.parametrize(
        "column",
        [
            [1.0, 2.0],
            np.array([[1.0, 2.0], [3.0, 4.0]]),
            np.array([1.0, 2.0], dtype=np.float32),
            np.array([True, False]),
            np.array([1.0, "a"], dtype=object),
            np.array(["I", "II"]),
        ],
        ids=["list", "2-D", "float32", "bool", "object", "str"],
    )
    @pytest.mark.parametrize("writer", ["csv", "json"])
    def test_other_columns_are_a_type_error(self, tmp_path, column, writer):
        out = tmp_path / f"p.{writer}"
        with pytest.raises(TypeError, match="1-D numpy arrays of ints or float64, or"):
            if writer == "csv":
                write_csv(out, ["x"], columns=[column])
            else:
                write_json(out, {}, records=(["x"], [column]))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "header, columns, message",
        [
            (["a", "b"], [np.arange(3), np.array([1.5, 2.5])], "columns of unequal length"),
            (["a"], [np.arange(2), np.array([1.5, 2.5])], "1 header names for 2 columns"),
            (["a", "b", "c"], [np.arange(2), np.array([1.5, 2.5])], "3 header names for 2"),
        ],
        ids=["short-column", "short-header", "long-header"],
    )
    def test_misaligned_columns_are_a_value_error(self, tmp_path, capsys, header, columns, message):
        for call in (
            lambda path: write_csv(path, header, columns=columns),
            lambda path: write_json(path, {}, records=(header, columns)),
        ):
            with pytest.raises(ValueError, match=message):
                call(None)  # stdout: nothing may be written before the check
            assert capsys.readouterr().out == ""
            with pytest.raises(ValueError, match=message):
                call(tmp_path / "p")
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "column, error, message",
        [
            ((np.array([0, 2]), ["I", "II"]), ValueError, r"codes outside range\(2\)"),
            ((np.array([0, -1]), ["I", "II"]), ValueError, r"codes outside range\(2\)"),
            ((np.array([0, 1]), []), ValueError, r"codes outside range\(0\)"),
            ((np.array([0.0, 1.0]), ["I", "II"]), TypeError, "column 1's codes are a"),
            (([0, 1], ["I", "II"]), TypeError, "column 1's codes are a"),
            ((np.array([0, 1]), ["I", 2]), TypeError, "labels must be a list or tuple of str"),
            ((np.array([0, 1]), np.array(["I", "II"])), TypeError, "labels must be a list"),
            ((np.array([0, 1, 0]), ["I", "II"]), ValueError, "columns of unequal length"),
            *(
                ((np.array([0, 1]), ["I", label]), ValueError, "labels must be non-empty printable")
                for label in REFUSED_LABELS.values()
            ),
        ],
        ids=[
            "above", "negative", "no-labels", "float", "list", "int-label", "array", "length",
            *REFUSED_LABELS,
        ],
    )
    def test_bad_labelled_codes_write_nothing(self, tmp_path, capsys, column, error, message):
        header, columns = ["index", "quadrant"], [np.arange(2), column]
        for call in (
            lambda path: write_csv(path, header, columns=columns),
            lambda path: write_json(path, {}, records=(header, columns)),
        ):
            with pytest.raises(error, match=message):
                call(None)
            assert capsys.readouterr().out == ""
            with pytest.raises(error, match=message):
                call(tmp_path / "p")
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_negative_ints_write_nothing(self, tmp_path, capsys, dtype):
        header, columns = ["index", "x"], [np.array([0, -1, 2], dtype=dtype), np.arange(3) / 2]
        for call in (
            lambda path: write_csv(path, header, columns=columns),
            lambda path: write_json(path, {}, records=(header, columns)),
        ):
            with pytest.raises(ValueError, match="^column 0 has ints below 0$"):
                call(None)
            assert capsys.readouterr().out == ""
            with pytest.raises(ValueError, match="^column 0 has ints below 0$"):
                call(tmp_path / "p")
            assert list(tmp_path.iterdir()) == []

    def test_labelled_codes_of_any_int_dtype(self, tmp_path):
        labels = ["I", "II", "III", "IV", "axis"]
        codes = np.array([4, 0, 3, 1, 2], dtype=np.int8)
        expected = ["quadrant", "axis", "I", "IV", "II", "III"]
        for dtype in (np.int8, np.uint8, np.int64, np.uint64):
            write_csv(tmp_path / "q.csv", ["quadrant"], columns=[(codes.astype(dtype), labels)])
            assert (tmp_path / "q.csv").read_text().split() == expected

    def test_numpy_float_scalar_in_a_row(self, capsys):
        write_csv(None, ["a", "b", "c"], [[np.float32(0.1), np.float64(0.1), 0.1]])
        assert capsys.readouterr().out == "a,b,c\n0.100000001,0.1,0.1\n"


def dense_floats() -> dict[str, np.ndarray]:
    """About 10**6 float64s by kind, for the column kernel's digits and declines."""
    rng = np.random.default_rng(20261019)
    n = 200_000
    signs = rng.choice([-1.0, 1.0], n)
    ties = rng.integers(10**8, 10**9, n // 2) * 10 + 5  # 10 digits ending in 5
    ties = [float(f"{d}e{k}") for d, k in zip(ties.tolist(), rng.integers(-14, 0, n // 2).tolist())]
    powers = 10.0 ** np.arange(-5, 10)
    multiples = [float(f"{m}e{k}") for m in range(1, 1000) for k in range(-4, 9)]
    return {
        "log-uniform": signs * np.exp(rng.uniform(math.log(1e-6), math.log(1e11), n)),
        "intervals": np.diff(np.round(rng.uniform(250.0, 2000.0, n + 1), 3)),
        "near-ties": np.array(ties) * signs[: n // 2],
        "powers": np.concatenate([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)]),
        "multiples": np.array(multiples) * signs[: len(multiples)],
        "eighths": np.arange(-n, n) / 8,
        "special": np.array(
            [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf, math.nan]
        ),
    }


def written_csv_fields(path: Path) -> list[str]:
    return path.read_text().split("\n")[1:-1]


def written_json_fields(path: Path) -> list[str]:
    lines = path.read_text().split("\n")
    return [line.split(": ", 1)[1] for line in lines if line.startswith('      "')]


def test_json_scalar_is_json_of_the_rounded_value():
    rng = np.random.default_rng(35)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False).view(np.float64)
    tiny = 5e-324
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, tiny, -tiny, 2.2250738585072009e-308]
    values = special + bits.tolist() + (rng.random(1000) * 2.0**-1022).tolist()
    assert [analysis._json_scalar(v) for v in values] == [json.dumps(round_sig(v)) for v in values]


class TestColumnKernel:
    """The column writers' text of dense values, and which values they decline."""

    def test_floats_equal_the_per_value_text(self, tmp_path, monkeypatch):
        kinds = dense_floats()
        values = np.concatenate(list(kinds.values()))
        declined = []

        def counted(fallback):
            def call(v):
                declined.append(v)
                return fallback(v)

            return call

        monkeypatch.setattr(analysis, "format_value", counted(format_value))
        write_csv(tmp_path / "v.csv", ["v"], columns=[values])
        csv_declined = set(map(float.hex, declined))
        monkeypatch.setattr(analysis, "format_value", format_value)
        monkeypatch.setattr(analysis, "_json_scalar", counted(analysis._json_scalar))
        declined.clear()
        write_json(tmp_path / "v.json", {}, records=(["v"], [values]))
        assert set(map(float.hex, declined)) == csv_declined

        floats = values.tolist()
        assert written_csv_fields(tmp_path / "v.csv") == [format(v, ".9g") for v in floats]
        as_json = json.dumps([round_sig(v) for v in floats])[1:-1].split(", ")
        assert written_json_fields(tmp_path / "v.json") == as_json

        def declined_share(kind, fixed_only=False):
            v = kinds[kind]
            if fixed_only:  # '%.9g' writes these without an exponent
                rounded = np.abs([round_sig(x) for x in v.tolist()])
                v = v[(rounded >= 1e-4) & (rounded < 1e9)]
            return np.mean([float.hex(x) in csv_declined for x in v.tolist()])

        for kind in ("intervals", "eighths", "multiples", "powers"):
            assert declined_share(kind, fixed_only=True) == 0, kind  # none is near a tie
        assert declined_share("multiples") > 0  # those from 1e9 up
        assert declined_share("near-ties") == 1  # too near a tie to round in float64
        assert declined_share("special") == 6 / 8  # all but 0 and -0
        assert declined_share("log-uniform", fixed_only=True) < 1e-4
        assert 0.2 < declined_share("log-uniform") < 0.3  # 4 of its 17 decades

    def test_ints_equal_str(self, tmp_path):
        powers = [10**k + d for k in range(19) for d in (-1, 0, 1)]
        ints = np.array([0, 2**63 - 1] + powers, dtype=np.int64)
        unsigned = np.array([0, 1, 9999, 10**19, 2**63, 2**64 - 1], dtype=np.uint64)
        for column in (ints, unsigned):
            write_csv(tmp_path / "i.csv", ["i"], columns=[column])
            write_json(tmp_path / "i.json", {}, records=(["i"], [column]))
            expected = [str(v) for v in column.tolist()]
            assert written_csv_fields(tmp_path / "i.csv") == expected
            assert written_json_fields(tmp_path / "i.json") == expected


def make_demo_data():
    """scripts/make_demo_data.py as a module."""
    spec = importlib.util.spec_from_file_location(
        "make_demo_data", Path(__file__).resolve().parents[1] / "scripts" / "make_demo_data.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def demo_recordings(tmp_path: Path) -> list[Path]:
    """The recordings of `make_demo_data.py --recordings 1 --length 100000 --seed 1`, as
    made and rounded to 1 ms."""
    module = make_demo_data()
    rng = random.Random(1)
    paths = []
    for name, maker in (("steady", module.steady_series), ("erratic", module.erratic_series)):
        values = maker(rng, 100_000)
        for suffix, text in (("", "{:.3f}\n"), ("_ms", "{:.0f}\n")):
            path = tmp_path / f"{name}{suffix}.txt"
            path.write_text("".join(map(text.format, values)))
            paths.append(path)
    return paths


def tie_distance(v: float) -> Decimal:
    """How far v lies from a tie of its 9-digit rounding, in units of the 9th digit."""
    exact = Decimal(v)
    scaled = exact.scaleb(8 - exact.adjusted())
    return abs(scaled - scaled.to_integral_value(rounding=ROUND_FLOOR) - Decimal("0.5"))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_points_export_rarely_falls_back(tmp_path, corpus_dir, monkeypatch, fmt):
    fallback = "format_value" if fmt == "csv" else "_json_scalar"
    per_value = getattr(analysis, fallback)
    declined = []
    monkeypatch.setattr(analysis, fallback, lambda v: declined.append(v) or per_value(v))
    inputs = [corpus_dir / "steady", corpus_dir / "erratic", *demo_recordings(tmp_path)]
    floats = 0
    for k, path in enumerate(inputs):
        assert main(["points", str(path), "--format", fmt, "--out", str(tmp_path / str(k))]) == 0
        files = [path] if path.is_file() else list(path.iterdir())
        floats += sum(8 * (len(f.read_text().split()) - 2) for f in files)  # 2 + 6 per point
    assert floats > 800_000
    assert len(declined) < floats / 1000
    for v in declined:  # only noise next to 0, or a value within a hair of a tie
        assert abs(v) < 1e-4 or tie_distance(v) < Decimal("2e-6"), v


def export_table() -> tuple[list[str], list]:
    """The 8 columns `points` exports for a 100k-interval make_demo_data.py recording."""
    values = make_demo_data().steady_series(random.Random(1), 100_002)
    rec = RRSeries(np.round(values, 3), source_id="day")
    lifted = tvm.build_tvm_points(second_order_diff(rec))
    points = lifted.base
    quadrant = (points.code, QUADRANTS)
    header = ["index", "x", "y", "d_co", "le", "l", "z", "quadrant"]
    index = np.arange(len(points), dtype=np.min_scalar_type(len(points)))
    columns = [index, points.x, points.y, lifted.d_co, lifted.le, lifted.l]
    return header, columns + [lifted.z, quadrant]


# tracemalloc peaks on export_table() of the writers of 7aa820b, which took the
# quadrant as a str array and found its codes again per file (Python 3.11.7,
# numpy 2.4.6); the `%` row template writers before them peaked at 4,767,201
# (CSV) and 10,381,338 bytes (JSON).
STR_COLUMN_WRITER_PEAK = {"csv": 3_617_061, "json": 4_988_195}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_memory_stays_below_the_template_writer(tmp_path, fmt):
    header, columns = export_table()

    def write(path, columns):
        if fmt == "csv":
            write_csv(path, header, columns=columns)
        else:
            write_json(path, {"source_id": "day"}, records=(header, columns))

    warm = [(col[0][:10], col[1]) if isinstance(col, tuple) else col[:10] for col in columns]
    write(tmp_path / "warm", warm)  # imports and tables
    tracemalloc.start()
    try:
        write(tmp_path / "day", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= STR_COLUMN_WRITER_PEAK[fmt]


def test_only_column_writes_import_the_kernel(corpus_dir, tmp_path):
    steady, erratic = corpus_dir / "steady", corpus_dir / "erratic"
    script = f"""
import sys
from tvmhrv.cli import main
for argv in (["indicators", {str(steady)!r}, "--out", {str(tmp_path / "i.csv")!r}],
             ["classify", {str(steady)!r}, {str(erratic)!r}, "--indicator", "etv1",
              "--out", {str(tmp_path / "c.csv")!r}],
             ["sweep", {str(steady)!r}, "--r-grid", "1:3:1", "--out", {str(tmp_path / "s.csv")!r}]):
    assert main(argv) == 0, argv
assert "tvmhrv.coltext" not in sys.modules
main(["points", {str(steady)!r}, "--out", {str(tmp_path)!r}])
assert "tvmhrv.coltext" in sys.modules
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", script], check=True, env=env)
