import csv
import errno
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from tvmhrv import (
    ALL_INDICATORS,
    IndicatorParams,
    RRSeries,
    TvmhrvError,
    cli,
    cluster,
    indicator_value,
    load_recordings,
    load_rr_series,
    report,
)
from tvmhrv.analysis import round_sig, write_csv
from tvmhrv.cli import main, parse_divisions, parse_r_grid
from tvmhrv.sodp import QUADRANTS, second_order_diff
from tvmhrv.tvm import build_tvm_points


def run(argv):
    return main([str(a) for a in argv])


def write_series(path: Path, values) -> Path:
    path.write_text("".join(f"{v}\n" for v in values))
    return path


def read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture
def same_named_groups(tmp_path):
    """a/data and b/data; a/data holds a file that does not parse, so an error
    that does not name it was raised before any file was read."""
    paths = []
    for parent, base in (("a", 800), ("b", 600)):
        ddir = tmp_path / parent / "data"
        ddir.mkdir(parents=True)
        for k in range(3):
            write_series(ddir / f"{parent}{k}.txt", [base + (i % 3) * (k + 1) for i in range(9)])
        paths.append(ddir)
    (paths[0] / "bad.txt").write_text("800\noops\n790\n")
    return paths


def assert_repeated_name_error(capsys, a, b):
    assert capsys.readouterr().err == f"tvmhrv: error: inputs {a} and {b} are both named 'data'\n"


@pytest.fixture
def rr_file(tmp_path):
    return write_series(tmp_path / "rec.txt", [800, 810, 790, 805, 795])


class TestParsers:
    def test_divisions(self):
        assert parse_divisions("4,5,6") == (4, 5, 6)

    @pytest.mark.parametrize("bad", ["4,5", "a,b,c", "0,1,1", "1,1"])
    def test_divisions_rejects(self, bad):
        with pytest.raises(Exception):
            parse_divisions(bad)

    def test_divisions_below_a_64_bit_cell_count(self, rr_file, tmp_path, capsys):
        # 2097152**3 == 2**63: one cell more than a signed 64-bit index counts.
        assert run(["indicators", rr_file, "--divisions", "2097151,2097151,2097151",
                    "--out", tmp_path / "r.csv"]) == 0
        for text in ("2097152,2097152,2097152", "10000000,10000000,10000000", f"1,1,{2**63}"):
            with pytest.raises(SystemExit) as info:
                run(["indicators", rr_file, "--divisions", text])
            assert info.value.code == 2
            err = capsys.readouterr().err
            divisions = tuple(map(int, text.split(",")))
            rule = f"divisions must give fewer than 2**63 cells, got {divisions}"
            assert f"argument --divisions: {rule}" in err

    def test_divisions_within_a_float_exact_axis(self, rr_file, tmp_path, capsys):
        # float64, in which a bin index is computed, holds every integer up to 2**53.
        assert run(["indicators", rr_file, "--divisions", f"1,1,{2**53}",
                    "--out", tmp_path / "r.csv"]) == 0
        assert "RuntimeWarning" not in capsys.readouterr().err
        for text in ("1,1,9223372036854775807", f"{2**53 + 1},1,1"):
            with pytest.raises(SystemExit) as info:
                run(["indicators", rr_file, "--divisions", text])
            assert info.value.code == 2
            err = capsys.readouterr().err
            divisions = tuple(map(int, text.split(",")))
            rule = f"divisions must be at most 2**53 per axis, got {divisions}"
            assert f"argument --divisions: {rule}" in err

    @pytest.mark.parametrize("flag", ["--r-ctm", "--r-d"])
    @pytest.mark.parametrize("text", ["inf", "nan", "1e400", "-Infinity"])
    def test_non_finite_radius_is_a_usage_error(self, rr_file, flag, text, capsys):
        with pytest.raises(SystemExit) as info:
            run(["indicators", rr_file, f"{flag}={text}"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: radius must be finite and > 0, got {float(text)}" in err

    @pytest.mark.parametrize("command", ["indicators", "points", "classify"])
    @pytest.mark.parametrize("flag, text", [("--r-ctm", "0"), ("--r-d", "-0.0"), ("--r-ctm", "-1")])
    def test_non_positive_radius_is_a_usage_error(self, rr_file, command, flag, text, capsys):
        # indicators used to exit 1 on a zero radius, and points took any radius.
        inputs = [rr_file.parent] * 2 if command == "classify" else [rr_file]
        with pytest.raises(SystemExit) as info:
            run([command, *inputs, f"{flag}={text}"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: radius must be finite and > 0, got {float(text)}" in err

    def test_radius_must_be_a_number(self, rr_file, capsys):
        with pytest.raises(SystemExit) as info:
            run(["indicators", rr_file, "--r-d", "six"])
        assert info.value.code == 2
        assert "argument --r-d: expected a number, got 'six'" in capsys.readouterr().err

    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        r=st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1e-320, 1.7976931348623157e308])),
        spelling=st.sampled_from([repr, lambda v: f"{v:.3e}", lambda v: f" {v!r}\t"]),
        divisions=st.tuples(*[st.one_of(st.integers(-2, 12), st.integers(-2**64, 2**64))] * 3),
    )
    @example(r=float("inf"), spelling=repr, divisions=(1, 1, 2**53 + 1))
    @example(r=1e400, spelling=lambda v: "1e400", divisions=(2**21, 2**21, 2**21))
    def test_flags_follow_the_indicator_params_rule(self, r, spelling, divisions, capsys):
        # A --r-ctm or --r-d text that float() reads, and a --divisions text of
        # three ints, is a usage error exactly when IndicatorParams rejects its
        # value, and with IndicatorParams' message.
        r_text = spelling(r)
        r = float(r_text)
        for flag, text, kwargs in (
            ("--r-ctm", r_text, {"r_ctm": r}),
            ("--r-d", r_text, {"r_d": r}),
            ("--divisions", ",".join(map(str, divisions)), {"divisions": divisions}),
        ):
            try:
                IndicatorParams(**kwargs)
                rule = None
            except ValueError as exc:
                rule = str(exc)
            try:
                cli.build_parser().parse_args(["indicators", "a", f"{flag}={text}"])
                code = None
            except SystemExit as exc:
                code = exc.code
            err = capsys.readouterr().err
            if rule is None:
                assert code is None, err
            else:
                assert code == 2
                assert err.endswith(f"error: argument {flag}: {rule}\n"), (err, rule)

    @pytest.mark.parametrize("argv", [["indicators", "a"], ["points", "a"], ["classify", "a", "b"]])
    def test_indicator_flags_default_to_indicator_params(self, argv):
        args = cli.build_parser().parse_args(argv)
        assert cli.indicator_params(args) == IndicatorParams()
        args = cli.build_parser().parse_args([*argv, "--r-d=7", "--divisions=1,2,3"])
        assert cli.indicator_params(args) == IndicatorParams(r_d=7.0, divisions=(1, 2, 3))

    def test_r_grid_radius_cap(self):
        grid = parse_r_grid(f"1:{cli.MAX_RADII}:1")
        assert len(grid) == cli.MAX_RADII == 10**6
        assert grid[-1] == cli.MAX_RADII
        with pytest.raises(Exception, match="more than 1000000 radii"):
            parse_r_grid(f"1:{cli.MAX_RADII + 1}:1")

    def test_r_grid_includes_endpoint(self):
        grid = parse_r_grid("0.5:10:0.5")
        assert len(grid) == 20
        assert grid[0] == 0.5
        assert grid[-1] == pytest.approx(10.0)

    def test_r_grid_single_value(self):
        assert parse_r_grid("3:3:1") == (3.0,)

    @pytest.mark.parametrize("bad", ["0:5:1", "5:1:1", "1:5:0", "1:5", "x:y:z"])
    def test_r_grid_rejects(self, bad):
        with pytest.raises(Exception):
            parse_r_grid(bad)


class TestIndicators:
    def test_single_file(self, rr_file, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert run(["indicators", rr_file, "--out", out]) == 0
        rows = read_csv(out)
        assert rows[0][:3] == ["source_id", "ctm", "cctm1"]
        assert len(rows) == 2
        assert rows[1][0] == "rec"
        assert rows[1][1] == "0"  # ctm at default r=3
        # Three points, none inside r_d=6, in quadrants II and IV only.
        assert capsys.readouterr().err == (
            "tvmhrv: warning: no point lies inside r_d=6 in 1 recordings (rec); "
            "their D is left empty\n"
            "tvmhrv: warning: an empty quadrant's E_TV is reported as 0 in 1 recordings (rec)\n"
        )

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        assert run(["indicators", missing]) == 1
        assert "nope.txt" in capsys.readouterr().err

    def test_out_under_a_regular_file_names_the_file_asked_for(self, rr_file, tmp_path, capsys):
        out = rr_file / "x.csv"
        assert run(["indicators", rr_file, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"tvmhrv: error: [Errno 20] Not a directory: '{out}'"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rec.txt"]

    def test_out_to_a_full_device_names_it(self, rr_file, capsys):
        # /dev/full is written in place, and its error comes from the close.
        assert run(["indicators", rr_file, "--out", "/dev/full"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            f"tvmhrv: error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '/dev/full'"
        )

    def test_directory_input_one_row_per_file(self, tmp_path):
        ddir = tmp_path / "grp"
        ddir.mkdir()
        for k in range(3):
            write_series(ddir / f"r{k}.txt", [800 + k, 810, 790, 805])
        out = tmp_path / "report.csv"
        assert run(["indicators", ddir, "--out", out]) == 0
        rows = read_csv(out)
        assert [row[0] for row in rows[1:]] == ["r0", "r1", "r2"]

    def test_json_matches_csv_values(self, rr_file, tmp_path):
        out_csv = tmp_path / "report.csv"
        out_json = tmp_path / "report.json"
        assert run(["indicators", rr_file, "--out", out_csv]) == 0
        assert run(["indicators", rr_file, "--out", out_json, "--format", "json"]) == 0
        row = read_csv(out_csv)[1]
        payload = json.loads(out_json.read_text())
        rep = payload["reports"][0]
        assert rep["source_id"] == row[0]
        assert rep["ctm"] == float(row[1])
        assert rep["etv_global"] == float(row[7])
        assert rep["d"] is None and row[6] == ""

    def test_stdout_default(self, rr_file, capsys):
        assert run(["indicators", rr_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("source_id,")

    def test_segment_len_splits_rows(self, tmp_path):
        # 22 intervals: four segments of 5, the partial tail of 2 dropped.
        path = write_series(tmp_path / "long.txt", list(range(700, 722)))
        out = tmp_path / "report.csv"
        assert run(["indicators", path, "--segment-len", "5", "--out", out]) == 0
        rows = read_csv(out)
        assert [row[0] for row in rows[1:]] == [f"long#{k:03d}" for k in range(4)]

    def test_segment_len_warns_of_the_dropped_tail(self, tmp_path, capsys):
        path = write_series(tmp_path / "long.txt", list(range(700, 722)))
        # Every point is (1, 1): quadrants II-IV are empty in every segment.
        empty = "tvmhrv: warning: an empty quadrant's E_TV is reported as 0 in {}\n"
        for _ in range(2):
            # Each in-process run prints its warning once, to the current stderr.
            assert run(["indicators", path, "--segment-len", "5", "--out", tmp_path / "r.csv"]) == 0
            assert capsys.readouterr().err == (
                f"tvmhrv: warning: {path}: dropped the last 2 of 22 intervals, "
                "fewer than one segment of 5\n"
            ) + empty.format("4 recordings (long#000, long#001, long#002, ...)")
        assert run(["indicators", path, "--segment-len", "11", "--out", tmp_path / "r.csv"]) == 0
        assert capsys.readouterr().err == empty.format("2 recordings (long#000, long#001)")

    def test_groups_of_one_name_are_flattened(self, same_named_groups, tmp_path):
        a, b = same_named_groups
        (a / "bad.txt").unlink()
        out = tmp_path / "report.csv"
        assert run(["indicators", a, b, "--out", out]) == 0
        assert [row[0] for row in read_csv(out)[1:]] == ["a0", "a1", "a2", "b0", "b1", "b2"]
        assert run(["points", a, b, "--out", tmp_path / "points"]) == 0
        assert len(list((tmp_path / "points").iterdir())) == 12

    def test_directory_with_a_recording_suffix_is_skipped(self, tmp_path):
        ddir = tmp_path / "grp"
        (ddir / "x.txt").mkdir(parents=True)
        write_series(ddir / "rec.txt", [800, 810, 790, 805, 795])
        out = tmp_path / "report.csv"
        assert run(["indicators", ddir, "--out", out]) == 0
        assert [row[0] for row in read_csv(out)[1:]] == ["rec"]

    def test_shared_source_ids_warned_once_each(self, tmp_path, capsys):
        for name in ("one", "two"):
            ddir = tmp_path / name
            ddir.mkdir()
            for stem in ("a", "b"):
                write_series(ddir / f"{stem}.txt", [800, 810, 790, 805])
        write_series(tmp_path / "one" / "c.txt", [800, 810, 790, 805])
        out = tmp_path / "report.csv"
        assert run(["indicators", tmp_path / "one", tmp_path / "two", "--out", out]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"tvmhrv: warning: files {tmp_path / 'one' / f'{sid}.txt'}, "
            f"{tmp_path / 'two' / f'{sid}.txt'} share the "
            f"source id {sid!r}; only the row order tells their rows apart"
            for sid in ("a", "b")
        ] + [
            # Two points each, in quadrants II and IV, neither inside r_d=6.
            "tvmhrv: warning: no point lies inside r_d=6 in 5 recordings (a, a, b, ...); "
            "their D is left empty",
            "tvmhrv: warning: an empty quadrant's E_TV is reported as 0 in 5 recordings "
            "(a, a, b, ...)",
        ]
        assert [row[0] for row in read_csv(out)[1:]] == ["a", "a", "b", "b", "c"]

    def test_shared_source_id_warned_once_per_recording_under_segments(self, tmp_path, capsys):
        for name in ("one", "two"):
            (tmp_path / name).mkdir()
            write_series(tmp_path / name / "a.txt", [800, 810, 790, 805] * 3)
        out = tmp_path / "report.csv"
        argv = ["indicators", tmp_path / "one", tmp_path / "two", "--segment-len", "4"]
        assert run([*argv, "--out", out]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"tvmhrv: warning: files {tmp_path / 'one' / 'a.txt'}, {tmp_path / 'two' / 'a.txt'} "
            "share the source id 'a'; only the row order tells their rows apart",
            "tvmhrv: warning: no point lies inside r_d=6 in 6 recordings "
            "(a#000, a#000, a#001, ...); their D is left empty",
            "tvmhrv: warning: an empty quadrant's E_TV is reported as 0 in 6 recordings "
            "(a#000, a#000, a#001, ...)",
        ]
        assert [row[0] for row in read_csv(out)[1:]] == [f"a#{k:03d}" for k in (0, 0, 1, 1, 2, 2)]

    def test_shared_source_id_in_one_directory_names_the_files(self, tmp_path, capsys):
        ddir = tmp_path / "dupdir"
        ddir.mkdir()
        for suffix in (".txt", ".csv"):
            write_series(ddir / f"rec{suffix}", [800, 810, 790, 805])
        assert run(["indicators", ddir, "--out", tmp_path / "report.csv"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"tvmhrv: warning: files {ddir / 'rec.csv'}, {ddir / 'rec.txt'} share the "
            "source id 'rec'; only the row order tells their rows apart",
            "tvmhrv: warning: no point lies inside r_d=6 in 2 recordings (rec, rec); "
            "their D is left empty",
            "tvmhrv: warning: an empty quadrant's E_TV is reported as 0 in 2 recordings "
            "(rec, rec)",
        ]

    @pytest.mark.parametrize("unit", ["ms", "s", "none"])
    def test_unit_is_a_tag_only(self, corpus_dir, golden_dir, tmp_path, unit):
        for fmt in ("csv", "json"):
            out = tmp_path / f"indicators.{fmt}"
            argv = ["indicators", corpus_dir / "steady", corpus_dir / "erratic", "--unit", unit]
            assert run(argv + ["--format", fmt, "--out", out]) == 0
            assert out.read_bytes() == (golden_dir / f"indicators.{fmt}").read_bytes()

    def test_unknown_unit_is_a_usage_error(self, rr_file, capsys):
        with pytest.raises(SystemExit) as info:
            run(["indicators", rr_file, "--unit", "us"])
        assert info.value.code == 2
        assert "--unit" in capsys.readouterr().err

    @pytest.mark.parametrize("length", ["2", "0", "-3", "x"])
    def test_segment_len_below_three_is_a_usage_error(self, rr_file, length, capsys):
        with pytest.raises(SystemExit) as info:
            run(["indicators", rr_file, "--segment-len", length])
        assert info.value.code == 2
        assert "--segment-len" in capsys.readouterr().err

    @pytest.fixture
    def four_quadrant_group(self, tmp_path):
        # 60 random intervals: every quadrant holds points, and D is defined at r_d=6.
        ddir = tmp_path / "grp"
        ddir.mkdir()
        for k in range(5):
            rng = random.Random(k)
            write_series(ddir / f"r{k}.txt", [800 + rng.uniform(-5, 5) for _ in range(60)])
        return ddir

    def test_undefined_d_warned_once_per_run(self, four_quadrant_group, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert run(["indicators", four_quadrant_group, "--out", out]) == 0
        assert capsys.readouterr().err == ""
        assert run(["indicators", four_quadrant_group, "--r-d", "1e-9", "--out", out]) == 0
        assert capsys.readouterr().err == (
            "tvmhrv: warning: no point lies inside r_d=1e-09 in 5 recordings "
            "(r0, r1, r2, ...); their D is left empty\n"
        )
        assert [row[6] for row in read_csv(out)[1:]] == [""] * 5

    def test_empty_quadrant_warned_once_per_run(self, four_quadrant_group, tmp_path, capsys):
        # Rising by 1 ms a beat: every point is (1, 1), in quadrant I.
        write_series(four_quadrant_group / "rise.txt", list(range(700, 720)))
        out = tmp_path / "report.csv"
        assert run(["indicators", four_quadrant_group, "--out", out]) == 0
        assert capsys.readouterr().err == (
            "tvmhrv: warning: an empty quadrant's E_TV is reported as 0 in 1 recordings (rise)\n"
        )
        # Three points per segment cannot fill four quadrants; r_d=100 keeps D defined.
        argv = ["indicators", four_quadrant_group, "--segment-len", "5", "--r-d", "100"]
        assert run([*argv, "--out", out]) == 0
        assert capsys.readouterr().err == (
            "tvmhrv: warning: an empty quadrant's E_TV is reported as 0 in 64 recordings "
            "(r0#000, r0#001, r0#002, ...)\n"
        )
        assert [row[9:] for row in read_csv(out)[1:] if row[0] == "rise#000"] == [["0"] * 3]

    def test_segment_rows_in_time_order_past_999_segments(self, tmp_path):
        path = write_series(tmp_path / "rec.txt", [800 + i % 7 for i in range(3030)])
        out = tmp_path / "report.csv"
        assert run(["indicators", path, "--segment-len", "3", "--out", out]) == 0
        assert [row[0] for row in read_csv(out)[1:]] == [f"rec#{k:04d}" for k in range(1010)]

    @pytest.fixture
    def interleaved(self, tmp_path):
        """one/a.txt, one/a#5.txt and two/a.txt, each with a tail under 3-interval segments.

        Segment ids of the stems a and a#5 interleave (a#499 < a#5#000 <
        a#500), and both a.txt files give the ids a#000 to a#005.
        """
        one, two = tmp_path / "one", tmp_path / "two"
        one.mkdir()
        two.mkdir()
        # Every point is (1, 1), (1, -2) or (-2, 1): inside r_d=6, and never on an axis.
        write_series(one / "a.txt", [800 + i % 3 for i in range(1600)])
        write_series(one / "a#5.txt", [800 + i % 3 for i in range(10)])
        write_series(two / "a.txt", [800 + i % 3 for i in range(20)])
        return one, two

    def tails(self, one, two) -> str:
        return "".join(
            f"tvmhrv: warning: {path}: dropped the last {tail} of {n} intervals, "
            "fewer than one segment of 3\n"
            for path, tail, n in ((one / "a#5.txt", 1, 10), (one / "a.txt", 1, 1600), (two / "a.txt", 2, 20))
        )

    def test_rows_follow_the_ids_of_every_file_at_once(self, interleaved, tmp_path, capsys):
        one, two = interleaved
        out = tmp_path / "report.csv"
        assert run(["indicators", one, two, "--segment-len", "3", "--out", out]) == 0
        assert capsys.readouterr().err == self.tails(one, two) + (
            f"tvmhrv: warning: files {one / 'a.txt'}, {two / 'a.txt'} share the source id 'a'; "
            "only the row order tells their rows apart\n"
            "tvmhrv: warning: an empty quadrant's E_TV is reported as 0 in 542 recordings "
            "(a#000, a#000, a#001, ...)\n"
        )
        ids = [row[0] for row in read_csv(out)[1:]]
        assert ids[:4] == ["a#000", "a#000", "a#001", "a#001"]
        assert ids[505:510] == ["a#499", "a#5#000", "a#5#001", "a#5#002", "a#500"]
        # Every file loaded before any is reported, and sorted stably by id,
        # as the rows were once made.
        recordings = sorted(
            load_recordings([one / "a#5.txt", one / "a.txt", two / "a.txt"], 3),
            key=lambda rec: rec.source_id,
        )
        want = tmp_path / "want.csv"
        write_csv(
            want,
            read_csv(out)[0],
            (
                [rep.source_id, rep.ctm, *rep.cctm, rep.d, rep.etv_global, *rep.etv_quadrant]
                for rep in map(report, recordings)
            ),
        )
        assert out.read_bytes() == want.read_bytes()

    def test_a_bad_last_file_writes_nothing(self, interleaved, tmp_path, capsys):
        one, two = interleaved
        bad = two / "z.txt"
        bad.write_text("800\noops\n790\n")
        out = tmp_path / "report.csv"
        assert run(["indicators", one, two, "--segment-len", "3", "--out", out]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == self.tails(one, two) + (
            f"tvmhrv: error: {bad}: line 2: cannot parse 'oops' as a number\n"
        )

    def test_peak_memory_does_not_grow_with_recordings(self, tmp_path):
        rng = np.random.default_rng(8)
        files = [
            write_series(tmp_path / f"rec{k}.txt", rng.integers(600, 1000, 20_000).tolist())
            for k in range(8)
        ]

        def peak(inputs):
            tracemalloc.start()
            try:
                assert run(["indicators", *inputs, "--out", tmp_path / "report.csv"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(files[:2])  # imports and first calls
        column = 8 * 20_000
        assert peak(files) < peak(files[:2]) + column

    def test_recording_shorter_than_segment_len_is_an_error(self, rr_file, capsys):
        assert run(["indicators", rr_file, "--segment-len", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rec.txt" in captured.err and "10" in captured.err

    def test_validation_error_names_line(self, tmp_path, capsys):
        bad = write_series(tmp_path / "bad.txt", [800, -5, 700])
        assert run(["indicators", bad]) == 1
        err = capsys.readouterr().err
        assert "bad.txt" in err and "line 2" in err

    @pytest.mark.parametrize("token", ["8_10", "\u0668\u0662\u0660"])
    def test_number_outside_the_ascii_grammar_names_file_and_line(self, tmp_path, token, capsys):
        bad = tmp_path / "odd.txt"
        bad.write_text(f"800\n{token}\n790\n805\n", encoding="utf-8")
        assert run(["indicators", bad]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"tvmhrv: error: {bad}: line 2: cannot parse {token!r} as a number\n"

    def test_value_above_bound_names_file_and_line(self, tmp_path, capsys):
        # x*x would overflow to inf and make the sigmoid scale NaN.
        bad = write_series(tmp_path / "huge.txt", ["1e200", 1, "1e200", 3])
        assert run(["indicators", bad]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "huge.txt" in captured.err and "line 1" in captured.err


class TestPoints:
    def test_row_count_is_n_minus_two(self, rr_file, tmp_path):
        out = tmp_path / "pts"
        assert run(["points", rr_file, "--out", out]) == 0
        sodp_rows = read_csv(out / "rec_sodp.csv")
        assert sodp_rows[0] == ["index", "x", "y", "quadrant"]
        assert len(sodp_rows) == 1 + 3
        tvm_rows = read_csv(out / "rec_tvm.csv")
        assert tvm_rows[0] == ["index", "x", "y", "d_co", "le", "l", "z", "quadrant"]
        assert len(tvm_rows) == 1 + 3

    def test_constant_series_all_zero_coordinates(self, tmp_path):
        path = write_series(tmp_path / "flat.txt", [800] * 6)
        out = tmp_path / "pts"
        assert run(["points", path, "--out", out]) == 0
        for row in read_csv(out / "flat_sodp.csv")[1:]:
            assert row[1] == row[2] == "0"
            assert row[3] == "axis"

    def test_colliding_source_ids_rejected(self, tmp_path, capsys):
        for name in ("one", "two"):
            ddir = tmp_path / name
            ddir.mkdir()
            write_series(ddir / "rec.txt", [800, 810, 790, 805])
        assert run(["points", tmp_path / "one", tmp_path / "two", "--out", tmp_path / "pts"]) == 1
        err = capsys.readouterr().err
        assert "'rec'" in err and str(tmp_path / "one") in err and str(tmp_path / "two") in err
        assert not (tmp_path / "pts").exists()

    def test_colliding_files_in_one_directory_named(self, tmp_path, capsys):
        ddir = tmp_path / "dupdir"
        ddir.mkdir()
        for suffix in (".txt", ".csv"):
            write_series(ddir / f"rec{suffix}", [800, 810, 790, 805])
        assert run(["points", ddir, "--out", tmp_path / "pts"]) == 1
        err = capsys.readouterr().err
        assert f"files {ddir / 'rec.csv'}, {ddir / 'rec.txt'} share the source id 'rec'" in err
        assert not (tmp_path / "pts").exists()

    def test_write_that_fails_part_way_names_the_file_asked_for(self, corpus_dir, tmp_path):
        # Under a 2,048-byte file size limit rec00_sodp.csv (1,502 bytes) is
        # written and rec00_tvm.csv fails part way. CPython ignores SIGXFSZ, so
        # the write raises EFBIG, an OSError that names no file.
        def limit():
            hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
            resource.setrlimit(resource.RLIMIT_FSIZE, (2048, hard))

        out = tmp_path / "pts"
        argv = ["points", str(corpus_dir / "steady" / "rec00.txt"), "--out", str(out)]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "tvmhrv.cli", *argv],
            capture_output=True, text=True, env=env, preexec_fn=limit, timeout=120,
        )
        assert done.returncode == 1
        assert done.stderr == (
            f"tvmhrv: error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: "
            f"'{out / 'rec00_tvm.csv'}'\n"
        )
        assert sorted(p.name for p in out.iterdir()) == ["rec00_sodp.csv"]

    def test_json_format_equivalent_values(self, rr_file, tmp_path):
        out_c = tmp_path / "c"
        out_j = tmp_path / "j"
        assert run(["points", rr_file, "--out", out_c]) == 0
        assert run(["points", rr_file, "--out", out_j, "--format", "json"]) == 0
        csv_rows = read_csv(out_c / "rec_tvm.csv")[1:]
        json_points = json.loads((out_j / "rec_tvm.json").read_text())["points"]
        assert len(csv_rows) == len(json_points)
        for row, pt in zip(csv_rows, json_points):
            assert int(row[0]) == pt["index"]
            assert float(row[1]) == pt["x"]
            assert float(row[6]) == pt["z"]
            assert row[7] == pt["quadrant"]

    def test_json_is_the_indented_dump_of_the_points(self, tmp_path):
        # 20k intervals: whole milliseconds (integral x and y) then finer values.
        rng = random.Random(8)
        values = [round(rng.gauss(800, 40)) for _ in range(10_000)]
        values += [round(rng.gauss(800, 40), 3) for _ in range(10_000)]
        path = write_series(tmp_path / "day.txt", values)
        assert run(["points", path, "--format", "json", "--out", tmp_path / "pts"]) == 0

        lifted = build_tvm_points(second_order_diff(RRSeries(values, source_id="day")))
        points = lifted.base
        columns = {
            "x": points.x, "y": points.y, "d_co": lifted.d_co, "le": lifted.le, "l": lifted.l,
            "z": lifted.z,
        }
        for kind, names in (("sodp", ["x", "y"]), ("tvm", list(columns))):
            tree = {
                "source_id": "day",
                "points": [
                    {
                        "index": i,
                        **{name: round_sig(float(columns[name][i])) for name in names},
                        "quadrant": QUADRANTS[points.code[i]],
                    }
                    for i in range(len(points))
                ],
            }
            text = (tmp_path / "pts" / f"day_{kind}.json").read_text()
            # Compared by lines, so a failure reports the first differing line
            # instead of diffing two whole files.
            expected = json.dumps(tree, indent=2) + "\n"
            assert text.splitlines(keepends=True) == expected.splitlines(keepends=True)


class TestSweep:
    @pytest.fixture
    def two_groups(self, tmp_path):
        for name, base in (("alpha", 800), ("beta", 600)):
            ddir = tmp_path / name
            ddir.mkdir()
            for k in range(2):
                write_series(ddir / f"r{k}.txt", [base, base + 10 * (k + 1), base, base + 5, base])
        return tmp_path / "alpha", tmp_path / "beta"

    def test_csv_rows(self, two_groups, tmp_path):
        out = tmp_path / "sweep.csv"
        a, b = two_groups
        assert run(["sweep", a, b, "--indicator", "ctm", "--r-grid", "5:25:10", "--out", out]) == 0
        rows = read_csv(out)
        assert rows[0] == ["dataset", "r", "mean"]
        assert [row[0] for row in rows[1:]] == ["alpha"] * 3 + ["beta"] * 3

    def test_ctm_non_decreasing(self, two_groups, tmp_path):
        out = tmp_path / "sweep.csv"
        a, b = two_groups
        assert run(["sweep", a, b, "--r-grid", "1:40:3", "--out", out]) == 0
        by_dataset = {}
        for name, _, mean in read_csv(out)[1:]:
            by_dataset.setdefault(name, []).append(float(mean))
        for means in by_dataset.values():
            assert means == sorted(means)

    def test_json_output(self, two_groups, tmp_path):
        out = tmp_path / "sweep.json"
        a, b = two_groups
        assert run(["sweep", a, b, "--format", "json", "--r-grid", "5:15:5", "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["indicator"] == "ctm"
        assert set(payload["rows"]) == {"alpha", "beta"}

    def test_recording_shorter_than_segment_len_is_an_error(self, two_groups, tmp_path, capsys):
        a, b = two_groups
        write_series(a / "r9.txt", list(range(700, 720)))
        assert run(["sweep", a, b, "--segment-len", "10", "--out", tmp_path / "s.csv"]) == 1
        assert "r0.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["1:inf:1", "1:2:inf", "nan:2:1", "1:nan:1"])
    def test_non_finite_r_grid_is_a_usage_error(self, two_groups, grid, capsys):
        a, b = two_groups
        with pytest.raises(SystemExit) as info:
            run(["sweep", a, b, "--r-grid", grid])
        assert info.value.code == 2
        assert f"start, stop and step must be finite: {grid!r}" in capsys.readouterr().err

    # Infinitely many radii, and 10**12 of them.
    @pytest.mark.parametrize("grid", ["1:1e300:1e-300", "5e-324:1:5e-324", "1:1e9:1e-3"])
    def test_r_grid_past_the_radius_cap_is_a_usage_error(self, two_groups, grid, capsys):
        a, b = two_groups
        with pytest.raises(SystemExit) as info:
            run(["sweep", a, b, "--r-grid", grid])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --r-grid: grid gives more than 1000000 radii: {grid!r}" in err

    @pytest.mark.parametrize("flag", [["--r-ctm", "3"], ["--r-d", "6"], ["--divisions", "2,2,2"]])
    def test_indicator_parameters_are_a_usage_error(self, two_groups, flag, capsys):
        # The radii come from --r-grid and no E_TV is computed, so these would do nothing.
        a, b = two_groups
        with pytest.raises(SystemExit) as info:
            run(["sweep", a, b, *flag])
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_repeated_group_name_is_an_error(self, same_named_groups, tmp_path, capsys):
        a, b = same_named_groups
        assert run(["sweep", a, b, "--r-grid", "1:3:1", "--out", tmp_path / "s.csv"]) == 1
        assert_repeated_name_error(capsys, a, b)
        assert not (tmp_path / "s.csv").exists()

    def test_dot_names_the_current_directory(self, corpus_dir, golden_dir, tmp_path, monkeypatch):
        monkeypatch.chdir(corpus_dir / "steady")
        out = tmp_path / "sweep.csv"
        assert run(["sweep", ".", "../erratic", "--indicator", "ctm", "--out", out]) == 0
        assert out.read_bytes() == (golden_dir / "sweep_ctm.csv").read_bytes()

    def test_bad_group_input_fails_before_any_file_is_read(self, same_named_groups, tmp_path, capsys):
        a, b = same_named_groups
        for other in (tmp_path / "missing", b / "b0.txt"):
            assert run(["sweep", a, other, "--out", tmp_path / "s.csv"]) == 1
            assert capsys.readouterr().err == f"tvmhrv: error: {other} is not a directory\n"
        assert not (tmp_path / "s.csv").exists()

    def test_file_argument_rejected(self, two_groups, capsys):
        a, _ = two_groups
        assert run(["sweep", a / "r0.txt"]) == 1
        assert "is not a directory" in capsys.readouterr().err

    def test_empty_directory_fails(self, tmp_path, capsys):
        ddir = tmp_path / "empty"
        ddir.mkdir()
        assert run(["sweep", ddir]) == 1
        assert "empty" in capsys.readouterr().err

    def test_rows_ordered_by_dataset_name(self, two_groups, tmp_path, capsys):
        # Groups load in the order given, so their warnings come in that
        # order; the rows are written in name order whatever it is.
        a, b = two_groups
        outs = []
        for order in ((a, b), (b, a)):
            outs.append(tmp_path / f"{order[0].name}.csv")
            argv = ["sweep", *order, "--segment-len", "3", "--r-grid", "5:25:10"]
            assert run([*argv, "--out", outs[-1]]) == 0
            assert capsys.readouterr().err == "".join(
                f"tvmhrv: warning: {group / f'r{k}.txt'}: dropped the last 2 of 5 intervals, "
                "fewer than one segment of 3\n"
                for group in order
                for k in range(2)
            )
        assert [row[0] for row in read_csv(outs[1])[1:]] == ["alpha"] * 3 + ["beta"] * 3
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_peak_memory_does_not_grow_with_recordings(self, tmp_path):
        # Four recordings per group, and copies of each group's first in
        # groups of the same names.
        rng = np.random.default_rng(8)
        for group in ("a", "b"):
            for root, count in (("many", 4), ("few", 1)):
                (tmp_path / root / group).mkdir(parents=True)
            for k in range(4):
                values = rng.integers(600, 1000, 20_000).tolist()
                write_series(tmp_path / "many" / group / f"r{k}.txt", values)
                if k == 0:
                    write_series(tmp_path / "few" / group / f"r{k}.txt", values)

        def peak(root):
            tracemalloc.start()
            try:
                argv = ["sweep", root / "a", root / "b", "--indicator", "d"]
                assert run([*argv, "--out", tmp_path / "sweep.csv"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(tmp_path / "few")  # imports and first calls
        column = 8 * 20_000
        assert peak(tmp_path / "many") < peak(tmp_path / "few") + column


class TestClassify:
    @pytest.fixture
    def separated_groups(self, tmp_path):
        steady = tmp_path / "steady"
        steady.mkdir()
        for k in range(3):
            write_series(steady / f"r{k}.txt", [800 + (i % 3) + 0.1 * k for i in range(30)])
        wild = tmp_path / "wild"
        wild.mkdir()
        for k in range(3):
            write_series(wild / f"r{k}.txt", [600 + 150 * (i % 5) + k for i in range(30)])
        return steady, wild

    def test_perfect_separation(self, separated_groups, tmp_path):
        out = tmp_path / "ri.csv"
        steady, wild = separated_groups
        assert run(["classify", steady, wild, "--indicator", "etv_global", "--out", out]) == 0
        rows = read_csv(out)
        assert rows[0] == ["pair", "indicator", "ri"]
        assert rows[1] == ["steady|wild", "etv_global", "1"]

    def test_json_payload(self, separated_groups, tmp_path):
        out = tmp_path / "ri.json"
        steady, wild = separated_groups
        assert run(["classify", steady, wild, "--format", "json", "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["pair"] == ["steady", "wild"]
        assert payload["ri"] == 1.0
        assert len(payload["assignments"]) == 6

    def test_repeated_group_name_is_an_error(self, same_named_groups, tmp_path, capsys):
        a, b = same_named_groups
        assert run(["classify", a, b, "--out", tmp_path / "ri.csv"]) == 1
        assert_repeated_name_error(capsys, a, b)
        assert not (tmp_path / "ri.csv").exists()

    def test_dot_names_the_current_directory(self, corpus_dir, golden_dir, tmp_path, monkeypatch):
        monkeypatch.chdir(corpus_dir / "steady")
        out = tmp_path / "ri.csv"
        assert run(["classify", ".", "../erratic", "--indicator", "etv1", "--out", out]) == 0
        assert out.read_bytes() == (golden_dir / "classify_etv1.csv").read_bytes()

    def test_bad_group_input_fails_before_any_file_is_read(self, same_named_groups, tmp_path, capsys):
        a, b = same_named_groups
        for other in (tmp_path / "missing", b / "b0.txt"):
            assert run(["classify", a, other, "--out", tmp_path / "ri.csv"]) == 1
            assert capsys.readouterr().err == f"tvmhrv: error: {other} is not a directory\n"
        assert not (tmp_path / "ri.csv").exists()

    def test_undefined_indicator_reported(self, separated_groups, tmp_path, capsys):
        steady, wild = separated_groups
        # r_d tiny: no point inside the radius, D undefined for steady files.
        assert run(["classify", steady, wild, "--indicator", "d", "--r-d", "1e-9"]) == 1
        assert "undefined" in capsys.readouterr().err

    def test_empty_quadrant_warned_once_per_run(self, corpus_dir, tmp_path, capsys):
        groups = [corpus_dir / "steady", corpus_dir / "erratic"]
        out = tmp_path / "ri.csv"
        # Every whole fixture recording has points in all four quadrants.
        assert run(["classify", *groups, "--indicator", "etv1", "--out", out]) == 0
        assert capsys.readouterr().err == ""
        segmented = ["classify", *groups, "--segment-len", "5", "--out", out]
        assert run([*segmented, "--indicator", "etv1"]) == 0
        # 25 steady and 38 erratic segments of four points have none in quadrant I.
        assert capsys.readouterr().err == (
            "tvmhrv: warning: an empty quadrant's etv1 is clustered as 0 in 63 recordings "
            "(steady/rec00#000, steady/rec00#002, steady/rec00#003, ...)\n"
        )
        assert read_csv(out)[1] == ["steady|erratic", "etv1", "0.510416667"]
        # Only the quadrant clustered counts: etv_global has no empty quadrant to warn of.
        assert run([*segmented, "--indicator", "etv_global"]) == 0
        assert capsys.readouterr().err == ""

    def test_one_value_over_the_pair_names_the_pair_and_indicator(self, tmp_path, capsys):
        # Flat recordings have no point in quadrant I: etv1 is 0 in every one.
        groups = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            write_series(tmp_path / name / "r.txt", [800] * 5)
            groups.append(tmp_path / name)
        assert run(["classify", *groups, "--indicator", "etv1", "--out", tmp_path / "ri.csv"]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "tvmhrv: error: a|b, etv1: k-means with k=2 needs at least 2 distinct values, got 1"
        )
        assert not (tmp_path / "ri.csv").exists()

    def test_k_means_stopped_before_convergence_is_warned(self, tmp_path, capsys, monkeypatch):
        # 12 intervals ending in k alternating beats: CTM 1.0, 0.7 and 0.6 against
        # 0.2 and 0.2, which k-means needs two passes to split.
        groups = []
        for name, flips in (("a", (0, 4, 5)), ("b", (9, 9))):
            ddir = tmp_path / name
            ddir.mkdir()
            for j, k in enumerate(flips):
                values = [800] * (12 - k) + [800 + 100 * (i % 2) for i in range(k)]
                write_series(ddir / f"r{j}.txt", values)
            groups.append(ddir)
        argv = ["classify", *groups, "--out", tmp_path / "ri.csv"]
        assert run(argv) == 0
        assert capsys.readouterr().err == ""
        monkeypatch.setattr(cluster, "MAX_ITERATIONS", 1)
        assert run(argv) == 0
        assert capsys.readouterr().err == (
            "tvmhrv: warning: k-means stopped after 1 iterations with the assignments "
            "still changing\n"
        )


class TestClassifyOneIndicator:
    """classify computes only its indicator, with the outputs of the full report."""

    @staticmethod
    def outcome(argv, out_dir, capsys):
        """Exit code, output bytes and error lines of a CSV and a JSON run."""
        result = []
        for fmt in ("csv", "json"):
            out = out_dir / f"ri.{fmt}"
            code = run([*argv, "--format", fmt, "--out", out])
            err = capsys.readouterr().err.splitlines()
            errors = [line for line in err if line.startswith("tvmhrv: error:")]
            result.append((code, out.read_bytes() if out.exists() else None, errors))
        return result

    @pytest.mark.parametrize("segment", [[], ["--segment-len", "5"]], ids=["whole", "segments"])
    @pytest.mark.parametrize("indicator", ALL_INDICATORS)
    def test_outputs_equal_the_report_path(
        self, corpus_dir, tmp_path, capsys, monkeypatch, indicator, segment
    ):
        argv = [
            "classify", corpus_dir / "steady", corpus_dir / "erratic",
            "--indicator", indicator, *segment,
        ]
        (tmp_path / "one").mkdir()
        (tmp_path / "all").mkdir()
        got = self.outcome(argv, tmp_path / "one", capsys)
        monkeypatch.setattr(
            cli,
            "indicator_of",
            lambda recs, name, params, empty: [
                indicator_value(report(rec, params), name) for rec in recs
            ],
        )
        assert self.outcome(argv, tmp_path / "all", capsys) == got
        # D at r_d=6 is undefined in some fixture recording: an error, no file.
        assert [code for code, _, _ in got] == [1 if indicator == "d" else 0] * 2


class TestDeterminism:
    def test_byte_identical_repeat_runs(self, corpus_dir, tmp_path):
        outs = []
        for k in range(2):
            out = tmp_path / f"run{k}.csv"
            assert run(["indicators", corpus_dir / "steady", corpus_dir / "erratic", "--out", out]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


# The CLI contract, driven in process over small input trees and flag values.
TREE_DIRS = ("g1", "g2", "g3", "g1/sub", "g1/dir.txt")  # g3 holds no recording
TREE_FILES = (
    "g1/a.txt", "g1/b.csv", "g1/notes.dat", "g1/sub/a.txt", "g1/dir.txt/c.txt", "g2/a.txt",
    "g2/C.TXT",
)
GOOD = ("800\n801\n800\n802\n800.5\n801\n", "700,720,690,710\n730,705\n", "800\n" * 6)
VALUES = ("800", "812.5", "790", "1e3", "750", "# note", "")
BAD_VALUES = ("0", "-5", "1e200", "1e400", "nan", "oops", "8_00")
# Each flag's values: (accepted, rejected).
RADII = (
    ("3", "0.5", "40", "5e-324", "1e-300", "1e300"),
    ("inf", "-inf", "nan", "1e400", "x", "0", "-3"),
)
DIVISIONS = (
    ("10,10,10", "1,1,1", "3,2,5", "2097151,2097151,2097151", f"1,1,{2**53}"),
    ("2097152,2097152,2097152", "1,1,9223372036854775807", "0,1,1", "1,1", "a,b,c"),
)
GRIDS = (
    ("0.5:10:0.5", "1:1:1", "5e-324:1e-323:5e-324", "1:1e300:1e299"),
    ("1:1e300:1e-300", "5e-324:1:5e-324", "1:1000001:1", "2:1:1", "0:1:1", "nan:1:1", "1:2"),
)
SEGMENT_LENS = (("3", "4", "100"), ("2", "-1", "x"))


def _file_text(lines, bom, crlf, final_newline):
    text = "\n".join(lines) + "\n" * final_newline
    return "\ufeff" * bom + (text.replace("\n", "\r\n") if crlf else text)


file_texts = st.builds(
    _file_text,
    st.one_of(
        st.sampled_from(GOOD).map(str.splitlines),
        st.lists(st.sampled_from(VALUES), min_size=3, max_size=8),
        st.lists(st.sampled_from(VALUES + BAD_VALUES), max_size=8),
    ),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)


@st.composite
def cli_argvs(draw):
    """An argv whose paths start with {root}, the tree's directory."""
    command = draw(st.sampled_from(["indicators", "points", "sweep", "classify"]))
    if command in ("sweep", "classify"):
        # Distinct group names, so any exit 1 before a file is read is a file's.
        size = 2 if command == "classify" else draw(st.integers(1, 3))
        groups = st.sampled_from(["g1", "g2", "g1/sub", "g1", "g2", "g3", "missing"])
        inputs = draw(st.lists(groups, min_size=size, max_size=size, unique=True))
    else:
        paths = st.sampled_from(["g1", "g2", "g1/a.txt", "g2/b.csv", "g3", "missing.txt"])
        inputs = draw(st.lists(paths, min_size=1, max_size=3))
    argv = [command, *(f"{{root}}/{path}" for path in inputs)]
    flags = {"--format": (("csv", "json"), ()), "--segment-len": SEGMENT_LENS}
    if command == "sweep":
        flags["--indicator"] = (("ctm", "d", "cctm3"), ())
        flags["--r-grid"] = GRIDS
    else:
        flags["--r-ctm"] = flags["--r-d"] = RADII
        flags["--divisions"] = DIVISIONS
    if command == "classify":
        # Not d: an undefined D in the first group would stop the run before
        # the second group is read, with an error that names no file.
        flags["--indicator"] = (("ctm", "cctm2", "etv_global", "etv1"), ())
    # At most one flag takes a value its parser rejects.
    bad = draw(st.sampled_from([None, None, *(flag for flag, (_, no) in flags.items() if no)]))
    for flag, (accepted, rejected) in flags.items():
        value = draw(st.none() | st.sampled_from(rejected if flag == bad else accepted))
        if value is not None:
            argv.append(f"{flag}={value}")  # `=` keeps a value such as -inf a value
    if command == "points":
        argv += ["--out", "{root}/out"]
    return argv


def _outcome(argv, out_dir, capsys):
    """Exit code, stdout, stderr and written files of one in-process run."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning is an internal fault too
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*"))} if out_dir.is_dir() else {}
    return code, out, err, files


def _files_at_fault(inputs, segment_len):
    """The inputs and the files they name that a run must not accept."""
    for path in inputs:
        if path.is_dir():
            files = [p for p in path.iterdir() if p.suffix.lower() in (".txt", ".csv")]
            files = [p for p in files if p.is_file()]
            if not files:
                yield path
        else:
            files = [path]
        for file in files:
            try:
                if len(load_rr_series(file)) < segment_len:
                    yield file
            except (TvmhrvError, OSError):
                yield file


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.dictionaries(st.sampled_from(TREE_FILES), file_texts, max_size=3), cli_argvs())
@example({"g1/a.txt": GOOD[0]}, ["sweep", "{root}/g1", "--r-grid=1:1e300:1e-300"])
@example({"g1/a.txt": GOOD[0]}, ["indicators", "{root}/g1", "--divisions=1,1,9223372036854775807"])
def test_cli_contract(tmp_path, capsys, tree, argv):
    root = Path(tempfile.mkdtemp(dir=tmp_path))
    for name in TREE_DIRS:
        (root / name).mkdir()
    for name, text in {"g1/a.txt": GOOD[0], "g2/e.txt": GOOD[1], **tree}.items():
        (root / name).write_bytes(text.encode())
    argv = [token.replace("{root}", str(root)) for token in argv]

    code, out, err, files = _outcome(argv, root / "out", capsys)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code != 2:
        lines = err.splitlines()
        assert [line for line in lines if not line.startswith("tvmhrv: warning: ")] == (
            lines[-1:] if code == 1 else []
        ), err
    if code == 1:
        assert lines[-1].startswith("tvmhrv: error: ")
        inputs = map(Path, itertools.takewhile(lambda token: token[:2] != "--", argv[1:]))
        segment = next((t.split("=")[1] for t in argv if t.startswith("--segment-len=")), "3")
        at_fault = [str(path) for path in _files_at_fault(inputs, int(segment))]
        if at_fault:
            assert any(path in lines[-1] for path in at_fault), (lines[-1], at_fault)
    assert _outcome(argv, root / "out", capsys) == (code, out, err, files)
