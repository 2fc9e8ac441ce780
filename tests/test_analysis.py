import csv
import io
import json
import math
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
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
from tvmhrv import analysis
from tvmhrv.analysis import format_value, write_csv, write_json

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
            indicator_of(FIVE, name)


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
            assert bits(indicator_of(series, name, params)) == bits(indicator_value(rep, name))

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
        assert bits(indicator_of(series, name, params)) == bits(want)

    def test_empty_quadrant_named(self):
        rise = RRSeries(list(range(700, 720)), source_id="rise")
        empty = []
        for name in ALL_INDICATORS:
            indicator_of(rise, name, IndicatorParams(), empty)
        assert empty == [1, 2, 3]  # etv2, etv3 and etv4; etv_global reports none


class TestParams:
    def test_defaults_follow_reported_choices(self):
        params = IndicatorParams()
        assert params.r_ctm == 3.0
        assert params.r_d == 6.0
        assert params.divisions == (10, 10, 10)

    @pytest.mark.parametrize("kwargs", [{"r_ctm": 0.0}, {"r_d": -1.0}, {"divisions": (0, 1, 1)}])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IndicatorParams(**kwargs)


class TestSweep:
    def test_single_recording_equals_report(self):
        group = {"solo": (FIVE,)}
        rows = sweep_r(group, "ctm", [3.0])
        assert rows["solo"] == (report(FIVE, IndicatorParams(r_ctm=3.0)).ctm,)

    @given(
        st.lists(st.floats(min_value=300.0, max_value=1500.0), min_size=3, max_size=40),
        st.floats(min_value=0.01, max_value=400.0),
    )
    @example(values=[800, 810, 790, 805, 795], r=3.0)  # no point inside r: D is None
    def test_single_recording_equals_report_for_every_radius_indicator(self, values, r):
        series = RRSeries(values, source_id="solo")
        rep = report(series, IndicatorParams(r_ctm=r, r_d=r))
        group = {"solo": (series,)}
        for indicator in RADIUS_INDICATORS:
            (swept,) = sweep_r(group, indicator, [r])["solo"]
            assert swept == indicator_value(rep, indicator), indicator

    def test_ctm_rows_non_decreasing(self):
        groups = {
            "a": (RRSeries(jittery(1)),),
            "b": (RRSeries(jittery(2, spread=5.0)),),
        }
        rows = sweep_r(groups, "ctm", [0.5, 1.0, 2.0, 5.0, 20.0, 100.0])
        for row in rows.values():
            assert list(row) == sorted(row)

    def test_constant_dataset_is_all_ones(self):
        group = {"flat": (CONSTANT, CONSTANT)}
        rows = sweep_r(group, "ctm", [0.5, 1.0, 3.0])
        assert rows["flat"] == (1.0, 1.0, 1.0)

    def test_d_absent_entries_do_not_abort(self):
        group = {"far": (FIVE,)}
        rows = sweep_r(group, "d", [1.0, 30.0])
        assert rows["far"][0] is None
        assert rows["far"][1] == pytest.approx(21.796145384105944, abs=1e-9)

    def test_rows_ordered_by_dataset_name(self):
        groups = {
            "zeta": (CONSTANT,),
            "alpha": (CONSTANT,),
        }
        rows = sweep_r(groups, "ctm", [1.0])
        assert list(rows) == ["alpha", "zeta"]

    def test_unknown_indicator_rejected(self):
        with pytest.raises(ValueError):
            sweep_r({"a": (FIVE,)}, "etv_global", [1.0])

    def test_requires_groups(self):
        with pytest.raises(EmptyInputError):
            sweep_r({}, "ctm", [1.0])
        with pytest.raises(EmptyInputError, match="dataset group 'a' has no recordings"):
            sweep_r({"a": ()}, "ctm", [1.0])

    def test_table_validates_ascending_radii(self):
        group = {"a": (FIVE,)}
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
        group = {"a": (FIVE,)}
        with pytest.raises(ValueError, match="r_values must be"):
            sweep_r(group, "ctm", grid)


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


# Every kind of scalar a payload may hold; st.floats() includes NaN, infinities,
# -0.0 and subnormals.
SCALARS = st.one_of(st.floats(), st.integers(), st.text(), st.none(), st.booleans())


# Floats whose JSON text '%.9g' does not give, and their neighbours.
EDGE_FLOATS = [
    3.0, -7.0, 800.0, 123456789.0, 999999999.0, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
    1e-4, 5e-4, 9.9999e-4, 1e-3, 0.9999999999, 9.9999999996, 99999999.95, 999999999.5, 1e9,
    1e16, 1.5e300, 800.25, math.nan, math.inf, -math.inf,
]
# Labels as the point export writes them, and strings that CSV must quote.
LABELS = ["I", "II", "III", "IV", "axis", "", "a,b", 'say "hi"', "two\nlines", "cr\r", "été"]


@st.composite
def array_columns(draw):
    """A header and aligned int64, float64 and str numpy columns."""
    kinds = draw(st.lists(st.sampled_from(["int", "float", "str"]), max_size=5))
    header = draw(st.lists(st.text(), min_size=len(kinds), max_size=len(kinds), unique=True))
    n = draw(st.integers(min_value=0, max_value=12))
    values = {
        "int": st.integers(min_value=-(2**63), max_value=2**63 - 1),
        "float": st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)),
        "str": st.one_of(st.sampled_from(LABELS), st.text()),
    }
    dtypes = {"int": np.int64, "float": np.float64, "str": str}
    columns = [
        np.array(draw(st.lists(values[kind], min_size=n, max_size=n)), dtype=dtypes[kind])
        for kind in kinds
    ]
    return header, columns


def edge_table():
    """Every edge float in a float64 column, first, beside an int64 index."""
    floats = np.array(EDGE_FLOATS, dtype=np.float64)
    index = np.arange(len(floats), dtype=np.int64) - 3
    return ["index", "value %s"], [index, floats]


class TestBlockPath:
    """Array columns, BLOCK_ROWS rows to a `%`, against the per-value writers."""

    @given(table=array_columns(), block_rows=st.integers(min_value=1, max_value=5))
    @example(table=edge_table(), block_rows=1)
    @example(table=edge_table(), block_rows=4)
    @example(table=(["q"], [np.array(["I", "", "IV", ""], dtype=str)]), block_rows=2)
    @example(table=(["n"], [np.array([], dtype=np.float64)]), block_rows=3)
    def test_csv_equals_csv_writer(self, table, block_rows):
        header, columns = table
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*(col.tolist() for col in columns)):
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
            write_json(streamed, head, records=("points", header, columns))
            points = [dict(zip(header, row)) for row in zip(*(col.tolist() for col in columns))]
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
            np.array(["I", "IV", "axis", "II"]),
        ]
        write_csv(tmp_path / "p.csv", header, columns=columns)
        write_json(tmp_path / "p.json", {}, records=("points", header, columns))
        assert (tmp_path / "p.csv").read_text().splitlines()[1:] == [
            "0,800.25,I", "1,3,IV", "2,-0,axis", "3,-12.5,II",
        ]
        assert [list(p.values()) for p in json.loads((tmp_path / "p.json").read_text())["points"]] == [
            [0, 800.25, "I"], [1, 3.0, "IV"], [2, -0.0, "axis"], [3, -12.5, "II"],
        ]


class TestWriterInputs:
    """What the column writers accept: aligned 1-D int, float64 or str arrays."""

    @pytest.mark.parametrize(
        "column",
        [
            [1.0, 2.0],
            np.array([[1.0, 2.0], [3.0, 4.0]]),
            np.array([1.0, 2.0], dtype=np.float32),
            np.array([True, False]),
            np.array([1.0, "a"], dtype=object),
        ],
        ids=["list", "2-D", "float32", "bool", "object"],
    )
    @pytest.mark.parametrize("writer", ["csv", "json"])
    def test_other_columns_are_a_type_error(self, tmp_path, column, writer):
        out = tmp_path / f"p.{writer}"
        with pytest.raises(TypeError, match="1-D numpy arrays of ints, float64 or str"):
            if writer == "csv":
                write_csv(out, ["x"], columns=[column])
            else:
                write_json(out, {}, records=("points", ["x"], [column]))
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
            lambda path: write_json(path, {}, records=("points", header, columns)),
        ):
            with pytest.raises(ValueError, match=message):
                call(None)  # stdout: nothing may be written before the check
            assert capsys.readouterr().out == ""
            with pytest.raises(ValueError, match=message):
                call(tmp_path / "p")
            assert list(tmp_path.iterdir()) == []

    def test_numpy_float_scalar_in_a_row(self, capsys):
        write_csv(None, ["a", "b", "c"], [[np.float32(0.1), np.float64(0.1), 0.1]])
        assert capsys.readouterr().out == "a,b,c\n0.100000001,0.1,0.1\n"
