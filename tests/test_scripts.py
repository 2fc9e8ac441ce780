"""Smoke tests of the scripts under scripts/, run as a user would run them."""

import csv
import importlib.util
import random
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tvmhrv import ALL_INDICATORS, load_recordings, report, summarize_reports
from tvmhrv.analysis import format_value
from tvmhrv.cli import main as cli_main
from tvmhrv.series import check_group_names, input_files

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *args) -> str:
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


def run_tables(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "reproduce_tables.py"), *map(str, args)],
        capture_output=True,
        text=True,
    )


def import_script(name: str):
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_demo_data_regenerates_fixture_corpus(corpus_dir, tmp_path):
    # The command the README gives for tests/fixtures/corpus.
    run_script("make_demo_data.py", tmp_path, "--recordings", 3, "--length", 80, "--seed", 20260808)
    expected = sorted(p.relative_to(corpus_dir) for p in corpus_dir.rglob("*.txt"))
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*.txt")) == expected
    for rel in expected:
        assert (tmp_path / rel).read_bytes() == (corpus_dir / rel).read_bytes(), rel


def test_demo_steady_walk_stays_physiological():
    module = import_script("make_demo_data.py")
    # The steady recordings of --recordings 4 --length 100000 --seed 1.
    rng = random.Random(1)
    for k in range(4):
        values = module.steady_series(rng, 100_000)
        assert 300.0 <= min(values) and max(values) <= 2000.0, k


def test_reproduce_tables_outputs(corpus_dir, tmp_path):
    steady, erratic = corpus_dir / "steady", corpus_dir / "erratic"
    out = tmp_path / "tables"
    run_script("reproduce_tables.py", steady, erratic, "--out", out)

    expected = [["dataset", "indicator", "n", "mean", "std", "min", "q1", "median", "q3", "max"]]
    for name, path in check_group_names([steady, erratic]).items():
        recordings = load_recordings(input_files(path))
        summary = summarize_reports(name, [report(rec) for rec in recordings])
        for indicator, s in summary.items():
            stats = (s.mean, s.std, s.minimum, s.q1, s.median, s.q3, s.maximum)
            expected.append([name, indicator, str(s.n)] + [format_value(v) for v in stats])
    assert read_csv(out / "summary.csv") == expected

    ri_rows = read_csv(out / "ri_matrix.csv")
    assert ri_rows[0] == ["pair", "indicator", "ri"]
    assert [row[1] for row in ri_rows[1:]] == list(ALL_INDICATORS)
    assert {row[0] for row in ri_rows[1:]} == {"steady|erratic"}


@pytest.mark.parametrize("length", ["2", "0"])
def test_reproduce_tables_segment_len_below_three_is_a_usage_error(corpus_dir, tmp_path, length):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "reproduce_tables.py"), corpus_dir / "steady",
         "--out", tmp_path / "tables", "--segment-len", length],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 2, done.stderr
    assert f"argument --segment-len: segment length must be >= 3, got {length}" in done.stderr
    assert "Traceback" not in done.stderr


def test_reproduce_tables_repeated_group_name_is_a_usage_error(corpus_dir, tmp_path):
    a, b = tmp_path / "a" / "data", tmp_path / "b" / "data"
    a.mkdir(parents=True)
    b.mkdir(parents=True)
    for group, target in (("steady", a), ("erratic", b)):
        for path in (corpus_dir / group).iterdir():
            (target / path.name).write_bytes(path.read_bytes())
    (a / "bad.txt").write_text("800\noops\n790\n")  # an error naming it would mean a read
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "reproduce_tables.py"), a, b, "--out", tmp_path / "tables"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 2, done.stderr
    assert f"error: inputs {a} and {b} are both named 'data'" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "tables").exists()


@pytest.mark.parametrize("flag, text", [("--r-ctm", "inf"), ("--r-d", "nan"), ("--r-ctm", "1e400")])
def test_reproduce_tables_non_finite_radius_is_a_usage_error(corpus_dir, tmp_path, flag, text):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "reproduce_tables.py"), corpus_dir / "steady",
         "--out", tmp_path / "tables", flag, text],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 2, done.stderr
    assert f"argument {flag}: radius must be finite and > 0, got {float(text)}" in done.stderr
    assert not (tmp_path / "tables").exists()


@pytest.mark.parametrize("flag, text", [("--r-d", "0"), ("--r-ctm", "-3")])
def test_reproduce_tables_non_positive_radius_is_a_usage_error(corpus_dir, tmp_path, flag, text):
    # A zero --r-d used to end in a ValueError traceback from IndicatorParams.
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "reproduce_tables.py"), corpus_dir / "steady",
         corpus_dir / "erratic", "--out", tmp_path / "tables", flag, text],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert f"argument {flag}: radius must be finite and > 0, got {float(text)}" in done.stderr
    assert not (tmp_path / "tables").exists()


def test_reproduce_tables_missing_directory_is_a_usage_error(corpus_dir, tmp_path):
    missing = tmp_path / "missing"
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "reproduce_tables.py"), corpus_dir / "steady", missing,
         "--out", tmp_path / "tables"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 2, done.stderr
    assert f"error: {missing} is not a directory" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "tables").exists()


def test_reproduce_tables_bad_recording_is_the_cli_error(corpus_dir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    shutil.copytree(corpus_dir / "steady", a)
    shutil.copytree(corpus_dir / "erratic", b)
    bad = a / "zbad.txt"
    bad.write_text("800\noops\n790\n")
    done = run_tables(a, b, "--out", tmp_path / "tables")
    assert done.returncode == 1, done.stderr
    assert done.stderr == f"tvmhrv: error: {bad}: line 2: cannot parse 'oops' as a number\n"
    assert done.stdout == ""
    assert not (tmp_path / "tables").exists()


def test_reproduce_tables_warns_of_each_dropped_tail(corpus_dir, tmp_path):
    steady, erratic = corpus_dir / "steady", corpus_dir / "erratic"
    done = run_tables(steady, erratic, "--out", tmp_path / "tables", "--segment-len", 30)
    assert done.returncode == 0, done.stderr
    files = sorted(steady.glob("*.txt")) + sorted(erratic.glob("*.txt"))
    assert len(files) == 6
    assert [line for line in done.stderr.splitlines() if "dropped" in line] == [
        f"tvmhrv: warning: {file}: dropped the last 20 of 80 intervals, "
        "fewer than one segment of 30"
        for file in files
    ]


def test_reproduce_tables_warnings_name_the_group(corpus_dir, tmp_path):
    # Both groups hold rec00..rec02; only the group tells them apart.
    steady, erratic = corpus_dir / "steady", corpus_dir / "erratic"
    done = run_tables(steady, erratic, "--out", tmp_path / "tables")
    assert done.returncode == 0, done.stderr
    assert done.stderr == (
        "tvmhrv: warning: no point lies inside r_d=6 in 3 recordings "
        "(erratic/rec00, erratic/rec01, erratic/rec02); their D is left empty\n"
    )
    done = run_tables(steady, erratic, "--out", tmp_path / "tables", "--segment-len", 20)
    assert done.returncode == 0, done.stderr
    assert done.stderr == (
        "tvmhrv: warning: no point lies inside r_d=6 in 12 recordings "
        "(erratic/rec00#000, erratic/rec00#001, erratic/rec00#002, ...); their D is left empty\n"
        "tvmhrv: warning: an empty quadrant's E_TV is reported as 0 in 5 recordings "
        "(erratic/rec00#003, erratic/rec01#001, erratic/rec02#000, ...)\n"
    )


def test_one_valued_indicator_leaves_its_ri_empty(tmp_path):
    # cctm2 is the same in the one recording of each group, so k-means
    # cannot split the pair on it; every other indicator differs.
    rng = np.random.default_rng(11)
    for group, (low, high) in (("a", (790, 811)), ("b", (700, 901))):
        (tmp_path / group).mkdir()
        values = rng.integers(low, high, 300).tolist()
        (tmp_path / group / "r0.txt").write_text("".join(f"{v}\n" for v in values))
    out = tmp_path / "tables"
    done = run_tables(tmp_path / "a", tmp_path / "b", "--out", out)
    assert done.returncode == 0, done.stderr
    assert done.stderr == (
        "tvmhrv: warning: RI[a vs b, cctm2] is left empty: "
        "k-means with k=2 needs at least 2 distinct values, got 1\n"
    )
    ri = {row[1]: row[2] for row in read_csv(out / "ri_matrix.csv")[1:]}
    assert list(ri) == list(ALL_INDICATORS)
    assert ri["cctm2"] == "" and all(ri[ind] != "" for ind in ALL_INDICATORS if ind != "cctm2")


def test_undefined_d_is_left_out_of_the_tables_and_stops_classify(corpus_dir, tmp_path, capsys):
    # No point of an erratic recording lies inside the default r_d=6, so
    # group b has two recordings with a D and one without.
    a, b = tmp_path / "a", tmp_path / "b"
    shutil.copytree(corpus_dir / "steady", a)
    b.mkdir()
    for name in ("rec00.txt", "rec01.txt"):
        shutil.copy(corpus_dir / "steady" / name, b / name)
    shutil.copy(corpus_dir / "erratic" / "rec00.txt", b / "rec02.txt")

    # The tables report every other indicator: D's summary leaves the
    # recording out, and D's RI is empty.
    out = tmp_path / "tables"
    done = run_tables(a, b, "--out", out)
    assert done.returncode == 0, done.stderr
    assert done.stderr == (
        "tvmhrv: warning: no point lies inside r_d=6 in 1 recordings (b/rec02); "
        "their D is left empty\n"
    )
    n = {(row[0], row[1]): row[2] for row in read_csv(out / "summary.csv")[1:]}
    assert (n["a", "d"], n["b", "d"], n["b", "ctm"]) == ("3", "2", "3")
    ri = {row[1]: row[2] for row in read_csv(out / "ri_matrix.csv")[1:]}
    assert ri["d"] == "" and all(ri[ind] != "" for ind in ALL_INDICATORS if ind != "d")

    # classify is asked for the RI of D alone, and names the recording.
    assert cli_main(["classify", str(a), str(b), "--indicator", "d"]) == 1
    assert capsys.readouterr().err == (
        "tvmhrv: error: b/rec02: indicator 'd' is undefined (no point inside r_d=6.0); "
        "cannot classify\n"
    )


def test_reproduce_tables_peak_memory_does_not_grow_with_recordings(tmp_path, capsys):
    tables = import_script("reproduce_tables.py")
    # Four recordings per group, and copies of each group's first in
    # groups of the same names. The two groups' spreads differ, so that no
    # indicator takes one value over both groups and each RI is defined.
    rng = np.random.default_rng(8)
    for group, spread in (("a", 10), ("b", 20)):
        for root in ("many", "few"):
            (tmp_path / root / group).mkdir(parents=True)
        for k in range(4):
            values = rng.integers(800 - spread, 801 + spread, 20_000).tolist()
            text = "".join(f"{v}\n" for v in values)
            (tmp_path / "many" / group / f"r{k}.txt").write_text(text)
            if k == 0:
                (tmp_path / "few" / group / f"r{k}.txt").write_text(text)

    def peak(root):
        tracemalloc.start()
        try:
            argv = [root / "a", root / "b", "--out", tmp_path / "tables"]
            assert tables.main([str(arg) for arg in argv]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(tmp_path / "few")  # imports and first calls
    column = 8 * 20_000
    assert peak(tmp_path / "many") < peak(tmp_path / "few") + column
