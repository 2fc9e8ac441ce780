"""Smoke tests of the scripts under scripts/, run as a user would run them."""

import csv
import importlib.util
import random
import subprocess
import sys
from pathlib import Path

import pytest

from tvmhrv import ALL_INDICATORS, load_groups, report, summarize_reports
from tvmhrv.analysis import format_value

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *args) -> str:
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


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
    spec = importlib.util.spec_from_file_location("make_demo_data", SCRIPTS / "make_demo_data.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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
    for name, recordings in load_groups([steady, erratic]).items():
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
    assert f"segment length must be >= 3, got {length}" in done.stderr
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
    assert f"argument {flag}: radius must be finite, got {text!r}" in done.stderr
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
    assert f"argument {flag}: radius must be > 0, got {text!r}" in done.stderr
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
