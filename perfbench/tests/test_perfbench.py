"""Tests of the benchmark itself: corpus, output checks and span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
from pathlib import Path

import pytest

import corpus
import run
from spans import Span, layer_metrics, self_times


def test_same_seed_gives_byte_identical_corpus(tmp_path):
    corpus.write_corpus(tmp_path / "a", seed=5, recordings=2, length=3000)
    corpus.write_corpus(tmp_path / "b", seed=5, recordings=2, length=3000)
    corpus.write_corpus(tmp_path / "c", seed=6, recordings=2, length=3000)
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.txt"))
    assert len(files) == 4
    for rel in files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
        assert (tmp_path / "a" / rel).read_bytes() != (tmp_path / "c" / rel).read_bytes()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("group", corpus.GROUPS)
def test_generated_values_are_positive_and_physiological(seed, group):
    text = corpus.recording_text(seed, group, 0, run.RECORDING_LENGTH)
    values = [float(v) for v in text.split()]
    assert len(values) == run.RECORDING_LENGTH
    assert all(math.isfinite(v) and v > 0 for v in values)
    assert corpus.RR_MIN_MS <= min(values) and max(values) <= corpus.RR_MAX_MS


def small_run(tmp_path, workload="fullday"):
    r = run.Run(workload, seed=7, work=tmp_path)
    corpus.write_corpus(r.corpus, seed=7, recordings=1, length=1200)
    return r


def test_one_digit_change_in_an_output_raises_error_rate(tmp_path, monkeypatch):
    r = small_run(tmp_path)
    r.sample("plain")
    assert (r.attempted, r.failed) == (1, 0)

    real = run.run_child

    def corrupting(mode, result, argv, stderr_path):
        outcome = real(mode, result, argv, stderr_path)
        out = Path(argv[argv.index("--out") + 1])
        lines = out.read_text().splitlines(keepends=True)
        row = lines[1]
        i = next(i for i, ch in enumerate(row) if ch in "123456789")
        lines[1] = row[:i] + ("2" if row[i] == "1" else "1") + row[i + 1:]
        out.write_text("".join(lines))
        return outcome

    monkeypatch.setattr(run, "run_child", corrupting)
    r.sample("plain")
    assert (r.attempted, r.failed) == (2, 1)
    assert r.failed / r.attempted == 0.5
    assert "output digest" in r.problems[0]


def test_first_sample_agrees_with_the_oracle(tmp_path):
    r = small_run(tmp_path)
    r.sample("plain")
    r.oracle_check()
    assert r.problems == []
    # A changed digit in the reference sample is caught by the oracle too.
    out = r.first[0] / "indicators.csv"
    out.write_text(out.read_text().replace(",0.", ",1.", 1))
    r.oracle_check()
    assert any(p.startswith("oracle:") for p in r.problems)


def test_traced_child_records_nested_spans(tmp_path):
    r = small_run(tmp_path)
    sample = r.sample("trace")
    assert r.failed == 0
    spans = sample["spans"]
    names = [s.name for s in spans]
    assert names[0] == "cli.main" and spans[0].parent == -1
    # report() reaches second_order_diff through analysis' own reference.
    for i, s in enumerate(spans):
        if s.name == "sodp.second_order_diff":
            assert spans[s.parent].name == "analysis.report"
        if s.name == "tvm.build_grid" and spans[s.parent].name == "tvm.quadrant_etv":
            break
    else:
        pytest.fail("no build_grid span under quadrant_etv")
    metrics = layer_metrics(spans)
    assert metrics["series.intervals"] == 2 * 1200
    assert metrics["analysis.reports"] == 2
    assert metrics["cluster.features"] == 0


def test_self_time_arithmetic_on_a_hand_built_tree():
    spans = [
        Span("cli.main", 0, 100, -1, {}),
        Span("analysis.report", 10, 60, 0, {}),
        Span("tvm.build_grid", 20, 30, 1, {"cells_occupied": 3, "cells_total": 8}),
        Span("tvm.quadrant_etv", 30, 55, 1, {}),
        Span("tvm.build_grid", 35, 45, 3, {"cells_occupied": 2, "cells_total": 8}),
        Span("series.load_rr_series", 70, 90, 0, {"intervals": 5}),
    ]
    assert self_times(spans) == [30, 15, 10, 15, 10, 20]
    m = layer_metrics(spans)
    assert m["cli.self_s"] == 30e-9
    assert m["analysis.report_self_s"] == 15e-9
    assert m["tvm.grid_s"] == 20e-9
    assert m["tvm.quadrant_s"] == 15e-9
    assert m["series.load_s"] == 20e-9
    assert (m["tvm.grids"], m["tvm.cells_occupied"], m["tvm.cells_total"]) == (2, 5, 16)
    assert m["series.intervals"] == 5
    assert m["analysis.sweep_s"] == 0


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("cli.main", 0, 50, -1, {}),
        Span("series.load_dataset_group", 10, 30, 0, {}),
        Span("series.split_segments", 20, 40, 0, {}),
        Span("sodp.second_order_diff", 45, 60, 0, {"points": 1}),
    ]
    # Children cover [10, 40] and [45, 50] of the parent: 35 of 50.
    assert self_times(spans)[0] == 15


def test_reference_digests_cover_every_workload():
    stored = json.loads((run.HERE / "reference.json").read_text())
    assert stored["seed"] == run.DEFAULT_SEED
    for workload in run.WORKLOADS:
        plan = run.steps(workload, Path("c"), Path("o"))
        assert len(stored["digests"][workload]) == len(plan)
