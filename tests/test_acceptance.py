"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible with
``pytest -s``) and enforces its stated tolerance and runtime bound. The
oracle side lives in oracle.py and shares no code with the library.
"""

import math
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from oracle import (
    reference_pipeline,
    reference_radius_counts,
    reference_sodp,
)
from tvmhrv import (
    IndicatorParams,
    RRSeries,
    build_grid,
    build_tvm_points,
    indicator_value,
    load_recordings,
    pairwise_classify,
    radius_census,
    report,
    second_order_diff,
    summarize_reports,
    temporal_variation_entropy,
)
from tvmhrv.cli import main as cli_main
from tvmhrv.series import check_group_names, input_files


@contextmanager
def criterion(number: int, name: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")


def etv_report(series, divisions=(10, 10, 10)):
    return report(series, IndicatorParams(divisions=divisions))


def lifted(values):
    return build_tvm_points(second_order_diff(RRSeries(values)))


def rel_close(got: float, want: float, rel: float = 1e-9) -> bool:
    if want == 0.0:
        return got == 0.0
    return abs(got - want) <= rel * abs(want)


def test_criterion_1_oracle_equivalence():
    """Brute-force evaluator agrees with the library on 100 seeded series."""
    with criterion(1, "oracle equivalence"):
        started = time.perf_counter()
        rng = random.Random(20260808)
        for case in range(100):
            n = rng.randint(3, 500)
            values = [rng.uniform(300.0, 1500.0) for _ in range(n)]
            if case % 4 == 3:
                divisions = (10, 10, 10)
            else:
                divisions = (rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6))
            r = rng.uniform(0.5, 80.0)

            series = RRSeries(values, source_id=f"case{case:03d}")
            points = second_order_diff(series)
            counts = radius_census(points, [r])[0]
            xs, ys = reference_sodp(values)
            ref_within, ref_quadrant, ref_axis = reference_radius_counts(xs, ys, r)
            assert counts.within == ref_within, case
            assert list(counts.quadrant) == ref_quadrant, case
            assert counts.on_axis == ref_axis, case

            result = etv_report(series, divisions)
            ref_global, ref_quadrant_etv = reference_pipeline(values, divisions)
            assert rel_close(result.etv_global, ref_global), case
            for got, want in zip(result.etv_quadrant, ref_quadrant_etv):
                assert rel_close(got, want), case
        assert time.perf_counter() - started < 10.0


def test_criterion_2_invariant_suite():
    """Seven structural invariants, each over >= 200 randomized cases."""
    with criterion(2, "invariant suite"):
        started = time.perf_counter()
        rng = random.Random(11)
        dyadic = lambda hi: rng.randint(1, hi) / 8.0

        # Translation invariance, bitwise. Dyadic values make the shift exact.
        for _ in range(200):
            values = [dyadic(2**14) for _ in range(rng.randint(3, 60))]
            shift = rng.randint(0, 2**20) / 8.0
            divisions = (rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5))
            shifted = [v + shift for v in values]
            r1 = etv_report(RRSeries(values), divisions)
            r2 = etv_report(RRSeries(shifted), divisions)
            assert r2.etv_global == r1.etv_global
            assert r2.etv_quadrant == r1.etv_quadrant
            p1, p2 = lifted(values), lifted(shifted)
            for a, b in (
                (p1.base.x, p2.base.x), (p1.base.y, p2.base.y), (p1.d_co, p2.d_co),
                (p1.le, p2.le), (p1.l, p2.l), (p1.z, p2.z),
            ):
                assert a.tolist() == b.tolist()

        # Positive-scale equivariance of E_TV, 1e-9 relative, c in {0.5, 2, 10}.
        for i in range(200):
            c = (0.5, 2.0, 10.0)[i % 3]
            values = [dyadic(2**14) for _ in range(rng.randint(3, 60))]
            divisions = (rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5))
            r1 = etv_report(RRSeries(values), divisions)
            r2 = etv_report(RRSeries([c * v for v in values]), divisions)
            assert rel_close(r2.etv_global, c * r1.etv_global)
            for got, want in zip(r2.etv_quadrant, r1.etv_quadrant):
                assert rel_close(got, c * want)

        # CTM monotone in r.
        for _ in range(200):
            values = [rng.uniform(300.0, 1500.0) for _ in range(rng.randint(3, 80))]
            points = second_order_diff(RRSeries(values))
            lo, hi = sorted((rng.uniform(0.1, 100.0), rng.uniform(0.1, 100.0)))
            assert radius_census(points, [lo])[0].ctm <= radius_census(points, [hi])[0].ctm

        # Quadrant-sum identity (exact, at the integer-count level),
        # E_TV >= 0, l in [0.5, 1] and below 1 within 36 mean distances, and
        # grid count conservation.
        for _ in range(200):
            values = [rng.uniform(300.0, 1500.0) for _ in range(rng.randint(3, 80))]
            series = RRSeries(values)
            points = second_order_diff(series)
            r = rng.uniform(0.1, 120.0)
            counts = radius_census(points, [r])[0]
            assert sum(counts.quadrant) + counts.on_axis == counts.within
            # The reported ratios are these exact counts over the total.
            assert counts.ctm == counts.within / counts.total
            assert counts.cctm == tuple(q / counts.total for q in counts.quadrant)

            divisions = (rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5))
            result = etv_report(series, divisions)
            assert result.etv_global >= 0.0
            assert all(v >= 0.0 for v in result.etv_quadrant)
            tvm_points = build_tvm_points(points)
            # l rounds to exactly 1.0 only beyond about 36.7 mean distances.
            assert np.all((0.5 <= tvm_points.l) & (tvm_points.l <= 1.0))
            mean_le = math.fsum(tvm_points.le.tolist()) / len(tvm_points)
            assert np.all(tvm_points.l[tvm_points.le < 36 * mean_le] < 1.0)
            grid = build_grid(points.x, points.y, tvm_points.z, divisions)
            assert grid.counts.sum() == len(series) - 2
        assert time.perf_counter() - started < 30.0


def test_criterion_3_degenerate_cases():
    """Constant series, single-cell grids, and length-3 series behave."""
    with criterion(3, "degenerate cases"):
        constant = RRSeries([800] * 25, source_id="flat")
        points = second_order_diff(constant)
        assert radius_census(points, [3.0])[0].ctm == 1.0
        assert radius_census(points, [6.0])[0].d == 0.0
        result = etv_report(constant)
        assert result.etv_global == 0.0
        assert result.etv_quadrant == (0.0, 0.0, 0.0, 0.0)

        varied = RRSeries([800, 810, 790, 805, 795, 820])
        varied_points = second_order_diff(varied)
        varied_z = build_tvm_points(varied_points).z
        single_cell = build_grid(varied_points.x, varied_points.y, varied_z, (1, 1, 1))
        assert temporal_variation_entropy(single_cell) == [0.0]

        tiny = RRSeries([800, 810, 790], source_id="tiny")
        rep = report(tiny, IndicatorParams())
        assert rep.source_id == "tiny"
        assert len(build_tvm_points(second_order_diff(tiny))) == 1


def test_criterion_4_classification_harness():
    """k-means + RI behaves on separated and adversarial features."""
    with criterion(4, "classification harness"):
        started = time.perf_counter()
        rng = random.Random(99)
        # Group means 0 and 15, within-group std 1: separation >= 10 stds.
        group_a = [rng.gauss(0.0, 1.0) for _ in range(40)]
        group_b = [rng.gauss(15.0, 1.0) for _ in range(40)]
        assert pairwise_classify(group_a, group_b)[1] == 1.0

        # Hand-run Lloyd: centroids start (0, 10), split (0,1,0,1) is stable,
        # and both label bijections score 2/4.
        _, adversarial_ri = pairwise_classify([0.0, 10.0], [0.0, 10.0])
        assert adversarial_ri == 0.5
        assert time.perf_counter() - started < 1.0


def _run_cli_suite(corpus: Path, out_dir: Path) -> dict:
    steady = corpus / "steady"
    erratic = corpus / "erratic"
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = {
        "indicators.csv": ["indicators", steady, erratic, "--out", out_dir / "indicators.csv"],
        "indicators.json": [
            "indicators", steady, erratic, "--format", "json", "--out", out_dir / "indicators.json",
        ],
        "points/rec00_sodp.csv": ["points", steady / "rec00.txt", "--out", out_dir / "points"],
        "points/rec00_sodp.json": [
            "points", steady / "rec00.txt", "--format", "json", "--out", out_dir / "points",
        ],
        "sweep_ctm.csv": [
            "sweep", steady, erratic, "--indicator", "ctm", "--out", out_dir / "sweep_ctm.csv",
        ],
        "classify_etv1.csv": [
            "classify", steady, erratic, "--indicator", "etv1",
            "--out", out_dir / "classify_etv1.csv",
        ],
    }
    for name, argv in jobs.items():
        assert cli_main([str(a) for a in argv]) == 0, name
    produced = {}
    for rel in (
        "indicators.csv",
        "indicators.json",
        "points/rec00_sodp.csv",
        "points/rec00_tvm.csv",
        "points/rec00_sodp.json",
        "points/rec00_tvm.json",
        "sweep_ctm.csv",
        "classify_etv1.csv",
    ):
        produced[rel] = (out_dir / rel).read_bytes()
    return produced


def test_criterion_5_cli_determinism(corpus_dir, golden_dir, tmp_path):
    """Repeated CLI runs are byte-identical and match the checked-in goldens."""
    with criterion(5, "CLI determinism"):
        run1 = _run_cli_suite(corpus_dir, tmp_path / "run1")
        run2 = _run_cli_suite(corpus_dir, tmp_path / "run2")
        assert run1 == run2
        for rel, data in run1.items():
            golden = (golden_dir / rel).read_bytes()
            assert data == golden, f"{rel} deviates from golden file"


NSR2DB_DIR = os.environ.get("TVMHRV_NSR2DB_DIR")
CUDB_DIR = os.environ.get("TVMHRV_CUDB_DIR")


def _reproduction(dir_a, dir_b, segment_len=None):
    """The CTM means of two dataset directories and the RI of quadrant-I E_TV between them."""
    params = IndicatorParams(r_ctm=3.0, r_d=6.0)

    def reports(path):
        recordings = load_recordings(input_files(path), segment_len)
        return sorted((report(rec, params) for rec in recordings), key=lambda rep: rep.source_id)

    (name_a, path_a), (name_b, path_b) = check_group_names([dir_a, dir_b]).items()
    reports_a, reports_b = reports(path_a), reports(path_b)
    ctm_a = summarize_reports(name_a, reports_a)["ctm"].mean
    ctm_b = summarize_reports(name_b, reports_b)["ctm"].mean
    _, ri = pairwise_classify(
        [indicator_value(rep, "etv1") for rep in reports_a],
        [indicator_value(rep, "etv1") for rep in reports_b],
    )
    return ctm_a, ctm_b, ri


def test_criterion_6_protocol_runs_on_the_fixture_corpus(corpus_dir):
    """The data criterion's protocol, on data that is always present."""
    ctm_steady, ctm_erratic, ri = _reproduction(corpus_dir / "steady", corpus_dir / "erratic")
    assert math.isfinite(ctm_steady) and math.isfinite(ctm_erratic)
    assert 0.5 <= ri <= 1.0


@pytest.mark.skipif(
    not (NSR2DB_DIR and CUDB_DIR),
    reason="best-effort data criterion; set TVMHRV_NSR2DB_DIR and TVMHRV_CUDB_DIR "
    "to user-converted RR text exports to run it",
)
def test_criterion_6_physionet_reproduction():
    """Best-effort reproduction check on user-provided nsr2db and cudb.

    Sensitive to the units the RR exports use and to the subspace count; see
    README. Optional TVMHRV_SEGMENT_LEN selects the per-segment protocol.
    """
    with criterion(6, "data reproduction"):
        segment_len = os.environ.get("TVMHRV_SEGMENT_LEN")
        nsr_ctm, cu_ctm, ri = _reproduction(
            NSR2DB_DIR, CUDB_DIR, segment_len=int(segment_len) if segment_len else None
        )
        assert abs(nsr_ctm - 0.93) <= 0.10, f"nsr2db CTM mean {nsr_ctm}"
        assert abs(cu_ctm - 0.39) <= 0.10, f"cudb CTM mean {cu_ctm}"
        assert ri >= 0.9, f"quadrant-I E_TV RI {ri}"
