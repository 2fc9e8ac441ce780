#!/usr/bin/env python3
"""Run the full evaluation protocol over a set of RR dataset directories.

For every dataset: per-indicator mean/std and five-number summaries
(boxplot data). For every dataset pair and indicator: deterministic
k-means + RI. Outputs land in --out as CSV and JSON; warnings and errors
go to stderr as the tvmhrv CLI prints them.

Intended for user-downloaded PhysioNet RR exports (one directory per
database, plain-text RR files). Intervals are used as written, in
whatever unit the files hold, and the radii are in that unit, so every
dataset must use the same one. Results are sensitive to --r-ctm, --r-d
and --divisions; vary them if group means do not land where expected.

Usage:
    python scripts/reproduce_tables.py nsr2db/ cudb/ --out out/tables \
        --r-ctm 3 --r-d 6 --divisions 10,10,10 --segment-len 1000
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tvmhrv import (
    ALL_INDICATORS,
    DistinctValuesError,
    TvmhrvError,
    cli,
    indicator_value,
    pairwise_classify,
)
from tvmhrv.analysis import summarize_reports, write_csv, write_json
from tvmhrv.series import check_group_names, input_files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("datasets", nargs="+", type=Path, help="dataset directories")
    parser.add_argument("--out", type=Path, default=Path("out/tables"))
    cli.add_indicator_args(parser)
    parser.add_argument("--segment-len", type=cli.parse_segment_len, default=None)
    parser.add_argument(
        "--indicators",
        nargs="+",
        default=list(ALL_INDICATORS),
        choices=ALL_INDICATORS,
        help="indicators to cluster on (default: all)",
    )
    args = parser.parse_args(argv)
    try:
        groups = check_group_names(args.datasets)
    except (TvmhrvError, NotADirectoryError) as exc:
        parser.error(str(exc))
    return cli.run(lambda args: tables(groups, args), args)


def tables(groups: dict[str, Path], args) -> int:
    """Report each group, then write the summaries and the RI matrix to args.out."""
    params = cli.indicator_params(args)
    # One report per recording feeds both the summaries and the RI matrix.
    reports = {}
    for name, path in groups.items():
        reports[name] = cli._reports(input_files(path), args.segment_len, params)
        cli._warn_degenerate(reports[name], params, group=name)
    args.out.mkdir(parents=True, exist_ok=True)

    summaries = [(name, summarize_reports(name, reps)) for name, reps in reports.items()]
    write_csv(
        args.out / "summary.csv",
        ["dataset", "indicator", "n", "mean", "std", "min", "q1", "median", "q3", "max"],
        (
            [name, indicator, s.n, s.mean, s.std]
            + [s.minimum, s.q1, s.median, s.q3, s.maximum]
            for name, stats in summaries
            for indicator, s in stats.items()
        ),
    )
    write_json(
        args.out / "summary.json",
        [
            {
                "dataset": name,
                "indicators": {
                    indicator: {
                        "n": s.n,
                        "mean": s.mean,
                        "std": s.std,
                        "min": s.minimum,
                        "q1": s.q1,
                        "median": s.median,
                        "q3": s.q3,
                        "max": s.maximum,
                        "values": s.values,
                    }
                    for indicator, s in stats.items()
                },
            }
            for name, stats in summaries
        ],
    )
    for name, stats in summaries:
        line = ", ".join(
            f"{ind}={stats[ind].mean:.4g}±{stats[ind].std:.4g}"
            for ind in ("ctm", "d", "etv1")
            if ind in stats
        )
        print(f"{name}: {line}")

    ri_rows = []
    for (name_a, ra), (name_b, rb) in itertools.combinations(reports.items(), 2):
        for indicator in args.indicators:
            fa = [indicator_value(r, indicator) for r in ra]
            fb = [indicator_value(r, indicator) for r in rb]
            ri = None
            if None not in fa + fb:
                # One value over the pair gets an empty RI, as an undefined D does.
                try:
                    _, ri = pairwise_classify(fa, fb)
                except DistinctValuesError as exc:
                    cli.log.warning(
                        "RI[%s vs %s, %s] is left empty: %s", name_a, name_b, indicator, exc
                    )
                if ri is not None and indicator in ("ctm", "etv1"):
                    print(f"RI[{name_a} vs {name_b}, {indicator}] = {ri:.3f}")
            ri_rows.append((f"{name_a}|{name_b}", indicator, ri))
    write_csv(args.out / "ri_matrix.csv", ["pair", "indicator", "ri"], ri_rows)

    print(f"outputs in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
