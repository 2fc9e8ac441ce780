"""Command-line interface.

Subcommands: `indicators`, `points`, `sweep`, `classify`. Data goes to the
requested output files (or stdout), diagnostics to stderr; runs are fully
deterministic and numeric output is fixed at 9 significant digits. Exit code
is 0 iff every requested output was written.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

import numpy as np

from .analysis import (
    ALL_INDICATORS,
    RADIUS_INDICATORS,
    IndicatorParams,
    indicator_of,
    report,
    sweep_r,
    write_csv,
    write_json,
)
from .cluster import pairwise_classify
from .errors import DistinctValuesError, TvmhrvError
from .series import check_group_names, check_segment_len, input_files, load_recordings
from .sodp import QUADRANTS, check_radius, second_order_diff
from .tvm import build_tvm_points, check_divisions

DEFAULT_R_GRID = "0.5:10:0.5"
# The most radii one --r-grid may give: far above a fine sweep's 200, and a
# grid of 10**12 would not fit in memory.
MAX_RADII = 10**6

log = logging.getLogger("tvmhrv")


def _parsed(text: str, convert, expected: str, rule):
    """rule(convert(text)), where a ValueError of either is a usage error.

    rule is the library's check of the value, so its message is the CLI's.
    """
    try:
        value = convert(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None
    try:
        return rule(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_divisions(text: str) -> tuple[int, int, int]:
    return _parsed(
        text, lambda t: tuple(map(int, t.split(","))), "integers NX,NY,NZ", check_divisions
    )


def parse_radius(text: str) -> float:
    return _parsed(text, float, "a number", check_radius)


def parse_r_grid(text: str) -> tuple[float, ...]:
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected start:stop:step, got {text!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise argparse.ArgumentTypeError(f"start, stop and step must be finite: {text!r}")
    if start <= 0 or step <= 0 or stop < start:
        raise argparse.ArgumentTypeError(f"need 0 < start <= stop and step > 0: {text!r}")
    # Count bins up front so accumulated float error cannot drop the endpoint.
    bins = (stop - start) / step + 1e-9
    if not bins < MAX_RADII:  # also an infinite count
        raise argparse.ArgumentTypeError(f"grid gives more than {MAX_RADII} radii: {text!r}")
    return tuple(start + i * step for i in range(int(bins) + 1))


def parse_segment_len(text: str) -> int:
    return _parsed(text, int, "an integer", check_segment_len)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--unit",
        choices=["ms", "s", "none"],
        default="ms",
        help="unit of the input intervals; a tag only, nothing converts it (default: ms)",
    )
    parser.add_argument(
        "--segment-len",
        type=parse_segment_len,
        default=None,
        metavar="N",
        help="split each recording into consecutive N-interval segments "
        "(trailing partial segment dropped; a recording shorter than N is an error)",
    )
    parser.add_argument("--out", type=Path, default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvmhrv",
        description="Second-order difference plot indicators (CTM, CCTM, D) and "
        "the 3-D temporal variation entropy for RR-interval recordings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ind = sub.add_parser("indicators", help="one indicator row per recording")
    p_ind.add_argument("inputs", nargs="+", type=Path, help="RR text files and/or directories")
    _add_common(p_ind)

    p_pts = sub.add_parser("points", help="export 2-D and 3-D scatter points")
    p_pts.add_argument("inputs", nargs="+", type=Path, help="RR text files and/or directories")
    _add_common(p_pts)

    p_swp = sub.add_parser("sweep", help="group-mean indicator over a radius grid")
    p_swp.add_argument("inputs", nargs="+", type=Path, help="dataset directories")
    p_swp.add_argument("--indicator", choices=RADIUS_INDICATORS, default="ctm")
    p_swp.add_argument(
        "--r-grid",
        type=parse_r_grid,
        default=parse_r_grid(DEFAULT_R_GRID),
        metavar="START:STOP:STEP",
        help=f"radius grid of at most {MAX_RADII} radii (default: {DEFAULT_R_GRID})",
    )
    _add_common(p_swp)

    p_cls = sub.add_parser("classify", help="k-means + RI for a dataset pair")
    p_cls.add_argument("group_a", type=Path, help="first dataset directory")
    p_cls.add_argument("group_b", type=Path, help="second dataset directory")
    p_cls.add_argument("--indicator", choices=ALL_INDICATORS, default="ctm")
    _add_common(p_cls)

    # sweep takes its radii from --r-grid and computes no E_TV.
    for p in (p_ind, p_pts, p_cls):
        add_indicator_args(p)
    return parser


def add_indicator_args(parser: argparse.ArgumentParser) -> None:
    """Declare --r-ctm, --r-d and --divisions, defaulting to IndicatorParams()'s values."""
    defaults = IndicatorParams()
    for flag, r, what in (("--r-ctm", defaults.r_ctm, "CTM/CCTM"), ("--r-d", defaults.r_d, "D")):
        parser.add_argument(
            flag, type=parse_radius, default=r, help=f"radius for {what} (default: {r:g})"
        )
    parser.add_argument(
        "--divisions",
        type=parse_divisions,
        default=defaults.divisions,
        metavar="NX,NY,NZ",
        help=f"subspace divisions per axis (default: {','.join(map(str, defaults.divisions))})",
    )


def indicator_params(args) -> IndicatorParams:
    """The IndicatorParams of the flags add_indicator_args declared."""
    return IndicatorParams(**{f.name: getattr(args, f.name) for f in fields(IndicatorParams)})


def _input_files(args) -> tuple[list[Path], dict[str, list[str]]]:
    """The files that args.inputs name, in order, without reading any.

    Also returns, in id order, each source id (a file stem) that more than
    one file has, with those files. Segment ids carry their file's stem, so
    one source id covers all the segments of its files.
    """
    files = [file for path in args.inputs for file in input_files(path)]
    by_stem: dict[str, list[str]] = {}
    for file in files:
        by_stem.setdefault(file.stem, []).append(str(file))
    shared = {stem: names for stem, names in sorted(by_stem.items()) if len(names) > 1}
    return files, shared


def _group_features(name, directory, args, params, empty_ids: list[str]):
    """The indicator of each recording of the group `name` in directory.

    Under etvN, the ids of the recordings whose quadrant N is empty are
    appended to empty_ids.
    """
    # One group at a time, so only one group's recordings are held at once.
    recordings = load_recordings(input_files(directory), args.segment_len)
    recordings = sorted(recordings, key=lambda rec: rec.source_id)
    empty = []
    features = indicator_of(recordings, args.indicator, params, empty)
    for rec, value in zip(recordings, features):
        if value is None:
            raise TvmhrvError(
                f"{name}/{rec.source_id}: indicator {args.indicator!r} is undefined "
                f"(no point inside r_d={params.r_d}); cannot classify"
            )
    empty_ids += [f"{name}/{rec.source_id}" for rec in empty]
    return features


def _some(ids: list[str], shown: int = 3) -> str:
    return ", ".join(ids[:shown] + ["..."] * (len(ids) > shown))


def _warn_degenerate(reports, params: IndicatorParams, group: str = "") -> None:
    """One warning for all reports whose D is undefined, one for all with an empty quadrant."""
    prefix = f"{group}/" if group else ""
    no_d = [prefix + rep.source_id for rep in reports if rep.d is None]
    if no_d:
        log.warning(
            "no point lies inside r_d=%g in %d recordings (%s); their D is left empty",
            params.r_d, len(no_d), _some(no_d),
        )
    empty = [prefix + rep.source_id for rep in reports if 0 in rep.quadrant_points]
    if empty:
        log.warning(
            "an empty quadrant's E_TV is reported as 0 in %d recordings (%s)",
            len(empty), _some(empty),
        )


def _reports(files, segment_len: int | None, params: IndicatorParams) -> list:
    """Each recording's report, sorted stably by source_id.

    map holds no recording while the next file is read, so only one file's
    recordings are held at a time.
    """
    reports = map(partial(report, params=params), load_recordings(files, segment_len))
    return sorted(reports, key=lambda rep: rep.source_id)


def cmd_indicators(args) -> int:
    params = indicator_params(args)
    files, shared = _input_files(args)
    reports = _reports(files, args.segment_len, params)
    for sid, names in shared.items():
        log.warning(
            "files %s share the source id %r; only the row order tells their rows apart",
            ", ".join(names), sid,
        )
    _warn_degenerate(reports, params)
    if args.format == "csv":
        write_csv(
            args.out,
            ["source_id", "ctm", "cctm1", "cctm2", "cctm3", "cctm4", "d",
             "etv_global", "etv1", "etv2", "etv3", "etv4"],
            (
                [rep.source_id, rep.ctm, *rep.cctm, rep.d, rep.etv_global, *rep.etv_quadrant]
                for rep in reports
            ),
        )
    else:
        payload = {
            "params": asdict(params),
            "reports": [
                {
                    "source_id": rep.source_id,
                    "ctm": rep.ctm,
                    "cctm": rep.cctm,
                    "d": rep.d,
                    "etv_global": rep.etv_global,
                    "etv_quadrant": rep.etv_quadrant,
                }
                for rep in reports
            ],
        }
        write_json(args.out, payload)
    return 0


def _write_points(path, fmt, source_id, header, columns) -> None:
    if fmt == "csv":
        write_csv(path, header, columns=columns)
    else:
        write_json(path, {"source_id": source_id}, records=(header, columns))


def cmd_points(args) -> int:
    files, shared = _input_files(args)
    recordings = list(load_recordings(files, args.segment_len))
    if shared:
        sid, files = next(iter(shared.items()))
        raise TvmhrvError(
            f"files {', '.join(files)} share the source id {sid!r}; "
            "their point files would overwrite each other"
        )
    out_dir = args.out if args.out is not None else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)

    for rec in recordings:
        lifted = build_tvm_points(second_order_diff(rec))
        points = lifted.base
        index = np.arange(len(points), dtype=np.min_scalar_type(len(points)))
        quadrant = (points.code, QUADRANTS)
        _write_points(
            out_dir / f"{rec.source_id}_sodp.{args.format}",
            args.format,
            rec.source_id,
            ["index", "x", "y", "quadrant"],
            [index, points.x, points.y, quadrant],
        )
        _write_points(
            out_dir / f"{rec.source_id}_tvm.{args.format}",
            args.format,
            rec.source_id,
            ["index", "x", "y", "d_co", "le", "l", "z", "quadrant"],
            [index, points.x, points.y, lifted.d_co, lifted.le, lifted.l, lifted.z, quadrant],
        )
    return 0


def cmd_sweep(args) -> int:
    # One group, and in it one file, at a time, in the order given; rows in name order.
    rows = {}
    for name, path in check_group_names(args.inputs).items():
        recordings = load_recordings(input_files(path), args.segment_len)
        rows[name] = sweep_r(recordings, args.indicator, args.r_grid)
    rows = dict(sorted(rows.items()))
    if args.format == "csv":
        write_csv(
            args.out,
            ["dataset", "r", "mean"],
            (
                (name, r, value)
                for name, row in rows.items()
                for r, value in zip(args.r_grid, row)
            ),
        )
    else:
        write_json(
            args.out,
            {"indicator": args.indicator, "r_values": args.r_grid, "rows": rows},
        )
    return 0


def cmd_classify(args) -> int:
    params = indicator_params(args)
    (name_a, dir_a), (name_b, dir_b) = check_group_names([args.group_a, args.group_b]).items()
    empty = []
    features_a = _group_features(name_a, dir_a, args, params, empty)
    features_b = _group_features(name_b, dir_b, args, params, empty)
    if empty:
        log.warning(
            "an empty quadrant's %s is clustered as 0 in %d recordings (%s)",
            args.indicator, len(empty), _some(empty),
        )
    try:
        result, ri = pairwise_classify(features_a, features_b)
    except DistinctValuesError as exc:
        raise DistinctValuesError(f"{name_a}|{name_b}, {args.indicator}: {exc}") from None
    if not result.converged:
        log.warning(
            "k-means stopped after %d iterations with the assignments still changing",
            result.iterations,
        )
    if args.format == "csv":
        pair = f"{name_a}|{name_b}"
        write_csv(args.out, ["pair", "indicator", "ri"], [(pair, args.indicator, ri)])
    else:
        payload = {
            "pair": [name_a, name_b],
            "indicator": args.indicator,
            "ri": ri,
            "centroids": result.centroids,
            "iterations": result.iterations,
            "assignments": result.assignments,
        }
        write_json(args.out, payload)
    return 0


_COMMANDS = {
    "indicators": cmd_indicators,
    "points": cmd_points,
    "sweep": cmd_sweep,
    "classify": cmd_classify,
}


def run(command, args) -> int:
    """Run command(args) with warnings on stderr; an error prints `tvmhrv: error: ...`, exit 1."""
    # Attached for this call only, so warnings go to the stderr of the moment
    # and repeated in-process calls print each warning once.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("tvmhrv: warning: %(message)s"))
    log.addHandler(handler)
    try:
        return command(args)
    except (TvmhrvError, OSError, ValueError) as exc:
        print(f"tvmhrv: error: {exc}", file=sys.stderr)
        return 1
    finally:
        log.removeHandler(handler)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(_COMMANDS[args.command], args)


if __name__ == "__main__":
    sys.exit(main())
