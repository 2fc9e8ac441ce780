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
from .errors import TvmhrvError
from .series import RRSeries, check_group_names, input_files, load_groups, load_recordings
from .sodp import Quadrant, second_order_diff
from .tvm import build_tvm_points

DEFAULT_R_GRID = "0.5:10:0.5"

log = logging.getLogger("tvmhrv")


def parse_divisions(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected NX,NY,NZ, got {text!r}")
    try:
        nx, ny, nz = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"divisions must be integers: {text!r}") from None
    if min(nx, ny, nz) < 1:
        raise argparse.ArgumentTypeError("divisions must be >= 1")
    if nx * ny * nz >= 2**63:
        raise argparse.ArgumentTypeError(f"divisions must give fewer than 2**63 cells: {text!r}")
    return (nx, ny, nz)


def parse_radius(text: str) -> float:
    try:
        r = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(r):
        raise argparse.ArgumentTypeError(f"radius must be finite, got {text!r}")
    return r


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
    count = int((stop - start) / step + 1e-9) + 1
    return tuple(start + i * step for i in range(count))


def parse_segment_len(text: str) -> int:
    try:
        length = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if length < 3:
        raise argparse.ArgumentTypeError(f"segment length must be >= 3, got {length}")
    return length


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
        help=f"radius grid (default: {DEFAULT_R_GRID})",
    )
    _add_common(p_swp)

    p_cls = sub.add_parser("classify", help="k-means + RI for a dataset pair")
    p_cls.add_argument("group_a", type=Path, help="first dataset directory")
    p_cls.add_argument("group_b", type=Path, help="second dataset directory")
    p_cls.add_argument("--indicator", choices=ALL_INDICATORS, default="ctm")
    _add_common(p_cls)

    # sweep takes its radii from --r-grid and computes no E_TV.
    for p in (p_ind, p_pts, p_cls):
        p.add_argument(
            "--r-ctm", type=parse_radius, default=3.0, help="radius for CTM/CCTM (default: 3)"
        )
        p.add_argument("--r-d", type=parse_radius, default=6.0, help="radius for D (default: 6)")
        p.add_argument(
            "--divisions",
            type=parse_divisions,
            default=(10, 10, 10),
            metavar="NX,NY,NZ",
            help="subspace divisions per axis (default: 10,10,10)",
        )
    return parser


def _params(args) -> IndicatorParams:
    return IndicatorParams(r_ctm=args.r_ctm, r_d=args.r_d, divisions=args.divisions)


def _recordings(args) -> tuple[list[RRSeries], dict[str, list[str]]]:
    """Flatten files and directories into recordings, sorted by source_id.

    Also returns, in id order, each source id (a file stem) that more than
    one file has, with those files. Segment ids carry their file's stem, so
    one source id covers all the segments of its files.
    """
    files = [file for path in args.inputs for file in input_files(path)]
    by_stem: dict[str, list[str]] = {}
    for file in files:
        by_stem.setdefault(file.stem, []).append(str(file))
    shared = {stem: names for stem, names in sorted(by_stem.items()) if len(names) > 1}
    return load_recordings(files, args.segment_len), shared


def _group_features(name, directory, args, params, empty_ids: list[str]):
    """The indicator of each recording of the group `name` in directory.

    Under etvN, the ids of the recordings whose quadrant N is empty are
    appended to empty_ids.
    """
    # One group at a time, so only one group's recordings are held at once.
    features = []
    for rec in load_recordings(input_files(directory), args.segment_len):
        empty = []
        value = indicator_of(rec, args.indicator, params, empty)
        if value is None:
            raise TvmhrvError(
                f"{name}/{rec.source_id}: indicator {args.indicator!r} is undefined "
                f"(no point inside r_d={params.r_d}); cannot classify"
            )
        if empty:
            empty_ids.append(f"{name}/{rec.source_id}")
        features.append(value)
    return features


def _some(ids: list[str], shown: int = 3) -> str:
    return ", ".join(ids[:shown] + ["..."] * (len(ids) > shown))


def _warn_degenerate(reports, params: IndicatorParams) -> None:
    """One warning for all reports whose D is undefined, one for all with an empty quadrant."""
    no_d = [rep.source_id for rep in reports if rep.d is None]
    if no_d:
        log.warning(
            "no point lies inside r_d=%g in %d recordings (%s); their D is left empty",
            params.r_d, len(no_d), _some(no_d),
        )
    empty = [rep.source_id for rep in reports if 0 in rep.quadrant_points]
    if empty:
        log.warning(
            "an empty quadrant's E_TV is reported as 0 in %d recordings (%s)",
            len(empty), _some(empty),
        )


def cmd_indicators(args) -> int:
    params = _params(args)
    recordings, shared = _recordings(args)
    for sid, files in shared.items():
        log.warning(
            "files %s share the source id %r; only the row order tells their rows apart",
            ", ".join(files), sid,
        )
    reports = [report(rec, params) for rec in recordings]
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
            "params": {"r_ctm": params.r_ctm, "r_d": params.r_d, "divisions": params.divisions},
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
        write_json(path, {"source_id": source_id}, records=("points", header, columns))


def cmd_points(args) -> int:
    recordings, shared = _recordings(args)
    if shared:
        sid, files = next(iter(shared.items()))
        raise TvmhrvError(
            f"files {', '.join(files)} share the source id {sid!r}; "
            "their point files would overwrite each other"
        )
    out_dir = args.out if args.out is not None else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)

    labels = np.array([q.value for q in Quadrant])  # indexed by quadrant code
    for rec in recordings:
        lifted = build_tvm_points(second_order_diff(rec))
        points = lifted.base
        index = np.arange(len(points))
        quadrant = labels[points.code]
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
    groups = load_groups(args.inputs, args.segment_len)
    rows = sweep_r(groups, args.indicator, args.r_grid)
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
    params = _params(args)
    (name_a, dir_a), (name_b, dir_b) = check_group_names([args.group_a, args.group_b]).items()
    empty = []
    features_a = _group_features(name_a, dir_a, args, params, empty)
    features_b = _group_features(name_b, dir_b, args, params, empty)
    if empty:
        log.warning(
            "an empty quadrant's %s is clustered as 0 in %d recordings (%s)",
            args.indicator, len(empty), _some(empty),
        )
    result, ri = pairwise_classify(features_a, features_b, label_a=name_a, label_b=name_b)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Attached for this call only, so warnings go to the stderr of the moment
    # and repeated in-process calls print each warning once.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("tvmhrv: warning: %(message)s"))
    log.addHandler(handler)
    try:
        return _COMMANDS[args.command](args)
    except (TvmhrvError, OSError, ValueError) as exc:
        print(f"tvmhrv: error: {exc}", file=sys.stderr)
        return 1
    finally:
        log.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
