"""Output checks: digests of what an invocation wrote, and oracle agreement.

Every invocation's output files are hashed with SHA-256 and compared with a
reference digest. The oracle checks recompute a few recordings with the
test suite's independent brute-force evaluator (`tests/oracle.py`, loaded
read-only) and compare with the CLI's text: counts and coordinates must
match exactly, derived floats to 1e-9 relative on top of the rounding of
the 9-significant-digit output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-9


def digest_outputs(out_dir: Path) -> str:
    """SHA-256 over every file under out_dir: relative name, NUL, bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def load_oracle(path: Path) -> dict:
    """Execute the oracle source into a namespace without writing bytecode."""
    namespace: dict = {"__name__": "tvmhrv_oracle"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


def read_intervals(path: Path) -> list[float]:
    return [float(line) for line in path.read_text().split()]


def close(value, ref: float) -> bool:
    """value (text or float, 9 significant digits) agrees with ref."""
    v = float(value)
    if ref == 0.0:
        return v == 0.0
    last_digit = 10.0 ** (math.floor(math.log10(abs(ref))) - 8)
    return abs(v - ref) <= 0.5 * last_digit + REL_TOL * abs(ref)


def same(text: str, ref: float) -> bool:
    """Exact agreement of a value the CLI printed with format(v, '.9g')."""
    return text == format(ref, ".9g")


def quadrant_label(x: float, y: float) -> str:
    if x > 0 and y > 0:
        return "I"
    if x < 0 and y > 0:
        return "II"
    if x < 0 and y < 0:
        return "III"
    if x > 0 and y < 0:
        return "IV"
    return "axis"


class Checker:
    """Collects the disagreements found against the oracle."""

    def __init__(self, oracle: dict, divisions: tuple[int, int, int]):
        self.o = oracle
        self.divisions = divisions
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok and len(self.problems) < 20:
            self.problems.append(what)

    def indicator_row(self, row: dict, intervals: list[float], r_ctm: float, r_d: float) -> None:
        o = self.o
        sid = row["source_id"]
        xs, ys = o["reference_sodp"](intervals)
        n = len(xs)
        within, quad, _ = o["reference_radius_counts"](xs, ys, r_ctm)
        self.expect(same(row["ctm"], within / n), f"{sid}: ctm {row['ctm']}")
        for k in range(4):
            key = f"cctm{k + 1}"
            self.expect(same(row[key], quad[k] / n), f"{sid}: {key} {row[key]}")
        d = o["reference_mean_distance"](xs, ys, r_d)
        self.expect(row["d"] == "" if d is None else close(row["d"], d), f"{sid}: d {row['d']}")
        _, _, _, _, zs = o["reference_tvm_coordinates"](xs, ys)
        etv = o["reference_etv"](xs, ys, zs, self.divisions)
        self.expect(close(row["etv_global"], etv), f"{sid}: etv_global {row['etv_global']}")
        for k, ref in enumerate(o["reference_quadrant_etv"](xs, ys, zs, self.divisions)):
            key = f"etv{k + 1}"
            self.expect(close(row[key], ref), f"{sid}: {key} {row[key]}")

    def points(self, sodp_rows, tvm_rows, intervals: list[float], exact) -> None:
        """Check exported 2-D and 3-D points; `exact` compares x, y, d_co, le."""
        xs, ys = self.o["reference_sodp"](intervals)
        d_cos, les, _, ls, zs = self.o["reference_tvm_coordinates"](xs, ys)
        self.expect(len(sodp_rows) == len(xs), f"{len(sodp_rows)} 2-D points for {len(xs)}")
        self.expect(len(tvm_rows) == len(xs), f"{len(tvm_rows)} 3-D points for {len(xs)}")
        for i, (row, x, y) in enumerate(zip(sodp_rows, xs, ys)):
            ok = (
                int(row["index"]) == i
                and exact(row["x"], x)
                and exact(row["y"], y)
                and row["quadrant"] == quadrant_label(x, y)
            )
            self.expect(ok, f"2-D point {i}: {row}")
        for i, row in enumerate(tvm_rows):
            ok = (
                int(row["index"]) == i
                and exact(row["x"], xs[i])
                and exact(row["y"], ys[i])
                and exact(row["d_co"], d_cos[i])
                and exact(row["le"], les[i])
                and close(row["l"], ls[i])
                and close(row["z"], zs[i])
                and row["quadrant"] == quadrant_label(xs[i], ys[i])
            )
            self.expect(ok, f"3-D point {i}: {row}")

    def sweep_mean_d(self, value: str, recordings: list[list[float]], r: float, what: str) -> None:
        ds = []
        for intervals in recordings:
            xs, ys = self.o["reference_sodp"](intervals)
            d = self.o["reference_mean_distance"](xs, ys, r)
            if d is not None:
                ds.append(d)
        if not ds:
            self.expect(value == "", f"{what}: {value!r}, expected empty")
        else:
            self.expect(value != "" and close(value, sum(ds) / len(ds)), f"{what}: {value!r}")


def read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def read_points_json(path: Path) -> list[dict]:
    return json.loads(path.read_text())["points"]


def json_exact(value, ref: float) -> bool:
    return value == float(format(ref, ".9g"))
