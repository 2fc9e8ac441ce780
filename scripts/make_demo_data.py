#!/usr/bin/env python3
"""Generate synthetic RR datasets for demos, fixtures, and smoke runs.

Writes two dataset directories under OUTDIR:

    steady/   low beat-to-beat variability around a slow drift
    erratic/  heavy-tailed jumps and alternans-like flips

Usage:
    python scripts/make_demo_data.py out/demo --recordings 3 --length 120 --seed 7
"""

from __future__ import annotations

import argparse
import random
from pathlib import Path


# Band of the steady walk's base level, in ms.
STEADY_BAND = (500.0, 1200.0)


def steady_series(rng: random.Random, length: int) -> list[float]:
    base = rng.uniform(750.0, 900.0)
    drift = rng.uniform(-0.2, 0.2)
    lo, hi = STEADY_BAND
    values = []
    for i in range(length):
        base += drift + rng.gauss(0.0, 1.5)
        # Reflect off the band edges (and turn the drift) instead of walking
        # out of the physiological range; this draws nothing from rng.
        if not lo <= base <= hi:
            base = 2 * (lo if base < lo else hi) - base
            drift = -drift
        values.append(base + rng.gauss(0.0, 4.0))
    return values


def erratic_series(rng: random.Random, length: int) -> list[float]:
    values = []
    current = rng.uniform(500.0, 900.0)
    for i in range(length):
        if rng.random() < 0.15:
            current = rng.uniform(350.0, 1400.0)
        flip = 80.0 if i % 2 == 0 else -80.0
        values.append(max(250.0, current + flip * rng.random() + rng.gauss(0.0, 35.0)))
    return values


def write_group(out_dir: Path, name: str, maker, rng, recordings: int, length: int) -> None:
    group_dir = out_dir / name
    group_dir.mkdir(parents=True, exist_ok=True)
    for k in range(recordings):
        values = maker(rng, length)
        path = group_dir / f"rec{k:02d}.txt"
        path.write_text("".join(f"{v:.3f}\n" for v in values))
        print(f"wrote {path} ({length} intervals)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--recordings", type=int, default=3)
    parser.add_argument("--length", type=int, default=120)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    write_group(args.out_dir, "steady", steady_series, rng, args.recordings, args.length)
    write_group(args.out_dir, "erratic", erratic_series, rng, args.recordings, args.length)


if __name__ == "__main__":
    main()
