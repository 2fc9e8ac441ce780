"""Deterministic synthetic RR corpus for the benchmark.

Two dataset groups, written as one interval per line with three decimals:

    steady/   mean-reverting (Ornstein-Uhlenbeck) RR around a per-recording
              mean, with a respiratory-rate oscillation and beat-level noise
    erratic/  heavy-tailed jumps and alternans-like flips

`scripts/make_demo_data.py` is not used: its steady model is a random walk
with drift, which leaves the positive range at 24-hour scale (seed 1,
4 x 100k intervals gives -3.049 at steady/rec01.txt line 7992) and the CLI
then rightly rejects the whole corpus. Here every value is clamped to a
physiological range, so the corpus is valid at any length and seed.

Each recording has its own generator seeded from (seed, group, index), so a
recording does not change when the corpus gains more recordings.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

RR_MIN_MS = 250.0
RR_MAX_MS = 2000.0
GROUPS = ("steady", "erratic")


def _clamp(v: float) -> float:
    return min(RR_MAX_MS, max(RR_MIN_MS, v))


def steady_series(rng: random.Random, length: int) -> list[float]:
    mean = rng.uniform(750.0, 950.0)
    theta = 0.02  # pull back toward the mean per beat
    sigma = 3.0
    rsa_amp = rng.uniform(8.0, 20.0)
    rsa_period = rng.uniform(3.5, 5.5)  # beats per breath
    level = mean
    out = []
    for i in range(length):
        level += theta * (mean - level) + rng.gauss(0.0, sigma)
        rsa = rsa_amp * math.sin(2.0 * math.pi * i / rsa_period)
        out.append(_clamp(level + rsa + rng.gauss(0.0, 4.0)))
    return out


def erratic_series(rng: random.Random, length: int) -> list[float]:
    current = rng.uniform(500.0, 900.0)
    out = []
    for i in range(length):
        if rng.random() < 0.15:
            current = rng.uniform(350.0, 1400.0)
        flip = 80.0 if i % 2 == 0 else -80.0
        out.append(_clamp(current + flip * rng.random() + rng.gauss(0.0, 35.0)))
    return out


MAKERS = {"steady": steady_series, "erratic": erratic_series}


def recording_text(seed: int, group: str, index: int, length: int) -> str:
    rng = random.Random(f"{seed}:{group}:{index}")
    return "".join(f"{v:.3f}\n" for v in MAKERS[group](rng, length))


def write_corpus(out_dir: Path, seed: int, recordings: int, length: int) -> list[Path]:
    """Write GROUPS x recordings files under out_dir; returns the group dirs."""
    dirs = []
    for group in GROUPS:
        group_dir = Path(out_dir) / group
        group_dir.mkdir(parents=True, exist_ok=True)
        for k in range(recordings):
            (group_dir / f"{group}{k:02d}.txt").write_text(recording_text(seed, group, k, length))
        dirs.append(group_dir)
    return dirs

