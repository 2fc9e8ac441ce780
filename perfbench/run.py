#!/usr/bin/env python3
"""Benchmark of the tvmhrv CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload fullday --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout: the package is imported from
`src/` and the oracle from `tests/oracle.py`. Each run writes a fresh
corpus from --seed under `.perfbench_work/`, then runs the workload's CLI
invocations one at a time, each in a fresh interpreter, for --seconds, and
checks every output. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import corpus
from spans import LAYER_COUNTS, LAYER_TIMES, Span, layer_metrics, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".perfbench_work")  # relative to ROOT, which is the children's cwd

DEFAULT_SEED = 1
RECORDING_LENGTH = 100_000  # intervals: one 24-hour nsr2db record
RECORDINGS_PER_GROUP = 1
SEGMENT_LEN = 300
SETUP_PROBES_PER_SAMPLE = 2
# On shared cores the host's speed drifts by +-20% over seconds to minutes,
# so the timed end-to-end metrics are scaled by a fixed calibration loop
# timed between CLI invocations. CALIBRATION_REF_S is the loop's typical
# time on a 2.1 GHz Xeon vCPU under CPython 3.11, where scaled figures stay
# close to unscaled ones. A shorter loop adds noise of its own.
CALIBRATION_LOOPS = 2_000_000
CALIBRATION_REF_S = 0.33
# Interpreter set-up is file and memory bound and tracks that loop poorly, so
# set-up probes are scaled instead by a fresh interpreter's `import numpy`,
# typically NUMPY_IMPORT_REF_S on the same host.
NUMPY_IMPORT_REF_S = 0.11
CHILD_TIMEOUT_S = 150.0
R_CTM, R_D, DIVISIONS = 3.0, 6.0, (10, 10, 10)
INDICATOR_ARGS = ["--unit", "ms", "--r-ctm", f"{R_CTM:g}", "--r-d", f"{R_D:g}",
                  "--divisions", ",".join(map(str, DIVISIONS))]
SWEEP_GRID = "0.1:20:0.1"

WORKLOADS = ("fullday", "segmented", "sweep", "export")

END_TO_END_UNITS = {"intervals_per_s": "intervals/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    "cli.bytes_out": "bytes",
    "mem.peak_traced_mb": "MB",
    "trace.overhead_s": "s",
}


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def run_child(mode: str, result: Path, argv: list[str], stderr_path: Path):
    """Run child.py once; return (exit code, wall seconds, peak RSS in MB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(result), *argv]
    with stderr_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        try:
            signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except ChildTimeout:
            proc.kill()
            proc.wait()
            return -9, time.perf_counter() - start, 0.0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return code, wall, usage.ru_maxrss / 1024.0


def steps(workload: str, corpus_dir: Path, out: Path) -> list[tuple[list[str], Path, int]]:
    """The CLI invocations of one sample: (argv, output dir, input intervals)."""
    steady, erratic = corpus_dir / "steady", corpus_dir / "erratic"
    both = 2 * RECORDINGS_PER_GROUP * RECORDING_LENGTH
    if workload == "fullday":
        argv = ["indicators", str(steady), str(erratic), *INDICATOR_ARGS]
        return [(argv + ["--out", str(out / "0" / "indicators.csv")], out / "0", both)]
    if workload == "segmented":
        argv = ["classify", str(steady), str(erratic), *INDICATOR_ARGS,
                "--indicator", "etv1", "--segment-len", str(SEGMENT_LEN)]
        return [(argv + ["--out", str(out / "0" / "classify.csv")], out / "0", both)]
    if workload == "sweep":
        argv = ["sweep", str(steady), str(erratic), "--unit", "ms",
                "--indicator", "d", "--r-grid", SWEEP_GRID]
        return [(argv + ["--out", str(out / "0" / "sweep.csv")], out / "0", both)]
    if workload == "export":
        rec = str(steady / "steady00.txt")
        return [
            (["points", rec, *INDICATOR_ARGS, "--format", fmt, "--out", str(out / str(i))],
             out / str(i), RECORDING_LENGTH)
            for i, fmt in enumerate(("csv", "json"))
        ]
    raise ValueError(f"unknown workload {workload!r}")


class Run:
    """One benchmark run of one workload: its corpus, operations and checks."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.corpus = work / "corpus"
        self.attempted = 0
        self.failed = 0
        self.samples = 0
        self.reference = None
        self.observed: list[str] | None = None
        self.first: list[Path] | None = None
        self.problems: list[str] = []
        self.log: list[dict] = []  # per-sample raw measurements
        if seed == DEFAULT_SEED:
            self.reference = load_reference(workload)
            if self.reference is None:
                self.problems.append(f"reference.json has no digests for {workload}")

    def sample(self, mode: str, calibration: float | None = None) -> dict:
        """Run every step once in `mode`; check outputs; return timings.

        Given the calibration time taken just before, the host is calibrated
        again after each step, and "scaled_wall" is the wall time scaled to
        CALIBRATION_REF_S speed.
        """
        k = self.samples
        self.samples += 1
        out = self.work / "out" / str(k)
        plan = steps(self.workload, self.corpus, out)
        walls, rss, spans, peak, digests, out_bytes = [], [], [], [], [], 0
        cals = [] if calibration is None else [calibration]
        for i, (argv, out_dir, _) in enumerate(plan):
            out_dir.mkdir(parents=True, exist_ok=True)
            result = self.work / f"child-{k}-{i}.json"
            code, wall, mb = run_child(mode, result, argv, self.work / "stderr.txt")
            if cals:
                cals.append(calibrate())
            self.attempted += 1
            walls.append(wall)
            rss.append(mb)
            digest = checks.digest_outputs(out_dir)
            digests.append(digest)
            out_bytes += checks.output_bytes(out_dir)
            expected = (self.reference or self.observed or digests)[i]
            if code != 0:
                self.fail(f"sample {k} step {i}: exit {code}: "
                          + (self.work / "stderr.txt").read_text().strip()[-500:])
            elif digest != expected:
                self.fail(f"sample {k} step {i}: output digest {digest} != {expected}")
            elif mode == "trace":
                offset = len(spans)
                spans.extend(Span(name, start, end, parent + offset if parent >= 0 else -1, counts)
                             for name, start, end, parent, counts in json.loads(result.read_text()))
            elif mode == "mem":
                peak.append(json.loads(result.read_text())["peak_traced_bytes"])
            result.unlink(missing_ok=True)
        if self.first is None:
            # Without stored digests for this seed, the first sample is the
            # reference; oracle_check() vouches for it at the end of the run.
            self.first = [out_dir for _, out_dir, _ in plan]
            self.observed = digests
        else:
            shutil.rmtree(out)
        scaled_wall = sum(w * 2 * CALIBRATION_REF_S / (a + b)
                          for w, a, b in zip(walls, cals, cals[1:]))
        return {"wall": sum(walls), "scaled_wall": scaled_wall, "calibration": cals,
                "rss": max(rss), "intervals": sum(n for _, _, n in plan),
                "spans": spans, "peak": max(peak, default=0), "bytes": out_bytes}

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def oracle_check(self) -> None:
        """Check the first sample's outputs against tests/oracle.py."""
        checker = checks.Checker(checks.load_oracle(ROOT / "tests" / "oracle.py"), DIVISIONS)
        recordings = {p.stem: p for p in sorted(self.corpus.rglob("*.txt"))}
        first = self.first
        if self.workload == "fullday":
            rows = checks.read_csv(first[0] / "indicators.csv")
            checker.expect([r["source_id"] for r in rows] == sorted(recordings), "row ids")
            for row in rows:
                checker.indicator_row(row, checks.read_intervals(recordings[row["source_id"]]), R_CTM, R_D)
        elif self.workload == "segmented":
            rows = checks.read_csv(first[0] / "classify.csv")
            checker.expect(len(rows) == 1 and rows[0]["pair"] == "steady|erratic"
                           and rows[0]["indicator"] == "etv1"
                           and 0.5 <= float(rows[0]["ri"]) <= 1.0, f"classify output {rows}")
            # classify prints only RI, so check the per-segment values it
            # clusters through `indicators` on the same segmentation.
            rec = recordings["steady00"]
            out = self.work / "segments"
            out.mkdir(exist_ok=True)
            argv = ["indicators", str(rec), *INDICATOR_ARGS, "--segment-len", str(SEGMENT_LEN),
                    "--out", str(out / "segments.csv")]
            code, _, _ = run_child("plain", self.work / "child-check.json", argv,
                                   self.work / "stderr.txt")
            self.attempted += 1
            if code != 0:
                self.fail(f"segment check: exit {code}")
                return
            rows = checks.read_csv(out / "segments.csv")
            intervals = checks.read_intervals(rec)
            checker.expect(len(rows) == len(intervals) // SEGMENT_LEN, f"{len(rows)} segments")
            for k in sorted({0, len(rows) // 2, len(rows) - 1}):
                chunk = intervals[k * SEGMENT_LEN:(k + 1) * SEGMENT_LEN]
                checker.expect(rows[k]["source_id"] == f"steady00#{k:03d}", f"segment id {k}")
                checker.indicator_row(rows[k], chunk, R_CTM, R_D)
        elif self.workload == "sweep":
            rows = checks.read_csv(first[0] / "sweep.csv")
            n_r = round((20 - 0.1) / 0.1) + 1
            checker.expect(len(rows) == 2 * n_r, f"{len(rows)} sweep rows")
            for g, group in enumerate(sorted(("steady", "erratic"))):
                recs = [checks.read_intervals(p) for p in sorted((self.corpus / group).glob("*.txt"))]
                for i in (0, 29, 99, n_r - 1):
                    row = rows[g * n_r + i]
                    r = 0.1 + i * 0.1
                    checker.expect(row["dataset"] == group and checks.same(row["r"], r), f"row {row}")
                    checker.sweep_mean_d(row["mean"], recs, r, f"{group} r={row['r']}")
        elif self.workload == "export":
            intervals = checks.read_intervals(recordings["steady00"])
            checker.points(checks.read_csv(first[0] / "steady00_sodp.csv"),
                           checks.read_csv(first[0] / "steady00_tvm.csv"), intervals, checks.same)
            checker.points(checks.read_points_json(first[1] / "steady00_sodp.json"),
                           checks.read_points_json(first[1] / "steady00_tvm.json"),
                           intervals, checks.json_exact)
        for what in checker.problems:
            self.problems.append(f"oracle: {what}")


def load_reference(workload: str) -> list[str] | None:
    """Stored output digests of the workload at DEFAULT_SEED."""
    return json.loads((HERE / "reference.json").read_text())["digests"].get(workload)


def probe(work: Path, mode: str) -> float:
    """Seconds for a fresh interpreter to import tvmhrv.cli and build the
    parser (mode "setup"), or to import numpy alone (mode "numpy")."""
    result = work / "probe.json"
    code, _, _ = run_child(mode, result, [], work / "stderr.txt")
    if code != 0:
        raise SystemExit(f"{mode} probe failed:\n{(work / 'stderr.txt').read_text()}")
    found = json.loads(result.read_text())
    if mode == "setup" and Path(found["module"]).resolve().parent.parent != ROOT / "src":
        raise SystemExit(f"imported tvmhrv from {found['module']}, not from {ROOT / 'src'}")
    return found["seconds"]


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    total = 0.0
    table = {}
    for i in range(CALIBRATION_LOOPS):
        total += (i % 7) * 0.5
        table[i & 1023] = total
    return time.perf_counter() - start


def spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def measure(run: Run, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Sample until `seconds` have passed; return metrics and report lines."""
    lines = []
    if not trace:
        probe(run.work, "setup")  # warm-up: may compile bytecode
        deadline = time.perf_counter() + seconds
        rss, raw, series = [], [], {"intervals_per_s": [], "setup_s": []}
        after = calibrate()
        numpy_before = probe(run.work, "numpy")
        while not rss or time.perf_counter() < deadline:
            sample = run.sample("plain", calibration=after)
            # Set-up probes sit between samples so both see the same host load.
            setups = [probe(run.work, "setup") for _ in range(SETUP_PROBES_PER_SAMPLE)]
            numpy_after = probe(run.work, "numpy")
            after = calibrate()
            speed = 2 * NUMPY_IMPORT_REF_S / (numpy_before + numpy_after)
            run.log.append({"wall": sample["wall"], "rss": sample["rss"], "setup": setups,
                            "numpy_import": [numpy_before, numpy_after],
                            "calibration": sample["calibration"] + [after]})
            numpy_before = numpy_after
            raw.append(sample["intervals"] / sample["wall"])
            series["intervals_per_s"].append(sample["intervals"] / sample["scaled_wall"])
            series["setup_s"].extend(p * speed for p in setups)
            rss.append(sample["rss"])
        series["peak_rss_mb"] = rss
        metrics = {name: statistics.median(values) for name, values in series.items()}
        for name, values in series.items():
            lines.append(f"{name} {metrics[name]:.6g} {END_TO_END_UNITS[name]} ({spread(values)})")
        lines.append(f"unscaled intervals_per_s {statistics.median(raw):.6g} intervals/s ({spread(raw)})")
        return metrics, lines

    mem = run.sample("mem")
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    while not traced or time.perf_counter() < deadline:
        # Alternate plain and traced samples so both see the same conditions.
        if len(plain) > len(traced):
            traced.append(run.sample("trace"))
        else:
            plain.append(run.sample("plain"))
    per_sample = [layer_metrics(s["spans"]) for s in traced]
    metrics = {name: statistics.median([m[name] for m in per_sample]) for name in per_sample[0]}
    metrics["cli.bytes_out"] = traced[0]["bytes"]
    metrics["mem.peak_traced_mb"] = mem["peak"] / 2**20
    metrics["trace.overhead_s"] = statistics.median([s["wall"] for s in traced]) - statistics.median(
        [s["wall"] for s in plain])
    for name in PER_LAYER_UNITS:
        lines.append(f"{name} {metrics[name]:.6g} {PER_LAYER_UNITS[name]}")
    lines.extend(layer_shares(traced[0]["spans"]))
    all_spans = [
        {"workload": run.workload, "sample": k, "name": s.name, "start": s.start, "end": s.end,
         "parent": s.parent, "counts": s.counts}
        for k, sample in enumerate(traced) for s in sample["spans"]
    ]
    (run.work / "spans.json").write_text(json.dumps(all_spans))
    return metrics, lines


def layer_shares(spans: list[Span]) -> list[str]:
    """Self time by layer as a share of the traced CLI time, for one sample."""
    total = sum(s.end - s.start for s in spans if s.name == "cli.main")
    by_layer: dict[str, int] = {}
    for span, ns in zip(spans, self_times(spans)):
        layer = span.name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0) + ns
    return [
        f"layer {layer} self {ns / 1e9:.4f} s = {ns / total:.1%} of traced {total / 1e9:.4f} s"
        for layer, ns in sorted(by_layer.items(), key=lambda kv: -kv[1])
    ]


def environment(args, argv) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_sha": git_sha(),
        "seed": args.seed,
        "argv": argv,
    }


def git_sha() -> str:
    """HEAD of the checkout; only ROOT/.git is consulted, never a parent."""
    try:
        found = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
    except OSError:
        return "unknown"
    return found.stdout.strip() if found.returncode == 0 else "unknown"


def run_workload(workload: str, args) -> tuple[dict, list[str]]:
    work = ROOT / WORK / f"{workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    corpus.write_corpus(work / "corpus", args.seed, RECORDINGS_PER_GROUP, RECORDING_LENGTH)
    run = Run(workload, args.seed, work)
    metrics, lines = measure(run, args.seconds, bool(args.trace))
    run.oracle_check()
    for scratch in ("out", "segments", "corpus"):
        shutil.rmtree(work / scratch, ignore_errors=True)
    error_rate = run.failed / run.attempted
    correct = run.failed == 0 and not run.problems
    head = (f"workload={workload} seed={args.seed} trace={args.trace} samples={run.samples} "
            f"attempted={run.attempted} failed={run.failed} error_rate={error_rate:g} "
            f"correct={correct}")
    lines = [head, *lines, *(f"problem: {p}" for p in run.problems)]
    outcome = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
               "metrics": metrics}
    (work / "result.json").write_text(json.dumps(
        {"workload": workload, "environment": environment(args, sys.argv),
         "digests": run.observed, "report": lines, "samples": run.log, **outcome}, indent=2))
    return outcome, lines


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark the tvmhrv CLI.")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/tvmhrv/cli.py", "tests/oracle.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a tvmhrv source checkout, missing {missing}", file=sys.stderr)
        return 2
    print("environment " + json.dumps(environment(args, sys.argv)))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        outcome, lines = run_workload(workload, args)
        print("\n".join(lines), flush=True)
        total["correct"] = total["correct"] and outcome["correct"]
        total["attempted"] += outcome["attempted"]
        total["failed"] += outcome["failed"]
        prefix = "" if len(names) == 1 else f"{workload}."
        for name, value in outcome["metrics"].items():
            total["metrics"][prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
