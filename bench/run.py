"""oramlab benchmark: drives the public CLI and reports end-to-end or per-layer metrics.

    python3 bench/run.py --workload tree-report --seed 9000 --seconds 28 --trace 0

Workers (``worker.py``) run one at a time and every CLI call uses the default
``--jobs 1``, so nothing runs concurrently.  With ``--trace 0`` one fresh
worker runs a warm-up pass and then timed passes until ``--seconds`` are
nearly up, and set-up-only workers add set-up samples.  The result holds
``wall_s`` (first item start to last item end, median over timed passes),
``setup_s`` (worker spawn to first item, median over workers) and
``peak_rss_mb``.  Both times are rescaled to a machine of nominal speed (see
``normalized``).  With ``--trace 1`` one untraced pass is followed by traced
passes, each in a fresh worker, and the result holds the per-layer metrics
of ``tracer.py``; the traced passes' exact counts must repeat and their
outputs must equal the untraced pass's.  ``attempted``/``failed`` count CLI
invocations (items).

The last stdout line is the JSON result; the line before it is the run context,
with the measured times before rescaling.  Exits 2 without a result when the
oramlab sources are not beside the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402  (metric names only; the tracer runs in the workers)
import workloads  # noqa: E402

MIN_PASSES = 2
MIN_SETUP_SAMPLES = 7
SETUP_RESERVE_S = 2.0  # left of --seconds for the set-up-only workers
RUN_LIMIT_S = 170.0  # every worker is killed past this, so a run ends within 180 s
# seconds one speed sample (worker.speed_sample) takes on the nominal machine
NOMINAL_SAMPLE_S = 0.001


class WorkerError(RuntimeError):
    pass


def mono() -> float:
    """System-wide monotonic clock, comparable with the workers'."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args, mode: str, workdir: Path, deadline: float, until: float = 0.0) -> dict:
    """Run one worker to completion; returns its report with its set-up time as ``setup_s``."""
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--workdir", str(workdir), "--until", repr(until)]
    try:
        t_spawn = mono()
        # on timeout or any exception, subprocess.run kills the worker and waits for it
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - mono()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker timed out after {exc.timeout:.0f} s") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["t_first"] - t_spawn
    return report


def run_workers(args) -> list[dict]:
    """Every worker's report.

    Untraced, the first worker runs a warm-up pass (pass 0) and then timed
    passes until ``--seconds`` are nearly up; set-up-only workers follow.
    Traced, the first worker runs one untraced pass (pass 0) and every traced
    pass runs in a fresh worker.
    """
    start = mono()
    deadline = start + RUN_LIMIT_S
    dirs = (WORK / f"{os.getpid()}-{i}" for i in range(1_000_000))
    if not args.trace:
        reports = [spawn(args, "run", next(dirs), deadline, until=start + args.seconds - SETUP_RESERVE_S)]
        while len(reports) < MIN_SETUP_SAMPLES:
            reports.append(spawn(args, "setup", next(dirs), deadline))
        return reports
    reports = [spawn(args, "pass", next(dirs), deadline)]
    while True:
        reports.append(spawn(args, "trace", next(dirs), deadline))
        # stop once another pass would end further past --seconds than the run now falls short
        wall = reports[-1]["passes"][0]["wall_s"]
        if len(reports) > MIN_PASSES and mono() - start + wall / 2 >= args.seconds:
            return reports


def normalized(seconds: float, sample_s: float) -> float:
    """``seconds`` measured while a speed sample took ``sample_s``, on the nominal machine.

    A shared machine runs the same work tens of percent slower at some
    minutes than at others; dividing by the speed sampled during the
    measurement takes that drift out, so that runs of one program agree.
    """
    return seconds * NOMINAL_SAMPLE_S / sample_s


def summarize(args, reports: list[dict]) -> tuple[dict, int, int, list[str], dict]:
    """Metrics, attempted and failed items, every failed check, and the raw times."""
    passes = [p for r in reports for p in r["passes"]]
    first = passes[0]["digests"]
    attempted = failed = 0
    notes = []
    for i, p in enumerate(passes):
        bad = {idx for idx, _ in p["problems"]}
        differs = {j for j, (a, b) in enumerate(zip(p["digests"], first)) if a != b}
        notes += [f"pass {i} item {idx}: {msg}" for idx, msg in p["problems"]]
        notes += [f"pass {i} item {j}: output differs from pass 0" for j in sorted(differs - bad)]
        attempted += p["items"]
        failed += len(bad | differs)

    if not args.trace:
        timed = passes[1:]
        raw = {
            "pass_wall_s": [p["wall_s"] for p in passes],
            "pass_speed_sample_s": [p["speed_s"] for p in passes],
            "setup_s": [r["setup_s"] for r in reports],
            "setup_speed_sample_s": [r["setup_speed_s"] for r in reports],
        }
        values = {
            "wall_s": (statistics.median(normalized(p["wall_s"], p["speed_s"]) for p in timed), "s"),
            "setup_s": (statistics.median(normalized(r["setup_s"], r["setup_speed_s"]) for r in reports), "s"),
            "peak_rss_mb": (reports[0]["rss_mb"], "MiB"),
        }
    else:
        traced = passes[1:]
        for i, p in enumerate(traced[1:], 2):
            if p["counts"] != traced[0]["counts"]:
                diff = {k: (traced[0]["counts"].get(k), p["counts"].get(k))
                        for k in traced[0]["counts"].keys() | p["counts"].keys()
                        if traced[0]["counts"].get(k) != p["counts"].get(k)}
                notes.append(f"pass {i}: traced counts did not repeat: {diff}")
        units = dict(tracer.METRICS)
        values = {k: (v, units[k]) for k, v in tracer.median_metrics([p["layers"] for p in traced]).items()}
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        values["tracing.wall_s"] = (traced_wall, "s")
        values["tracing.overhead_s"] = (traced_wall - passes[0]["wall_s"], "s")
        raw = {"pass_wall_s": [p["wall_s"] for p in passes]}
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    return metrics, attempted, failed, notes, raw


def context(args, numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(), "numpy": numpy_version,
        "sizes": workloads.SIZES[args.workload],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "oramlab" / "cli.py").is_file():
        print(f"bench: no oramlab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        reports = run_workers(args)
    except WorkerError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            WORK.rmdir()  # each worker already removed its own directory
    metrics, attempted, failed, notes, raw = summarize(args, reports)
    for note in notes:
        print(f"bench: {note}", file=sys.stderr)
    print(json.dumps({"context": context(args, reports[0]["numpy"]), "raw": raw}))
    print(json.dumps({"correct": not notes and failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
