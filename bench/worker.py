"""Benchmark passes of one workload in a fresh process.

Sets up (interpreter, ``import oramlab``, argv construction), runs one
workload's items through ``oramlab.cli.main`` in this process, then checks
every item's exit code and output.  Prints one JSON line for ``run.py``:

    python3 bench/worker.py --workload tree-report --seed 9000 --mode run --workdir DIR --until T

``--mode run`` runs a warm-up pass and then timed passes until the
``CLOCK_MONOTONIC`` time ``--until``, sampling the machine's speed while the
items run (``Speedometer``).  ``--mode pass`` runs one pass, ``--mode trace``
one pass under the tracer with per-layer metrics, and ``--mode setup`` stops
before the first item (a set-up sample).  Every mode samples the machine's
speed just after set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def mono() -> float:
    """System-wide monotonic clock, comparable with the launcher's."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def run_item(main, argv, tracer):
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = main(argv)
            else:
                with tracer.span("cli"):
                    code = main(argv)
    except Exception as exc:  # a traceback escaping main() fails the item, not the pass
        error = repr(exc)
    return code, out.getvalue(), err.getvalue(), error


def check(items, runs, reference):
    """Digest and check each item's output; returns (digests, [[item, problem], ...]).

    ``reference`` is the list of ``{"exit", "digest"}`` records every item
    must match, or None on a seed without recorded digests.
    """
    digests, problems = [], []
    for idx, (item, (code, stdout, stderr, error)) in enumerate(zip(items, runs)):
        if error is not None or code != 0:
            digests.append(None)
            problems.append([idx, f"exit {code}, {error or stderr.strip()[-300:]}"])
            continue
        try:
            data = item.output_file.read_bytes() if item.output_file is not None else stdout.encode()
        except OSError as exc:
            digests.append(None)
            problems.append([idx, f"output file unreadable: {exc}"])
            continue
        found = workloads.check_output(item, stdout)
        digest = _digest(data)
        digests.append(digest)
        if reference is not None and reference[idx] != {"exit": code, "digest": digest}:
            found.append(f"exit {code} digest {digest} differs from the reference {reference[idx]}")
        if found:
            problems.append([idx, "; ".join(found)])
    return digests, problems


SAMPLE_LOOPS = 8000  # about 1 ms of interpreter work
SAMPLE_EVERY_S = 0.1
SETUP_SAMPLES = 15


def speed_sample() -> float:
    """Seconds of a fixed piece of the benchmark's own work: the machine's speed now."""
    t0 = mono()
    acc = 0
    for i in range(SAMPLE_LOOPS):
        acc = (acc * 31 + i) & 0xFFFF
    return mono() - t0


class Speedometer:
    """Samples the machine's speed while the items of a pass run.

    A shared machine's speed drifts by tens of percent within seconds and
    between minutes, so a pass's wall time alone says as much about the
    machine as about oramlab.  Inside the block a SIGALRM every
    ``SAMPLE_EVERY_S`` runs ``speed_sample`` between two bytecodes of
    whatever oramlab is doing (after a long numpy call returns); one sample
    more is taken on entry and one on exit.  ``busy_s`` is the time the
    timer's samples took, which the pass's wall time leaves out.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.busy_s = 0.0

    def _on_alarm(self, signum, frame):
        dt = speed_sample()
        self.samples.append(dt)
        self.busy_s += dt

    def __enter__(self):
        self.samples.append(speed_sample())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.siginterrupt(signal.SIGALRM, False)  # restart system calls the alarm interrupts
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(speed_sample())

    def speed_s(self) -> float:
        return statistics.median(self.samples)


def run_pass(main, items, tracer):
    """Every item once; returns their runs and the time from the first item's start to the last's end."""
    t0 = mono()
    runs = [run_item(main, item.argv, tracer) for item in items]
    return runs, mono() - t0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "trace", "run"), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--until", type=float, default=0.0)
    args = ap.parse_args()

    import numpy
    import oramlab.cli

    if not Path(oramlab.cli.__file__).resolve().is_relative_to(SRC):
        print(f"oramlab was imported from {oramlab.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    items = workloads.build(args.workload, args.seed, args.workdir)
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t_first = mono()
    setup_speed_s = statistics.median(speed_sample() for _ in range(SETUP_SAMPLES))
    passes = []
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.mode != "setup":
        reference = None
        if args.seed == workloads.DEFAULT_SEED:
            reference = json.loads((HERE / "reference.json").read_text())[args.workload]
        while True:
            record = {"items": len(items)}
            if args.mode == "run":
                with Speedometer() as speed:
                    runs, wall = run_pass(oramlab.cli.main, items, tracer)
                record.update(wall_s=wall - speed.busy_s, speed_s=speed.speed_s())
            else:
                runs, wall = run_pass(oramlab.cli.main, items, tracer)
                record.update(wall_s=wall)
            record["digests"], record["problems"] = check(items, runs, reference)
            passes.append(record)
            if len(passes) == 1:
                # a fresh process's peak, as one CLI user sees it; later passes reuse a grown heap
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # run mode: a warm-up pass, then timed passes until one more would end further
            # past --until than stopping now falls short of it
            if args.mode != "run" or (len(passes) > 2 and mono() + wall / 2 >= args.until):
                break

    report = {
        "t_first": t_first,
        "setup_speed_s": setup_speed_s,
        "passes": passes,
        "rss_mb": rss_mb,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        passes[0]["layers"] = tracer.metrics()
        passes[0]["counts"] = tracer.exact_counts()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
