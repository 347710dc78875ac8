#!/usr/bin/env python3
"""Certified probe-bound growth experiment.

Runs the tree engine on block workloads at increasing n, certifies dense
partitions at every power-of-4 part count the regime allows, and prints the
certified probe bound next to the measured probe count.  The bound-to-n ratio
climbing with n is the finite-scale shadow of the logarithmic overhead story.

Usage:
    python scripts/lower_bound_sweep.py [--engine tree] [--seed 1]
        [--sizes 1024 4096 16384] [--k 4] [--csv out.csv]
"""

import argparse
import sys

from oramlab import OramConfig, WorkloadSpec
from oramlab.traceio import analyze_trace, default_analysis_params, run_trace


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--engine", default="tree")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--sizes", type=int, nargs="+", default=[2**10, 2**12, 2**14])
    ap.add_argument("--k", type=int, default=4, help="workload block count")
    ap.add_argument("--m", type=int, default=4)
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()

    rows = []
    print(f"{'n':>8} {'N':>10} {'ell':>7} {'k_max':>6} {'witnessed':>12} {'bound':>8} {'bound/n':>8} {'N/n':>7}")
    for n in args.sizes:
        cfg = OramConfig(m=args.m, M=n, w=32)
        tf = run_trace(args.engine, cfg, WorkloadSpec("blocks", n, args.k, args.seed + n), args.seed)
        report = analyze_trace(tf)
        ell, k_max = default_analysis_params(n, args.m)
        witnessed = [row["k"] for row in report.per_k if row["found"]]
        bound = report.certified_probe_bound
        print(f"{n:>8} {report.measured_probes:>10} {ell:>7} {k_max:>6} "
              f"{str(witnessed):>12} {bound:>8} {bound / n:>8.4f} {report.overhead_ratio:>7.2f}")
        rows.append((n, report.measured_probes, ell, k_max, len(witnessed), bound))
        for dev in report.deviations:
            print(f"         deviation: {dev}")

    ratios = [bound / n for n, _, _, _, _, bound in rows]
    trend = "strictly increasing" if ratios == sorted(set(ratios)) else "NOT monotone"
    print(f"\nbound/n across sizes: {['%.4f' % r for r in ratios]} ({trend})")

    if args.csv:
        with open(args.csv, "w", encoding="ascii") as fh:
            fh.write("n,measured_probes,ell,k_max,witnessed,bound\n")
            for row in rows:
                fh.write(",".join(map(str, row)) + "\n")
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
