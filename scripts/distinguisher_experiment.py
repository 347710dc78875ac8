#!/usr/bin/env python3
"""Distinguishing-advantage sweep across all engines.

For each engine, estimates the dense-partition distinguisher's advantage
between a flat alternating workload and a block workload of the same length,
and measures the plug-in statistical distance between the two trace
distributions.  Leaky engines land near 0.5 advantage, the scan engine at
exactly zero.

Usage:
    python scripts/distinguisher_experiment.py [--n 200] [--k 4]
        [--trials 400] [--seed 7]
"""

import argparse
import random
import sys

from oramlab import (
    ENGINE_NAMES,
    OramConfig,
    adversary_view,
    derive_seed,
    estimate_advantage,
    gen_alternating_sequence,
    gen_write_read_blocks,
    run_sequence,
    statistical_distance_empirical,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--trials", type=int, default=400)
    ap.add_argument("--distance-samples", type=int, default=60)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    cfg = OramConfig(m=1, M=args.n, w=32)
    y_flat = gen_alternating_sequence(args.n)
    y_blocks, _ = gen_write_read_blocks(args.n, args.k, cfg.w, random.Random(args.seed))

    print(f"n={args.n} k={args.k} trials={args.trials} (advantage ~ |Pr[D=1 on flat] - Pr[D=1 on blocks]|)")
    print(f"{'engine':>15} {'p1_flat':>8} {'p1_blocks':>10} {'advantage':>10} {'ci':>7} {'tv_hat':>7}")
    for engine in ENGINE_NAMES:
        est = estimate_advantage(engine, cfg, y_flat, y_blocks, args.trials, args.seed)
        flats, blocks = [], []
        for t in range(args.distance_samples):
            s = derive_seed(args.seed, t, 9)
            _, sa = run_sequence(engine, cfg, y_flat, s, record_meta=False)
            _, sb = run_sequence(engine, cfg, y_blocks, s, record_meta=False)
            flats.append(adversary_view(sa))
            blocks.append(adversary_view(sb))
        tv = statistical_distance_empirical(flats, blocks)
        print(
            f"{engine:>15} {est.p1_on_y:>8.3f} {est.p1_on_yprime:>10.3f} "
            f"{est.advantage:>10.3f} {est.half_width:>7.3f} {float(tv.distance):>7.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
