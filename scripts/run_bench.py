#!/usr/bin/env python3
"""Desk-scale benchmark sweep over scenarios, noise levels, and jump sizes.

Writes one CSV per cell under --outdir and prints an aggregate table
(mean k_hat, P(k_hat = K), mean ARI, mean Hausdorff, median seconds per
detection).  Runtime grows with --reps and grid size; the defaults finish in
a few minutes on a laptop.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from splade.bench import check_inputs, run_bench  # noqa: E402
from splade.cli import run_reporting_errors  # noqa: E402
from splade.metrics import summarize, write_bench_csv  # noqa: E402
from splade.simulate import SCENARIOS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="bench_results")
    ap.add_argument("--grid", type=int, default=256)
    ap.add_argument("--reps", type=int, default=20)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--scenarios", nargs="+", default=list(SCENARIOS))
    ap.add_argument("--noises", nargs="+", default=["sar:0.04", "sar:0.4", "sar:0.8"])
    ap.add_argument("--jumps", nargs="+", type=float, default=[0.4, 0.6, 0.8, 1.0])
    return run_reporting_errors(sweep, ap.parse_args(argv))


def sweep(args) -> int:
    # every cell's inputs are checked before the first cell runs
    for scenario in args.scenarios:
        for noise in args.noises:
            for jump in args.jumps:
                check_inputs(scenario, args.grid, noise, jump, args.reps)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    header = f"{'scenario':9s} {'noise':9s} {'jump':>4s}  {'k_mean':>6s} {'P(k=K)':>7s} {'ARI':>6s} {'Haus':>6s} {'med_s':>6s}"
    print(header)
    print("-" * len(header))
    for scenario in args.scenarios:
        for noise in args.noises:
            for jump in args.jumps:
                recs = run_bench(
                    scenario, args.grid, noise, jump, reps=args.reps, seed=args.seed
                )
                tag = f"{scenario}_{noise.replace(':', '')}_j{jump}_n{args.grid}"
                write_bench_csv(outdir / f"{tag}.csv", recs)
                k_mean, frac, mean_ari, mean_haus, med_t = summarize(recs)
                print(
                    f"{scenario:9s} {noise:9s} {jump:4.1f}  {k_mean:6.2f} {frac:7.2f}"
                    f" {mean_ari:6.3f} {mean_haus:6.3f} {med_t:6.2f}"
                )
    print(f"\nper-replicate rows in {outdir}/", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
