#!/usr/bin/env python3
"""Sweep the soundness fuzzer over a grid of term/context depths.

For each (term depth, context depth) pair the script runs a batch of
trials and prints one table row with the outcome mix. Violations would
terminate the sweep with a nonzero exit and the offending seed, so a
silent run of this script is itself a soundness experiment.

Usage:
    python scripts/fuzz_sweep.py --trials 2000 --seed 11
    python scripts/fuzz_sweep.py --depths 2,4,6 --budget 5000
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from anthill.cli import _count
from anthill.harness import TrialConfig, run_trials


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=_count, default=1000,
                    help="trials per grid cell")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--budget", type=_count, default=10_000,
                    help="step budget per trial")
    ap.add_argument("--depths", default="2,3,4,5,6",
                    type=lambda text: [_count(d) for d in text.split(",")],
                    help="comma-separated depth values for both axes")
    args = ap.parse_args()
    outcomes = ("value", "casterror", "native-error", "timeout")

    print(f"{args.trials} trials per cell, budget {args.budget}, "
          f"base seed {args.seed}")
    header = f"{'term':>4} {'ctx':>4} " + \
        "".join(f"{o:>14}" for o in outcomes) + f"{'secs':>8}"
    print(header)
    print("-" * len(header))

    for td in args.depths:
        for cd in args.depths:
            config = TrialConfig(term_depth=td, ctx_depth=cd,
                                 budget=args.budget)
            t0 = time.perf_counter()
            report = run_trials(args.trials, base_seed=args.seed,
                                config=config)
            dt = time.perf_counter() - t0
            if report.violations:
                print(report.to_text())
                print(f"violation at term depth {td}, context depth {cd}",
                      file=sys.stderr)
                return 1
            row = f"{td:>4} {cd:>4} "
            for o in outcomes:
                n = report.count(o)
                pct = 100 * n / len(report.trials) if n else 0.0
                row += f"{n:>7} {pct:5.1f}%"
            print(row + f"{dt:8.1f}")
    print("no violations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
