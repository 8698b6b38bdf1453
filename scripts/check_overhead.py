#!/usr/bin/env python3
"""Dynamic cost of the inserted transient checks.

Generates well-typed programs, runs each translation twice: once as
emitted and once with every check erased (check(e, S) replaced by e),
and compares step counts. Erasure can change the outcome: a run that
failed a cast may now finish, or hit a real error. The script reports
the step overhead over runs where both versions produce a value, plus
the outcome shifts.

Usage:
    python scripts/check_overhead.py --programs 500 --depth 5
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from anthill.cli import _count
from anthill.generate import gen_typed_program
from anthill.runtime import run
from anthill.translate import translate_program
from anthill.upython import erase_checks


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--programs", type=_count, default=500)
    ap.add_argument("--depth", type=_count, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--budget", type=_count, default=50_000)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    shifts: dict[tuple[str, str], int] = {}
    ratios = []
    checked_steps = bare_steps = 0

    for _ in range(args.programs):
        term, _ = gen_typed_program(rng, args.depth)
        target, _ = translate_program(term)
        full = run(target, budget=args.budget)
        bare = run(erase_checks(target), budget=args.budget)
        pair = (full.kind, bare.kind)
        shifts[pair] = shifts.get(pair, 0) + 1
        if pair == ("value", "value"):
            checked_steps += full.steps
            bare_steps += bare.steps
            if bare.steps:
                ratios.append(full.steps / bare.steps)

    print(f"{args.programs} programs at depth {args.depth}, "
          f"seed {args.seed}")
    print("outcome (with checks -> without):")
    for (a, b), n in sorted(shifts.items(), key=lambda kv: -kv[1]):
        marker = "" if a == b else "   <- shifted"
        print(f"  {a:>18} -> {b:<18} {n:6d}{marker}")
    if ratios:
        ratios.sort()
        mean = sum(ratios) / len(ratios)
        median = ratios[len(ratios) // 2]
        print(f"step overhead on value/value runs: mean x{mean:.2f}, "
              f"median x{median:.2f}, worst x{ratios[-1]:.2f}")
        print(f"total steps with checks {checked_steps}, "
              f"without {bare_steps}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
