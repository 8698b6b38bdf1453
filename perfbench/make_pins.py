"""Write perfbench/pins.json from the code in this checkout.

    python3 perfbench/make_pins.py

For each seed below SEEDS it records the digest of the fuzz workload's
trials (their texts, and their outcomes and step counts), the trials
that overflow the stack, and the digest of the compile workload's
sources. A run whose digests differ from the pinned ones is not
correct: a change to what a seed generates is a different workload,
and a change to what the pinned trials do is a change of behaviour. A fuzz trial that
overflows the stack fails the run unless it is pinned here. Re-pin
only in a change that means to alter the workloads, and say so.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import FUZZ_TRIALS, prepare

SEEDS = 200


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    A = run.load_anthill()
    api = run.make_api(A)
    pins = {"fuzz": {}, "compile": {}}
    for seed in range(SEEDS):
        fuzz = prepare("fuzz", A, api, seed, range(FUZZ_TRIALS))
        fuzz.run_pass(0)
        fuzz.depth_limited = frozenset(fuzz.overflowed)
        pins["fuzz"][str(seed)] = {"inputs": fuzz.identity,
                                   "outcomes": fuzz.outcomes,
                                   "depth_limited": fuzz.overflowed}
        pins["compile"][str(seed)] = {
            "inputs": prepare("compile", A, api, seed).identity}
        print(f"seed {seed}: {len(fuzz.overflowed)} trials overflow",
              flush=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned seeds 0-{SEEDS - 1} in {run.PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
