"""anthill benchmark: one workload per run, one process, no threads.

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The package is imported from the
checkout's `src/`; without it the benchmark exits with status 2.

A run makes whole passes over the seed's inputs as a closed loop until
`--seconds` of passes have elapsed, checks every output, and prints
one line per metric followed by a JSON result line. Each item's time
is the sum of the fastest times of its path's stages in the run. The
workload is set up (a fresh import of the package plus building the
seed's inputs) several times, spread over the run, and the median is
reported as `setup_s`.

With `--trace 0` the result holds the end-to-end metrics. With
`--trace 1` the loop runs untraced for the first half of the time and
traced for the second half; the result holds the per-layer metrics,
with the difference between the two halves as the tracing overhead,
followed by the untimed depth ladder. Spans are written to
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import DEPTH_LIMIT, WORKLOADS, prepare  # noqa: E402

# set-ups per run; compile's set-up generates its programs and takes
# about a second, so it is repeated less often
SETUP_REPEATS = {"fuzz": 11, "compile": 5}
PINS = HERE / "pins.json"

# the functions the workloads call; tracing swaps them on this namespace
API_FUNCTIONS = ("parse_anthill", "parse_upython", "print_anthill_term",
                 "print_upython", "translate_program", "verifies",
                 "tag_of", "run")


def load_anthill():
    """Import anthill afresh from the checkout's sources."""
    for name in [m for m in sys.modules
                 if m == "anthill" or m.startswith("anthill.")]:
        del sys.modules[name]
    A = importlib.import_module("anthill")
    importlib.import_module("anthill.generate")
    return A


def make_api(A):
    api = types.SimpleNamespace(**{n: getattr(A, n) for n in API_FUNCTIONS})
    api.gen_typed_program = A.generate.gen_typed_program
    # the workloads mark each item with a span; a no-op until traced
    api.span = lambda name: contextlib.nullcontext()
    return api


def set_up(name: str, seed: int, pinned: dict):
    t0 = time.perf_counter()
    A = load_anthill()
    api = make_api(A)
    work = prepare(name, A, api, seed, pinned.get("depth_limited", ()))
    return time.perf_counter() - t0, A, api, work


def loop(work, seconds: float, set_up_again=None, repeats: int = 1):
    """Every item's result from whole passes until `seconds` of passes
    have elapsed. `set_up_again`, if given, is called at evenly spaced
    times between passes to set the workload up afresh, until it has
    been called `repeats` - 1 times."""
    results = []
    spent = 0.0
    index = 0
    set_ups = 1
    while index == 0 or spent < seconds:
        if (set_up_again is not None and set_ups < repeats
                and spent >= seconds * set_ups / repeats):
            work = set_up_again()
            set_ups += 1
        t0 = time.perf_counter()
        results.extend(work.run_pass(index))
        spent += time.perf_counter() - t0
        index += 1
    return results


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def seed_pins(name: str, seed: int) -> dict | None:
    """The digests pinned for this workload and seed, if any."""
    pins = json.loads(PINS.read_text()).get(name, {})
    return pins.get(str(seed), pins.get("*"))


def pin_problems(work, pinned: dict | None) -> list[str]:
    """Compare the workload's identity (and fuzz's outcome mix) with the
    digests pinned for this seed, when there are any."""
    if pinned is None:
        print(f"pin: seed {work.seed} is not pinned for {work.name}")
        return []
    got = {"inputs": work.identity}
    if hasattr(work, "outcomes"):
        got["outcomes"] = work.outcomes
    problems = [f"{key} digest {got.get(key)} differs from pinned {value}"
                for key, value in pinned.items()
                if key != "depth_limited" and got.get(key) != value]
    print(f"pin: {'mismatch' if problems else 'match'}")
    return problems


def summarise(results):
    """Each timed item's time in seconds, the failure reasons, and the
    count of items left out at the pinned depth limit. An item's time is
    the sum over the stages of its path of each stage's fastest time."""
    fastest: dict = {}
    for item, stages, _ in results:
        if stages is not None:
            known = fastest.get(item)
            fastest[item] = (stages if known is None
                             else tuple(map(min, known, stages)))
    best = {item: sum(stages) for item, stages in fastest.items()}
    failures = [failure for _, _, failure in results
                if failure is not None and failure != DEPTH_LIMIT]
    limited = sum(1 for _, _, failure in results if failure == DEPTH_LIMIT)
    return best, failures, limited


def end_to_end(results, setup_s: float) -> dict[str, tuple]:
    ms = [t * 1000 for t in summarise(results)[0].values()]
    return {
        "items_per_s": (1000 * len(ms) / sum(ms), "1/s"),
        "item_ms_p50": (statistics.median(ms), "ms"),
        "item_ms_p90": (quantile(ms, 90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(name: str, seed: int, seconds: float, pinned: dict):
    from ladder import depth_ladder
    from tracing import Tracer, layer_metrics, module_shares

    A = load_anthill()
    api = make_api(A)
    tracer = Tracer(A)
    tracer.install(api, A.harness)
    work = prepare(name, A, api, seed, pinned.get("depth_limited", ()))
    tracer.uninstall()

    gc.collect()
    plain = loop(work, seconds / 2)
    tracer.phase = "loop"
    tracer.install(api, A.harness)
    traced = loop(work, seconds / 2)
    tracer.uninstall()

    results = plain + traced
    plain_best = summarise(plain)[0]
    traced_best = summarise(traced)[0]
    both = plain_best.keys() & traced_best.keys()
    overhead = 100 * (sum(traced_best[i] for i in both)
                      / sum(plain_best[i] for i in both) - 1)
    metrics = layer_metrics(tracer, work.prepared, len(traced), overhead)
    metrics["items.depth_limited_share"] = (
        summarise(results)[2] / len(results), "share")
    metrics.update((k, (v, "count")) for k, v in depth_ladder(A).items())
    for module, share in sorted(module_shares(tracer).items()):
        print(f"share of traced loop  {module:10s} {100 * share:6.1f} %")
    out = ROOT / "perfbench" / "out" / f"trace-{name}-{seed}.jsonl"
    tracer.write(out)
    print(f"spans: {len(tracer.spans)} written to "
          f"{out.relative_to(ROOT)}")
    return work, results, metrics


def untraced_run(name: str, seed: int, seconds: float, pinned: dict):
    setups = []

    def set_up_again():
        # each set-up starts from an emptied garbage collector, so its
        # time does not depend on what the loop left behind
        gc.collect()
        setup_s, _, _, work = set_up(name, seed, pinned)
        setups.append(setup_s)
        return work

    first = set_up_again()
    results = loop(first, seconds, set_up_again, SETUP_REPEATS[name])
    # the pins are checked against the first set-up's first pass
    return first, results, end_to_end(results, statistics.median(setups))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "anthill" / "__init__.py").is_file():
        print(f"error: no anthill package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    pinned = seed_pins(args.workload, args.seed)
    run = traced_run if args.trace else untraced_run
    work, results, metrics = run(args.workload, args.seed, args.seconds,
                                 pinned or {})

    _, failures, limited = summarise(results)
    problems = pin_problems(work, pinned)
    if any(p.startswith("outcomes") for p in problems):
        # the pinned trials did not all reach their pinned outcomes
        failures += ["pinned outcome mix"] * len(work.first_pass)
    failed = min(len(failures), len(results))
    print(f"workload {work.name}  seed {args.seed}  identity "
          f"{work.identity}  items {len(results)}  failed {failed}  "
          f"failed_frac {failed / len(results):.4f}  "
          f"left out at the pinned depth limit {limited}")
    for reason in (problems + failures)[:10]:
        print(f"FAILED: {reason}")
    for key, (value, unit) in metrics.items():
        print(f"{key:28s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
