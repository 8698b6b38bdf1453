"""The benchmark's workloads.

Every workload is built from the seed alone during set-up and then run
as a closed loop with one caller: the next item starts when the last
one returns. A pass runs every item of the seed once. Each `run_pass`
returns one `(item, seconds, failure)` triple per item, where `item`
names the input, `failure` is None or a one-line reason and `seconds`
is None for an item that raised. `seconds` is a tuple with one time per
stage of the item's path: one stage for a fuzz trial, six for a compile
program. Only the path the workload is named for sits inside the
timers; its checks run after it.

- fuzz: soundness trials at the default `TrialConfig`, the paper's
  open-world experiment, one `soundness_trial` per item as
  `run_trials` runs them. A seed names a fixed set of trials, so
  generate, translate, print, verify and contexts carry most of the
  time; the parser is never called.
- compile: generated well-typed programs, printed to source during
  set-up and taken through parse, translate, print, re-parse, verify
  and run. Its terms are 10-50x larger than a fuzz term, and the
  parser carries most of the time.

Any item that raises fails, with one exception: a fuzz trial that
`pins.json` lists for the seed as overflowing the stack
(`RecursionError`, the known limit on term depth of the package's
recursive layers) is left out of the timings and counted on its own.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import time

FUZZ_TRIALS = 2000        # the seed's trials, each run once a pass
COMPILE_DEPTHS = range(5, 12)
# source sizes in chars: 10 bins with edges 700 * 1.464**i, from 700 to
# 31.7 k chars; every seed fills each bin with the same count, so a pass
# does the same amount of work whatever the seed. With 8 programs a bin,
# the median (between the 40th and 41st of 80) and p90 (between the 72nd
# and 73rd) fall where one bin ends and the next begins, so the sizes
# they read vary little from seed to seed.
COMPILE_BIN_EDGES = tuple(round(700 * (31700 / 700) ** (i / 10))
                          for i in range(11))
COMPILE_PER_BIN = 8
# bins from this one up (4.7 k chars) are filled only by programs of the
# largest depth
COMPILE_DEEP_BIN = 5
COMPILE_BUDGET = 10_000


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


# the failure of a pinned fuzz trial that overflowed the stack
DEPTH_LIMIT = "RecursionError at the pinned depth limit"


def raised(exc) -> str:
    """The failure reason of an item that raised."""
    first = str(exc).splitlines()[0] if str(exc) else ""
    return f"{type(exc).__name__}: {first}"


def _timed(fn, *args):
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:
        return None, exc
    return (time.perf_counter() - t0,), result


class Stages:
    """Times a sequence of calls, one stage per call."""

    def __init__(self) -> None:
        self.seconds: list[float] = []

    def __call__(self, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        self.seconds.append(time.perf_counter() - t0)
        return result


class Fuzz:
    name = "fuzz"

    def __init__(self, A, api, seed: int, depth_limited=()) -> None:
        self.A = A
        self.api = api
        self.seed = seed
        self.config = A.TrialConfig()
        # trials pinned as overflowing the stack at this seed
        self.depth_limited = frozenset(depth_limited)
        self.prepared = 0
        self.first_pass = None   # pass 0's TrialReports or what they raised
        self.overflowed = None   # trials that raised RecursionError in it

    def run_pass(self, index: int):
        harness = self.A.harness
        out, reports = [], []
        for i in range(FUZZ_TRIALS):
            seconds, result = _timed(harness.soundness_trial,
                                     harness.trial_seed(self.seed, i),
                                     self.config)
            reports.append(result)
            out.append((i, seconds, self._check(i, result)))
        if index == 0:
            self.first_pass = reports
            self.overflowed = [i for i, r in enumerate(reports)
                               if isinstance(r, RecursionError)]
        return out

    def _check(self, i, result):
        if isinstance(result, RecursionError) and i in self.depth_limited:
            return DEPTH_LIMIT
        if isinstance(result, Exception):
            return f"trial {i}: {raised(result)}"
        if result.verdict != "pass":
            return f"violation at seed {result.seed}: {result.detail}"
        return None

    # A pinned overflowing trial is left out of both digests, so a fix
    # that lets it finish keeps them.

    @property
    def identity(self) -> str:
        """Digest of the trial texts of the first pass."""
        return digest(
            "-" if i in self.depth_limited
            else "raised" if isinstance(r, Exception)
            else f"{r.term_text}\x01{r.type_text}\x01{r.context_text}"
            for i, r in enumerate(self.first_pass))

    @property
    def outcomes(self) -> str:
        """Digest of the first pass's outcomes and step counts."""
        return digest(
            "-" if i in self.depth_limited
            else f"raised:{type(r).__name__}" if isinstance(r, Exception)
            else f"{r.outcome}:{r.steps}"
            for i, r in enumerate(self.first_pass))


class Compile:
    name = "compile"

    def __init__(self, A, api, seed: int) -> None:
        self.A = A
        self.api = api
        self.seed = seed
        self.programs = self._generate(random.Random(f"compile:{seed}"))
        self.prepared = len(self.programs)
        self.identity = digest(source for source, _, _ in self.programs)

    def _generate(self, rng):
        """Keep each drawn program whose source falls in a size bin that
        is not yet full. Draws use the largest depth while a large bin is
        open, then depths 5-11 in turn."""
        edges = COMPILE_BIN_EDGES
        need = [COMPILE_PER_BIN] * (len(edges) - 1)
        programs = []
        draw = 0
        while any(need):
            if any(need[COMPILE_DEEP_BIN:]):
                depth = COMPILE_DEPTHS[-1]
            else:
                depth = COMPILE_DEPTHS[draw % len(COMPILE_DEPTHS)]
                draw += 1
            with self.api.span("program"):
                term, ty = self.api.gen_typed_program(rng, depth)
                source = self.api.print_anthill_term(term)
            b = bisect.bisect_right(edges, len(source)) - 1
            if 0 <= b < len(need) and need[b]:
                need[b] -= 1
                programs.append((source, term, ty))
        return programs

    def _path(self, source):
        """The path's results and the time of each of its six calls."""
        api = self.api
        timed = Stages()
        target, ty = timed(api.translate_program,
                           timed(api.parse_anthill, source))
        text = timed(api.print_upython, target)
        reparsed = timed(api.parse_upython, text)
        verified = timed(lambda: api.verifies((), {}, reparsed,
                                              api.tag_of(ty)))
        outcome = timed(api.run, reparsed, None, COMPILE_BUDGET)
        return tuple(timed.seconds), (target, ty, reparsed, verified,
                                      outcome)

    def run_pass(self, index: int):
        order = list(range(len(self.programs)))
        random.Random(f"compile:{self.seed}:{index}").shuffle(order)
        out = []
        for i in order:
            source, term, ty = self.programs[i]
            with self.api.span("program"):
                try:
                    seconds, result = self._path(source)
                except Exception as exc:
                    seconds, result = None, exc
            failure = (f"program {i}: {raised(result)}" if seconds is None
                       else self._check(i, term, ty, *result))
            out.append((i, seconds, failure))
        return out

    def _check(self, i, term, ty, target, got_ty, reparsed, verified,
               outcome):
        A = self.A
        if reparsed != target:
            return f"program {i}: print/parse round trip changed the term"
        if not verified:
            return f"program {i}: translation does not verify at its tag"
        if got_ty != ty:
            return f"program {i}: translated type differs from generated"
        if isinstance(outcome, A.PyError):
            return f"program {i}: runtime error in translated code"
        if A.parse_anthill(self.programs[i][0]) != term:
            return f"program {i}: source does not parse back to its term"
        return None


def prepare(name: str, A, api, seed: int, depth_limited=()):
    if name == "fuzz":
        return Fuzz(A, api, seed, depth_limited)
    return Compile(A, api, seed)


WORKLOADS = ("fuzz", "compile")
