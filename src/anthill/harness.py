"""Open-world soundness trials.

One trial generates an arbitrary untyped one-hole context, generates a
well-typed source term over the variables the context binds at its
hole, translates the term, plugs it in, and runs the whole program.
The claim under test: no run ever produces a runtime error attributed
to translated code. Casts may fail and native code may err freely.

Each trial also asserts an internal invariant before running: the
translated term must verify at its type's tag (checked against the tag
verifier). A failure there is a bug in this package, not a
counterexample, and raises.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cached_property

from .contexts import CodeContext, hole_binders, plug, type_context, \
    validate_context
from .core import DYN, AnthillTerm, tag_of
from .generate import TypeEnv, gen_type, gen_typed_term, gen_untyped_context
from .printer import print_anthill_term, print_anthill_type, print_tag, \
    print_upython
from .runtime import run
from .translate import translate_term
from .upython import PYOBJ
from .verify import TagError, infer, principal_heap_type, tag_subtype, \
    verifies

SEED_STRIDE = 1_000_000_007


class HarnessError(Exception):
    """An internal invariant failed; the trial itself is broken."""


@dataclass(frozen=True)
class TrialConfig:
    term_depth: int = 5
    ctx_depth: int = 5
    budget: int = 10_000


@dataclass(frozen=True)
class TrialReport:
    """A trial's verdict. The report names its trial by seed and config
    and does not keep the programs: term_text, type_text and
    context_text draw the trial again from them on first use and print
    it."""

    seed: int
    config: TrialConfig
    binders: tuple[str, ...]
    outcome: str  # value, casterror, native-error, translated-error, timeout
    steps: int
    verdict: str  # pass or violation
    detail: str = ""

    @cached_property
    def _texts(self) -> tuple[str, str, str]:
        ctx, _, env, term = draw_trial(self.seed, self.config)
        _, term_ty = translate_term(env, term)
        return (print_anthill_term(term), print_anthill_type(term_ty),
                print_upython(ctx))

    @property
    def term_text(self) -> str:
        return self._texts[0]

    @property
    def type_text(self) -> str:
        return self._texts[1]

    @property
    def context_text(self) -> str:
        return self._texts[2]

    def line(self, index: int | None = None) -> str:
        head = f"trial {index:05d} " if index is not None else ""
        return (f"{head}seed={self.seed} outcome={self.outcome} "
                f"steps={self.steps} verdict={self.verdict}")


def trial_seed(base_seed: int, index: int) -> int:
    return base_seed * SEED_STRIDE + index


def draw_trial(seed: int, config: TrialConfig) -> tuple[
        CodeContext, tuple[str, ...], TypeEnv, AnthillTerm]:
    """The trial's context, the names bound at its hole, the term's
    environment (each of those names at dyn) and the term, drawn from
    the seed: context first, then goal type, then term."""
    rng = random.Random(seed)
    ctx = gen_untyped_context(rng, config.ctx_depth)
    binders = hole_binders(ctx)
    env = dict.fromkeys(binders, DYN)
    goal = gen_type(rng, max(1, config.term_depth // 2))
    term = gen_typed_term(rng, env, goal, config.term_depth)
    return ctx, binders, env, term


def soundness_trial(seed: int, config: TrialConfig = TrialConfig()
                    ) -> TrialReport:
    ctx, binders, env, term = draw_trial(seed, config)
    validate_context(ctx)
    target, term_ty = translate_term(env, term)

    hole_env = tuple((name, PYOBJ) for name in binders)
    hole_tag = tag_of(term_ty)
    if not verifies(hole_env, {}, target, hole_tag):
        raise HarnessError(
            f"seed {seed}: translated term failed tag verification at "
            f"{print_tag(hole_tag)}\nterm: {print_anthill_term(term)}\n"
            f"target: {print_upython(target)}")
    _, program_tag = type_context(ctx, hole_env, hole_tag)

    outcome = run(plug(ctx, target), budget=config.budget)
    detail = ""
    if outcome.kind == "translated-error":
        detail = "runtime error attributed to translated code"
    elif outcome.kind == "value":
        try:
            got = infer((), principal_heap_type(outcome.heap), outcome.value)
        except TagError as exc:
            detail = f"result value has no tag: TagError {exc}"
        else:
            if not tag_subtype(got, program_tag):
                detail = (f"result tag {print_tag(got)} is not below the "
                          f"program tag {print_tag(program_tag)}")
    return TrialReport(seed, config, binders, outcome.kind, outcome.steps,
                       "violation" if detail else "pass", detail)


@dataclass(frozen=True)
class FuzzReport:
    base_seed: int
    config: TrialConfig
    trials: tuple[TrialReport, ...]

    @property
    def violations(self) -> tuple[TrialReport, ...]:
        return tuple(t for t in self.trials if t.verdict == "violation")

    def count(self, outcome: str) -> int:
        return sum(1 for t in self.trials if t.outcome == outcome)

    def to_text(self, verbose: bool = False) -> str:
        lines = [f"open-world soundness fuzz: {len(self.trials)} trials, "
                 f"base seed {self.base_seed}",
                 f"term depth {self.config.term_depth}, context depth "
                 f"{self.config.ctx_depth}, step budget {self.config.budget}"]
        if verbose:
            lines.extend(t.line(i) for i, t in enumerate(self.trials))
        lines.append("summary:")
        for outcome in ("value", "casterror", "native-error",
                        "translated-error", "timeout"):
            lines.append(f"  {outcome:17s} {self.count(outcome):6d}")
        lines.append(f"  {'violations':17s} {len(self.violations):6d}")
        for t in self.violations:
            lines.append(f"violation at seed {t.seed}: {t.detail}")
        return "\n".join(lines) + "\n"


def run_trials(count: int, base_seed: int = 0,
               config: TrialConfig = TrialConfig()) -> FuzzReport:
    return FuzzReport(base_seed, config, tuple(
        soundness_trial(trial_seed(base_seed, i), config)
        for i in range(count)))


def shrink_violation(report: TrialReport) -> TrialReport:
    """Smallest depth pair at which the same seed still misbehaves."""
    config = report.config
    best = report
    found = False
    for total in range(2, config.term_depth + config.ctx_depth):
        for td in range(1, min(total, config.term_depth) + 1):
            cd = total - td
            if not 1 <= cd <= config.ctx_depth:
                continue
            candidate = soundness_trial(
                report.seed, replace(config, term_depth=td, ctx_depth=cd))
            if candidate.verdict == "violation":
                best = candidate
                found = True
                break
        if found:
            break
    return best


def write_reproducer(path: str, report: TrialReport) -> None:
    """Write the report's trial with the depths and budget it ran at."""
    config = report.config
    with open(path, "w") as fh:
        fh.write("# open-world soundness violation\n")
        fh.write(f"# seed: {report.seed}\n")
        fh.write(f"# term depth: {config.term_depth}, context depth: "
                 f"{config.ctx_depth}, budget: {config.budget}\n")
        fh.write(f"# outcome: {report.outcome} after {report.steps} steps\n")
        fh.write(f"# detail: {report.detail}\n")
        fh.write(f"# binders at hole: {', '.join(report.binders) or '-'}\n\n")
        fh.write(f"# typed term (: {report.type_text})\n")
        fh.write(report.term_text + "\n\n")
        fh.write("# untyped context\n")
        fh.write(report.context_text + "\n")
