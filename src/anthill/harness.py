"""Open-world soundness trials.

One trial generates an arbitrary untyped one-hole context, generates a
well-typed source term over the variables the context binds at its
hole, translates the term, plugs it in, and runs the whole program.
The claim under test: no run ever produces a runtime error attributed
to translated code. Casts may fail and native code may err freely.

A trial is two stages. `translate_into` asserts an internal invariant:
the translated term must verify at its type's tag. A failure there is
a bug in this package, not a counterexample, and raises. `judge` runs
the plugged program and reads the verdict off the outcome. A variant
trial, a mutated translator or an erased term, composes them anew.
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
from .runtime import Outcome, run
from .translate import translate_term
from .upython import PYOBJ, Tag, UPyExpr
from .verify import TagEnv, TagError, infer, principal_heap_type, \
    tag_subtype, verifies

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
        ctx, binders, term = draw_trial(self.seed, self.config)
        _, term_ty = translate_term(hole_envs(binders)[0], term)
        return (print_anthill_term(term), print_anthill_type(term_ty),
                print_upython(ctx))

    term_text = property(lambda self: self._texts[0])
    type_text = property(lambda self: self._texts[1])
    context_text = property(lambda self: self._texts[2])

    def line(self, index: int | None = None) -> str:
        head = f"trial {index:05d} " if index is not None else ""
        return (f"{head}seed={self.seed} outcome={self.outcome} "
                f"steps={self.steps} verdict={self.verdict}")


def trial_seed(base_seed: int, index: int) -> int:
    return base_seed * SEED_STRIDE + index


def hole_envs(binders: tuple[str, ...]) -> tuple[TypeEnv, TagEnv]:
    """The hole convention: each binder at dyn to type, at pyobj to tag."""
    return (dict.fromkeys(binders, DYN),
            tuple(zip(binders, (PYOBJ,) * len(binders))))


def draw_trial(seed: int, config: TrialConfig) -> tuple[
        CodeContext, tuple[str, ...], AnthillTerm]:
    """The trial's context, the names bound at its hole and a term for
    the hole, drawn from the seed: context, goal type, then term."""
    rng = random.Random(seed)
    ctx = gen_untyped_context(rng, config.ctx_depth)
    binders = hole_binders(ctx)
    goal = gen_type(rng, max(1, config.term_depth // 2))
    term = gen_typed_term(rng, hole_envs(binders)[0], goal, config.term_depth)
    return ctx, binders, term


def translate_into(binders: tuple[str, ...], term: AnthillTerm
                   ) -> tuple[UPyExpr, TagEnv, Tag]:
    """The target, hole environment and hole tag of term in a hole that
    binds binders; HarnessError if the target does not verify."""
    env, hole_env = hole_envs(binders)
    target, term_ty = translate_term(env, term)
    hole_tag = tag_of(term_ty)
    if not verifies(hole_env, {}, target, hole_tag):
        raise HarnessError(
            "translated term failed tag verification at "
            f"{print_tag(hole_tag)}\nterm: {print_anthill_term(term)}\n"
            f"target: {print_upython(target)}")
    return target, hole_env, hole_tag


def judge(ctx: CodeContext, target: UPyExpr, hole_env: TagEnv,
          hole_tag: Tag, budget: int) -> tuple[Outcome, str]:
    """Run target plugged into ctx: the outcome, and the detail of a
    violation, empty on a pass."""
    _, program_tag = type_context(ctx, hole_env, hole_tag)
    outcome = run(plug(ctx, target), budget=budget)
    if outcome.kind == "translated-error":
        return outcome, "runtime error attributed to translated code"
    if outcome.kind != "value":
        return outcome, ""
    try:
        got = infer((), principal_heap_type(outcome.heap), outcome.value)
    except TagError as exc:
        return outcome, f"result value has no tag: TagError {exc}"
    if tag_subtype(got, program_tag):
        return outcome, ""
    return outcome, (f"result tag {print_tag(got)} is not below the "
                     f"program tag {print_tag(program_tag)}")


def soundness_trial(seed: int, config: TrialConfig = TrialConfig()
                    ) -> TrialReport:
    ctx, binders, term = draw_trial(seed, config)
    validate_context(ctx)
    try:
        target, hole_env, hole_tag = translate_into(binders, term)
    except HarnessError as exc:
        raise HarnessError(f"seed {seed}: {exc}") from None
    outcome, detail = judge(ctx, target, hole_env, hole_tag, config.budget)
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
    for total in range(2, config.term_depth + config.ctx_depth):
        for td in range(max(1, total - config.ctx_depth),
                        min(total - 1, config.term_depth) + 1):
            candidate = soundness_trial(report.seed, replace(
                config, term_depth=td, ctx_depth=total - td))
            if candidate.verdict == "violation":
                return candidate
    return report


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
