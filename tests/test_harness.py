"""Fuzz harness behaviour: seed discipline, determinism, report text,
and trials composed from the two stages with one of them swapped."""

import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from anthill import contexts, harness
from anthill.cli import ExitStatus, main
from anthill.contexts import hole_binders, plug
from anthill.harness import (
    SEED_STRIDE,
    FuzzReport,
    TrialConfig,
    TrialReport,
    draw_trial,
    judge,
    run_trials,
    soundness_trial,
    translate_into,
    trial_seed,
    write_reproducer,
)
from anthill.core import INT, Function
from anthill.generate import gen_typed_program
from anthill.parser import parse_anthill, parse_upython
from anthill.runtime import Heap, PyError, Value, run
from anthill.translate import translate_program
from anthill.upython import INT_TAG, TRANSLATED, UAddr, UApp, UCheck, UGet, \
    UInt, ULam, UVar, erase_checks
from anthill.verify import verifies

SMALL = TrialConfig(term_depth=3, ctx_depth=3, budget=2_000)
GOLDEN = Path(__file__).parent / "golden"
PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def test_trial_seed_stride():
    assert trial_seed(0, 0) == 0
    assert trial_seed(0, 7) == 7
    assert trial_seed(3, 0) == 3 * SEED_STRIDE
    assert trial_seed(3, 11) == 3 * SEED_STRIDE + 11
    # consecutive batches from different base seeds never collide as long
    # as the batch is shorter than the stride
    a = {trial_seed(1, i) for i in range(1000)}
    b = {trial_seed(2, i) for i in range(1000)}
    assert not a & b


def test_soundness_trial_is_deterministic():
    for seed in (0, 17, trial_seed(5, 123)):
        first = soundness_trial(seed, SMALL)
        second = soundness_trial(seed, SMALL)
        assert first == second


@pytest.mark.parametrize("term_depth, ctx_depth",
                         [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_small_batch_has_no_violations(term_depth, ctx_depth):
    config = replace(SMALL, term_depth=term_depth, ctx_depth=ctx_depth)
    report = run_trials(300, base_seed=1, config=config)
    assert len(report.trials) == 300
    assert report.violations == ()
    seen = {t.outcome for t in report.trials}
    assert seen <= {"value", "casterror", "native-error",
                    "translated-error", "timeout"}
    # the generators produce enough variety that both normal terminations
    # show up in a batch of this size
    assert report.count("value") > 0
    assert report.count("casterror") > 0
    assert all(t.steps >= 0 for t in report.trials)
    assert all(t.verdict == "pass" for t in report.trials)


def test_outcome_counts_partition_the_batch():
    report = run_trials(60, base_seed=4, config=SMALL)
    total = sum(report.count(o) for o in (
        "value", "casterror", "native-error", "translated-error", "timeout"))
    assert total == len(report.trials)


def test_report_text_is_deterministic():
    one = run_trials(40, base_seed=9, config=SMALL)
    two = run_trials(40, base_seed=9, config=SMALL)
    assert one.to_text() == two.to_text()
    assert one.to_text(verbose=True) == two.to_text(verbose=True)
    # a different base seed gives different trials, hence different text
    other = run_trials(40, base_seed=10, config=SMALL)
    assert other.to_text(verbose=True) != one.to_text(verbose=True)


def test_report_text_shape():
    report = run_trials(25, base_seed=2, config=SMALL)
    text = report.to_text()
    assert text.splitlines()[0] == (
        "open-world soundness fuzz: 25 trials, base seed 2")
    assert "step budget 2000" in text
    assert "violations" in text
    assert text.endswith("\n")
    # verbose mode adds exactly one line per trial
    verbose = report.to_text(verbose=True)
    trial_lines = [l for l in verbose.splitlines() if l.startswith("trial ")]
    assert len(trial_lines) == 25
    assert trial_lines[0].startswith("trial 00000 seed=")


def test_a_trial_searches_its_hole_path_once(monkeypatch):
    # hole_binders, type_context and plug all read the one path
    searched = []
    search = contexts._hole_path

    def counted(ctx):
        searched.append(ctx)
        return search(ctx)

    monkeypatch.setattr(contexts, "_hole_path", counted)
    for i in range(200):
        soundness_trial(trial_seed(0, i))
    assert len(searched) == 200


# Python-level calls in seed 0's first 200 trials, as sys.setprofile
# reports "call" events, generator resumptions included: 224,883 on
# CPython 3.11.7, with this test run alone or in a plain script, under
# any hash seed; 3.12.1 and 3.13.0 make slightly fewer (224,504 and
# 224,438), and CI runs this test on 3.12 and 3.13 too. The budget is
# the 3.11 count with under 3 % headroom. Raise it only in a change whose
# CHANGES.md line says why the trials need the extra calls.
CALL_BUDGET = 230_000


def test_a_trial_stays_within_its_python_call_budget():
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    before = sys.getprofile()
    sys.setprofile(count)
    try:
        for i in range(200):
            soundness_trial(trial_seed(0, i))
    finally:
        sys.setprofile(before)
    assert calls <= CALL_BUDGET, calls


def test_trial_line_formatting():
    trial = TrialReport(
        seed=42, config=SMALL, binders=(), outcome="value", steps=3,
        verdict="pass")
    assert trial.line(7) == "trial 00007 seed=42 outcome=value steps=3 verdict=pass"
    assert trial.line() == "seed=42 outcome=value steps=3 verdict=pass"


def test_trials_run_in_seed_order():
    report = run_trials(12, base_seed=3, config=SMALL)
    assert len(report.trials) == 12
    for i, t in enumerate(report.trials):
        assert t.seed == trial_seed(3, i)


def test_empty_batch():
    report = run_trials(0, base_seed=0, config=SMALL)
    assert report.trials == ()
    assert report.violations == ()
    assert "0 trials" in report.to_text()


def _fake_violation() -> TrialReport:
    return TrialReport(
        seed=99, config=SMALL, binders=(), outcome="translated-error", steps=5,
        verdict="violation",
        detail="runtime error attributed to translated code")


def test_violations_surface_in_text():
    passing = soundness_trial(trial_seed(1, 0), SMALL)
    report = FuzzReport(1, SMALL, (passing, _fake_violation()))
    assert len(report.violations) == 1
    text = report.to_text()
    assert "violation at seed 99" in text
    assert "attributed to translated code" in text


def test_reproducer_file_contents(tmp_path):
    trial = soundness_trial(trial_seed(6, 2), SMALL)
    path = tmp_path / "repro.txt"
    write_reproducer(str(path), trial)
    text = path.read_text()
    assert text == (GOLDEN / "reproducer_6_2_small.txt").read_text()
    assert f"# seed: {trial.seed}" in text
    assert trial.term_text in text
    assert trial.context_text in text
    assert f"# outcome: {trial.outcome} after {trial.steps} steps" in text
    # the embedded sources parse back in their own languages
    parse_anthill(trial.term_text)
    parse_upython(trial.context_text, allow_hole=True)


def test_reproducer_for_synthetic_violation(tmp_path):
    trial = _fake_violation()
    path = tmp_path / "bad.txt"
    write_reproducer(str(path),
                     replace(trial, config=replace(SMALL, budget=77)))
    text = path.read_text()
    assert "# detail: runtime error attributed to translated code" in text
    assert "budget: 77" in text
    assert "# binders at hole: -" in text


def test_untypeable_result_value_is_a_violation_not_a_crash(monkeypatch):
    # @7 is not in the empty result heap, so the post-run tag check
    # cannot type the value
    monkeypatch.setattr(harness, "run",
                        lambda *args, **kwargs: Value(UAddr(7), Heap(), 1))
    report = soundness_trial(trial_seed(1, 0), SMALL)
    assert (report.outcome, report.steps, report.verdict) == \
        ("value", 1, "violation")
    assert "TagError" in report.detail


def test_result_value_above_the_program_tag_is_a_violation(monkeypatch):
    # the program is typed at int, but its run ends in a function
    monkeypatch.setattr(harness, "type_context",
                        lambda *args: ((), INT_TAG))
    monkeypatch.setattr(harness, "run", lambda *args, **kwargs:
                        Value(ULam(("x",), UVar("x")), Heap(), 1))
    report = soundness_trial(trial_seed(1, 0), SMALL)
    assert (report.outcome, report.verdict) == ("value", "violation")
    assert report.detail == \
        "result tag fun[1] is not below the program tag int"


def _header_config(text: str) -> TrialConfig:
    line = next(l for l in text.splitlines() if l.startswith("# term depth"))
    values = [int(part.split(": ")[1]) for part in line[2:].split(", ")]
    return TrialConfig(*values)


def test_reproducer_header_states_the_depths_it_ran_at(tmp_path, capsys,
                                                       monkeypatch):
    # every run blames translated code; the reproducer is the first
    # violation as drawn, so the header names the batch's depths
    monkeypatch.setattr(harness, "run", lambda *args, **kwargs:
                        PyError(TRANSLATED, 1, "EApp3"))
    path = tmp_path / "repro.txt"
    assert main(["fuzz", "--trials", "1", "--seed", "1",
                 "--reproducer", str(path)]) == ExitStatus.TRANSLATED_ERROR
    capsys.readouterr()
    text = path.read_text()
    config = _header_config(text)
    assert (config.term_depth, config.ctx_depth) == (5, 5)
    seed = int(text.splitlines()[1].removeprefix("# seed: "))
    again = soundness_trial(seed, config)
    assert again.verdict == "violation"
    assert f"(: {again.type_text})\n{again.term_text}\n" in text
    assert f"# untyped context\n{again.context_text}\n" in text


# ---------------------------------------------------------------------------
# trials with a stage swapped


DEFAULT = TrialConfig()


def _drawn(count: int):
    """The context, binders and term of base seed 0's first trials."""
    return (draw_trial(trial_seed(0, i), DEFAULT) for i in range(count))


def _traced(program, budget):
    """The run's outcome and the rule of every step it took."""
    rules = []
    outcome = run(program, budget=budget,
                  on_step=lambda steps, rule, cells: rules.append(rule))
    return outcome, rules


def _erasure_simulates(checked_program, erased_program, budget):
    """Run both programs and assert that the erased one makes the
    checked one's moves less its ECheck1 steps, up to the first failing
    check; return the erased run's outcome kind."""
    checked, checked_rules = _traced(checked_program, budget)
    erased, erased_rules = _traced(erased_program, budget)
    moves = [r for r in checked_rules if r != "ECheck1"]
    erased_moves = [r for r in erased_rules if r != "ECheck1"]
    if checked.kind == "casterror":
        assert erased_moves[:len(moves)] == moves
    elif checked.kind == "timeout":
        shorter = min(len(moves), len(erased_moves))
        assert erased_moves[:shorter] == moves[:shorter]
    else:
        assert erased.kind == checked.kind
        assert erased_moves == moves
        if checked.kind == "value":
            assert erase_checks(erased.value) == erase_checks(checked.value)
        else:
            assert erased.rule == checked.rule
    return erased.kind


def _program(path: Path):
    """A runnable file of programs/, an .ant file translated."""
    if path.suffix == ".ant":
        return translate_program(parse_anthill(path.read_text()))[0]
    return parse_upython(path.read_text())


def test_erasing_the_checks_keeps_values_and_native_errors():
    # the erasure simulation theorem: a transient check returns its
    # subject unchanged or fails, so without the term's checks a run
    # takes the same steps less its ECheck1 steps, and ends the same way
    # unless a check failed; a run a check stopped may go on to blame
    # translated code, which is what the checks are there to prevent
    translated_errors = 0
    for ctx, binders, term in _drawn(2_000):
        target, hole_env, hole_tag = translate_into(binders, term)
        assert judge(ctx, target, hole_env, hole_tag,
                     DEFAULT.budget)[1] == ""
        translated_errors += _erasure_simulates(
            plug(ctx, target), plug(ctx, erase_checks(target)),
            DEFAULT.budget) == "translated-error"
    assert translated_errors > 0

    for path in sorted(PROGRAMS.iterdir()):
        if path.name.endswith("_context.upy"):
            continue
        program = _program(path)
        _erasure_simulates(program, erase_checks(program), DEFAULT.budget)
    library = parse_anthill((PROGRAMS / "typed_call_lib.ant").read_text())
    for name in ("call_context.upy", "bad_call_context.upy"):
        ctx = parse_upython((PROGRAMS / name).read_text(), allow_hole=True)
        target, _, _ = translate_into(hole_binders(ctx), library)
        _erasure_simulates(plug(ctx, target), plug(ctx, erase_checks(target)),
                           DEFAULT.budget)

    rng = random.Random(1)
    for depth in range(5, 12):
        for _ in range(15):
            target, _ = translate_program(gen_typed_program(rng, depth)[0])
            _erasure_simulates(target, erase_checks(target), DEFAULT.budget)


def _without_checks_on(kind):
    """A translate function like translate_into whose target lacks every
    check with a `kind` node as its subject: the check the translator
    puts on a get's or a call's result. It also drops the rarer check on
    a dyn get or call passed on as a callee, set value or superclass."""
    def strip(e):
        if isinstance(e, UCheck) and isinstance(e.subject, kind):
            e = e.subject
        return e.rebuild(tuple(map(strip, e.children())))

    def translate(binders, term):
        target, hole_env, hole_tag = translate_into(binders, term)
        return strip(target), hole_env, hole_tag
    return translate


@pytest.mark.parametrize("kind", [UGet, UApp],
                         ids=["get-result", "call-result"])
def test_mutant_translators_are_killed_statically_and_dynamically(kind):
    # a mutant is one more translate function composed with judge; the
    # verifier pre-check is counted, not enforced, so both kills show
    translate = _without_checks_on(kind)
    static = dynamic = 0
    for ctx, binders, term in _drawn(100):
        target, hole_env, hole_tag = translate(binders, term)
        static += not verifies(hole_env, {}, target, hole_tag)
        dynamic += judge(ctx, target, hole_env, hole_tag,
                         DEFAULT.budget)[1] != ""
    assert static > 0
    assert dynamic > 0


def test_a_translation_that_does_not_verify_names_its_trial(monkeypatch):
    monkeypatch.setattr(harness, "translate_term",
                        lambda env, term: (UInt(1), Function((), INT)))
    seed = trial_seed(1, 0)
    with pytest.raises(harness.HarnessError,
                       match=rf"^seed {seed}: translated term failed tag "
                             r"verification at fun\[0\]\nterm: "):
        soundness_trial(seed, SMALL)
