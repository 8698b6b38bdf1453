"""Acceptance suite: eight end-to-end scenario checks.

Each test covers one shipping criterion and records a single PASS/FAIL
verdict line (printed in the terminal summary, see conftest). The checks
here deliberately go through the public entry points at realistic scale;
the fine-grained behaviour pins live in the per-module test files.
"""

import random
import time
from contextlib import contextmanager
from pathlib import Path

from conftest import record_criterion

from anthill.contexts import ContextError, hole_binders, plug, \
    type_context, validate_context
from anthill.core import tag_of
from anthill.generate import (
    gen_native_expr,
    gen_type,
    gen_typed_program,
    gen_typed_term,
    gen_untyped_context,
)
from anthill.harness import TrialConfig, hole_envs, run_trials, \
    translate_into
from anthill.parser import parse_anthill, parse_anthill_type, parse_upython
from anthill.printer import print_anthill_term, print_anthill_type, \
    print_upython
from anthill.runtime import (
    CastError,
    Heap,
    PyError,
    Stepped,
    Value,
    check,
    getattr_,
    lookup,
    run,
    step,
)
from anthill.translate import translate_program, translate_term
from anthill.upython import PYOBJ, Label, ObjTag, UAddr, UInt, is_value
from anthill.verify import (
    TagError,
    heap_ok,
    infer,
    principal_heap_type,
    tag_subtype,
    verifies,
)

from helpers import (
    HEAP_LABELS,
    build_diamond_heap,
    callable_with,
    enumerate_terms,
    rand_bounded_expr,
    rand_layered_heap,
    rand_tag,
    rand_value,
)
from oracles import (
    DeclarativeTyping,
    TagOrder,
    alpha_normalize,
    o_check,
    o_getattr,
    o_hasattrs,
    o_lookup,
    o_param_match,
    tag_universe,
)

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


@contextmanager
def criterion(number: int, title: str, bound_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        line = f"criterion {number}: FAIL - {title}"
        record_criterion(line)
        print(line)
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < bound_s
    line = (f"criterion {number}: {'PASS' if ok else 'FAIL'} - {title} "
            f"({elapsed:.1f}s)")
    record_criterion(line)
    print(line)
    assert ok, f"finished correct but over the {bound_s:.0f}s budget"


def _src(name: str) -> str:
    return (PROGRAMS / name).read_text()


def _run_typed(name: str):
    target, _ = translate_program(parse_anthill(_src(name)))
    return run(target)


# ------------------------------------------------------------- criterion 1

def test_criterion_1_worked_examples():
    with criterion(1, "worked example outcomes", 1.0):
        library, _ = translate_program(
            parse_anthill(_src("typed_call_lib.ant")))

        bad_client = parse_upython(_src("bad_call_context.upy"),
                                   allow_hole=True)
        validate_context(bad_client)
        assert isinstance(run(plug(bad_client, library)), CastError)

        good_client = parse_upython(_src("call_context.upy"),
                                    allow_hole=True)
        validate_context(good_client)
        out = run(plug(good_client, library))
        assert isinstance(out, Value) and out.value == UInt(42)

        out = run(parse_upython(_src("untyped_call.upy")))
        assert isinstance(out, PyError) and out.label is Label.NATIVE

        assert isinstance(_run_typed("read_missing_attr.ant"), CastError)
        assert isinstance(_run_typed("point2d_early_read.ant"), CastError)
        assert isinstance(_run_typed("class_late_init.ant"), CastError)

        out = _run_typed("point.ant")
        assert isinstance(out, Value) and out.value == UInt(7)

        out = run(parse_upython(_src("native_call_error.upy")))
        assert isinstance(out, PyError) and out.label is Label.NATIVE

        # the same bad call marked as translated: the verifier refuses
        # it, and running it anyway shows the outcome the verifier rules
        # out
        unsound = parse_upython(_src("translated_call_error.upy"))
        assert not verifies((), {}, unsound, PYOBJ)
        out = run(unsound)
        assert isinstance(out, PyError) and out.label is Label.TRANSLATED

        mixed = parse_upython(_src("mixed_call.upy"))
        assert verifies((), {}, mixed, PYOBJ)
        out = run(mixed)
        assert isinstance(out, Value) and out.value == UInt(7)


# ------------------------------------------------------------- criterion 2

def test_criterion_2_translation_verifies():
    with criterion(2, "every translation passes the tag verifier", 60.0):
        for path in sorted(PROGRAMS.glob("*.ant")):
            target, ty = translate_program(parse_anthill(path.read_text()))
            assert verifies((), {}, target, tag_of(ty)), path.name

        rng = random.Random(92201)
        for i in range(700):
            term, goal = gen_typed_program(rng, depth=3 + i % 4)
            target, ty = translate_program(term)
            assert ty == goal
            assert verifies((), {}, target, tag_of(ty))

        # open terms: the verifier environment is the tag image of the
        # typing environment
        for i in range(320):
            env = {"u": gen_type(rng, 2), "v": gen_type(rng, 2)}
            goal = gen_type(rng, 2)
            term = gen_typed_term(rng, env, goal, 3 + i % 4)
            target, ty = translate_term(env, term)
            env_tags = tuple((x, tag_of(t)) for x, t in env.items())
            assert verifies(env_tags, {}, target, tag_of(ty))


# ------------------------------------------------------------- criterion 3

def test_criterion_3_soundness_fuzz():
    with criterion(3, "10,000 open-world soundness trials", 600.0):
        config = TrialConfig(term_depth=5, ctx_depth=5, budget=10_000)
        report = run_trials(10_000, base_seed=1, config=config)
        assert report.violations == ()
        assert report.count("translated-error") == 0
        assert report.count("timeout") <= len(report.trials) // 20


# ------------------------------------------------------------- criterion 4

def test_criterion_4_context_composition():
    with criterion(4, "typed holes compose with typed contexts", 60.0):
        rng = random.Random(44011)
        done = attempts = 0
        while done < 1000:
            attempts += 1
            assert attempts < 3000, "generator kept producing skips"
            ctx = gen_untyped_context(rng, 4)
            validate_context(ctx)
            binders = hole_binders(ctx)
            env, hole_env = hole_envs(binders)

            if attempts % 2:
                term = gen_typed_term(rng, env, gen_type(rng, 2), 4)
                # translate_into checks the filler verifies at hole_tag
                filler, _, hole_tag = translate_into(binders, term)
            else:
                filler = gen_native_expr(rng, binders, 3)
                try:
                    hole_tag = infer(hole_env, {}, filler)
                except TagError:
                    continue

            try:
                outer_env, out_tag = type_context(ctx, hole_env,
                                                  hole_tag)
            except (TagError, ContextError):
                continue
            assert outer_env == ()
            got = infer((), {}, plug(ctx, filler))
            assert tag_subtype(got, out_tag)
            done += 1


# ------------------------------------------------------------- criterion 5

def test_criterion_5_stepwise_reverification():
    with criterion(5, "re-verification after every step", 120.0):
        programs = []
        for path in sorted(PROGRAMS.glob("*.ant")):
            target, _ = translate_program(parse_anthill(path.read_text()))
            programs.append(target)
        for name in ("mixed_call.upy", "untyped_call.upy",
                     "native_call_error.upy"):
            programs.append(parse_upython(_src(name)))

        rng = random.Random(55077)
        for _ in range(110):
            term, _ = gen_typed_program(rng, 4)
            target, _ = translate_program(term)
            programs.append(target)
        for _ in range(20):
            ctx = gen_untyped_context(rng, 3)
            binders = hole_binders(ctx)
            term = gen_typed_term(rng, hole_envs(binders)[0],
                                  gen_type(rng, 2), 3)
            target, _, _ = translate_into(binders, term)
            programs.append(plug(ctx, target))

        stepped = allocated = 0
        for program in programs:
            start_tag = infer((), {}, program)
            heap = Heap()
            e = program
            for _ in range(400):
                if is_value(e):
                    break
                r = step(e, heap)
                if not isinstance(r, Stepped):
                    break
                e = r.expr
                sigma = principal_heap_type(heap)
                assert heap_ok(sigma, heap)
                assert verifies((), sigma, e, start_tag)
            if len(heap):
                allocated += 1
            stepped += 1
        assert stepped >= 100
        # the batch has to exercise heap typing, not just pure reduction
        assert allocated >= 25


# ------------------------------------------------------------- criterion 6

def _assert_lookup_agrees(heap, addr, label):
    got = lookup(addr, label, heap, Label.NATIVE)
    want = o_lookup(heap, addr, label, Label.NATIVE)
    if isinstance(got, Stepped):
        assert want[0] == "found" and got.rule == "EGet1"
        assert alpha_normalize(got.expr) == alpha_normalize(want[1])
    elif isinstance(got, PyError):
        assert want == ("absent",)
        assert got == PyError(Label.NATIVE, 1, "EGet3")
    else:
        assert want == ("nullary",)
        assert got == CastError(1, "EGet2")


def test_criterion_6_metafunction_oracles():
    with criterion(6, "runtime metafunctions match naive oracles", 300.0):
        rng = random.Random(66001)
        counts = dict.fromkeys(
            ("check", "getattr", "hasattrs", "param_match", "lookup"), 0)
        labels = HEAP_LABELS + ("zz",)
        for i in range(1300):
            if i % 10 == 0:
                heap, roles = build_diamond_heap()
                addrs = tuple(roles.values())
            else:
                heap = rand_layered_heap(rng)
                addrs = tuple(range(len(heap)))
            for _ in range(8):
                v = rand_value(rng, heap)
                tag = rand_tag(rng)
                assert check(v, heap, tag) == o_check(heap, v, tag)
                counts["check"] += 1

                addr = rng.choice(addrs)
                label = rng.choice(labels)
                assert getattr_(addr, label, heap) == \
                    o_getattr(heap, addr, label)
                counts["getattr"] += 1

                wanted = tuple(rng.sample(labels, rng.randint(0, 3)))
                assert check(UAddr(addr), heap, ObjTag(wanted)) == \
                    o_hasattrs(heap, addr, wanted)
                counts["hasattrs"] += 1

                pv = rand_value(rng, heap)
                c = rng.choice((None, 0, 1, 2, 3))
                assert callable_with(pv, heap, c) == \
                    o_param_match(heap, pv, c)
                counts["param_match"] += 1

                _assert_lookup_agrees(heap, rng.choice(addrs),
                                      rng.choice(labels))
                counts["lookup"] += 1
        assert all(n >= 10_000 for n in counts.values()), counts


# ------------------------------------------------------------- criterion 7

def test_criterion_7_algorithmic_vs_declarative():
    with criterion(7, "exhaustive agreement with declarative typing",
                   300.0):
        order = TagOrder(tag_universe())
        decl = DeclarativeTyping(order)
        terms = enumerate_terms(3)
        assert len(terms) == 286_215

        up_cache: dict = {}
        typable = untypable = 0
        for term in terms:
            derivable = decl.types(term)
            try:
                principal = infer((), {}, term)
            except TagError:
                principal = None
            if principal is None:
                assert not derivable, term
                untypable += 1
                continue
            if principal not in up_cache:
                up_cache[principal] = frozenset(
                    t for t in order.tags if tag_subtype(principal, t))
            # equal sets means: accepted at exactly the derivable tags,
            # the principal tag is derivable, and nothing below it is
            assert up_cache[principal] == derivable, term
            typable += 1
        assert typable > 0 and untypable > 0


# ------------------------------------------------------------- criterion 8

def test_criterion_8_determinism_and_round_trip():
    with criterion(8, "seed determinism and parse/print identity", 300.0):
        config = TrialConfig(term_depth=3, ctx_depth=3, budget=2_000)
        first = run_trials(150, base_seed=7, config=config)
        second = run_trials(150, base_seed=7, config=config)
        assert first == second
        assert first.to_text(verbose=True) == second.to_text(verbose=True)
        # reports name their trial by seed and config, so their equality
        # does not cover the texts drawn again from them
        for one, two in zip(first.trials, second.trials):
            assert (one.term_text, one.type_text, one.context_text) == \
                (two.term_text, two.type_text, two.context_text)

        rng = random.Random(88011)
        for i in range(10_000):
            term, ty = gen_typed_program(rng, 2 + i % 3)
            assert parse_anthill(print_anthill_term(term)) == term
            if i % 5 == 0:
                assert parse_anthill_type(print_anthill_type(ty)) == ty

        rng = random.Random(88022)
        done = 0
        for i in range(6_000):
            e = rand_bounded_expr(rng, 3 + i % 3)
            assert parse_upython(print_upython(e)) == e
            done += 1
        for i in range(2_000):
            term, _ = gen_typed_program(rng, 2 + i % 3)
            target, _ = translate_program(term)
            assert parse_upython(print_upython(target)) == target
            done += 1
        for _ in range(2_000):
            ctx = gen_untyped_context(rng, 3)
            printed = print_upython(ctx)
            assert parse_upython(printed, allow_hole=True) == ctx
            done += 1
        assert done >= 10_000
