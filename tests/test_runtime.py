"""Small-step interpreter: reduction rules, evaluation order, error
outcomes, agreement of the heap metafunctions with their naive
transcriptions, and agreement of iterated step with run."""

import random
from pathlib import Path

import pytest

from anthill import harness, runtime
from anthill.contexts import plug
from anthill.generate import BINDER_POOL, gen_native_expr, gen_typed_program
from anthill.parser import parse_anthill, parse_upython
from anthill.printer import print_upython
from anthill.runtime import (
    CastError,
    ClassH,
    Heap,
    ObjH,
    OpenTermError,
    PyError,
    Stepped,
    Timeout,
    Value,
    check,
    getattr_,
    lookup,
    run,
    step,
    substitute,
    value_tag,
)
from anthill.upython import (
    NATIVE,
    TRANSLATED,
    ClassTag,
    FunTag,
    IntTag,
    ObjTag,
    UAddr,
    UApp,
    UClass,
    UGet,
    UHole,
    UInt,
    ULam,
    ULet,
    UPyExpr,
    UVar,
    is_value,
    tag_subtype,
    walk,
)
from anthill.translate import translate_program

from helpers import (
    HEAP_LABELS,
    build_diamond_heap,
    callable_with,
    package_subclasses,
    rand_layered_heap,
    rand_tag,
    rand_value,
    seeds,
)
from oracles import (
    alpha_normalize,
    o_check,
    o_getattr,
    o_hasattrs,
    o_lookup,
    o_param_match,
    o_substitute,
    tag_universe,
)


def run_src(src: str, heap: Heap | None = None, budget: int = 10_000):
    return run(parse_upython(src), heap, budget)


# ---------------------------------------------------------------------------
# reduction


def test_beta_reduction_and_let():
    out = run_src("(lambda(x, y): x)(1, 2)")
    assert isinstance(out, Value) and out.value == UInt(1)
    out = run_src("let x = 1 in lambda(x): x")
    assert out.value == ULam(("x",), UVar("x"))  # inner binder shadows


def test_application_arity_error_carries_the_call_label():
    out = run_src("(lambda(x): x)(1, 2)")
    assert isinstance(out, PyError) and out.label is NATIVE
    out = run_src("(lambda(x): x)(1, 2)!")
    assert isinstance(out, PyError) and out.label is TRANSLATED


def test_calling_a_number_fails():
    out = run_src("4(2)")
    assert isinstance(out, PyError) and out.label is NATIVE


def test_check_passes_through_or_stops():
    assert run_src("check(1, int)").value == UInt(1)
    assert isinstance(run_src("check(1, fun[0])"), CastError)
    assert run_src("check(1, pyobj)").value == UInt(1)


def test_free_variable_is_a_programming_error_not_an_outcome():
    with pytest.raises(OpenTermError):
        run_src("x")


def test_construction_allocates_then_runs_the_constructor():
    out = run_src("(class C() {} init lambda(s, v): s.a = v)(7)")
    assert isinstance(out, Value)
    assert isinstance(out.value, UAddr)
    obj = out.heap[out.value.addr]
    assert isinstance(obj, ObjH)
    assert obj.members == {"a": UInt(7)}


def test_constructor_arity_mismatch_is_a_call_error():
    out = run_src("(class C() {} init lambda(s): 0)(7, 8)!")
    assert isinstance(out, PyError) and out.label is TRANSLATED


def test_attribute_write_returns_zero_and_updates_in_place():
    out = run_src("let c = (class C() {f = 1} init lambda(s): 0) in c.f = 9")
    assert out.value == UInt(0)
    out = run_src(
        "let c = (class C() {f = 1} init lambda(s): 0) in "
        "let _ = (c.f = 9) in c.f")
    assert out.value == UInt(9)


def test_method_read_curries_the_receiver():
    heap, names = build_diamond_heap()
    inst = names["inst"]
    r = step(UGet(UAddr(inst), "m", NATIVE), heap)
    got = r.expr
    assert isinstance(got, ULam) and len(got.params) == 1
    out = run(UApp(UGet(UAddr(inst), "m", NATIVE), (UInt(5),), NATIVE), heap)
    assert out.value == UInt(5)


def test_heap_allocates_in_order_and_prints_its_records():
    heap = Heap()
    assert [heap.alloc(ObjH(0)), heap.alloc(ObjH(0))] == [0, 1]
    assert repr(heap) == ("Heap({0: ObjH(cls=0, members={}), "
                          "1: ObjH(cls=0, members={})})")


def test_curried_method_names_do_not_depend_on_earlier_runs():
    src = ("let o = (class C() {m = lambda(s, x): x} init lambda(s): 0)() in "
           "let a = o.m in o.m")
    texts = [print_upython(run_src(src).value) for _ in range(2)]
    assert texts == ["lambda($r0): (lambda(s, x): x)(@1, $r0)"] * 2


def test_object_local_members_are_returned_raw():
    heap = Heap()
    c = heap.alloc(ClassH((), {}, ULam(("s",), UInt(0))))
    o = heap.alloc(ObjH(c, {"m": ULam(("x", "y"), UVar("x"))}))
    r = step(UGet(UAddr(o), "m", NATIVE), heap)
    assert r.expr == ULam(("x", "y"), UVar("x"))  # no currying


def test_class_receiver_reads_are_raw():
    heap, names = build_diamond_heap()
    r = step(UGet(UAddr(names["top"]), "m", NATIVE), heap)
    assert isinstance(r.expr, ULam) and len(r.expr.params) == 2


def test_nullary_method_read_is_a_cast_error():
    out = run_src(
        "let c = (class C() {bad = lambda(): 7} init lambda(s): 0) in "
        "let o = c() in o.bad")
    assert isinstance(out, CastError)


def test_missing_member_error_carries_the_read_label():
    out = run_src("(class C() {} init lambda(s): 0)().zz!")
    assert isinstance(out, PyError) and out.label is TRANSLATED


def test_diamond_resolution_prefers_the_left_branch():
    heap, names = build_diamond_heap()
    out = run(UApp(UGet(UAddr(names["inst"]), "g", NATIVE), (), NATIVE), heap)
    assert out.value == UInt(1)  # the left g is nullary after currying


def test_class_literal_evaluates_supers_then_ctor_then_members():
    # a failing constructor slot masks a failing member slot
    out = run_src("class C() {a = 4(0)} init check(0, fun[0])")
    assert isinstance(out, CastError)
    # and a failing super masks both
    out = run_src("class C(check(0, obj{})) {a = 4(0)} init check(0, fun[0])")
    assert isinstance(out, CastError)
    out = run_src("class C() {a = check(0, obj{})} init lambda(s): 0")
    assert isinstance(out, CastError)


def test_class_literal_rejects_non_class_supers_and_bad_ctors():
    out = run_src("class C(1) {} init lambda(s): 0")
    assert isinstance(out, PyError) and out.label is NATIVE
    out = run_src("class! C() {} init 9")
    assert isinstance(out, PyError) and out.label is TRANSLATED


def test_divergence_hits_the_budget():
    out = run_src("(lambda(x): x(x))(lambda(x): x(x))", budget=50)
    assert isinstance(out, Timeout) and out.steps == 50


def test_substitution_respects_binders():
    assert substitute(ULam(("x",), UVar("x")), {"x": UInt(1)}) == ULam(
        ("x",), UVar("x"))
    assert substitute(ULet("y", UVar("x"), UVar("x")), {"x": UInt(2)}) == ULet(
        "y", UInt(2), UInt(2))
    assert substitute(ULet("x", UVar("x"), UVar("x")), {"x": UInt(3)}) == ULet(
        "x", UInt(3), UVar("x"))


def _substitution_cases():
    """(body, names) pairs: each lambda body of seed 7's first 300 fuzz
    targets under its parameters, then 1,000 native expressions under a
    drawn scope."""
    config = harness.TrialConfig()
    for i in range(300):
        _, binders, term = harness.draw_trial(harness.trial_seed(7, i), config)
        target, _, _ = harness.translate_into(binders, term)
        for lam in walk(target):
            if isinstance(lam, ULam):
                yield lam.body, lam.params
    rng = random.Random(1907)
    for _ in range(1000):
        scope = tuple(rng.sample(BINDER_POOL, rng.randint(0, 3)))
        yield gen_native_expr(rng, scope, rng.randint(1, 5)), scope


def _binders_in(e):
    return {x for n in walk(e)
            for x in (n.params if isinstance(n, ULam)
                      else (n.name,) if isinstance(n, ULet) else ())}


def test_substitution_agrees_with_the_oracle():
    rng = random.Random(1908)
    closed = (UInt(4), UAddr(0), ULam(("z",), UVar("z")), ULam((), UInt(1)))
    cases = shadowing = 0
    for body, names in _substitution_cases():
        inner = _binders_in(body)
        pool = sorted(set(names) | inner | {"q"})
        bound = rng.sample(pool, rng.randint(0, len(pool)))
        bindings = {x: rng.choice(closed) for x in bound}
        assert substitute(body, bindings) == o_substitute(body, bindings)
        cases += 1
        shadowing += bool(inner & bindings.keys())
    assert cases >= 2000 and shadowing >= 500, (cases, shadowing)


def test_substitution_shares_the_subterms_where_the_name_is_not_free():
    e = parse_upython("lambda(y): let z = y.a in check(z(y, 1), int)")
    assert substitute(e, {"x": UInt(5)}) is e
    assert substitute(e, {"y": UInt(5)}) is e
    body = parse_upython("let z = x in (lambda(x): x)(z.a)")
    out = substitute(body, {"x": UInt(5)})
    assert out is not body and out.bound == UInt(5) and out.body is body.body


def test_substitution_rebuilds_only_the_subterms_it_changes():
    # the substituted value is a leaf, as the variable it replaces is,
    # so the result's nodes line up with the body's in walk order; "q"
    # is bound nowhere, so it is free nowhere
    value = UInt(7)
    shared = rebuilt = 0
    for body, names in _substitution_cases():
        for x in (*names[:1], "q"):
            out = substitute(body, {x: value})
            assert out == o_substitute(body, {x: value})
            for old, new in zip(walk(body), walk(out), strict=True):
                assert (new is old) == (new == old), (old, new)
                shared += new is old
                rebuilt += new is not old
    assert shared >= 60_000 and rebuilt >= 10_000, (shared, rebuilt)


def test_every_expression_class_but_the_hole_has_a_substitution_rule():
    classes = package_subclasses(UPyExpr)
    assert {"UVar", "UClass", "UHole"} <= {c.__name__ for c in classes}
    assert classes - {UHole} == set(runtime._SUBST_RULES)
    hole = UHole()
    assert substitute(hole, {"x": UInt(1)}) is hole


# ---------------------------------------------------------------------------
# heap metafunctions against the naive transcriptions


def test_metafunctions_agree_on_random_heaps():
    labels = ("a", "b", "m", "zz")
    for seed in seeds(150):
        rng = random.Random(seed)
        heap = rand_layered_heap(rng)
        values = [rand_value(rng, heap) for _ in range(6)]
        addrs = [a for a in heap]
        for v in values:
            for _ in range(4):
                tag = rand_tag(rng, labels=("a", "b", "m"))
                assert check(v, heap, tag) == o_check(heap, v, tag)
            for c in (None, 0, 1, 2, 3):
                assert callable_with(v, heap, c) == o_param_match(heap, v, c)
            arity = getattr(value_tag(v, heap), "arity", None)
            for c in range(5):
                assert (arity == c) == o_param_match(heap, v, c)
        for a in addrs:
            for x in labels:
                assert getattr_(a, x, heap) == o_getattr(heap, a, x)
                assert (check(UAddr(a), heap, ObjTag((x,)))
                        == o_hasattrs(heap, a, (x,)))
                want = o_lookup(heap, a, x, NATIVE)
                got = lookup(a, x, heap, NATIVE)
                if want[0] == "found":
                    assert isinstance(got, Stepped) and got.rule == "EGet1"
                    assert alpha_normalize(got.expr) == alpha_normalize(want[1])
                elif want[0] == "absent":
                    assert got == PyError(NATIVE, 1, "EGet3")
                else:
                    assert got == CastError(1, "EGet2")


def test_class_creation_accepts_what_the_value_tag_allows():
    # criterion 6's heaps: a superclass must have a class tag, and a
    # constructor a function or class tag
    rng = random.Random(66001)
    ok_ctor = ULam(("s",), UInt(0))
    compared = 0
    for i in range(300):
        heap = build_diamond_heap()[0] if i % 10 == 0 \
            else rand_layered_heap(rng)
        values = [UAddr(a) for a in range(len(heap) + 2)]  # two dangling
        values += [rand_value(rng, heap) for _ in range(4)]
        for v in values:
            tag = value_tag(v, heap)
            as_super = step(UClass("C", (v,), (), ok_ctor), Heap(heap))
            assert (isinstance(as_super, Stepped)
                    == isinstance(tag, ClassTag)), (v, tag)
            as_ctor = step(UClass("C", (), (), v), Heap(heap))
            assert (isinstance(as_ctor, Stepped)
                    == isinstance(tag, (FunTag, ClassTag))), (v, tag)
            for r in (as_super, as_ctor):
                assert r.rule in ("EClass", "EClass3")
            compared += 1
    assert compared >= 2_000


def test_dangling_superclass_adds_no_members():
    # the object's class is in the heap, but its superclass is not
    heap = Heap()
    c = heap.alloc(ClassH((9,), {"a": UInt(1)}, ULam(("s",), UInt(0))))
    o = heap.alloc(ObjH(c, {"own": UInt(2)}))
    assert getattr_(o, "own", heap) == UInt(2)
    assert getattr_(o, "a", heap) == UInt(1)
    assert getattr_(o, "zz", heap) is None
    assert getattr_(c, "zz", heap) is None
    assert value_tag(UAddr(o), heap) == ObjTag({"a", "own"})
    assert value_tag(UAddr(c), heap) == ClassTag({"a"}, 0)


def test_check_is_the_tag_order_over_the_value_tag():
    universe = tag_universe(HEAP_LABELS + ("g", "own"))
    heaps = [rand_layered_heap(random.Random(seed)) for seed in seeds(40)]
    heaps.append(build_diamond_heap()[0])
    compared = 0
    for heap in heaps:
        values = [UAddr(a) for a in range(len(heap) + 2)]  # two dangling
        values += [UInt(4), ULam((), UInt(0)), ULam(("x", "y"), UVar("x"))]
        for v in values:
            own = value_tag(v, heap)
            assert o_check(heap, v, own), (v, own)
            for t in universe:
                want = tag_subtype(own, t)
                assert o_check(heap, v, t) == want, (v, t)
                assert check(v, heap, t) == want, (v, t)
                compared += 1
    assert compared >= 100_000


def test_check_examples():
    heap, names = build_diamond_heap()
    join, inst = UAddr(names["join"]), UAddr(names["inst"])
    assert check(UInt(3), heap, IntTag())
    assert not check(UInt(3), heap, FunTag(0))
    assert check(inst, heap, ObjTag({"m", "g", "h", "own"}))
    assert not check(inst, heap, ObjTag({"nope"}))
    # a class passes function checks through its constructor's arity
    assert check(join, heap, FunTag(2))
    assert not check(join, heap, FunTag(1))
    # and obj checks, since classes have attributes too
    assert check(join, heap, ObjTag({"m", "g"}))


# ---------------------------------------------------------------------------
# stepping and running: two drivers of one decomposition

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
AGREE_BUDGET = 2_000


def _by_stepping(e):
    """Iterate step to an outcome: its description and the rules fired."""
    heap, rules = Heap(), []
    while not is_value(e):
        if len(rules) >= AGREE_BUDGET:
            return ("timeout", len(rules)), rules
        r = step(e, heap)
        if isinstance(r, CastError):
            return ("casterror", len(rules) + r.steps, r.rule), rules
        if isinstance(r, PyError):
            return ("pyerror", len(rules) + r.steps, r.label, r.rule), rules
        rules.append(r.rule)
        e = r.expr
    return ("value", len(rules), print_upython(alpha_normalize(e)),
            len(heap)), rules


def _by_running(e):
    rules = []
    out = run(e, budget=AGREE_BUDGET,
              on_step=lambda i, rule, size: rules.append(rule))
    if isinstance(out, Value):
        return ("value", out.steps, print_upython(alpha_normalize(out.value)),
                len(out.heap)), rules
    if isinstance(out, CastError):
        return ("casterror", out.steps, out.rule), rules
    if isinstance(out, PyError):
        return ("pyerror", out.steps, out.label, out.rule), rules
    return ("timeout", out.steps), rules


def _corpus():
    """Each example program by file name, translated, and plugged with
    the typed library where it is a context."""
    lib = translate_program(
        parse_anthill((PROGRAMS / "typed_call_lib.ant").read_text()))[0]
    corpus = {}
    for path in sorted(PROGRAMS.iterdir()):
        text = path.read_text()
        if path.suffix == ".ant":
            corpus[path.name] = translate_program(parse_anthill(text))[0]
        elif "HOLE" in text:
            corpus[path.name] = plug(parse_upython(text, allow_hole=True), lib)
        else:
            corpus[path.name] = parse_upython(text)
    return corpus


def _fuzz_programs(monkeypatch, seed, count):
    programs = []

    def capture(e, **kwargs):
        programs.append(e)
        return Timeout(0)
    monkeypatch.setattr(harness, "run", capture)
    for i in range(count):
        harness.soundness_trial(harness.trial_seed(seed, i))
    monkeypatch.undo()
    return programs


def test_stepping_and_running_agree(monkeypatch):
    rng = random.Random(8086)
    omega = parse_upython("(lambda(x): x(x))(lambda(x): x(x))")
    programs = [omega, *_corpus().values(),
                *_fuzz_programs(monkeypatch, 163, 600),
                *(translate_program(gen_typed_program(rng, 3 + i % 4)[0])[0]
                  for i in range(240))]
    kinds = set()
    for e in programs:
        outcome, rules = _by_running(e)
        assert _by_stepping(e) == (outcome, rules)
        kinds.add(outcome[0])
    assert kinds == {"value", "casterror", "pyerror", "timeout"}


# ---------------------------------------------------------------------------
# error outcomes name the rule that raised them

PROGRAM_ERROR_RULES = {
    "bad_call_context.upy": "ECheck2",
    "class_late_init.ant": "ECheck2",
    "point2d_early_read.ant": "ECheck2",
    "read_missing_attr.ant": "ECheck2",
    "native_call_error.upy": "EApp3",
    "translated_call_error.upy": "EApp3",
    "untyped_call.upy": "EApp3",
}

SNIPPET_ERROR_RULES = {
    # a nullary method read through an object cannot take the receiver
    "let c = (class C() {bad = lambda(): 7} init lambda(s): 0) in "
    "let o = c() in o.bad": "EGet2",
    "(class C() {} init lambda(s): 0)().zz!": "EGet3",
    "1.zz": "EGet3",
    "1.a = 2": "ESet4",
    "class C(1) {} init lambda(s): 0": "EClass3",
    "class! C() {} init 9": "EClass3",
}


def _error_rules(e):
    """The rule that run's error outcome names, and the one that the
    last step names when step is iterated."""
    out = run(e, budget=AGREE_BUDGET)
    heap = Heap()
    for _ in range(AGREE_BUDGET):
        r = step(e, heap)
        if not isinstance(r, Stepped):
            break
        e = r.expr
    assert isinstance(r, (CastError, PyError)) and r.steps == 1
    assert isinstance(out, type(r)) and out.kind == r.kind
    return out.rule, r.rule


def test_program_error_outcomes_name_their_rule():
    corpus = _corpus()
    for name, rule in PROGRAM_ERROR_RULES.items():
        assert _error_rules(corpus[name]) == (rule, rule), name


def test_snippet_error_outcomes_name_their_rule():
    for src, rule in SNIPPET_ERROR_RULES.items():
        assert _error_rules(parse_upython(src)) == (rule, rule), src
