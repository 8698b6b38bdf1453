"""One-hole native contexts: well-formedness, verbatim plugging, and
the context-typing judgment against direct inference of the plugged
expression."""

import random

import pytest

from anthill.contexts import (
    ContextError,
    hole_binders,
    plug,
    type_context,
    validate_context,
)
from anthill.generate import gen_native_expr, gen_typed_program, gen_untyped_context
from anthill.harness import hole_envs
from anthill.parser import parse_upython
from anthill.translate import translate_program
from anthill.upython import (
    ClassTag,
    FunTag,
    IntTag,
    Pyobj,
    UCheck,
    UClass,
    UHole,
    UInt,
    ULam,
    ULet,
    UVar,
    is_value,
    walk,
)
from anthill.verify import TagError, infer, tag_subtype

PYOBJ = Pyobj()
INT_TAG = IntTag()


def count_holes(e):
    return sum(isinstance(n, UHole) for n in walk(e))


def ctx(src: str):
    return parse_upython(src, allow_hole=True)


# ---------------------------------------------------------------------------
# well-formedness


def test_exactly_one_hole():
    validate_context(ctx("HOLE(1)"))
    with pytest.raises(ContextError):
        validate_context(ctx("lambda(x): x"))
    with pytest.raises(ContextError):
        validate_context(ctx("HOLE(HOLE)"))


def test_contexts_are_native_only():
    validate_context(ctx("let f = HOLE in f(1)"))
    with pytest.raises(ContextError):
        validate_context(ctx("let f = HOLE in f(1)!"))
    with pytest.raises(ContextError):
        validate_context(ctx("HOLE.a!"))
    with pytest.raises(ContextError):
        validate_context(ctx("class! C() {a = HOLE} init lambda(s): 0"))


def test_a_context_holding_an_address_is_refused():
    c = parse_upython("HOLE(@0)", allow_hole=True, allow_addresses=True)
    with pytest.raises(ContextError) as err:
        validate_context(c)
    assert str(err.value) == "not a context form: @0"


def test_member_hole_requires_value_superclasses():
    validate_context(ctx("class C(lambda(x): x) {a = HOLE} init lambda(s): 0"))
    with pytest.raises(ContextError):
        validate_context(ctx("class C(f(1)) {a = HOLE} init lambda(s): 0"))
    # hole elsewhere puts no demand on the supers
    validate_context(ctx("class C(f(1)) {a = 2} init HOLE"))


_MEMBER_RULE = ("a class whose member holds the hole must have value "
                "superclasses")


@pytest.mark.parametrize("src", [
    # a class off the hole path
    "class C() {a = class D(f(1)) {b = 1} init lambda(s): 0, c = HOLE} "
    "init lambda(s): 0",
    # the hole in an inner class's superclass, or its constructor
    "class C() {a = class D(f(1), HOLE) {b = 1} init lambda(s): 0} "
    "init lambda(s): 0",
    "class C() {a = class D(f(1)) {b = 1} init HOLE} init lambda(s): 0",
])
def test_nested_classes_off_the_member_path_pass(src):
    validate_context(ctx(src))


@pytest.mark.parametrize("src, message", [
    # the inner class's member holds the hole
    ("class C() {a = class D(f(1)) {b = HOLE} init lambda(s): 0} "
     "init lambda(s): 0", _MEMBER_RULE),
    # the outer class's member holds it, through the inner class
    ("class C(f(1)) {a = class D() {b = HOLE} init lambda(s): 0} "
     "init lambda(s): 0", _MEMBER_RULE),
    # the first failing node in pre-order decides
    ("class C(f(1)) {a = HOLE.b!} init lambda(s): 0", _MEMBER_RULE),
    ("(class C(f(1)) {a = HOLE} init lambda(s): 0)(1)!",
     "context contains a translated-label call"),
])
def test_nested_class_errors_and_their_precedence(src, message):
    with pytest.raises(ContextError) as err:
        validate_context(ctx(src))
    assert str(err.value) == message


def test_generated_contexts_validate_and_respect_the_member_rule():
    rng = random.Random(9)
    for _ in range(400):
        g = gen_untyped_context(rng, rng.randint(1, 6))
        validate_context(g)
        for c in walk(g):
            if (isinstance(c, UClass)
                    and any(count_holes(m) for _, m in c.members)):
                assert all(is_value(s) for s in c.supers)


# ---------------------------------------------------------------------------
# plugging


def test_plug_is_verbatim_and_captures():
    c = ctx("lambda(x): HOLE")
    assert plug(c, UVar("x")) == ULam(("x",), UVar("x"))
    c2 = ctx("let y = 2 in HOLE")
    assert plug(c2, UVar("y")) == ULet("y", UInt(2), UVar("y"))


def test_plug_reaches_every_position():
    rng = random.Random(10)
    filler = UInt(77)
    for _ in range(300):
        g = gen_untyped_context(rng, rng.randint(1, 6))
        whole = plug(g, filler)
        assert count_holes(whole) == 0


def test_plugging_a_hole_gives_the_context_back():
    for i in range(2_000):
        c = gen_untyped_context(random.Random(i), 5)
        assert plug(c, UHole()) == c
        assert count_holes(plug(c, UInt(0))) == 0


def _plug_everywhere(c, e):
    if isinstance(c, UHole):
        return e
    return c.rebuild(tuple(_plug_everywhere(k, e) for k in c.children()))


def test_plug_rebuilds_only_the_hole_path():
    # the same program as a rebuild of every node, sharing each subtree
    # that holds no hole with the context
    rng = random.Random(11)
    filler = UInt(77)
    for _ in range(300):
        c = gen_untyped_context(rng, rng.randint(1, 6))
        whole = plug(c, filler)
        assert whole == _plug_everywhere(c, filler)
        stack = [(c, whole)]
        while stack:
            old, new = stack.pop()
            if count_holes(old) == 0:
                assert new is old
            elif not isinstance(old, UHole):
                stack.extend(zip(old.children(), new.children()))
    with pytest.raises(TagError):
        plug(UInt(1), filler)


# ---------------------------------------------------------------------------
# binders at the hole


@pytest.mark.parametrize("src, binders", [
    ("HOLE", ()),
    ("let y = HOLE in y", ()),  # a let's bound does not see its name
    ("let y = 1 in HOLE", ("y",)),
    ("lambda(x, y): lambda(): lambda(z): HOLE", ("x", "y", "z")),
    ("lambda(x): let x = 1 in HOLE", ("x", "x")),  # shadowed, still listed
    ("(lambda(z): z)(lambda(y): HOLE)", ("y",)),  # not the sibling's z
    ("lambda(s): class P() {a = HOLE} init lambda(v0): 0", ("s",)),
    ("class P() {a = 1} init HOLE", ()),
    ("class P(HOLE) {a = lambda(x): x} init lambda(v0): 0", ()),
    ("class P() {a = lambda(x): HOLE} init lambda(v0): 0", ("x",)),
])
def test_hole_binders_are_read_off_the_hole_path(src, binders):
    assert hole_binders(ctx(src)) == binders


def test_hole_binders_need_a_hole_and_no_recursion():
    with pytest.raises(TagError):
        hole_binders(UInt(1))
    deep = UHole()
    for i in range(5_000):
        deep = ULet(f"x{i}", UInt(i), deep)
    assert hole_binders(deep) == tuple(f"x{i}"
                                       for i in reversed(range(5_000)))


# ---------------------------------------------------------------------------
# context typing


def test_hole_is_the_identity_context():
    env = (("x", INT_TAG),)
    assert type_context(UHole(), env, FunTag(2)) == (env, FunTag(2))


def test_check_context_gives_its_tag():
    assert type_context(ctx("check(HOLE, int)"), (), PYOBJ) == ((), INT_TAG)


def test_lambda_context_strips_its_binders():
    out_env, tag = type_context(ctx("lambda(x): HOLE"), (("x", PYOBJ),),
                                INT_TAG)
    assert out_env == () and tag == FunTag(1)
    with pytest.raises(TagError):
        type_context(ctx("lambda(x): HOLE"), (), INT_TAG)  # binder missing


def test_binder_messages_name_the_binders():
    with pytest.raises(TagError) as lam:
        type_context(ULam(("x", "y"), UHole()), (("x", INT_TAG),), INT_TAG)
    assert str(lam.value) == ("context: hole environment does not end with "
                              "the lambda binders 'x', 'y' at pyobj")
    with pytest.raises(TagError) as let:
        type_context(ctx("let y = 1 in HOLE"), (), PYOBJ)
    assert str(let.value) == ("context: hole environment does not end with "
                              "the let binder 'y'")


def test_let_body_hole_checks_the_assumed_binder_tag():
    c = ctx("let y = 1 in HOLE")
    assert type_context(c, (("y", INT_TAG),), PYOBJ) == ((), PYOBJ)
    assert type_context(c, (("y", PYOBJ),), PYOBJ) == ((), PYOBJ)
    with pytest.raises(TagError):
        # the bound expression cannot deliver what the hole assumes
        type_context(c, (("y", FunTag(1)),), PYOBJ)


def test_let_bound_hole_types_the_body_under_the_hole_tag():
    c = ctx("let f = HOLE in f(1, 2)!")
    assert type_context(c, (), FunTag(2)) == ((), PYOBJ)
    with pytest.raises(TagError):
        type_context(c, (), FunTag(1))  # arity disagrees with the call


def test_a_failing_premise_at_the_hole_names_the_stand_in_check():
    # the context is typed with check(0, hole tag) in the hole
    with pytest.raises(TagError) as err:
        type_context(ctx("HOLE(1)!"), (), INT_TAG)
    assert str(err.value) == "app: needs fun[1], subexpression has int"
    assert err.value.subterm == UCheck(UInt(0), INT_TAG)


def test_context_tag_is_the_plugged_programs_principal_tag():
    # the hole assumes f at pyobj; the plugged program binds it to an
    # int, and its result reads f
    c = ctx("let f = 5 in let x = HOLE in f")
    assert type_context(c, (("f", PYOBJ),), FunTag(0)) == ((), INT_TAG)
    assert infer((), {}, plug(c, ULam((), UInt(0)))) == INT_TAG


def test_elimination_contexts_type_their_siblings():
    c = ctx("HOLE(zz)")
    with pytest.raises(TagError):
        type_context(c, (), PYOBJ)  # zz is unbound in the sibling slot
    env, tag = type_context(ctx("let zz = 1 in HOLE(zz)"),
                            (("zz", INT_TAG),), PYOBJ)
    assert env == () and tag == PYOBJ


def test_context_typing_is_principal_at_class_frames():
    # the hole as super, as constructor and as member of a native class
    for src in ("class P(HOLE) {a = 1} init lambda(v0): 0",
                "class P() {a = 1} init HOLE",
                "class P() {a = HOLE} init lambda(v0): 0"):
        c = ctx(src)
        want = infer((), {}, plug(c, UInt(1)))
        assert want == ClassTag({"a"}, None)
        assert type_context(c, (), INT_TAG) == ((), want), src


def test_context_typing_composes_with_plugging():
    rng = random.Random(11)
    done = 0
    for _ in range(500):
        g = gen_untyped_context(rng, rng.randint(1, 5))
        _, hole_env = hole_envs(hole_binders(g))
        if rng.random() < 0.5:
            filler = gen_native_expr(rng, hole_binders(g), rng.randint(1, 4))
        else:
            term, _ = gen_typed_program(rng, rng.randint(1, 4))
            filler, _ = translate_program(term)
        try:
            hole_tag = infer(hole_env, {}, filler)
        except TagError:
            continue
        outer_env, whole_tag = type_context(g, hole_env, hole_tag)
        assert outer_env == ()
        got = infer((), {}, plug(g, filler))
        assert tag_subtype(got, whole_tag), (g, filler)
        done += 1
    assert done > 300
