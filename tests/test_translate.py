"""Type-directed translation: golden outputs for every insertion rule,
static rejections, and the guarantee that translated code verifies at
the tag image of its static type."""

import random
from pathlib import Path

import pytest

from anthill import translate
from anthill.core import DYN, AnthillTerm, tag_of
from anthill.generate import gen_type, gen_typed_program, gen_typed_term
from anthill.harness import (TrialConfig, draw_trial, translate_into,
                             trial_seed)
from anthill.parser import parse_anthill, parse_upython
from anthill.printer import print_anthill_type, print_upython
from anthill.translate import StaticTypeError, translate_program, translate_term
from anthill.upython import (TRANSLATED, UApp, UClass, UGet, UHole, USet,
                             walk)
from anthill.verify import verifies

from helpers import package_subclasses


def translated(src: str):
    return translate_program(parse_anthill(src))


def expect(src: str, target: str, ty: str):
    e, t = translated(src)
    assert e == parse_upython(target), print_upython(e)
    assert print_anthill_type(t) == ty


# ---------------------------------------------------------------------------
# goldens, one per insertion rule


def test_typed_function_rebinds_every_parameter():
    expect("fun(x: int) -> int: x",
           "lambda(x): let x = check(x, int) in x",
           "(int) -> int")


def test_dynamic_parameters_are_rebound_too():
    expect("fun(f: dyn) -> dyn: f(1)",
           "lambda(f): let f = check(f, pyobj) in check(f, fun[1])(1)!",
           "(dyn) -> dyn")


def test_call_through_function_type_checks_the_result():
    expect("fun(f: (int) -> int) -> int: f(42)",
           "lambda(f): let f = check(f, fun[1]) in check(f(42)!, int)",
           "((int) -> int) -> int")


def test_call_through_dyn_checks_the_callee_arity():
    e, ty = translated("fun(f: dyn) -> dyn: f(1, 2)")
    assert e == parse_upython(
        "lambda(f): let f = check(f, pyobj) in check(f, fun[2])(1, 2)!")
    assert ty.ret is DYN or ty.ret == DYN


def test_read_of_declared_member_checks_the_result():
    expect("fun(o: obj P open {a: int}) -> int: o.a",
           "lambda(o): let o = check(o, obj{a}) in check(o.a!, int)",
           "(obj P open {a: int}) -> int")


def test_read_through_dyn_checks_the_subject():
    expect("fun(o: dyn) -> dyn: o.a",
           "lambda(o): let o = check(o, pyobj) in check(o, obj{a}).a!",
           "(dyn) -> dyn")


def test_write_of_declared_member_checks_the_value():
    expect("fun(o: obj P open {a: int}) -> int: o.a = 5",
           "lambda(o): let o = check(o, obj{a}) in o.a! = check(5, int)",
           "(obj P open {a: int}) -> int")


def test_write_through_dyn_checks_the_subject_not_the_value():
    expect("fun(o: dyn) -> int: o.a = 5",
           "lambda(o): let o = check(o, pyobj) in check(o, obj{}).a! = 5",
           "(dyn) -> int")


def test_wildcard_parameter_gets_no_rebinding():
    expect("fun(_: int) -> int: 0", "lambda(_): 0", "(int) -> int")


def test_class_translation_shape():
    src = ("class C() [open; {m: (dyn, int) -> int}; {x: int}] "
           "{ m = meth(self, v: int) -> int: v; "
           "init = ctor(self, y: int): self.x = y }")
    want = ("class! C(){m = lambda(self, v): "
            "let self = check(self, obj{m, x}) in "
            "let v = check(v, int) in v} "
            "init lambda(self, y): let y = check(y, int) in "
            "check(self, obj{}).x! = y")
    e, ty = translated(src)
    assert e == parse_upython(want), print_upython(e)
    # methods see the receiver at the instance type; constructors see it
    # dynamically, so the write above went through the subject check
    assert print_anthill_type(ty) == (
        "class C open {m: (dyn, int) -> int}{x: int}(int)")


def test_superclass_expressions_are_checked_as_classes():
    src = ("let base = (class B() [open; {f: int}; {}] "
           "{ f = 3; init = ctor(_): 0 }) in "
           "class C(base) [open; {f: int}; {}] { init = ctor(_): 0 }")
    e, _ = translated(src)
    sup = e.body.supers[0]
    assert print_upython(sup) == "check(base, class{f}[any])"


def test_methods_precede_fields_in_emitted_members():
    src = ("class C() [open; {f: int, m: (dyn) -> int}; {}] "
           "{ f = 1; m = meth(self) -> int: 2; init = ctor(_): 0 }")
    e, _ = translated(src)
    assert [name for name, _ in e.members] == ["m", "f"]


# ---------------------------------------------------------------------------
# rejections


@pytest.mark.parametrize("src,family", [
    ("x", "var"),
    ("fun(f: (int) -> int) -> int: f(1, 2)", "app"),
    ("fun(f: (int) -> int) -> int: f(f)", "app"),
    ("fun(x: int) -> int: x(1)", "app"),
    ("fun(o: obj P closed {a: int}) -> dyn: o.b", "get"),
    ("fun(o: obj P closed {a: int}) -> int: o.b = 1", "set"),
    ("fun(o: obj P open {a: int}) -> int: o.a = (fun(x: int) -> int: x)",
     "set"),
    ("fun(x: int) -> int: x.a", "get"),
    ("fun(x: (int) -> int) -> int: x", "fun"),
    ("fun(x: int, x: int) -> int: x", "params"),
    ("class C() [open; {m: int}; {}] { init = ctor(_): 0 }", "class"),
    ("class C() [open; {m: int}; {}] "
     "{ m = meth(_) -> int: 0; init = ctor(_): 0 }", "class"),
])
def test_static_rejections(src, family):
    with pytest.raises(StaticTypeError) as err:
        translated(src)
    assert err.value.rule == family


@pytest.mark.parametrize("src,message", [
    ("class C() [closed; {m: int}; {}] "
     "{ m = meth(self, x: int) -> int: x; init = ctor(self): 0 }",
     "class: definition of 'm' has type (dyn, int) -> int, which does not "
     "flow into declared int"),
    ("fun(x: int) -> int: x(1)", "app: call of non-function type int"),
    ("fun(c: class C open {}{}(int)) -> int: c(c)",
     "app: argument type class C open {}{}(int) does not flow into "
     "parameter type int"),
    ("fun(x: int) -> (int) -> int: x",
     "fun: body type int does not flow into declared return type "
     "(int) -> int"),
    ("fun(o: obj P closed {a: int}) -> dyn: o.b",
     "get: no member 'b' on closed type obj P closed {a: int}"),
    ("fun(x: int) -> int: x.a", "get: type int has no attributes"),
    # the value is translated only once the member is known, so the
    # unbound z is never reached
    ("fun(o: obj P closed {a: int}) -> int: o.b = z",
     "set: no member 'b' on closed type obj P closed {a: int}"),
    ("fun(x: int) -> int: x.a = z", "set: type int has no attributes"),
    ("fun(o: obj P open {a: int}) -> int: o.a = (fun(x: int) -> int: x)",
     "set: value type (int) -> int does not flow into member 'a' of type "
     "int"),
])
def test_static_error_messages_print_types_in_concrete_syntax(src, message):
    with pytest.raises(StaticTypeError) as err:
        translated(src)
    assert str(err.value) == message


def test_wildcard_may_repeat_where_names_may_not():
    translated("fun(_: int, _: dyn) -> int: 0")
    with pytest.raises(StaticTypeError):
        translated("fun(x: int, x: dyn) -> int: 0")


# ---------------------------------------------------------------------------
# the translated-code guarantee


def test_translated_terms_verify_at_their_tag_image():
    rng = random.Random(2024)
    for _ in range(400):
        term, goal = gen_typed_program(rng, depth=rng.randint(1, 6))
        target, ty = translate_program(term)
        assert ty == goal
        assert verifies((), {}, target, tag_of(ty))


def test_translation_under_an_environment_verifies_under_its_image():
    rng = random.Random(2025)
    for _ in range(300):
        names = ("u", "v", "w")[:rng.randint(1, 3)]
        env = {n: gen_type(rng, rng.randint(1, 3)) for n in names}
        goal = gen_type(rng, rng.randint(1, 3))
        term = gen_typed_term(rng, env, goal, depth=rng.randint(1, 4))
        target, ty = translate_term(env, term)
        assert ty == goal
        tag_env = tuple((n, tag_of(t)) for n, t in env.items())
        assert verifies(tag_env, {}, target, tag_of(ty))


def test_every_form_a_translation_emits_carries_the_translated_label():
    # the label is what blames a runtime error on translated code, so one
    # native-labelled form in a target would hide a soundness violation
    targets = []
    for i in range(2000):
        _, binders, term = draw_trial(trial_seed(0, i), TrialConfig())
        targets.append(translate_into(binders, term)[0])
    programs = Path(__file__).resolve().parent.parent / "programs"
    for path in sorted(programs.glob("*.ant")):
        targets.append(translated(path.read_text())[0])
    rng = random.Random(21)
    for i in range(20):
        term = gen_typed_program(rng, 3 + i % 5)[0]
        targets.append(translate_program(term)[0])
    forms = [e for t in targets for e in walk(t)
             if type(e) in (UApp, UGet, USet, UClass)]
    assert len(forms) >= 30_000
    assert [e for e in forms if e.label is not TRANSLATED] == []


def test_every_term_class_has_a_translation_rule():
    classes = package_subclasses(AnthillTerm)
    assert {"Var", "App", "ClassDecl"} <= {c.__name__ for c in classes}
    assert classes == set(translate._TERM_RULES)
    # a hole, a type and a non-node are not terms
    for t in (UHole(), DYN, object()):
        with pytest.raises(StaticTypeError) as err:
            translate_term({}, t)
        assert err.value.rule == "term"
        assert str(err.value) == f"term: not a term: {t!r}"
