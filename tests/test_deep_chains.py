"""Stack use of the structural traversals: a 600-deep chain through
any child slot fits under the default recursion limit only while each
traversal takes at most one Python frame per level of nesting.
Translation, inference and substitution take one through their rule
tables, whichever slot the chain goes through: a subexpression that
inference demands at pyobj is typed by its own rule, called straight,
and a list of children is substituted by a loop in the rule's frame.
Both printers take one through any child slot of a target expression,
and through a source let body, get, callee and call argument: each
has one postfix rule that prints its subject, and a call's arguments
in a loop, in its own frame. Check erasure and the interpreter take
none: a check chain 5,000 deep erases, and a redex under 5,000 frames
steps and runs."""

import dataclasses

import pytest

from anthill.contexts import plug, validate_context
from anthill.core import DYN, App, Get, IntLit, Let, Var
from anthill.printer import print_anthill_term, print_upython
from anthill.runtime import ClassH, Heap, ObjH, Stepped, Value, run, step, \
    substitute
from anthill.upython import PYOBJ, UAddr, UApp, UCheck, UClass, UGet, UHole, \
    UInt, ULam, ULet, UPyExpr, USet, UVar, erase_checks
from anthill.translate import translate_term
from anthill.verify import verifies

DEPTH = 600

SINGLE_CHILD_FORMS = {
    "get": lambda e: UGet(e, "m"),
    "check": lambda e: UCheck(e, PYOBJ),
    "lambda-body": lambda e: ULam(("y",), e),
    "let-body": lambda e: ULet("y", UInt(1), e),
}


def _chain(wrap, leaf, depth=DEPTH):
    for _ in range(depth):
        leaf = wrap(leaf)
    return leaf


def _data(v):
    # a field with each expression in it blanked out
    if isinstance(v, UPyExpr):
        return None
    if isinstance(v, tuple):
        return tuple(map(_data, v))
    return v


def _shape(e):
    # each node's type and fields with the expressions blanked, parents
    # first: a structural comparison that, unlike ==, does not recurse
    out, stack = [], [e]
    while stack:
        n = stack.pop()
        out.append((type(n), [_data(getattr(n, f.name))
                              for f in dataclasses.fields(n)]))
        stack.extend(reversed(n.children()))
    return out


@pytest.mark.parametrize("form", sorted(SINGLE_CHILD_FORMS))
def test_deep_chains_substitute_plug_and_validate(form):
    wrap = SINGLE_CHILD_FORMS[form]
    filler = UInt(5)
    expected = _shape(_chain(wrap, filler))
    assert _shape(substitute(_chain(wrap, UVar("x")), {"x": filler})) == \
        expected
    ctx = _chain(wrap, UHole())
    validate_context(ctx)
    assert _shape(plug(ctx, filler)) == expected


@pytest.mark.parametrize("form", sorted(SINGLE_CHILD_FORMS))
def test_deep_chains_erase_checks(form):
    wrap = SINGLE_CHILD_FORMS[form]
    checked = _chain(lambda e: wrap(UCheck(e, PYOBJ)), UInt(5))
    bare = UInt(5) if form == "check" else _chain(wrap, UInt(5))
    assert _shape(erase_checks(checked)) == _shape(bare)


# a form with more than one child, by the slot the chain goes through;
# x fills its other slots
MULTI_CHILD_POSITIONS = {
    "call-callee": lambda e, x: UApp(e, (x,)),
    "call-argument": lambda e, x: UApp(x, (x, e)),
    "set-value": lambda e, x: USet(x, "m", e),
    "class-member": lambda e, x: UClass("C", (), (("m", e),), x),
    "set-subject": lambda e, x: USet(e, "m", x),
    "class-super": lambda e, x: UClass("C", (e,), (), x),
}


@pytest.mark.parametrize("position", sorted(MULTI_CHILD_POSITIONS))
def test_deep_chains_substitute(position):
    wrap = MULTI_CHILD_POSITIONS[position]
    x, filler = UVar("x"), UInt(5)
    chain = _chain(lambda e: wrap(e, x), x)
    expected = _shape(_chain(lambda e: wrap(e, filler), filler))
    assert _shape(substitute(chain, {"x": filler})) == expected


@pytest.mark.parametrize("form", ["check", "get", "lambda-body", "let-body"])
def test_deep_chains_infer(form):
    chain = _chain(SINGLE_CHILD_FORMS[form], UInt(5))
    assert verifies((), {}, chain, PYOBJ)


@pytest.mark.parametrize("position", sorted(MULTI_CHILD_POSITIONS))
def test_deep_chains_infer_through_a_second_child(position):
    wrap = MULTI_CHILD_POSITIONS[position]
    assert verifies((), {}, _chain(lambda e: wrap(e, UInt(1)), UInt(5)),
                    PYOBJ)


# source forms by the slot the chain goes through
ANTHILL_FORMS = {
    "let-body": lambda t: Let("y", IntLit(1), t),
    "get": lambda t: Get(t, "m"),
    "call-callee": lambda t: App(t, (IntLit(1),)),
    "call-argument": lambda t: App(Var("x"), (IntLit(1), t)),
}


@pytest.mark.parametrize("form", sorted(ANTHILL_FORMS))
def test_deep_chains_translate(form):
    chain = _chain(ANTHILL_FORMS[form], Var("x"))
    assert translate_term({"x": DYN}, chain)[1] == DYN


# each form's printed text around its chained child's, 1 filling the
# other slots of a form with more than one child
PRINTED = {
    "get": "{}.m", "check": "check({}, pyobj)",
    "lambda-body": "lambda(y): {}", "let-body": "let y = 1 in {}",
    "call-callee": "{}(1)", "call-argument": "1(1, {})",
    "set-value": "1.m = {}", "class-member": "class C(){{m = {}}} init 1",
    "set-subject": "({}).m = 1", "class-super": "class C({}){{}} init 1",
}
ANTHILL_PRINTED = {"let-body": "let y = 1 in {}", "get": "{}.m",
                   "call-callee": "{}(1)", "call-argument": "x(1, {})"}


def _printed(fmt, first):
    # the text of a DEPTH-deep chain whose innermost level prints first
    text = first
    for _ in range(DEPTH - 1):
        text = fmt.format(text)
    return text


@pytest.mark.parametrize("form", sorted(PRINTED))
def test_deep_chains_print(form):
    def wrap(e):
        if form in SINGLE_CHILD_FORMS:
            return SINGLE_CHILD_FORMS[form](e)
        return MULTI_CHILD_POSITIONS[form](e, UInt(1))

    first = print_upython(wrap(UInt(5)))
    assert print_upython(_chain(wrap, UInt(5))) == \
        _printed(PRINTED[form], first)


@pytest.mark.parametrize("form", sorted(ANTHILL_PRINTED))
def test_deep_chains_print_anthill(form):
    wrap = ANTHILL_FORMS[form]
    first = print_anthill_term(wrap(Var("x")))
    assert print_anthill_term(_chain(wrap, Var("x"))) == \
        _printed(ANTHILL_PRINTED[form], first)


REDEX_DEPTH = 5000


def test_check_chain_under_5000_lambdas_erases():
    # each level a lambda whose body is a check: 10,000 nodes deep
    checked = _chain(lambda e: ULam(("x",), UCheck(e, PYOBJ)), UVar("x"),
                     REDEX_DEPTH)
    bare = _chain(lambda e: ULam(("x",), e), UVar("x"), REDEX_DEPTH)
    assert _shape(erase_checks(checked)) == _shape(bare)
ID = ULam(("x",), UVar("x"))
CTOR = ULam(("self",), UInt(0))
OBJ = UAddr(1)   # an object of the class at address 0, see _heap

# Each form puts its argument in one evaluation position, and once that
# holds a value v the form takes one step to the value it is given for:
# (wrap, the leaf redex, its rule, the value of the whole chain).
EVALUATION_POSITIONS = {
    "let-bound": (lambda e: ULet("y", e, UVar("y")),
                  UCheck(UInt(7), PYOBJ), "ECheck1", UInt(7)),
    "app-callee": (lambda e: UApp(e, (ID,)),
                   UCheck(ID, PYOBJ), "ECheck1", ID),
    "app-argument": (lambda e: UApp(ID, (e,)),
                     UCheck(UInt(7), PYOBJ), "ECheck1", UInt(7)),
    "check-subject": (lambda e: UCheck(e, PYOBJ),
                      UCheck(UInt(7), PYOBJ), "ECheck1", UInt(7)),
    "set-value": (lambda e: USet(OBJ, "m", e),
                  UCheck(UInt(7), PYOBJ), "ECheck1", UInt(0)),
    "class-super": (lambda e: UClass("C", (e,), (), CTOR),
                    UClass("C", (), (), CTOR), "EClass",
                    UAddr(2 + REDEX_DEPTH)),
}


def _heap():
    heap = Heap()
    heap.alloc(ClassH((), {}, CTOR))
    heap.alloc(ObjH(0))
    return heap


@pytest.mark.parametrize("position", sorted(EVALUATION_POSITIONS))
def test_deep_redex_steps_and_runs(position):
    wrap, leaf, rule, value = EVALUATION_POSITIONS[position]
    term = _chain(wrap, leaf, REDEX_DEPTH)
    r = step(term, _heap())
    assert isinstance(r, Stepped) and r.rule == rule
    out = run(term, _heap())
    assert isinstance(out, Value) and out.steps == REDEX_DEPTH + 1
    assert _shape(out.value) == _shape(value)
