"""Stack use of the structural traversals: a 600-deep chain of a
single-child form fits under the default recursion limit only while
each traversal takes at most one Python frame per level of nesting.
Translation and inference take one through their rule tables. Check
erasure and the interpreter take none: a check chain 5,000 deep
erases, and a redex under 5,000 frames steps and runs."""

import dataclasses

import pytest

from anthill.contexts import plug, validate_context
from anthill.core import DYN, Get, IntLit, Let, Var
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


def _shape(e):
    # each node's type and non-expression fields, parents first: a
    # structural comparison that, unlike ==, does not recurse
    out, stack = [], [e]
    while stack:
        n = stack.pop()
        values = [getattr(n, f.name) for f in dataclasses.fields(n)]
        out.append((type(n), [v for v in values
                              if not isinstance(v, UPyExpr)]))
        stack.extend(v for v in reversed(values) if isinstance(v, UPyExpr))
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


# the forms whose translation or inference rule recurses straight back
# into the rule table, at one frame per level; the native get and a
# call's argument list take a second frame
@pytest.mark.parametrize("form", ["check", "lambda-body", "let-body"])
def test_deep_chains_infer(form):
    chain = _chain(SINGLE_CHILD_FORMS[form], UInt(5))
    assert verifies((), {}, chain, PYOBJ)


@pytest.mark.parametrize("wrap", [lambda t: Let("y", IntLit(1), t),
                                  lambda t: Get(t, "m")],
                         ids=["let-body", "get"])
def test_deep_chains_translate(wrap):
    assert translate_term({"x": DYN}, _chain(wrap, Var("x")))[1] == DYN


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
