"""Stack use of the structural traversals: a 600-deep chain of a
single-child form fits under the default recursion limit only while
each traversal takes at most one Python frame per level of nesting."""

import dataclasses

import pytest

from anthill.contexts import plug, validate_context
from anthill.runtime import substitute
from anthill.upython import PYOBJ, UCheck, UGet, UHole, UInt, ULam, ULet, \
    UPyExpr, UVar

DEPTH = 600

SINGLE_CHILD_FORMS = {
    "get": lambda e: UGet(e, "m"),
    "check": lambda e: UCheck(e, PYOBJ),
    "lambda-body": lambda e: ULam(("y",), e),
    "let-body": lambda e: ULet("y", UInt(1), e),
}


def _chain(wrap, leaf):
    for _ in range(DEPTH):
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
