"""The child-slot view of μPython nodes: `children`, `rebuild` and
`walk`."""

import dataclasses
import random
from collections import Counter

import pytest

from anthill import core, runtime, upython
from anthill.core import OPEN, ClassDecl, Constructor, IntLit, Method, attrs
from anthill.generate import gen_typed_program, gen_untyped_context
from anthill.translate import translate_program
from anthill.upython import (
    PYOBJ,
    TRANSLATED,
    UAddr,
    UApp,
    UCheck,
    UClass,
    UGet,
    UHole,
    UInt,
    ULam,
    ULet,
    UPyExpr,
    USet,
    UVar,
    walk,
)


def _corpus(n=200):
    rng = random.Random(2)
    for _ in range(n):
        yield gen_untyped_context(rng, rng.randint(1, 6))
        term, _ = gen_typed_program(rng, rng.randint(1, 5))
        yield translate_program(term)[0]


def _field_subterms(e):
    # the direct subexpressions, read off the dataclass fields rather
    # than through the view under test
    out = []
    for f in dataclasses.fields(e):
        v = getattr(e, f.name)
        items = v if isinstance(v, tuple) else (v,)
        for item in items:
            if isinstance(item, tuple):   # a (label, member) pair
                item = item[1]
            if isinstance(item, UPyExpr):
                out.append(item)
    return out


def test_rebuild_of_children_is_the_identity():
    for root in _corpus():
        for e in walk(root):
            assert e.rebuild(e.children()) == e


def test_rebuild_puts_each_child_back_in_its_slot():
    for root in _corpus(50):
        for e in walk(root):
            fresh = tuple(UInt(i) for i in range(len(e.children())))
            rebuilt = e.rebuild(fresh)
            assert type(rebuilt) is type(e)
            assert rebuilt.children() == fresh


def test_children_are_in_evaluation_order():
    a, b, c, d = UVar("a"), UVar("b"), UVar("c"), UVar("d")
    expected = [
        (UVar("x"), ()),
        (UInt(3), ()),
        (UAddr(0), ()),
        (UHole(), ()),
        (ULam(("x", "y"), a), (a,)),
        (UApp(a, (b, c), TRANSLATED), (a, b, c)),
        (UGet(a, "m"), (a,)),
        (USet(a, "m", b), (a, b)),
        (ULet("x", a, b), (a, b)),
        (UCheck(a, PYOBJ), (a,)),
        (UClass("C", (a, b), (("p", c), ("q", d)), UInt(0)),
         (a, b, UInt(0), c, d)),
    ]
    for e, kids in expected:
        assert e.children() == kids, e


def test_class_rebuild_keeps_member_labels():
    e = UClass("C", (UVar("s"),), (("p", UInt(1)), ("q", UInt(2))),
               UVar("k"), TRANSLATED)
    kids = (UInt(10), UInt(11), UInt(12), UInt(13))
    assert e.rebuild(kids) == UClass(
        "C", (UInt(10),), (("p", UInt(12)), ("q", UInt(13))), UInt(11),
        TRANSLATED)


def test_walk_yields_every_node_exactly_once():
    for root in _corpus():
        expected = Counter()
        stack = [root]
        while stack:
            e = stack.pop()
            expected[id(e)] += 1
            stack.extend(_field_subterms(e))
        seen = list(walk(root))
        assert Counter(map(id, seen)) == expected
        assert seen[0] is root


def test_walk_visits_parents_first_in_evaluation_order():
    e = UApp(ULet("x", UInt(1), UVar("x")), (UGet(UVar("o"), "m"),))
    assert list(walk(e)) == [
        e, e.fn, UInt(1), UVar("x"), e.args[0], UVar("o")]


# ---------------------------------------------------------------------------
# the node contract: every frozen dataclass of the three modules that
# build nodes, found by scanning them


def _node_classes():
    return sorted(
        (c for m in (core, upython, runtime) for c in vars(m).values()
         if isinstance(c, type) and c.__module__ == m.__name__
         and dataclasses.is_dataclass(c)
         and c.__dataclass_params__.frozen),
        key=lambda c: c.__qualname__)


def test_node_scan_finds_every_layer():
    names = {c.__name__ for c in _node_classes()}
    assert {"Function", "ClassDecl", "ObjTag", "UApp", "UClass",
            "PyError", "Stepped"} <= names


# __post_init__ iterates these fields, so they get empty tuples; every
# other field gets a string naming it
_ITERATED = ("members", "methods", "fields")


def _arguments(cls):
    return {f.name: () if f.name in _ITERATED else f"<{f.name}>"
            for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("cls", _node_classes(), ids=lambda c: c.__name__)
def test_nodes_keep_the_frozen_dataclass_contract(cls):
    args = _arguments(cls)
    node = cls(*args.values())
    assert node == cls(**args)
    assert hash(node) == hash(cls(**args))
    assert repr(node) == repr(cls(**args))
    assert cls.__match_args__ == tuple(args)
    assert not hasattr(node, "__dict__")
    for name in args:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, 1)
    fields = dataclasses.fields(cls)
    required = {f.name: args[f.name] for f in fields
                if f.default is dataclasses.MISSING}
    for f in fields:
        if f.default is not dataclasses.MISSING:
            assert getattr(cls(**required), f.name) is f.default
    assert dataclasses.replace(node) == node
    for name in args:
        if name not in _ITERATED:
            changed = dataclasses.replace(node, **{name: "<new>"})
            assert changed != node
            assert changed == cls(**{**args, name: "<new>"})


def test_classes_reject_a_duplicate_member_label():
    with pytest.raises(ValueError, match="duplicate member label 'a'"):
        UClass("C", (), (("a", UInt(1)), ("a", UInt(2))), UInt(0))
    with pytest.raises(ValueError, match="duplicate member label 'a'"):
        UClass(name="C", supers=(), ctor=UInt(0),
               members=(("a", UInt(1)), ("a", UInt(2))))
    ctor = Constructor("self", (), IntLit(0))
    with pytest.raises(ValueError, match="duplicate member label 'a'"):
        ClassDecl("C", OPEN, attrs(), attrs(), (), (),
                  (("a", IntLit(1)), ("a", IntLit(2))), ctor)
    with pytest.raises(ValueError, match="duplicate member label 'a'"):
        ClassDecl("C", OPEN, attrs(), attrs(), (),
                  (Method("a", "self", (), core.INT, IntLit(0)),
                   Method("a", "self", (), core.INT, IntLit(1))), (), ctor)
