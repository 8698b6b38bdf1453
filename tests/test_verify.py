"""Tag verifier: the subtag order against a closure-table oracle, the
inference algorithm against declarative proof search, and heap typing
against its rule-by-rule transcription."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import anthill
from anthill import verify
from anthill.parser import parse_upython
from anthill.runtime import ClassH, Heap, ObjH
from anthill.upython import (
    ClassTag,
    FunTag,
    IntTag,
    ObjTag,
    Pyobj,
    UAddr,
    UHole,
    UInt,
    ULam,
    UPyExpr,
    UVar,
)
from anthill.verify import (
    TagError,
    heap_ok,
    infer,
    principal_heap_type,
    sigma_extends,
    tag_subtype,
    verifies,
)

from helpers import (
    package_subclasses,
    rand_bounded_expr,
    rand_layered_heap,
    rand_tag,
    seeds,
)
from oracles import DeclarativeTyping, TagOrder, tag_universe

PYOBJ = Pyobj()
INT_TAG = IntTag()

ORDER = TagOrder(tag_universe())
DECL = DeclarativeTyping(ORDER)


# ---------------------------------------------------------------------------
# subtag order


def test_subtag_order_matches_closure_table_exhaustively():
    for s in ORDER.tags:
        for t in ORDER.tags:
            assert tag_subtype(s, t) == ORDER.leq(s, t), (s, t)


def test_subtag_order_matches_on_a_wider_universe():
    wide = TagOrder(tag_universe(labels=("a", "b", "m"), fun_arities=(0, 2),
                                 class_arities=(0, 2)))
    for s in wide.tags:
        for t in wide.tags:
            assert tag_subtype(s, t) == wide.leq(s, t), (s, t)


def test_subtag_order_pins():
    assert tag_subtype(INT_TAG, PYOBJ)
    assert not tag_subtype(PYOBJ, INT_TAG)
    assert tag_subtype(ObjTag({"a", "b"}), ObjTag({"a"}))
    assert not tag_subtype(ObjTag({"a"}), ObjTag({"a", "b"}))
    assert tag_subtype(ClassTag({"a"}, 2), ClassTag({"a"}, None))
    assert not tag_subtype(ClassTag({"a"}, None), ClassTag({"a"}, 2))
    assert tag_subtype(ClassTag({"a", "b"}, 1), ObjTag({"b"}))
    assert tag_subtype(ClassTag({"a"}, 1), FunTag(1))
    assert not tag_subtype(ClassTag({"a"}, None), FunTag(1))
    assert not tag_subtype(FunTag(1), FunTag(2))


# ---------------------------------------------------------------------------
# inference


def infer_or_none(env, sigma, e):
    try:
        return infer(env, sigma, e)
    except TagError:
        return None


def test_labeled_elimination_needs_evidence():
    assert infer_or_none((), {}, parse_upython("4(2)!")) is None
    assert infer((), {}, parse_upython("4(2)")) == PYOBJ
    assert infer((), {}, parse_upython(
        "check(lambda(x): x, fun[1])(1)!")) == PYOBJ


def test_inference_pins():
    assert infer((), {}, parse_upython("1")) == INT_TAG
    assert infer((), {}, parse_upython("lambda(x, y): x")) == FunTag(2)
    assert infer((), {}, parse_upython("check(1, obj{a})")) == ObjTag({"a"})
    assert infer((), {}, parse_upython(
        "let f = lambda(x): x in f(1)!")) == PYOBJ
    assert infer_or_none((), {}, parse_upython(
        "let f = lambda(x): x in f(1, 2)!")) is None
    assert infer((("x", PYOBJ),), {},
                 parse_upython("x.a = 1")) == INT_TAG  # native write
    assert infer_or_none((), {}, UVar("loose")) is None


def test_class_literal_types():
    e = parse_upython("class! C() {a = 1} init lambda(s, v): 0")
    assert infer((), {}, e) == ClassTag({"a"}, 1)
    e = parse_upython("class C() {a = 1} init lambda(s, v): 0")
    assert infer((), {}, e) == ClassTag({"a"}, None)  # untyped: any arity
    # typed form requires a constructor that takes the receiver
    e = parse_upython("class! C() {} init lambda(): 0")
    assert infer_or_none((), {}, e) is None
    # supers contribute their labels in the typed form
    e = parse_upython(
        "let b = (class! B() {a = 1} init lambda(s): 0) in "
        "class! C(b) {b = 2} init lambda(s, v, w): 0")
    assert infer((), {}, e) == ClassTag({"a", "b"}, 2)


def test_inference_agrees_with_declarative_search():
    for seed in seeds(3000):
        rng = random.Random(seed)
        e = rand_bounded_expr(rng, rng.randint(1, 5), scope=("x",))
        env = (("x", rand_tag(rng)),)
        got = infer_or_none(env, {}, e)
        derivable = DECL.types(e, env)
        if got is None:
            assert not derivable, (e, derivable)
        else:
            assert got in derivable
            assert all(tag_subtype(got, t) for t in derivable), (e, got)


def test_inference_with_a_store_typing():
    rng = random.Random(404)
    for _ in range(800):
        sigma = {a: rand_tag(rng) for a in range(3)}
        decl = DeclarativeTyping(ORDER, sigma)
        e = rand_bounded_expr(rng, rng.randint(1, 4), addrs=(0, 1, 2))
        got = infer_or_none((), sigma, e)
        derivable = decl.types(e)
        assert (got is None) == (not derivable)
        if got is not None:
            assert got in derivable
            assert all(tag_subtype(got, t) for t in derivable)


def test_verifies_is_subtype_of_want():
    e = parse_upython("lambda(x): x")
    assert verifies((), {}, e, FunTag(1))
    assert verifies((), {}, e, PYOBJ)
    assert not verifies((), {}, e, INT_TAG)
    assert not verifies((), {}, parse_upython("4(2)!"), PYOBJ)


# ---------------------------------------------------------------------------
# heap typing


HEAP_ORDER = TagOrder(tag_universe(labels=("a", "b", "m")))


def mutate_tag(rng: random.Random, tag):
    roll = rng.random()
    if isinstance(tag, ClassTag):
        if roll < 0.3:
            return ClassTag(tag.labels | {rng.choice("abm")}, tag.arity)
        if roll < 0.5:
            return ClassTag(tag.labels, None)
        if roll < 0.7:
            return ClassTag(tag.labels, rng.randint(0, 3))
        if roll < 0.85:
            return ObjTag(tag.labels)
        return ClassTag(frozenset(), tag.arity)
    if isinstance(tag, ObjTag):
        if roll < 0.4:
            return ObjTag(tag.labels | {rng.choice("abm")})
        if roll < 0.7:
            return ObjTag(frozenset(rng.sample(sorted(tag.labels),
                                               rng.randint(0, len(tag.labels)))))
        return ClassTag(tag.labels, None)
    return tag


def test_principal_heap_type_satisfies_the_heap():
    for seed in seeds(200):
        rng = random.Random(seed)
        heap = rand_layered_heap(rng)
        sigma = principal_heap_type(heap)
        decl = DeclarativeTyping(HEAP_ORDER, sigma)
        assert heap_ok(sigma, heap)
        assert all(not isinstance(t, Pyobj) for t in sigma.values())
        from oracles import o_heap_ok
        assert o_heap_ok(heap, sigma, decl)


def test_heap_ok_agrees_with_the_transcription_under_mutation():
    from oracles import o_heap_ok
    agree_true = agree_false = 0
    for seed in seeds(300, base=91000):
        rng = random.Random(seed)
        heap = rand_layered_heap(rng, n_classes=4, n_objects=2)
        sigma = dict(principal_heap_type(heap))
        for a in list(sigma):
            if rng.random() < 0.4:
                sigma[a] = mutate_tag(rng, sigma[a])
        if rng.random() < 0.1 and sigma:
            sigma.pop(rng.choice(list(sigma)))
        decl = DeclarativeTyping(HEAP_ORDER, sigma)
        got = heap_ok(sigma, heap)
        want = o_heap_ok(heap, sigma, decl)
        assert got == want, (seed, sigma)
        agree_true += got
        agree_false += not got
    assert agree_true and agree_false  # both outcomes exercised


def test_heap_ok_relaxes_missing_rules_for_pyobj_entries():
    # an address can be recorded at pyobj and constrains nothing, even
    # though no typing rule concludes pyobj for an address; the strict
    # transcription in tests/oracles.py rejects such entries
    from oracles import o_heap_ok
    heap = Heap()
    c = heap.alloc(ClassH((), {}, ULam(("s",), UInt(0))))
    sigma = {c: PYOBJ}
    decl = DeclarativeTyping(HEAP_ORDER, sigma)
    assert heap_ok(sigma, heap)
    assert not o_heap_ok(heap, sigma, decl)


def test_heap_ok_requires_class_tagged_supers():
    heap = Heap()
    b = heap.alloc(ClassH((), {"a": UInt(1)}, ULam(("s",), UInt(0))))
    c = heap.alloc(ClassH((b,), {}, ULam(("s",), UInt(0))))
    good = {b: ClassTag({"a"}, 0), c: ClassTag({"a"}, 0)}
    assert heap_ok(good, heap)
    bad = {b: ObjTag({"a"}), c: ClassTag({"a"}, 0)}
    assert not heap_ok(bad, heap)  # b is a class and its tag must say so


def test_heap_ok_records_only_class_and_object_tags():
    # check passes a class at the fun tag of its call arity and at an
    # obj tag of its labels; heap typing wants a class tag for a class
    # and an obj tag for an object
    heap = Heap()
    c = heap.alloc(ClassH((), {"a": UInt(1)}, ULam(("s", "x"), UInt(0))))
    assert heap_ok({c: ClassTag({"a"}, 1)}, heap)
    for tag in (FunTag(1), ObjTag({"a"}), INT_TAG):
        assert not heap_ok({c: tag}, heap), tag
    o = heap.alloc(ObjH(c, {}))
    assert heap_ok({c: ClassTag({"a"}, 1), o: ObjTag({"a"})}, heap)
    assert not heap_ok({c: ClassTag({"a"}, 1), o: ClassTag({"a"}, None)},
                       heap)


def test_heap_ok_rejects_dangling_parents_without_searching_them():
    heap = Heap()
    o = heap.alloc(ObjH(5, {}))
    c = heap.alloc(ClassH((7,), {}, ULam(("s",), UInt(0))))
    assert not heap_ok({o: ObjTag({"a"}), c: ClassTag(set(), 0)}, heap)
    assert not heap_ok({o: PYOBJ, c: ClassTag({"a"}, 0)}, heap)


def test_heap_ok_rejects_a_dangling_grandparent():
    # the object's class is in the heap, but that class's superclass is not
    heap = Heap()
    o = heap.alloc(ObjH(1, {}))
    c = heap.alloc(ClassH((9,), {}, ULam(("s",), UInt(0))))
    assert not heap_ok({o: ObjTag({"a"}), c: ClassTag(set(), 0)}, heap)


def test_heap_ok_requires_member_values_to_be_typeable():
    heap = Heap()
    c = heap.alloc(ClassH((), {"a": UAddr(42)}, ULam(("s",), UInt(0))))
    sigma = {c: ClassTag({"a"}, 0)}
    assert not heap_ok(sigma, heap)  # dangling member address


def test_sigma_extends():
    s1 = {0: ObjTag({"a"})}
    s2 = {0: ObjTag({"a", "b"}), 1: ClassTag(set(), 0)}
    assert sigma_extends(s2, s1)
    assert not sigma_extends(s1, s2)
    assert sigma_extends(s1, s1)
    assert not sigma_extends({0: PYOBJ}, s1)  # lost precision


# ---------------------------------------------------------------------------
# error messages

# Each TagError that names a tag, raised at an ObjTag or ClassTag of the
# labels b and n, whose frozenset order follows the process's hash seed.
_MESSAGES_SCRIPT = """
from anthill.contexts import type_context
from anthill.upython import (INT_TAG, TRANSLATED, ClassTag, ObjTag, UApp,
                             UClass, UHole, ULet, UVar)
from anthill.verify import TagError, infer

bn_obj, bn_class = ObjTag(("b", "n")), ClassTag(("b", "n"), 0)
env = {"o": bn_obj, "c": bn_class, "f": ClassTag((), 1)}
cases = [
    lambda: infer(env, {}, UApp(UVar("o"), (), TRANSLATED)),
    lambda: infer(env, {}, UClass("P", (UVar("o"),), (), UVar("f"),
                                  TRANSLATED)),
    lambda: infer(env, {}, UClass("P", (), (), UVar("c"), TRANSLATED)),
    lambda: type_context(ULet("y", UVar("o"), UHole()),
                         (("o", bn_obj), ("y", INT_TAG)), INT_TAG),
]
for case in cases:
    try:
        case()
    except TagError as exc:
        print(exc)
"""


def _under_hash_seeds(script: str) -> list[str]:
    """The stdout of script run under PYTHONHASHSEED=1 and =2."""
    src = str(Path(anthill.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        done = subprocess.run([sys.executable, "-c", script],
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        outputs.append(done.stdout)
    return outputs


def test_tag_error_messages_do_not_depend_on_the_hash_seed():
    outputs = _under_hash_seeds(_MESSAGES_SCRIPT)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines() == [
        "app: needs fun[0], subexpression has obj{b, n}",
        "class: superclass has non-class tag obj{b, n}",
        "class: constructor tag class{b, n}[0] cannot take a receiver",
        "context: let-bound expression has obj{b, n}, hole assumes int",
    ]


# Each message that prints an expression, the first around a check at
# an ObjTag whose frozenset order follows the process's hash seed.
_EXPRESSION_MESSAGES_SCRIPT = """
from anthill.contexts import ContextError, type_context, validate_context
from anthill.upython import (INT_TAG, NATIVE, ObjTag, UAddr, UApp, UCheck,
                             UHole, UInt)
from anthill.verify import TagError, infer

bn_obj = ObjTag(("b", "n"))
cases = [
    lambda: type_context(UCheck(UInt(1), bn_obj), (), INT_TAG),
    lambda: validate_context(UApp(UHole(), (UCheck(UAddr(1), bn_obj),),
                                  NATIVE)),
    lambda: infer((), {}, UCheck(UHole(), bn_obj)),
]
for case in cases:
    try:
        case()
    except (ContextError, TagError) as exc:
        print(exc)
"""


def test_expression_messages_print_terms_not_reprs():
    outputs = _under_hash_seeds(_EXPRESSION_MESSAGES_SCRIPT)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines() == [
        "context: no hole beneath check(1, obj{b, n})",
        "not a context form: @1",
        "expr: not a typeable expression: HOLE",
    ]


def test_every_expression_class_but_the_hole_has_an_inference_rule():
    classes = package_subclasses(UPyExpr)
    assert {"UVar", "UApp", "UClass", "UHole"} <= {c.__name__ for c in classes}
    assert classes - {UHole} == set(verify._INFER_RULES)
    with pytest.raises(TagError) as err:
        infer((), {}, UHole())
    assert err.value.rule == "expr"
    assert str(err.value) == "expr: not a typeable expression: HOLE"
    # a non-node is named by its repr, and does not verify
    with pytest.raises(TagError) as err:
        infer((), {}, object())
    assert err.value.rule == "expr"
    assert str(err.value).startswith("expr: not a typeable expression: "
                                     "<object object at ")
    assert not verifies((), {}, object(), PYOBJ)


def test_tag_and_static_type_errors_share_one_rule_error():
    from anthill.translate import StaticTypeError
    from anthill.upython import RuleError
    for cls in (TagError, StaticTypeError):
        exc = cls("r", "a reason", UInt(1))
        assert isinstance(exc, RuleError) and str(exc) == "r: a reason"
        assert (exc.rule, exc.detail, exc.subterm) == ("r", "a reason",
                                                       UInt(1))
    assert not issubclass(TagError, StaticTypeError)
    assert not issubclass(StaticTypeError, TagError)
