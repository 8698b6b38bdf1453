"""Seeded builders and enumerators shared across the test modules.

Inputs for agreement tests come from here; the two computation routes
being compared live in the package and in tests/oracles.py. Everything
takes an explicit random.Random so failures replay.
"""

from __future__ import annotations

import random

from anthill.runtime import ClassH, Heap, ObjH, check, value_tag
from anthill.upython import (
    NATIVE,
    TRANSLATED,
    ClassTag,
    FunTag,
    IntTag,
    ObjTag,
    Pyobj,
    Tag,
    UAddr,
    UApp,
    UCheck,
    UClass,
    UGet,
    UInt,
    ULam,
    ULet,
    UPyExpr,
    USet,
    UVar,
)

PYOBJ = Pyobj()
INT_TAG = IntTag()
LABELS = ("a", "b")
BOTH_LABELS = (NATIVE, TRANSLATED)


def seeds(n: int, base: int = 20240) -> range:
    return range(base, base + n)


def package_subclasses(base: type) -> set[type]:
    """The classes below base, at any depth, that the package defines."""
    found, todo = set(), [base]
    while todo:
        for c in todo.pop().__subclasses__():
            if c.__module__.startswith("anthill.") and c not in found:
                found.add(c)
                todo.append(c)
    return found


# ---------------------------------------------------------------------------
# tags


def rand_tag(rng: random.Random, labels=LABELS, max_arity: int = 3) -> Tag:
    kind = rng.randrange(5)
    if kind == 0:
        return PYOBJ
    if kind == 1:
        return INT_TAG
    if kind == 2:
        return FunTag(rng.randint(0, max_arity))
    subset = frozenset(x for x in labels if rng.random() < 0.5)
    if kind == 3:
        return ObjTag(subset)
    arity = None if rng.random() < 0.25 else rng.randint(0, max_arity)
    return ClassTag(subset, arity)


# ---------------------------------------------------------------------------
# heaps
#
# Classes are layered: supers always point at earlier addresses, so the
# result is acyclic by construction and diamonds appear whenever two
# later classes share an ancestor.

HEAP_LABELS = ("a", "b", "m")


def rand_heap_value(rng: random.Random, class_addrs, label_pool=HEAP_LABELS):
    kind = rng.randrange(6)
    if kind <= 1:
        return UInt(rng.randint(0, 9))
    if kind <= 3 or not class_addrs:
        arity = rng.randint(0, 3)
        params = tuple(f"p{i}" for i in range(arity))
        body = UVar(rng.choice(params)) if params and rng.random() < 0.5 else UInt(0)
        return ULam(params, body)
    return UAddr(rng.choice(class_addrs))


def rand_layered_heap(rng: random.Random, n_classes: int = 6,
                      n_objects: int = 3, label_pool=HEAP_LABELS) -> Heap:
    heap = Heap()
    classes: list[int] = []
    for _ in range(n_classes):
        k = min(len(classes), rng.choice((0, 1, 1, 2)))
        supers = tuple(sorted(rng.sample(classes, k)))
        members = {x: rand_heap_value(rng, classes, label_pool)
                   for x in label_pool if rng.random() < 0.5}
        roll = rng.random()
        if roll < 0.6:
            arity = rng.randint(1, 3)
            ctor = ULam(tuple(f"c{i}" for i in range(arity)), UInt(0))
        elif roll < 0.75 and classes:
            ctor = UAddr(rng.choice(classes))
        elif roll < 0.9:
            ctor = ULam((), UInt(0))
        else:
            ctor = UInt(7)
        classes.append(heap.alloc(ClassH(supers, members, ctor)))
    for _ in range(n_objects):
        members = {x: rand_heap_value(rng, classes, label_pool)
                   for x in label_pool if rng.random() < 0.4}
        heap.alloc(ObjH(rng.choice(classes), members))
    return heap


def rand_value(rng: random.Random, heap: Heap) -> UPyExpr:
    roll = rng.randrange(4)
    if roll == 0:
        return UInt(rng.randint(0, 9))
    if roll == 1:
        params = tuple(f"q{i}" for i in range(rng.randint(0, 3)))
        return ULam(params, UInt(1))
    if roll == 2 and len(heap):
        return UAddr(rng.randrange(len(heap)))
    return UAddr(rng.randint(0, len(heap) + 2))  # possibly dangling


def callable_with(v: UPyExpr, heap: Heap, c: int | None) -> bool:
    """Can v be called with c arguments, asked through the library's
    tags: a check at fun[c], or, with c None, whether v's own tag is a
    function or class tag of any arity."""
    if c is None:
        return isinstance(value_tag(v, heap), (FunTag, ClassTag))
    return check(v, heap, FunTag(c))


def build_diamond_heap() -> tuple[Heap, dict[str, int]]:
    """Fixed four-class diamond with one instance hanging off the join.
    The ambiguous member g must resolve through the left branch."""
    heap = Heap()
    top = heap.alloc(ClassH((), {"m": ULam(("s", "x"), UVar("x")),
                                 "f": UInt(7)}, ULam(("s",), UInt(0))))
    left = heap.alloc(ClassH((top,), {"g": ULam(("s",), UInt(1))},
                             ULam(("s", "a"), UInt(0))))
    right = heap.alloc(ClassH((top,), {"g": ULam(("s", "b"), UInt(2)),
                                       "h": UInt(3)}, ULam(("s",), UInt(0))))
    join = heap.alloc(ClassH((left, right), {}, ULam(("s", "a", "b"), UInt(0))))
    inst = heap.alloc(ObjH(join, {"own": UInt(5)}))
    names = {"top": top, "left": left, "right": right, "join": join,
             "inst": inst}
    return heap, names


# ---------------------------------------------------------------------------
# expressions bounded to a small tag universe
#
# Used where the declarative-typing oracle is on the other side: every
# attribute label, arity, and check tag stays inside the universe the
# oracle was built over.

UNIVERSE_CHECK_TAGS = (
    PYOBJ,
    INT_TAG,
    FunTag(1),
    ObjTag(frozenset()),
    ObjTag(frozenset("a")),
    ClassTag(frozenset("a"), 0),
)


def rand_bounded_expr(rng: random.Random, depth: int, scope: tuple[str, ...] = (),
                      addrs: tuple[int, ...] = ()) -> UPyExpr:
    atoms = ["int"]
    if scope:
        atoms.append("var")
    if addrs:
        atoms.append("addr")
    if depth <= 1:
        pick = rng.choice(atoms)
    else:
        pick = rng.choice(atoms + ["lam", "app", "get", "set", "let",
                                   "check", "class"])
    if pick == "int":
        return UInt(0)
    if pick == "var":
        return UVar(rng.choice(scope))
    if pick == "addr":
        return UAddr(rng.choice(addrs))
    sub = lambda sc=scope: rand_bounded_expr(rng, depth - 1, sc, addrs)
    if pick == "lam":
        params = tuple(rng.sample(("x", "y"), rng.randint(0, 2)))
        return ULam(params, sub(scope + params))
    if pick == "app":
        n = rng.randint(0, 2)
        return UApp(sub(), tuple(sub() for _ in range(n)),
                    rng.choice(BOTH_LABELS))
    if pick == "get":
        return UGet(sub(), rng.choice(LABELS), rng.choice(BOTH_LABELS))
    if pick == "set":
        return USet(sub(), rng.choice(LABELS), sub(), rng.choice(BOTH_LABELS))
    if pick == "let":
        name = rng.choice(("x", "y"))
        return ULet(name, sub(), rand_bounded_expr(rng, depth - 1,
                                                   scope + (name,), addrs))
    if pick == "check":
        return UCheck(sub(), rng.choice(UNIVERSE_CHECK_TAGS))
    n = rng.randint(0, 1)
    members = tuple((x, sub()) for x in rng.sample(LABELS, rng.randint(0, 2)))
    return UClass("C", tuple(sub() for _ in range(n)), members, sub(),
                  rng.choice(BOTH_LABELS))


# ---------------------------------------------------------------------------
# exhaustive enumeration of small closed labeled terms
#
# Bounds, declared once here: identifiers {x, y}, attribute labels
# {a, b}, the only literal 0, every variadic slot of width <= 1, check
# tags from UNIVERSE_CHECK_TAGS. An atom has depth 1. No addresses and
# no holes; the terms are closed and heap-free.

_ENUM_IDS = ("x", "y")


def enumerate_terms(max_depth: int, scope: frozenset = frozenset(),
                    _memo: dict | None = None) -> list[UPyExpr]:
    """All terms of depth <= max_depth whose free variables lie in
    scope. Distinct constructions are distinct terms, so the result has
    no duplicates."""
    if _memo is None:
        _memo = {}
    key = (max_depth, scope)
    if key in _memo:
        return _memo[key]
    out: list[UPyExpr] = [UInt(0)]
    out.extend(UVar(v) for v in sorted(scope))
    if max_depth > 1:
        sub = enumerate_terms(max_depth - 1, scope, _memo)
        for params in ((), ("x",), ("y",)):
            for body in enumerate_terms(max_depth - 1, scope | set(params), _memo):
                out.append(ULam(params, body))
        for p in BOTH_LABELS:
            for fn in sub:
                out.append(UApp(fn, (), p))
                out.extend(UApp(fn, (arg,), p) for arg in sub)
            for s in sub:
                out.extend(UGet(s, l, p) for l in LABELS)
                for v in sub:
                    out.extend(USet(s, l, v, p) for l in LABELS)
            for supers in [()] + [(s,) for s in sub]:
                for members in [()] + [((l, m),) for l in LABELS for m in sub]:
                    out.extend(UClass("C", supers, members, c, p) for c in sub)
        for name in _ENUM_IDS:
            bodies = enumerate_terms(max_depth - 1, scope | {name}, _memo)
            out.extend(ULet(name, e1, e2) for e1 in sub for e2 in bodies)
        for s in sub:
            out.extend(UCheck(s, t) for t in UNIVERSE_CHECK_TAGS)
    _memo[key] = out
    return out
