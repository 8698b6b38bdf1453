"""Small-step interpreter for the untyped target language.

The heap maps addresses to class and object records. Evaluation is
deterministic: a step decomposes the term into an evaluation context,
an explicit stack of frames, and a redex, contracts the redex and
plugs the result back. `run` keeps the frame stack between steps
rather than descending from the root each time; neither recurses on
term depth. Runtime checks fail to a cast error; every other dynamic
type confusion fails to a pyerror carrying the origin label of the
offending elimination form.
"""

from __future__ import annotations

from itertools import repeat
from dataclasses import dataclass, field, replace

from .upython import (
    INT_TAG,
    PYOBJ,
    ClassTag,
    FunTag,
    IntTag,
    Label,
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
    class_arity,
    is_value,
    node,
    rebuild_path,
    tag_subtype,
)


class OpenTermError(Exception):
    """A free variable reached the redex position; the program was not
    closed."""


@dataclass(slots=True)
class ObjH:
    cls: int
    members: dict[str, UPyExpr] = field(default_factory=dict)


@dataclass(slots=True)
class ClassH:
    supers: tuple[int, ...]
    members: dict[str, UPyExpr]
    ctor: UPyExpr


HeapValue = ObjH | ClassH


class Heap(dict[int, HeapValue]):
    """Address -> heap value store. The next address is the number of
    values allocated so far, so addresses are never reused; member maps
    are updated in place."""

    __slots__ = ()

    def alloc(self, h: HeapValue) -> int:
        a = len(self)
        self[a] = h
        return a

    def __repr__(self) -> str:
        return f"Heap({dict.__repr__(self)})"


# ---------------------------------------------------------------------------
# outcomes: each names its kind (value, casterror, native-error,
# translated-error or timeout); only a translated-error breaks the
# open-world soundness claim. An error outcome also names the rule that
# raised it; a single step ends in one with steps=1.


@node
class Value:
    value: UPyExpr
    heap: Heap
    steps: int
    kind = "value"


@node
class CastError:
    steps: int
    rule: str
    kind = "casterror"


@node
class PyError:
    label: Label
    steps: int
    rule: str

    @property
    def kind(self) -> str:
        if self.label is Label.TRANSLATED:
            return "translated-error"
        return "native-error"


@node
class Timeout:
    steps: int
    kind = "timeout"


Outcome = Value | CastError | PyError | Timeout


@node
class Stepped:
    """A step that did not end the run: the new term and its rule."""
    expr: UPyExpr
    rule: str


# ---------------------------------------------------------------------------
# metafunctions


def parents(h: HeapValue) -> tuple[int, ...]:
    """The records attribute search goes on to: an object's class, or a
    class's superclasses."""
    return (h.cls,) if isinstance(h, ObjH) else h.supers


def _ancestors(addr: int, heap: Heap):
    """Each record reachable from addr once, in attribute-search order:
    the record itself, then its parents depth-first, left to right. A
    dangling address adds nothing."""
    seen, todo = set(), [addr]
    while todo:
        a = todo.pop()
        if a not in seen and a in heap:
            seen.add(a)
            h = heap[a]
            yield h
            todo.extend(reversed(parents(h)))


def getattr_(addr: int, label: str, heap: Heap) -> UPyExpr | None:
    """Attribute search: the first member named label along the
    ancestors of addr, or None when absent everywhere."""
    return next((h.members[label] for h in _ancestors(addr, heap)
                 if label in h.members), None)


def value_tag(v: UPyExpr, heap: Heap) -> Tag:
    """The value's own shallow tag, the least tag it passes `check` at:
    an int or a lambda tags itself; a heap record is an object, or a
    class of its constructor's call arity, with every label attribute
    search finds; anything else is only a pyobj."""
    if isinstance(v, UInt):
        return INT_TAG
    if isinstance(v, ULam):
        return FunTag(len(v.params))
    if not (isinstance(v, UAddr) and v.addr in heap):
        return PYOBJ
    labels = set().union(*(h.members for h in _ancestors(v.addr, heap)))
    h = heap[v.addr]
    if isinstance(h, ObjH):
        return ObjTag(labels)
    return ClassTag(labels, class_arity(value_tag(h.ctor, heap)))


def check(v: UPyExpr, heap: Heap, tag: Tag) -> bool:
    """Shallow tag test on a value: its own tag lies below tag. A pyobj,
    int or fun[n] tag is decided without the labels of a record."""
    if isinstance(tag, Pyobj):
        return True
    if isinstance(tag, IntTag):
        return isinstance(v, UInt)
    if isinstance(tag, FunTag):
        if isinstance(v, UAddr) and isinstance(heap.get(v.addr), ClassH):
            return class_arity(value_tag(heap[v.addr].ctor, heap)) == tag.arity
        return isinstance(v, ULam) and len(v.params) == tag.arity
    return tag_subtype(value_tag(v, heap), tag)


def lookup(addr: int, label: str, heap: Heap, p: Label):
    """The step a member read on a heap value takes: Stepped (EGet1),
    CastError (EGet2) or PyError carrying p (EGet3, member absent).
    Object-local members win and are returned raw. A method found
    through the class chain is curried over the receiver; a nullary one
    cannot take the receiver at all, which is a cast error. Class
    receivers delegate straight to attribute search."""
    h = heap[addr]
    if isinstance(h, ObjH):
        if label in h.members:
            return Stepped(h.members[label], "EGet1")
        found = getattr_(h.cls, label, heap)
        if isinstance(found, ULam):
            if len(found.params) == 0:
                return CastError(1, "EGet2")
            # found is closed and $ is unutterable in surface syntax,
            # so these names capture nothing
            rest = tuple(f"$r{i}" for i in range(len(found.params) - 1))
            found = ULam(rest, UApp(found,
                                    (UAddr(addr),) + tuple(UVar(y) for y in rest),
                                    p))
    else:
        found = getattr_(addr, label, heap)
    if found is None:
        return PyError(p, 1, "EGet3")
    return Stepped(found, "EGet1")


def substitute(e: UPyExpr, bindings: dict[str, UPyExpr]) -> UPyExpr:
    """Simultaneous name-based substitution, stopping at shadowing
    binders. The substituted values are closed, so capture is moot."""
    if not bindings:
        return e
    if isinstance(e, UVar):
        return bindings.get(e.name, e)
    if isinstance(e, ULam):
        inner = {x: v for x, v in bindings.items() if x not in e.params}
        return ULam(e.params, substitute(e.body, inner)) if inner else e
    if isinstance(e, ULet):
        bound = substitute(e.bound, bindings)
        inner = {x: v for x, v in bindings.items() if x != e.name}
        return ULet(e.name, bound, substitute(e.body, inner))
    return e.rebuild(tuple(map(substitute, e.children(), repeat(bindings))))


# ---------------------------------------------------------------------------
# stepping


def _open_slot(e: UPyExpr, kids, i: int) -> int:
    """The first slot of e from i on that is an evaluation position and
    does not hold a value, or -1 when there is none. Every child slot is
    an evaluation position, in children() order, except the body of a
    let or a lambda."""
    end = (1 if isinstance(e, ULet) else 0 if isinstance(e, ULam)
           else len(kids))
    while i < end:
        if not is_value(kids[i]):
            return i
        i += 1
    return -1


def _focus(e: UPyExpr, stack: list) -> UPyExpr:
    """Decompose e: push the frames (node, kids, i) from e down to its
    redex, outermost first, where kids is a list of node's children and
    slot i holds the hole. Return the redex, a node whose evaluation
    positions all hold values."""
    while True:
        kids = e.children()
        i = _open_slot(e, kids, 0)
        if i < 0:
            return e
        stack.append((e, list(kids), i))
        e = kids[i]


def _is_class(v: UPyExpr, heap: Heap) -> bool:
    """Is v the address of a class record? These are the values whose
    `value_tag` is a class tag, told by the record kind alone."""
    return isinstance(v, UAddr) and isinstance(heap.get(v.addr), ClassH)


def _contract(e: UPyExpr, heap: Heap) -> Stepped | CastError | PyError:
    """Apply the base rule for redex e; the heap is updated in place
    (allocation, member update)."""
    if isinstance(e, UApp):
        fn, args = e.fn, e.args
        if isinstance(fn, ULam):
            if len(fn.params) != len(args):
                return PyError(e.label, 1, "EApp3")
            return Stepped(substitute(fn.body, dict(zip(fn.params, args))),
                           "EApp1")
        if isinstance(fn, UAddr) and fn.addr in heap:
            h = heap[fn.addr]
            if isinstance(h, ClassH):
                a2 = heap.alloc(ObjH(fn.addr, {}))
                ctor_call = UApp(h.ctor, (UAddr(a2),) + args, e.label)
                return Stepped(ULet("_", ctor_call, UAddr(a2)), "EApp2")
        return PyError(e.label, 1, "EApp3")

    if isinstance(e, UCheck):
        if check(e.subject, heap, e.tag):
            return Stepped(e.subject, "ECheck1")
        return CastError(1, "ECheck2")

    if isinstance(e, ULet):
        return Stepped(substitute(e.body, {e.name: e.bound}), "ELet")

    if isinstance(e, UGet):
        if isinstance(e.subject, UAddr) and e.subject.addr in heap:
            return lookup(e.subject.addr, e.attr, heap, e.label)
        return PyError(e.label, 1, "EGet3")

    if isinstance(e, USet):
        if isinstance(e.subject, UAddr) and e.subject.addr in heap:
            heap[e.subject.addr].members[e.attr] = e.value
            return Stepped(UInt(0), "ESet")
        return PyError(e.label, 1, "ESet4")

    if isinstance(e, UClass):
        if not (all(map(_is_class, e.supers, repeat(heap)))
                and (isinstance(e.ctor, ULam) or _is_class(e.ctor, heap))):
            return PyError(e.label, 1, "EClass3")
        a = heap.alloc(ClassH(tuple(s.addr for s in e.supers),
                              dict(e.members), e.ctor))
        return Stepped(UAddr(a), "EClass")

    if isinstance(e, UVar):
        raise OpenTermError(f"free variable {e.name!r} reached evaluation")
    raise TypeError(f"cannot step {e!r}")


def step(e: UPyExpr, heap: Heap) -> Stepped | CastError | PyError:
    """One reduction: decompose, contract, plug. The step ends in a new
    term or in an error outcome with steps=1, which discards the
    surrounding context."""
    stack = []
    r = _contract(_focus(e, stack), heap)
    if isinstance(r, Stepped):
        return Stepped(rebuild_path(stack, r.expr), r.rule)
    return r


def run(e: UPyExpr, heap: Heap | None = None, budget: int = 10 ** 6,
        on_step=None) -> Outcome:
    """Reduce until a value or an error, giving up after budget steps.
    The context stays on the frame stack between steps: a contractum
    that is a value fills the hole of the top frame, and evaluation goes
    on at that frame's next open slot, or at its node once it has none.
    A step that errs ends the run with its own error outcome, rule
    included, counting every step taken. on_step, if given, is called
    with (step index, rule name, heap size) after each successful
    step."""
    if heap is None:
        heap = Heap()
    stack = []
    steps = 0
    while True:
        if not is_value(e):
            e = _focus(e, stack)
        elif not stack:
            return Value(e, heap, steps)
        else:
            node, kids, i = stack.pop()
            kids[i] = e
            i = _open_slot(node, kids, i + 1)
            if i >= 0:
                stack.append((node, kids, i))
                e = kids[i]
                continue
            e = node.rebuild(kids)
        if steps >= budget:
            return Timeout(steps)
        r = _contract(e, heap)
        steps += 1
        if isinstance(r, Stepped):
            e = r.expr
            if on_step is not None:
                on_step(steps, r.rule, len(heap))
        else:
            return replace(r, steps=steps)
