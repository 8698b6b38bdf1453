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

from itertools import count, repeat
from dataclasses import dataclass, field, replace

from .upython import (
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
    is_value,
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


class Heap:
    """Address -> heap value store with a monotone allocation counter.
    Addresses are never reused; member maps are updated in place."""

    __slots__ = ("_store", "_next")

    def __init__(self) -> None:
        self._store: dict[int, HeapValue] = {}
        self._next = 0

    def alloc(self, h: HeapValue) -> int:
        a = self._next
        self._next += 1
        self._store[a] = h
        return a

    def __getitem__(self, addr: int) -> HeapValue:
        return self._store[addr]

    def __contains__(self, addr: int) -> bool:
        return addr in self._store

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self):
        return iter(self._store)

    def items(self):
        return self._store.items()

    def __repr__(self) -> str:
        return f"Heap({self._store!r})"


# ---------------------------------------------------------------------------
# outcomes: each names its kind (value, casterror, native-error,
# translated-error or timeout); only a translated-error breaks the
# open-world soundness claim. An error outcome also names the rule that
# raised it; a single step ends in one with steps=1.


@dataclass(frozen=True, slots=True)
class Value:
    value: UPyExpr
    heap: Heap
    steps: int
    kind = "value"


@dataclass(frozen=True, slots=True)
class CastError:
    steps: int
    rule: str
    kind = "casterror"


@dataclass(frozen=True, slots=True)
class PyError:
    label: Label
    steps: int
    rule: str

    @property
    def kind(self) -> str:
        if self.label is Label.TRANSLATED:
            return "translated-error"
        return "native-error"


@dataclass(frozen=True, slots=True)
class Timeout:
    steps: int
    kind = "timeout"


Outcome = Value | CastError | PyError | Timeout


@dataclass(frozen=True, slots=True)
class Stepped:
    """A step that did not end the run: the new term and its rule."""
    expr: UPyExpr
    rule: str


# ---------------------------------------------------------------------------
# metafunctions


def getattr_(addr: int, label: str, heap: Heap) -> UPyExpr | None:
    """Attribute search: own member map first; objects delegate to their
    class; classes search superclasses depth-first, left to right, first
    definition winning. None when absent everywhere."""
    h = heap[addr]
    if label in h.members:
        return h.members[label]
    if isinstance(h, ObjH):
        return getattr_(h.cls, label, heap)
    for s in h.supers:
        found = getattr_(s, label, heap)
        if found is not None:
            return found
    return None


def hasattrs(addr: int, names, heap: Heap) -> bool:
    return all(getattr_(addr, x, heap) is not None for x in names)


def call_arity(v: UPyExpr, heap: Heap) -> int | None:
    """The number of arguments v can be called with, or None when v is
    not callable. A class address takes its constructor's arity less
    the receiver slot."""
    if isinstance(v, ULam):
        return len(v.params)
    if isinstance(v, UAddr) and v.addr in heap:
        h = heap[v.addr]
        if isinstance(h, ClassH):
            inner = call_arity(h.ctor, heap)
            if inner is not None and inner >= 1:
                return inner - 1
    return None


def param_match(v: UPyExpr, heap: Heap, c: int | None) -> bool:
    """Can v be called with c arguments? None asks only whether v is a
    lambda or a class, whatever its arity."""
    if c is None:
        return isinstance(v, ULam) or (isinstance(v, UAddr) and v.addr in heap
                                       and isinstance(heap[v.addr], ClassH))
    return call_arity(v, heap) == c


def check(v: UPyExpr, heap: Heap, tag: Tag) -> bool:
    """Shallow tag test on a value."""
    if isinstance(tag, Pyobj):
        return True
    if isinstance(tag, IntTag):
        return isinstance(v, UInt)
    if isinstance(tag, FunTag):
        return param_match(v, heap, tag.arity)
    if isinstance(tag, ObjTag):
        return (isinstance(v, UAddr) and v.addr in heap
                and hasattrs(v.addr, tag.labels, heap))
    if isinstance(tag, ClassTag):
        return (isinstance(v, UAddr) and v.addr in heap
                and isinstance(heap[v.addr], ClassH)
                and hasattrs(v.addr, tag.labels, heap)
                and param_match(v, heap, tag.arity))
    raise TypeError(f"not a tag: {tag!r}")


_fresh_counter = count()


def _fresh(prefix: str) -> str:
    # the $ namespace is unutterable in surface syntax, so these names
    # can never collide with program variables
    return f"${prefix}{next(_fresh_counter)}"


def lookup(addr: int, h: HeapValue, label: str, heap: Heap, p: Label):
    """The step a member read on a heap value takes: Stepped (EGet1),
    CastError (EGet2) or PyError carrying p (EGet3, member absent).
    Object-local members win and are returned raw. A method found
    through the class chain is curried over the receiver; a nullary one
    cannot take the receiver at all, which is a cast error. Class
    receivers delegate straight to attribute search."""
    if isinstance(h, ObjH):
        if label in h.members:
            return Stepped(h.members[label], "EGet1")
        found = getattr_(h.cls, label, heap)
        if isinstance(found, ULam):
            if len(found.params) == 0:
                return CastError(1, "EGet2")
            rest = tuple(_fresh("r") for _ in found.params[1:])
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


def _plug(stack: list, e: UPyExpr) -> UPyExpr:
    for node, kids, i in reversed(stack):
        kids[i] = e
        e = node.rebuild(kids)
    return e


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
            return lookup(e.subject.addr, heap[e.subject.addr], e.attr,
                          heap, e.label)
        return PyError(e.label, 1, "EGet3")

    if isinstance(e, USet):
        if isinstance(e.subject, UAddr) and e.subject.addr in heap:
            heap[e.subject.addr].members[e.attr] = e.value
            return Stepped(UInt(0), "ESet")
        return PyError(e.label, 1, "ESet4")

    if isinstance(e, UClass):
        super_addrs = []
        for s in e.supers:
            if not (isinstance(s, UAddr) and s.addr in heap
                    and isinstance(heap[s.addr], ClassH)):
                return PyError(e.label, 1, "EClass3")
            super_addrs.append(s.addr)
        if not param_match(e.ctor, heap, None):
            return PyError(e.label, 1, "EClass3")
        a = heap.alloc(ClassH(tuple(super_addrs), dict(e.members), e.ctor))
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
        return Stepped(_plug(stack, r.expr), r.rule)
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
