"""Syntax of the untyped target language.

Expressions carry origin labels on the four forms that can raise a
dynamic object error (call, attribute read, attribute write, class
creation): NATIVE for code that was written directly in the target
language, TRANSLATED for code emitted by the typed-to-untyped
translation. Errors blame the label of the expression that raised them.
"""

from __future__ import annotations

import enum
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields


def _frozen(self, name, *value):
    verb = "assign to" if value else "delete"
    raise FrozenInstanceError(f"cannot {verb} field {name!r}")


def node(cls):
    """`@dataclass(frozen=True, slots=True)`, except that a generated
    `__init__` stores each field through its slot descriptor, which
    costs about half what the dataclass's `object.__setattr__` calls do,
    before it calls `__post_init__`. Fields take plain defaults only. A
    class that writes its own `__init__` keeps it. Setting or deleting
    any name raises FrozenInstanceError, not only a field's."""
    own_init = "__init__" in cls.__dict__
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__setattr__ = cls.__delattr__ = _frozen
    if own_init:
        return cls
    params, body, env = ["self"], [], {}
    for f in fields(cls):
        env[f"_set_{f.name}"] = getattr(cls, f.name).__set__
        body.append(f"_set_{f.name}(self, {f.name})")
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__({', '.join(params)}):\n "
         + "\n ".join(body or ["pass"]), env)
    env["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = env["__init__"]
    return cls


class RuleTable(dict):
    """Node class -> the rule for its nodes; a class with no rule gets
    `missing`. A layer dispatches with one subscript, `table[type(n)]`,
    and calls the rule itself, so it spends one frame per level."""

    __slots__ = ("missing",)

    def __init__(self, missing, rules) -> None:
        super().__init__(rules)
        self.missing = missing

    def __missing__(self, cls):
        return self.missing


class Label(enum.Enum):
    NATIVE = "native"
    TRANSLATED = "translated"

    def __repr__(self) -> str:
        return self.name


NATIVE = Label.NATIVE
TRANSLATED = Label.TRANSLATED


# ---------------------------------------------------------------------------
# runtime tags and the subtag order


class Tag:
    """Shallow runtime tag. Checked by `check`, tracked by the verifier."""

    __slots__ = ()


@node
class Pyobj(Tag):
    pass


@node
class IntTag(Tag):
    pass


@node
class FunTag(Tag):
    arity: int


@node
class ObjTag(Tag):
    labels: frozenset[str]

    def __init__(self, labels) -> None:
        ObjTag.labels.__set__(self, frozenset(labels))


@node
class ClassTag(Tag):
    """Class tag. arity None means unconstrained constructor."""

    labels: frozenset[str]
    arity: int | None

    def __init__(self, labels, arity: int | None) -> None:
        ClassTag.labels.__set__(self, frozenset(labels))
        ClassTag.arity.__set__(self, arity)


PYOBJ = Pyobj()
INT_TAG = IntTag()


def tag_subtype(s1: Tag, s2: Tag) -> bool:
    """Reflexive-transitive subtag order with pyobj on top, width order
    on member-name sets, and classes usable as objects and as
    constructors of their call arity."""
    if isinstance(s2, Pyobj):
        return True
    if s1 == s2:
        return True
    if isinstance(s1, ObjTag) and isinstance(s2, ObjTag):
        return s2.labels <= s1.labels
    if isinstance(s1, ClassTag):
        if isinstance(s2, ClassTag):
            return (s2.labels <= s1.labels
                    and (s1.arity == s2.arity or s2.arity is None))
        if isinstance(s2, ObjTag):
            return s2.labels <= s1.labels
        if isinstance(s2, FunTag):
            return s1.arity == s2.arity and s1.arity is not None
    return False


def class_arity(ctor: Tag) -> int | None:
    """The call arity of a class whose constructor has tag ctor: the
    constructor's arity less the receiver slot, or None when it cannot
    take a receiver."""
    arity = ctor.arity if isinstance(ctor, (FunTag, ClassTag)) else None
    return arity - 1 if arity else None


# ---------------------------------------------------------------------------
# expressions
#
# Every node has one view of its child slots: `children()` lists the
# subexpressions in evaluation order, and `rebuild(kids)` makes the same
# node over new children given in that order. Leaves have no children.


class UPyExpr:
    __slots__ = ()

    def children(self) -> tuple[UPyExpr, ...]:
        return ()

    def rebuild(self, kids) -> UPyExpr:
        return self


@node
class UVar(UPyExpr):
    name: str


@node
class UInt(UPyExpr):
    value: int


@node
class UAddr(UPyExpr):
    addr: int


@node
class ULam(UPyExpr):
    params: tuple[str, ...]
    body: UPyExpr

    def children(self):
        return (self.body,)

    def rebuild(self, kids):
        return ULam(self.params, kids[0])


@node
class UApp(UPyExpr):
    fn: UPyExpr
    args: tuple[UPyExpr, ...]
    label: Label = NATIVE

    def children(self):
        return (self.fn, *self.args)

    def rebuild(self, kids):
        return UApp(kids[0], tuple(kids[1:]), self.label)


@node
class UGet(UPyExpr):
    subject: UPyExpr
    attr: str
    label: Label = NATIVE

    def children(self):
        return (self.subject,)

    def rebuild(self, kids):
        return UGet(kids[0], self.attr, self.label)


@node
class USet(UPyExpr):
    subject: UPyExpr
    attr: str
    value: UPyExpr
    label: Label = NATIVE

    def children(self):
        return (self.subject, self.value)

    def rebuild(self, kids):
        return USet(kids[0], self.attr, kids[1], self.label)


@node
class ULet(UPyExpr):
    name: str
    bound: UPyExpr
    body: UPyExpr

    def children(self):
        return (self.bound, self.body)

    def rebuild(self, kids):
        return ULet(self.name, kids[0], kids[1])


@node
class UClass(UPyExpr):
    """Class literal. `members` maps labels to initializing expressions;
    duplicate labels are rejected. The name is documentation only."""

    name: str
    supers: tuple[UPyExpr, ...]
    members: tuple[tuple[str, UPyExpr], ...]
    ctor: UPyExpr
    label: Label = NATIVE

    def __post_init__(self) -> None:
        seen = set()
        for lbl, _ in self.members:
            if lbl in seen:
                raise ValueError(f"duplicate member label {lbl!r}")
            seen.add(lbl)

    def children(self):
        return (*self.supers, self.ctor, *(m for _, m in self.members))

    def rebuild(self, kids):
        n = len(self.supers)
        return UClass(self.name, tuple(kids[:n]),
                      tuple(zip((l for l, _ in self.members), kids[n + 1:])),
                      kids[n], self.label)


@node
class UCheck(UPyExpr):
    subject: UPyExpr
    tag: Tag

    def children(self):
        return (self.subject,)

    def rebuild(self, kids):
        return UCheck(kids[0], self.tag)


@node
class UHole(UPyExpr):
    """Context hole. Never evaluated; plugging replaces it."""


def is_value(e: UPyExpr) -> bool:
    return isinstance(e, (UInt, ULam, UAddr))


def walk(e: UPyExpr):
    """Every node of e once, parents before children, children in
    evaluation order. Iterative, so any depth of nesting is fine."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        stack.extend(reversed(e.children()))


def erase_checks(e: UPyExpr) -> UPyExpr:
    """e with every check(e', S) replaced by e'. Built bottom-up, each
    node after its children, so any depth of nesting is fine."""
    erased = {}
    for n in reversed(list(walk(e))):
        erased[id(n)] = (erased[id(n.subject)] if isinstance(n, UCheck)
                         else n.rebuild([erased[id(k)] for k in n.children()]))
    return erased[id(e)]


def rebuild_path(frames, e: UPyExpr) -> UPyExpr:
    """Put e in the innermost slot of frames, (node, kids list, slot)
    from the root down, and rebuild outwards in place; return the root."""
    for node, kids, i in reversed(frames):
        kids[i] = e
        e = node.rebuild(kids)
    return e
