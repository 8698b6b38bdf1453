"""Syntax of the untyped target language.

Expressions carry origin labels on the four forms that can raise a
dynamic object error (call, attribute read, attribute write, class
creation): NATIVE for code that was written directly in the target
language, TRANSLATED for code emitted by the typed-to-untyped
translation. Errors blame the label of the expression that raised them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Label(enum.Enum):
    NATIVE = "native"
    TRANSLATED = "translated"

    def __repr__(self) -> str:
        return self.name


NATIVE = Label.NATIVE
TRANSLATED = Label.TRANSLATED


# ---------------------------------------------------------------------------
# runtime tags


class Tag:
    """Shallow runtime tag. Checked by `check`, tracked by the verifier."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Pyobj(Tag):
    pass


@dataclass(frozen=True, slots=True)
class IntTag(Tag):
    pass


@dataclass(frozen=True, slots=True)
class FunTag(Tag):
    arity: int


@dataclass(frozen=True, slots=True)
class ObjTag(Tag):
    labels: frozenset[str]

    def __init__(self, labels) -> None:
        object.__setattr__(self, "labels", frozenset(labels))


@dataclass(frozen=True, slots=True)
class ClassTag(Tag):
    """Class tag. arity None means unconstrained constructor."""

    labels: frozenset[str]
    arity: int | None

    def __init__(self, labels, arity: int | None) -> None:
        object.__setattr__(self, "labels", frozenset(labels))
        object.__setattr__(self, "arity", arity)


PYOBJ = Pyobj()
INT_TAG = IntTag()


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


@dataclass(frozen=True, slots=True)
class UVar(UPyExpr):
    name: str


@dataclass(frozen=True, slots=True)
class UInt(UPyExpr):
    value: int


@dataclass(frozen=True, slots=True)
class UAddr(UPyExpr):
    addr: int


@dataclass(frozen=True, slots=True)
class ULam(UPyExpr):
    params: tuple[str, ...]
    body: UPyExpr

    def children(self):
        return (self.body,)

    def rebuild(self, kids):
        return ULam(self.params, kids[0])


@dataclass(frozen=True, slots=True)
class UApp(UPyExpr):
    fn: UPyExpr
    args: tuple[UPyExpr, ...]
    label: Label = NATIVE

    def children(self):
        return (self.fn, *self.args)

    def rebuild(self, kids):
        return UApp(kids[0], tuple(kids[1:]), self.label)


@dataclass(frozen=True, slots=True)
class UGet(UPyExpr):
    subject: UPyExpr
    attr: str
    label: Label = NATIVE

    def children(self):
        return (self.subject,)

    def rebuild(self, kids):
        return UGet(kids[0], self.attr, self.label)


@dataclass(frozen=True, slots=True)
class USet(UPyExpr):
    subject: UPyExpr
    attr: str
    value: UPyExpr
    label: Label = NATIVE

    def children(self):
        return (self.subject, self.value)

    def rebuild(self, kids):
        return USet(kids[0], self.attr, kids[1], self.label)


@dataclass(frozen=True, slots=True)
class ULet(UPyExpr):
    name: str
    bound: UPyExpr
    body: UPyExpr

    def children(self):
        return (self.bound, self.body)

    def rebuild(self, kids):
        return ULet(self.name, kids[0], kids[1])


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class UCheck(UPyExpr):
    subject: UPyExpr
    tag: Tag

    def children(self):
        return (self.subject,)

    def rebuild(self, kids):
        return UCheck(kids[0], self.tag)


@dataclass(frozen=True, slots=True)
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
