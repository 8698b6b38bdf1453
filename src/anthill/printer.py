"""Deterministic pretty-printers for both languages.

Output re-parses to an equal tree. Parentheses appear only where an
open-ended form (binder, assignment, class literal) sits in callee or
attribute-subject position; tag label sets print sorted so equal tags
print identically.
"""

from __future__ import annotations

from .core import (
    AnthillTerm,
    AnthillType,
    App,
    AttrTypes,
    Class,
    ClassDecl,
    Dyn,
    Fun,
    Function,
    Get,
    Int,
    IntLit,
    Let,
    Object,
    Set,
    Var,
)
from .upython import (
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
    UHole,
    UInt,
    ULam,
    ULet,
    UPyExpr,
    USet,
    UVar,
)

# ---------------------------------------------------------------------------
# source language

# Each printer has one postfix rule, for call, get and set, which prints
# its subject, in parentheses unless its form is postfix-safe, and a
# call's arguments in its own frame: one frame per level of nesting.
_ANTHILL_POSTFIX_SAFE = (Var, IntLit, App, Get)


def _attr_types(attrs: AttrTypes) -> str:
    inner = ", ".join(f"{label}: {print_anthill_type(ty)}"
                      for label, ty in attrs.items())
    return "{" + inner + "}"


def print_anthill_type(ty: AnthillType) -> str:
    if isinstance(ty, Dyn):
        return "dyn"
    if isinstance(ty, Int):
        return "int"
    if isinstance(ty, Function):
        params = ", ".join(map(print_anthill_type, ty.params))
        return f"({params}) -> {print_anthill_type(ty.ret)}"
    if isinstance(ty, Object):
        return f"obj {ty.name} {ty.openness.value} {_attr_types(ty.attrs)}"
    if isinstance(ty, Class):
        ctor = ", ".join(map(print_anthill_type, ty.ctor_params))
        return (f"class {ty.name} {ty.openness.value} "
                f"{_attr_types(ty.class_attrs)}"
                f"{_attr_types(ty.instance_attrs)}({ctor})")
    raise TypeError(f"not a type: {ty!r}")


def _typed_params(params, *receiver) -> str:
    return ", ".join((*receiver, *(f"{name}: {print_anthill_type(ty)}"
                                   for name, ty in params)))


def print_anthill_term(t: AnthillTerm) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, IntLit):
        return str(t.value)
    if isinstance(t, Let):
        return (f"let {t.name} = {print_anthill_term(t.bound)} "
                f"in {print_anthill_term(t.body)}")
    if isinstance(t, Fun):
        return (f"fun({_typed_params(t.params)}) -> "
                f"{print_anthill_type(t.ret)}: {print_anthill_term(t.body)}")
    if isinstance(t, (App, Get, Set)):
        subject = t.fn if isinstance(t, App) else t.subject
        s = print_anthill_term(subject)
        if not isinstance(subject, _ANTHILL_POSTFIX_SAFE):
            s = f"({s})"
        if isinstance(t, App):
            args = []
            for a in t.args:
                args.append(print_anthill_term(a))
            return f"{s}({', '.join(args)})"
        if isinstance(t, Get):
            return f"{s}.{t.attr}"
        return f"{s}.{t.attr} = {print_anthill_term(t.value)}"
    if isinstance(t, ClassDecl):
        supers = []
        for s in t.supers:
            supers.append(print_anthill_term(s))
        members = []
        for m in t.methods:
            params = _typed_params(m.params, m.receiver)
            members.append(f"{m.name} = meth({params}) -> "
                           f"{print_anthill_type(m.ret)}: "
                           f"{print_anthill_term(m.body)}")
        for label, value in t.fields:
            members.append(f"{label} = {print_anthill_term(value)}")
        params = _typed_params(t.ctor.params, t.ctor.receiver)
        members.append(f"init = ctor({params}): "
                       f"{print_anthill_term(t.ctor.body)}")
        return (f"class {t.name}({', '.join(supers)}) [{t.openness.value}; "
                f"{_attr_types(t.class_attrs)}; "
                f"{_attr_types(t.instance_attrs)}] {{ {'; '.join(members)} }}")
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# target language

_UPY_POSTFIX_SAFE = (UVar, UInt, UApp, UGet, UAddr, UCheck, UHole)


def print_tag(s: Tag) -> str:
    if isinstance(s, Pyobj):
        return "pyobj"
    if isinstance(s, IntTag):
        return "int"
    if isinstance(s, FunTag):
        return f"fun[{s.arity}]"
    if isinstance(s, ObjTag):
        return "obj{" + ", ".join(sorted(s.labels)) + "}"
    if isinstance(s, ClassTag):
        arity = "any" if s.arity is None else str(s.arity)
        return "class{" + ", ".join(sorted(s.labels)) + f"}}[{arity}]"
    raise TypeError(f"not a tag: {s!r}")


def print_upython(e: UPyExpr) -> str:
    if isinstance(e, UVar):
        return e.name
    if isinstance(e, UInt):
        return str(e.value)
    if isinstance(e, UAddr):
        return f"@{e.addr}"
    if isinstance(e, UHole):
        return "HOLE"
    if isinstance(e, ULet):
        return (f"let {e.name} = {print_upython(e.bound)} "
                f"in {print_upython(e.body)}")
    if isinstance(e, ULam):
        return f"lambda({', '.join(e.params)}): {print_upython(e.body)}"
    if isinstance(e, (UApp, UGet, USet)):
        subject = e.fn if isinstance(e, UApp) else e.subject
        s = print_upython(subject)
        if not isinstance(subject, _UPY_POSTFIX_SAFE):
            s = f"({s})"
        bang = "!" if e.label is TRANSLATED else ""
        if isinstance(e, UApp):
            args = []
            for a in e.args:
                args.append(print_upython(a))
            return f"{s}({', '.join(args)}){bang}"
        if isinstance(e, UGet):
            return f"{s}.{e.attr}{bang}"
        return f"{s}.{e.attr}{bang} = {print_upython(e.value)}"
    if isinstance(e, UCheck):
        return f"check({print_upython(e.subject)}, {print_tag(e.tag)})"
    if isinstance(e, UClass):
        supers = []
        for s in e.supers:
            supers.append(print_upython(s))
        members = []
        for label, v in e.members:
            members.append(f"{label} = {print_upython(v)}")
        bang = "!" if e.label is TRANSLATED else ""
        return (f"class{bang} {e.name}({', '.join(supers)})"
                f"{{{', '.join(members)}}} init {print_upython(e.ctor)}")
    raise TypeError(f"not an expression: {e!r}")
