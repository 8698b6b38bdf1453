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
    Constructor,
    Dyn,
    Fun,
    Function,
    Get,
    Int,
    IntLit,
    Let,
    Method,
    Object,
    Openness,
    Set,
    Var,
)
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


def _openness(q: Openness) -> str:
    return "open" if q is Openness.OPEN else "closed"


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
        return f"obj {ty.name} {_openness(ty.openness)} {_attr_types(ty.attrs)}"
    if isinstance(ty, Class):
        ctor = ", ".join(map(print_anthill_type, ty.ctor_params))
        return (f"class {ty.name} {_openness(ty.openness)} "
                f"{_attr_types(ty.class_attrs)}"
                f"{_attr_types(ty.instance_attrs)}({ctor})")
    raise TypeError(f"not a type: {ty!r}")


def _anthill_postfix_safe(t: AnthillTerm) -> bool:
    return isinstance(t, (Var, IntLit, App, Get))


def _anthill_subject(t: AnthillTerm) -> str:
    s = print_anthill_term(t)
    return s if _anthill_postfix_safe(t) else f"({s})"


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
    if isinstance(t, App):
        args = ", ".join(map(print_anthill_term, t.args))
        return f"{_anthill_subject(t.fn)}({args})"
    if isinstance(t, Get):
        return f"{_anthill_subject(t.subject)}.{t.attr}"
    if isinstance(t, Set):
        return (f"{_anthill_subject(t.subject)}.{t.attr} = "
                f"{print_anthill_term(t.value)}")
    if isinstance(t, ClassDecl):
        supers = ", ".join(map(print_anthill_term, t.supers))
        members = []
        for m in t.methods:
            members.append(f"{m.name} = {_method(m)}")
        for label, value in t.fields:
            members.append(f"{label} = {print_anthill_term(value)}")
        members.append(f"init = {_constructor(t.ctor)}")
        body = "; ".join(members)
        return (f"class {t.name}({supers}) [{_openness(t.openness)}; "
                f"{_attr_types(t.class_attrs)}; "
                f"{_attr_types(t.instance_attrs)}] {{ {body} }}")
    raise TypeError(f"not a term: {t!r}")


def _method(m: Method) -> str:
    return (f"meth({_typed_params(m.params, m.receiver)}) -> "
            f"{print_anthill_type(m.ret)}: {print_anthill_term(m.body)}")


def _constructor(c: Constructor) -> str:
    return (f"ctor({_typed_params(c.params, c.receiver)}): "
            f"{print_anthill_term(c.body)}")


# ---------------------------------------------------------------------------
# target language


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


def _upy_postfix_safe(e: UPyExpr) -> bool:
    return isinstance(e, (UVar, UInt, UApp, UGet, UAddr, UCheck, UHole))


def _upy_subject(e: UPyExpr) -> str:
    s = print_upython(e)
    return s if _upy_postfix_safe(e) else f"({s})"


def _bang(label: Label) -> str:
    return "!" if label is Label.TRANSLATED else ""


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
    if isinstance(e, UApp):
        args = ", ".join(map(print_upython, e.args))
        return f"{_upy_subject(e.fn)}({args}){_bang(e.label)}"
    if isinstance(e, UGet):
        return f"{_upy_subject(e.subject)}.{e.attr}{_bang(e.label)}"
    if isinstance(e, USet):
        return (f"{_upy_subject(e.subject)}.{e.attr}{_bang(e.label)} = "
                f"{print_upython(e.value)}")
    if isinstance(e, UCheck):
        return f"check({print_upython(e.subject)}, {print_tag(e.tag)})"
    if isinstance(e, UClass):
        supers = ", ".join(map(print_upython, e.supers))
        members = ", ".join(f"{label} = {print_upython(v)}"
                            for label, v in e.members)
        return (f"class{_bang(e.label)} {e.name}({supers}){{{members}}} "
                f"init {print_upython(e.ctor)}")
    raise TypeError(f"not an expression: {e!r}")
