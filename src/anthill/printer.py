"""Deterministic pretty-printers for both languages.

Output re-parses to an equal tree. Parentheses appear only where an
open-ended form (binder, assignment, class literal) sits in callee or
attribute-subject position; tag label sets print sorted so equal tags
print identically.

One `RuleTable` maps every node class of both languages, their types
and tags to its print rule; each public printer is one dispatch. The
forms both grammars share have one rule each: variable, number, `let`,
and call, get and set, marked `!` only when TRANSLATED. A rule prints
each child through the table in its own frame and reads lists in a
loop, so a form nests at one frame a level and an attribute map at
two, as in the parser: every type the parser accepts prints.
"""

from __future__ import annotations

from operator import attrgetter

from .core import AnthillTerm, AnthillType, App, AttrTypes, Class, \
    ClassDecl, Dyn, Fun, Function, Get, Int, IntLit, Let, Object, Set, Var
from .upython import TRANSLATED, ClassTag, FunTag, IntTag, ObjTag, Pyobj, \
    RuleTable, Tag, UAddr, UApp, UCheck, UClass, UGet, UHole, UInt, ULam, \
    ULet, UPyExpr, USet, UVar


def _unprintable(n) -> str:
    raise TypeError(f"not a printable node: {n!r}")


# ---------------------------------------------------------------------------
# shared by both languages

_name = attrgetter("name")


def _number(n) -> str:
    return str(n.value)


def _let(n) -> str:
    return (f"let {n.name} = {_RULES[type(n.bound)](n.bound)} "
            f"in {_RULES[type(n.body)](n.body)}")


# a postfix subject of any other form prints in parentheses
_POSTFIX_SAFE = frozenset({Var, IntLit, App, Get,
                           UVar, UInt, UApp, UGet, UAddr, UCheck, UHole})


def _postfix(n) -> str:
    """A call (a node with args), get or set (a node with a value)."""
    args = getattr(n, "args", None)
    subject = n.subject if args is None else n.fn
    s = _RULES[type(subject)](subject)
    if type(subject) not in _POSTFIX_SAFE:
        s = f"({s})"
    mark = "!" if getattr(n, "label", None) is TRANSLATED else ""
    if args is not None:
        printed = []
        for a in args:
            printed.append(_RULES[type(a)](a))
        return f"{s}({', '.join(printed)}){mark}"
    value = getattr(n, "value", None)
    if value is None:
        return f"{s}.{n.attr}{mark}"
    return f"{s}.{n.attr}{mark} = {_RULES[type(value)](value)}"


# ---------------------------------------------------------------------------
# source types and terms

def _attr_types(attrs: AttrTypes) -> str:
    entries = []
    for label, ty in attrs.items():
        entries.append(f"{label}: {_RULES[type(ty)](ty)}")
    return "{" + ", ".join(entries) + "}"


def _function(ty: Function) -> str:
    params = []
    for p in ty.params:
        params.append(_RULES[type(p)](p))
    return f"({', '.join(params)}) -> {_RULES[type(ty.ret)](ty.ret)}"


def _object(ty: Object) -> str:
    return f"obj {ty.name} {ty.openness.value} {_attr_types(ty.attrs)}"


def _class_type(ty: Class) -> str:
    ctor = []
    for p in ty.ctor_params:
        ctor.append(_RULES[type(p)](p))
    return (f"class {ty.name} {ty.openness.value} "
            f"{_attr_types(ty.class_attrs)}"
            f"{_attr_types(ty.instance_attrs)}({', '.join(ctor)})")


def _typed_params(params, *receiver) -> str:
    printed = list(receiver)
    for name, ty in params:
        printed.append(f"{name}: {_RULES[type(ty)](ty)}")
    return ", ".join(printed)


def _fun(t: Fun) -> str:
    return (f"fun({_typed_params(t.params)}) -> "
            f"{_RULES[type(t.ret)](t.ret)}: {_RULES[type(t.body)](t.body)}")


def _class_decl(t: ClassDecl) -> str:
    supers = []
    for s in t.supers:
        supers.append(_RULES[type(s)](s))
    members = []
    for m in t.methods:
        members.append(f"{m.name} = meth({_typed_params(m.params, m.receiver)}"
                       f") -> {_RULES[type(m.ret)](m.ret)}: "
                       f"{_RULES[type(m.body)](m.body)}")
    for label, value in t.fields:
        members.append(f"{label} = {_RULES[type(value)](value)}")
    ctor = t.ctor
    members.append(f"init = ctor({_typed_params(ctor.params, ctor.receiver)}"
                   f"): {_RULES[type(ctor.body)](ctor.body)}")
    return (f"class {t.name}({', '.join(supers)}) [{t.openness.value}; "
            f"{_attr_types(t.class_attrs)}; "
            f"{_attr_types(t.instance_attrs)}] {{ {'; '.join(members)} }}")


# ---------------------------------------------------------------------------
# target tags and expressions

def _labels(s: ObjTag | ClassTag) -> str:
    return "{" + ", ".join(sorted(s.labels)) + "}"


def _class_tag(s: ClassTag) -> str:
    return f"class{_labels(s)}[{'any' if s.arity is None else s.arity}]"


def _lam(e: ULam) -> str:
    return f"lambda({', '.join(e.params)}): {_RULES[type(e.body)](e.body)}"


def _check(e: UCheck) -> str:
    return (f"check({_RULES[type(e.subject)](e.subject)}, "
            f"{_RULES[type(e.tag)](e.tag)})")


def _class(e: UClass) -> str:
    supers = []
    for s in e.supers:
        supers.append(_RULES[type(s)](s))
    members = []
    for label, v in e.members:
        members.append(f"{label} = {_RULES[type(v)](v)}")
    mark = "!" if e.label is TRANSLATED else ""
    return (f"class{mark} {e.name}({', '.join(supers)})"
            f"{{{', '.join(members)}}} init {_RULES[type(e.ctor)](e.ctor)}")


# the print rule of each node class; the rules recurse through it
_RULES = RuleTable(_unprintable, {
    Var: _name, IntLit: _number, Let: _let, App: _postfix, Get: _postfix,
    Set: _postfix, Fun: _fun, ClassDecl: _class_decl,
    Dyn: lambda ty: "dyn", Int: lambda ty: "int", Function: _function,
    Object: _object, Class: _class_type,
    Pyobj: lambda s: "pyobj", IntTag: lambda s: "int",
    FunTag: lambda s: f"fun[{s.arity}]", ObjTag: lambda s: f"obj{_labels(s)}",
    ClassTag: _class_tag,
    UVar: _name, UInt: _number, UAddr: lambda e: f"@{e.addr}",
    UHole: lambda e: "HOLE", ULet: _let, ULam: _lam, UApp: _postfix,
    UGet: _postfix, USet: _postfix, UCheck: _check, UClass: _class})


def print_anthill_type(ty: AnthillType) -> str:
    return _RULES[type(ty)](ty)


def print_anthill_term(t: AnthillTerm) -> str:
    return _RULES[type(t)](t)


def print_tag(s: Tag) -> str:
    return _RULES[type(s)](s)


def print_upython(e: UPyExpr) -> str:
    return _RULES[type(e)](e)
