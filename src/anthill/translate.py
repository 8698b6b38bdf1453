"""Type-directed translation from the source calculus to the untyped
target language.

The translation is syntax-directed and total on well-typed terms: each
term form has at most one applicable rule given the computed types of
its subterms. Every elimination or creation form the translator emits
carries the translated origin label, and every inserted runtime check
tests the tag image of a static type.
"""

from __future__ import annotations

from operator import itemgetter

from .core import (
    OPEN,
    AnthillTerm,
    AnthillType,
    App,
    Class,
    ClassDecl,
    Dyn,
    Function,
    Get,
    IntLit,
    Let,
    Fun,
    MemsUndefined,
    Set,
    Var,
    DYN,
    INT,
    factory_type,
    instance_type,
    mems,
    queryable,
    subtype_consistent,
    tag_of,
)
from .printer import print_anthill_type
from .upython import (
    FUN_TAGS,
    OBJ_TAG,
    TRANSLATED,
    ClassTag,
    ObjTag,
    RuleError,
    RuleTable,
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

TypeEnv = dict[str, AnthillType]


class StaticTypeError(RuleError):
    """No translation rule applies."""


def translate_program(term: AnthillTerm) -> tuple[UPyExpr, AnthillType]:
    """Translate a closed term."""
    return translate_term({}, term)


def translate_term(env: TypeEnv, t: AnthillTerm) -> tuple[UPyExpr, AnthillType]:
    return _TERM_RULES[type(t)](env, t)


def _not_a_term(env: TypeEnv, t) -> tuple[UPyExpr, AnthillType]:
    raise StaticTypeError("term", f"not a term: {t!r}", t)


def _var(env: TypeEnv, t: Var) -> tuple[UPyExpr, AnthillType]:
    if t.name not in env:
        raise StaticTypeError("var", f"unbound variable {t.name!r}", t)
    return UVar(t.name), env[t.name]


def _int_lit(env: TypeEnv, t: IntLit) -> tuple[UPyExpr, AnthillType]:
    return UInt(t.value), INT


def _let(env: TypeEnv, t: Let) -> tuple[UPyExpr, AnthillType]:
    bound, bound_ty = _TERM_RULES[type(t.bound)](env, t.bound)
    body, body_ty = _TERM_RULES[type(t.body)]({**env, t.name: bound_ty},
                                              t.body)
    return ULet(t.name, bound, body), body_ty


def _get(env: TypeEnv, t: Get) -> tuple[UPyExpr, AnthillType]:
    subject, subj_ty = _TERM_RULES[type(t.subject)](env, t.subject)
    attr_ty = _member_type("get", subj_ty, t)
    if attr_ty is None:
        return UGet(UCheck(subject, ObjTag((t.attr,))), t.attr, TRANSLATED), DYN
    return UCheck(UGet(subject, t.attr, TRANSLATED), tag_of(attr_ty)), attr_ty


def _set(env: TypeEnv, t: Set) -> tuple[UPyExpr, AnthillType]:
    subject, subj_ty = _TERM_RULES[type(t.subject)](env, t.subject)
    attr_ty = _member_type("set", subj_ty, t)
    value, value_ty = _TERM_RULES[type(t.value)](env, t.value)
    if attr_ty is None:
        return USet(UCheck(subject, OBJ_TAG), t.attr, value,
                    TRANSLATED), INT
    if not subtype_consistent(value_ty, attr_ty):
        raise StaticTypeError(
            "set",
            f"value type {print_anthill_type(value_ty)} does not "
            f"flow into member {t.attr!r} of type "
            f"{print_anthill_type(attr_ty)}", t)
    return USet(subject, t.attr, UCheck(value, tag_of(attr_ty)),
                TRANSLATED), INT


def _fun(env: TypeEnv, t: Fun) -> tuple[UPyExpr, AnthillType]:
    return (_lambda(env, "fun", t.params, t.params, t.ret, t.body, t),
            Function(tuple(map(itemgetter(1), t.params)), t.ret))


def _app(env: TypeEnv, t: App) -> tuple[UPyExpr, AnthillType]:
    fn, fn_ty = _TERM_RULES[type(t.fn)](env, t.fn)
    arg_pairs = []
    for a in t.args:
        arg_pairs.append(_TERM_RULES[type(a)](env, a))
    args = tuple(map(itemgetter(0), arg_pairs))

    if isinstance(fn_ty, Dyn):
        return UApp(UCheck(fn, FUN_TAGS[len(args)]), args, TRANSLATED), DYN

    if isinstance(fn_ty, Class):
        fn_ty = factory_type(fn_ty)
    if isinstance(fn_ty, Function):
        if len(fn_ty.params) != len(args):
            raise StaticTypeError(
                "app",
                f"arity mismatch: callee takes {len(fn_ty.params)} "
                f"argument(s), got {len(args)}", t)
        for (_, arg_ty), param_ty in zip(arg_pairs, fn_ty.params):
            if not subtype_consistent(arg_ty, param_ty):
                raise StaticTypeError(
                    "app",
                    f"argument type {print_anthill_type(arg_ty)} does "
                    f"not flow into parameter type "
                    f"{print_anthill_type(param_ty)}", t)
        return (UCheck(UApp(fn, args, TRANSLATED), tag_of(fn_ty.ret)),
                fn_ty.ret)

    raise StaticTypeError(
        "app", f"call of non-function type {print_anthill_type(fn_ty)}", t)


def _mems_or_error(rule, ty, subterm):
    try:
        return mems(ty)
    except MemsUndefined:
        raise StaticTypeError(
            rule, f"type {print_anthill_type(ty)} has no attributes",
            subterm) from None


def _member_type(rule, ty, t):
    """The declared type of member t.attr on ty, or None when ty is open
    and lacks it; a static type error when ty is closed and lacks it."""
    members = _mems_or_error(rule, ty, t)._map
    if t.attr in members or queryable(ty) is OPEN:
        return members.get(t.attr)
    raise StaticTypeError(
        rule, f"no member {t.attr!r} on closed type "
        f"{print_anthill_type(ty)}", t)


def _translate_class(env: TypeEnv, t: ClassDecl) -> tuple[UPyExpr, AnthillType]:
    declared = t.declared_type()

    super_exprs = []
    super_mems = []
    for s in t.supers:
        se, sty = _TERM_RULES[type(s)](env, s)
        sm = _mems_or_error("class", sty, s)
        super_exprs.append(UCheck(se, ClassTag(sm._map, None)))
        super_mems.append(sm._map)

    # the constructor's receiver is dynamically typed in its body and
    # gets no entry check; its parameters are checked as in functions
    c = t.ctor
    ctor_expr = _lambda(env, "constructor", ((c.receiver, DYN),) + c.params,
                        c.params, DYN, c.body, c)

    # a method's receiver is typed at the instance type in its body and
    # checked against that type's tag before the parameters; its member
    # type has the receiver slot at the dynamic type, so it lines up
    # with the class-attribute declarations and the lambda's arity
    inst = instance_type(declared) if t.methods else None
    local_types: dict[str, AnthillType] = {}
    method_members = []
    for m in t.methods:
        params = ((m.receiver, inst),) + m.params
        me = _lambda(env, "method", params, params, m.ret, m.body, m)
        method_members.append((m.name, me))
        local_types[m.name] = Function(
            (DYN, *map(itemgetter(1), m.params)), m.ret)
    field_members = []
    for name, fe in t.fields:
        fe2, fty = _TERM_RULES[type(fe)](env, fe)
        field_members.append((name, fe2))
        local_types[name] = fty

    # every declared class attribute must be provided, by a local member
    # or a superclass, at a type that flows into the declaration; local
    # members shadow supers, earlier supers shadow later ones
    provides = {}
    for m in (*reversed(super_mems), local_types):
        provides.update(m)
    for name, declared_ty in declared.class_attrs.entries:
        provided = provides.get(name)
        if provided is None:
            raise StaticTypeError(
                "class",
                f"declared class attribute {name!r} has no definition", t)
        if not subtype_consistent(provided, declared_ty):
            raise StaticTypeError(
                "class",
                f"definition of {name!r} has type "
                f"{print_anthill_type(provided)}, which does not flow into "
                f"declared {print_anthill_type(declared_ty)}", t)

    return (UClass(t.name, tuple(super_exprs),
                   tuple(method_members + field_members),
                   ctor_expr, TRANSLATED),
            declared)


def _lambda(env: TypeEnv, rule: str, params, checked, ret: AnthillType,
            body: AnthillTerm, subterm) -> ULam:
    """The one lambda rule, shared by functions, methods and
    constructors. The body is typed with params bound at their types,
    and its type must flow into ret; each parameter in checked, a
    suffix of params, is rebound through an entry check."""
    bound = {}
    for name, ty in params:
        if name != "_":
            if name in bound:
                raise StaticTypeError("params",
                                      f"duplicate parameter {name!r}")
            bound[name] = ty
    body, body_ty = _TERM_RULES[type(body)]({**env, **bound}, body)
    if not subtype_consistent(body_ty, ret):
        raise StaticTypeError(
            rule,
            f"body type {print_anthill_type(body_ty)} does not flow into "
            f"declared return type {print_anthill_type(ret)}", subterm)
    # entry checks, one let per parameter, outermost first; the wildcard
    # binder can never be referenced so it gets no rebinding
    for name, ty in reversed(checked):
        if name != "_":
            body = ULet(name, UCheck(UVar(name), tag_of(ty)), body)
    return ULam(tuple(map(itemgetter(0), params)), body)


# the translation rule of each term class; the rules recurse through it
_TERM_RULES = RuleTable(_not_a_term, {
    Var: _var, IntLit: _int_lit, Let: _let, Get: _get, Set: _set, Fun: _fun,
    App: _app, ClassDecl: _translate_class})
