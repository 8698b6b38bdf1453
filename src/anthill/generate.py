"""Random program generators.

Three generators share one RNG discipline: every function takes an
explicit random.Random so runs are reproducible from a seed. Draws use
only its random() and getrandbits(): randint, choice, sample and
randrange are CPython's code replayed from getrandbits, so a seed's
programs are random.Random's, stay so whatever the interpreter's
version of those methods, and cost two Python calls a draw, not three;
a randint(a, b) is written out as a + _below(rng, b - a + 1).

* gen_typed_term builds source terms that inhabit a requested type
  exactly, so the translator accepts everything it produces. Exactness
  (rather than producing some subtype) keeps the search total: each
  production reduces the goal to sub-goals it can always meet, with a
  closed-form leaf for every type at depth zero.
* gen_untyped_context builds one-hole target-language contexts in
  which every elimination and creation form carries the native label.
* gen_native_expr builds arbitrary untyped code for the context's
  side positions, including nonsense like calling an integer.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate, filterfalse, islice, repeat

from .core import (
    OPEN,
    CLOSED,
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
    Set,
    Var,
    DYN,
    INT,
    instance_type,
)
from .upython import (
    FUN_TAGS,
    NATIVE,
    ClassTag,
    ObjTag,
    Tag,
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
    INT_TAG,
    PYOBJ,
)

BINDER_POOL = ("x", "y", "z", "w", "f", "g", "t", "u")
LABEL_POOL = ("a", "b", "c", "m", "n")
TYPE_NAME_POOL = ("P", "Q", "R", "V")
MAX_ARGS = MAX_ATTRS = 2


def _table(*menu: tuple[str, int]) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """A weighted menu as (kinds, cumulative weights)."""
    return (tuple(kind for kind, _ in menu),
            tuple(accumulate(weight for _, weight in menu)))


def _pick(rng: random.Random, table) -> str:
    """One weighted draw from a table: the kind random.Random.choices
    returns for these weights and k=1, from the same single
    rng.random() call, without accumulating the weights again."""
    kinds, cum = table
    return kinds[bisect_right(cum, rng.random() * cum[-1], 0, len(kinds) - 1)]


def _below(rng: random.Random, n: int) -> int:
    """A draw from range(n), n > 0, exactly as random.Random._randbelow
    makes it: getrandbits of n's bit length until one falls below n."""
    if n <= 0:
        raise ValueError(f"empty range for a draw below {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _choice(rng: random.Random, seq):
    """random.Random.choice(seq), replayed."""
    return seq[_below(rng, len(seq))]


def _sample(rng: random.Random, population, k: int) -> list:
    """random.Random.sample(population, k), replayed for a population of
    at most 21, where CPython always takes its pool branch."""
    pool, result = list(population), []
    for _ in range(k):
        # CPython moves the last unpicked entry into the vacancy
        j = _below(rng, len(pool))
        pool[j], pool[-1] = pool[-1], pool[j]
        result.append(pool.pop())
    return result


def _openness(rng: random.Random):
    return OPEN if rng.random() < 0.5 else CLOSED


TYPE_MENU = _table(("dyn", 2), ("int", 3), ("fun", 2), ("obj", 2),
                   ("class", 1))


def gen_type(rng: random.Random, depth: int) -> AnthillType:
    if depth <= 0:
        return INT if rng.random() < 0.6 else DYN
    kind = _pick(rng, TYPE_MENU)
    if kind == "dyn":
        return DYN
    if kind == "int":
        return INT
    # zip and islice check for a label or the count before each draw
    types = map(gen_type, repeat(rng), repeat(depth - 1))
    if kind == "fun":
        params = tuple(islice(types, _below(rng, MAX_ARGS + 1)))
        return Function(params, gen_type(rng, depth - 1))
    if kind == "obj":
        labels = _sample(rng, LABEL_POOL, _below(rng, MAX_ATTRS + 1))
        entries = AttrTypes(zip(labels, types))
        return Object(_choice(rng, TYPE_NAME_POOL), _openness(rng), entries)
    # class: keep declared class members and instance members disjoint so
    # constructed objects carry the values their declared types promise
    total = _sample(rng, LABEL_POOL,
                    _below(rng, min(len(LABEL_POOL), 2 * MAX_ATTRS) + 1))
    split = _below(rng, len(total) + 1)
    class_entries = AttrTypes(zip(total[:split], types))
    inst_entries = AttrTypes(zip(total[split:], types))
    ctor_params = tuple(islice(types, _below(rng, MAX_ARGS + 1)))
    return Class(_choice(rng, TYPE_NAME_POOL), _openness(rng),
                 class_entries, inst_entries, ctor_params)


# ---------------------------------------------------------------------------
# typed terms


def _has_receiver(ty: AnthillType) -> bool:
    return isinstance(ty, Function) and len(ty.params) >= 1


def _members(entries, cls: Class, sub) -> tuple[tuple, tuple]:
    """The methods and fields realising class-side attribute types, in
    the order given: a method for a function type with a receiver slot,
    otherwise a field. Each body is sub(scope, type), where scope holds
    the bindings the body adds to the enclosing environment."""
    methods, fields = [], []
    for label, ty in entries:
        if _has_receiver(ty):
            params = _named("v", ty.params[1:])
            scope = {"self": instance_type(cls), **dict(params)}
            methods.append(Method(label, "self", params, ty.ret,
                                  sub(scope, ty.ret)))
        else:
            fields.append((label, sub({}, ty)))
    return tuple(methods), tuple(fields)


def _named(prefix: str, types) -> tuple[tuple[str, AnthillType], ...]:
    """types as parameters named prefix0, prefix1, …"""
    return tuple(zip(map((prefix + "{}").format, range(len(types))), types))


def _ctor(params, assigns) -> Constructor:
    """A constructor over params that sets each (label, term) of assigns
    on self, in order."""
    body = IntLit(0)
    for label, value in reversed(assigns):
        body = Let("_", Set(Var("self"), label, value), body)
    return Constructor("self", params, body)


def _constructor(goal: Class, sub) -> Constructor:
    """A constructor taking goal's constructor parameters. Each instance
    attribute comes from the first parameter of its type, or else from
    sub(scope, type)."""
    params = _named("a", goal.ctor_params)
    scope = {"self": DYN, **dict(params)}
    assigns = []
    for label, ty in goal.instance_attrs.items():
        source = next((Var(name) for name, pty in params if pty == ty), None)
        assigns.append((label, sub(scope, ty) if source is None else source))
    return _ctor(params, assigns)


def _installer(prefix: str, entries) -> Constructor:
    """A constructor with one parameter per attribute, prefix0, prefix1,
    …, that sets each attribute from its own parameter."""
    labels = dict(entries)
    params = _named(prefix, labels.values())
    return _ctor(params, tuple(zip(labels, map(Var, dict(params)))))


def _leaf_object(goal: Object, rng: random.Random) -> AnthillTerm:
    # a memberless class whose constructor installs every declared attribute
    cls = ClassDecl(goal.name, goal.openness, AttrTypes(()), goal.attrs,
                    (), (), (), _installer("v", goal.attrs))
    return App(cls, tuple(map(leaf_term, repeat(rng), goal.attrs.values())))


def _leaf_class(goal: Class, rng: random.Random) -> AnthillTerm:
    def sub(scope, ty):
        return leaf_term(rng, ty)
    methods, fields = _members(goal.class_attrs.items(), goal, sub)
    return ClassDecl(goal.name, goal.openness, goal.class_attrs,
                     goal.instance_attrs, (), methods, fields,
                     _constructor(goal, sub))


def leaf_term(rng: random.Random, goal: AnthillType) -> AnthillTerm:
    """A closed term of exactly the goal type, with no further recursion."""
    if isinstance(goal, Dyn):
        return App(Fun((("z", DYN),), DYN, Var("z")),
                   (IntLit(_below(rng, 10)),))
    if isinstance(goal, Function):
        return Fun(_named("v", goal.params), goal.ret,
                   leaf_term(rng, goal.ret))
    if isinstance(goal, Object):
        return _leaf_object(goal, rng)
    if isinstance(goal, Class):
        return _leaf_class(goal, rng)
    return IntLit(_below(rng, 10))


TypeEnv = dict[str, AnthillType]

# gen_typed_term's menu by the goal's type class and whether some variable
# in scope has the goal type
_TERM_EXTRAS = {
    Dyn: (("app_dyn", 2), ("get_check", 1)),
    Int: (("set", 1), ("set_check", 1)),
    Function: (("fun", 4),),
    Object: (("construct", 4),),
    Class: (("class_decl", 4),),
}
TERM_MENUS = {
    (goal_class, has_var): _table(
        ("leaf", 1), ("let", 2), ("app_fun", 2), ("get", 1),
        *((("var", 3),) if has_var else ()), *extras)
    for goal_class, extras in _TERM_EXTRAS.items()
    for has_var in (False, True)
}


def gen_typed_term(rng: random.Random, env: TypeEnv, goal: AnthillType,
                   depth: int) -> AnthillTerm:
    """A term of exactly the goal type under env, recursion-bounded."""
    goal_class = type(goal)
    candidates = []
    for name, ty in env.items():
        if ty is goal or type(ty) is goal_class and ty == goal:
            candidates.append(name)
    if depth <= 0:
        if candidates and rng.random() < 0.5:
            return Var(_choice(rng, candidates))
        return leaf_term(rng, goal)

    kind = _pick(rng, TERM_MENUS[goal_class, bool(candidates)])

    if kind == "var":
        return Var(_choice(rng, candidates))
    if kind == "leaf":
        return leaf_term(rng, goal)
    if kind == "let":
        bound_ty = gen_type(rng, depth - 1)
        name = _choice(rng, BINDER_POOL)
        bound = gen_typed_term(rng, env, bound_ty, depth - 1)
        body = gen_typed_term(rng, {**env, name: bound_ty}, goal, depth - 1)
        return Let(name, bound, body)
    if kind == "app_fun":
        arg_tys = tuple(map(gen_type, repeat(rng, _below(rng, MAX_ARGS + 1)),
                            repeat(depth - 1)))
        fn = gen_typed_term(rng, env, Function(arg_tys, goal), depth - 1)
        args = map(gen_typed_term, repeat(rng), repeat(env), arg_tys,
                   repeat(depth - 1))
        return App(fn, tuple(args))
    if kind == "app_dyn":
        fn = gen_typed_term(rng, env, DYN, depth - 1)
        args = []
        for _ in range(_below(rng, MAX_ARGS + 1)):
            args.append(gen_typed_term(rng, env, gen_type(rng, depth - 1),
                                       depth - 1))
        return App(fn, tuple(args))
    if kind == "get":
        label = _choice(rng, LABEL_POOL)
        entries = [(label, goal)]
        extra = _choice(rng, tuple(filterfalse(label.__eq__, LABEL_POOL)))
        if rng.random() < 0.4:
            entries.append((extra, gen_type(rng, depth - 1)))
        subject_ty = Object(_choice(rng, TYPE_NAME_POOL), _openness(rng),
                            AttrTypes(entries))
        subject = gen_typed_term(rng, env, subject_ty, depth - 1)
        return Get(subject, label)
    if kind == "get_check":
        subject = gen_typed_term(rng, env, DYN, depth - 1)
        return Get(subject, _choice(rng, LABEL_POOL))
    if kind == "set":
        label = _choice(rng, LABEL_POOL)
        value_ty = gen_type(rng, depth - 1)
        subject_ty = Object(_choice(rng, TYPE_NAME_POOL), _openness(rng),
                            AttrTypes([(label, value_ty)]))
        subject = gen_typed_term(rng, env, subject_ty, depth - 1)
        value = gen_typed_term(rng, env, value_ty, depth - 1)
        return Set(subject, label, value)
    if kind == "set_check":
        subject = gen_typed_term(rng, env, DYN, depth - 1)
        value = gen_typed_term(rng, env, gen_type(rng, depth - 1),
                               depth - 1)
        return Set(subject, _choice(rng, LABEL_POOL), value)
    if kind == "fun":
        names = _sample(rng, BINDER_POOL, len(goal.params)) \
            if len(goal.params) <= len(BINDER_POOL) \
            else map("v{}".format, range(len(goal.params)))
        params = tuple(zip(names, goal.params))
        inner = {**env, **dict(params)}
        return Fun(params, goal.ret,
                   gen_typed_term(rng, inner, goal.ret, depth - 1))
    if kind == "construct":
        return _gen_construct(rng, env, goal, depth)
    if kind == "class_decl":
        return _gen_class_decl(rng, env, goal, depth)
    raise AssertionError(kind)


def _gen_construct(rng: random.Random, env: TypeEnv, goal: Object,
                   depth: int) -> AnthillTerm:
    """Object goal met by calling an inline class declaration.

    Each goal attribute is realized either as an instance attribute the
    constructor installs, or as a class member (a method for function
    types with a receiver slot, verbatim otherwise, both of which
    instantiate back to the same attribute type).
    """
    class_entries: list[tuple[str, AnthillType]] = []
    inst_entries: list[tuple[str, AnthillType]] = []
    for label, ty in goal.attrs.items():
        if rng.random() < 0.5:
            inst_entries.append((label, ty))
        elif _has_receiver(ty):
            class_entries.append((label, Function((DYN, *ty.params), ty.ret)))
        else:
            class_entries.append((label, ty))
    cls_ty = Class(goal.name, goal.openness, AttrTypes(class_entries),
                   AttrTypes(inst_entries),
                   tuple(dict(inst_entries).values()))

    def sub(scope, ty):
        return gen_typed_term(rng, {**env, **scope}, ty, depth - 1)
    # methods draw before fields, as every seed's programs were drawn
    methods, fields = _members(
        sorted(class_entries, key=lambda e: not _has_receiver(e[1])),
        cls_ty, sub)
    cls = ClassDecl(goal.name, goal.openness, cls_ty.class_attrs,
                    cls_ty.instance_attrs, (), methods, fields,
                    _installer("a", inst_entries))
    args = map(gen_typed_term, repeat(rng), repeat(env), cls_ty.ctor_params,
               repeat(depth - 1))
    return App(cls, tuple(args))


def _gen_class_decl(rng: random.Random, env: TypeEnv, goal: Class,
                    depth: int) -> AnthillTerm:
    # optionally inherit a subset of the declared class members
    supers: list[AnthillTerm] = []
    inherited: set[str] = set()
    if depth >= 2 and goal.class_attrs and rng.random() < 0.35:
        picked = [e for e in goal.class_attrs.items() if rng.random() < 0.5]
        if picked:
            super_ty = Class(_choice(rng, TYPE_NAME_POOL), _openness(rng),
                             AttrTypes(picked), AttrTypes(()), ())
            supers.append(gen_typed_term(rng, env, super_ty, depth - 1))
            inherited = set(dict(picked))
    if depth >= 2 and rng.random() < 0.05:
        # an opaque super: statically fine, fails the class-tag cast at
        # run time unless it happens to be a class
        supers.append(gen_typed_term(rng, env, DYN, depth - 1))

    def sub(scope, ty):
        return gen_typed_term(rng, {**env, **scope}, ty, depth - 1)
    methods, fields = _members(
        [e for e in goal.class_attrs.items() if e[0] not in inherited],
        goal, sub)
    taken = goal.class_attrs.keys() | goal.instance_attrs.keys()
    free = list(filterfalse(taken.__contains__, LABEL_POOL))
    if free and rng.random() < 0.2:
        # an undeclared extra member is allowed
        fields += ((_choice(rng, free),
                    gen_typed_term(rng, env, gen_type(rng, depth - 1),
                                   depth - 1)),)

    return ClassDecl(goal.name, goal.openness, goal.class_attrs,
                     goal.instance_attrs, tuple(supers), methods, fields,
                     _constructor(goal, sub))


def gen_typed_program(rng: random.Random,
                      depth: int) -> tuple[AnthillTerm, AnthillType]:
    """A closed well-typed term together with its type."""
    goal = gen_type(rng, max(1, depth // 2))
    return gen_typed_term(rng, {}, goal, depth), goal


# ---------------------------------------------------------------------------
# untyped code


TAG_MENU = _table(("pyobj", 3), ("int", 3), ("fun", 2), ("obj", 2),
                  ("class", 1))


def gen_tag(rng: random.Random) -> Tag:
    kind = _pick(rng, TAG_MENU)
    if kind == "pyobj":
        return PYOBJ
    if kind == "int":
        return INT_TAG
    if kind == "fun":
        return FUN_TAGS[_below(rng, 3)]
    labels = tuple(_sample(rng, LABEL_POOL, _below(rng, 3)))
    if kind == "obj":
        return ObjTag(labels)
    arity = None if rng.random() < 0.4 else _below(rng, 3)
    return ClassTag(labels, arity)


def _native_menu(var_weight: int):
    # "var" keeps its slot at weight 0, so both tables index alike
    return _table(("int", 2), ("var", var_weight), ("lam", 3), ("app", 3),
                  ("let", 2), ("get", 2), ("set", 1), ("class", 1),
                  ("check", 1))


# by whether any variable is in scope
NATIVE_MENUS = {False: _native_menu(0), True: _native_menu(3)}


def gen_native_expr(rng: random.Random, scope: tuple[str, ...],
                    depth: int) -> UPyExpr:
    """Arbitrary untyped code over the given variables, all labels native."""
    if depth <= 0:
        if scope and rng.random() < 0.5:
            return UVar(_choice(rng, scope))
        return UInt(_below(rng, 10))
    kind = _pick(rng, NATIVE_MENUS[bool(scope)])
    if kind == "int":
        return UInt(_below(rng, 10))
    if kind == "var":
        return UVar(_choice(rng, scope))
    if kind == "lam":
        params = tuple(_sample(rng, BINDER_POOL, _below(rng, 3)))
        return ULam(params, gen_native_expr(rng, scope + params, depth - 1))
    if kind == "app":
        fn = gen_native_expr(rng, scope, depth - 1)
        args = map(gen_native_expr, repeat(rng, _below(rng, 3)),
                   repeat(scope), repeat(depth - 1))
        return UApp(fn, tuple(args), NATIVE)
    if kind == "let":
        name = _choice(rng, BINDER_POOL)
        return ULet(name, gen_native_expr(rng, scope, depth - 1),
                    gen_native_expr(rng, scope + (name,), depth - 1))
    if kind == "get":
        return UGet(gen_native_expr(rng, scope, depth - 1),
                    _choice(rng, LABEL_POOL), NATIVE)
    if kind == "set":
        return USet(gen_native_expr(rng, scope, depth - 1),
                    _choice(rng, LABEL_POOL),
                    gen_native_expr(rng, scope, depth - 1), NATIVE)
    if kind == "class":
        return _gen_native_class(rng, scope, depth, None)
    return UCheck(gen_native_expr(rng, scope, depth - 1), gen_tag(rng))


def gen_native_value(rng: random.Random, scope: tuple[str, ...],
                     depth: int) -> UPyExpr:
    if rng.random() < 0.4:
        return UInt(_below(rng, 10))
    params = tuple(_sample(rng, BINDER_POOL, _below(rng, 3)))
    return ULam(params, gen_native_expr(rng, scope + params, depth - 1))


def _gen_native_class(rng: random.Random, scope: tuple[str, ...], depth: int,
                      hole_member: UPyExpr | None) -> UPyExpr:
    """A native class literal; if hole_member is given it becomes one
    member and the supers are restricted to values."""
    gen_super = gen_native_expr if hole_member is None else gen_native_value
    supers = tuple(map(gen_super, repeat(rng, _below(rng, 2)),
                       repeat(scope), repeat(depth - 1)))
    labels = _sample(rng, LABEL_POOL, _below(rng, 3) if hole_member is None
                     else 1 + _below(rng, 2))
    members: list[tuple[str, UPyExpr]] = []
    hole_at = _below(rng, len(labels)) if hole_member is not None else -1
    for i, label in enumerate(labels):
        value = (hole_member if i == hole_at
                 else gen_native_expr(rng, scope, depth - 1))
        members.append((label, value))
    if rng.random() < 0.8:
        arity = 1 + _below(rng, 3)
        names = tuple(map("v{}".format, range(arity)))
        ctor = ULam(names, gen_native_expr(rng, scope + names, depth - 1))
    else:
        ctor = gen_native_expr(rng, scope, depth - 1)
    return UClass(_choice(rng, TYPE_NAME_POOL), supers, tuple(members),
                  ctor, NATIVE)


# ---------------------------------------------------------------------------
# one-hole contexts


def gen_untyped_context(rng: random.Random, depth: int) -> UPyExpr:
    """A one-hole native context; see contexts.hole_binders."""
    return _gen_ctx(rng, (), depth)


CONTEXT_MENU = _table(
    ("let_bound", 2), ("let_body", 3), ("lam_body", 3), ("app_fn", 2),
    ("app_arg", 2), ("get_subject", 2), ("set_subject", 1), ("set_value", 1),
    ("check", 1), ("class_super", 1), ("class_ctor", 1), ("class_member", 1))


def _gen_ctx(rng: random.Random, scope: tuple[str, ...],
             depth: int) -> UPyExpr:
    # scope: the names bound here, for the native code beside the hole
    if depth <= 0 or rng.random() < 0.12:
        return UHole()
    kind = _pick(rng, CONTEXT_MENU)
    if kind == "let_bound":
        name = _choice(rng, BINDER_POOL)
        return ULet(name, _gen_ctx(rng, scope, depth - 1),
                    gen_native_expr(rng, scope + (name,), depth - 1))
    if kind == "let_body":
        name = _choice(rng, BINDER_POOL)
        return ULet(name, gen_native_expr(rng, scope, depth - 1),
                    _gen_ctx(rng, scope + (name,), depth - 1))
    if kind == "lam_body":
        params = tuple(_sample(rng, BINDER_POOL, _below(rng, 3)))
        return ULam(params, _gen_ctx(rng, scope + params, depth - 1))
    if kind == "app_fn":
        return UApp(_gen_ctx(rng, scope, depth - 1),
                    tuple(map(gen_native_expr, repeat(rng, _below(rng, 3)),
                              repeat(scope), repeat(depth - 1))), NATIVE)
    if kind == "app_arg":
        fn = gen_native_expr(rng, scope, depth - 1)
        count = 1 + _below(rng, 2)
        at = _below(rng, count)
        inner = _gen_ctx(rng, scope, depth - 1)
        args = []
        for i in range(count):
            args.append(inner if i == at
                        else gen_native_expr(rng, scope, depth - 1))
        return UApp(fn, tuple(args), NATIVE)
    if kind == "get_subject":
        return UGet(_gen_ctx(rng, scope, depth - 1),
                    _choice(rng, LABEL_POOL), NATIVE)
    if kind == "set_subject":
        inner = _gen_ctx(rng, scope, depth - 1)
        value = gen_native_expr(rng, scope, depth - 1)
        return USet(inner, _choice(rng, LABEL_POOL), value, NATIVE)
    if kind == "set_value":
        subject = gen_native_expr(rng, scope, depth - 1)
        inner = _gen_ctx(rng, scope, depth - 1)
        return USet(subject, _choice(rng, LABEL_POOL), inner, NATIVE)
    if kind == "check":
        return UCheck(_gen_ctx(rng, scope, depth - 1), gen_tag(rng))
    if kind == "class_super":
        inner = _gen_ctx(rng, scope, depth - 1)
        cls = _gen_native_class(rng, scope, depth, None)
        return UClass(cls.name, (inner,) + cls.supers, cls.members,
                      cls.ctor, NATIVE)
    if kind == "class_ctor":
        inner = _gen_ctx(rng, scope, depth - 1)
        cls = _gen_native_class(rng, scope, depth, None)
        return UClass(cls.name, cls.supers, cls.members, inner, NATIVE)
    if kind == "class_member":
        return _gen_native_class(rng, scope, depth,
                                 _gen_ctx(rng, scope, depth - 1))
    raise AssertionError(kind)
