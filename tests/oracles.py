"""Reference implementations the test suite checks the library against.

Every function here recomputes something the library also computes, but
by a deliberately different route: finite closure tables instead of
structural rules, exhaustive proof search instead of syntax-directed
inference, plain recursion instead of the engine's early exits, a
character loop instead of the lexer's regular expression. The
tests treat agreement between the two routes as the evidence; neither
side is trusted on its own. Only the shared AST, tag, and heap
datatypes are imported from the package, never the functions under
test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from anthill.core import (
    AnthillType,
    AttrTypes,
    Class,
    Dyn,
    Function,
    Int,
    Object,
)
from anthill.runtime import ClassH, Heap, ObjH
from anthill.upython import (
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

PYOBJ = Pyobj()
INT_TAG = IntTag()


# ---------------------------------------------------------------------------
# gradual type relations, one clause per rule
#
# Dispatch goes through a (constructor, constructor) table so that each
# clause is visibly one rule. Attribute maps are handled with label-set
# algebra rather than ordered iteration.


def o_consistent(a: AnthillType, b: AnthillType) -> bool:
    if isinstance(a, Dyn) or isinstance(b, Dyn):
        return True
    clause = _CONS_CLAUSES.get((type(a), type(b)))
    return clause is not None and clause(a, b)


def _cons_int(a: Int, b: Int) -> bool:
    return True


def _cons_fun(a: Function, b: Function) -> bool:
    if len(a.params) != len(b.params):
        return False
    pairs = list(zip(a.params, b.params)) + [(a.ret, b.ret)]
    return all(o_consistent(s, t) for s, t in pairs)


def _cons_obj(a: Object, b: Object) -> bool:
    return _attrs_agree(a.attrs, b.attrs)


def _cons_class(a: Class, b: Class) -> bool:
    return (_attrs_agree(a.class_attrs, b.class_attrs)
            and _attrs_agree(a.instance_attrs, b.instance_attrs)
            and len(a.ctor_params) == len(b.ctor_params)
            and all(o_consistent(s, t)
                    for s, t in zip(a.ctor_params, b.ctor_params)))


def _attrs_agree(d1: AttrTypes, d2: AttrTypes) -> bool:
    shared = set(d1.names()) & set(d2.names())
    return all(o_consistent(d1[x], d2[x]) for x in shared)


_CONS_CLAUSES = {
    (Int, Int): _cons_int,
    (Function, Function): _cons_fun,
    (Object, Object): _cons_obj,
    (Class, Class): _cons_class,
}


def o_subtype_consistent(a: AnthillType, b: AnthillType) -> bool:
    if isinstance(a, Dyn) or isinstance(b, Dyn):
        return True
    clause = _SUB_CLAUSES.get((type(a), type(b)))
    return clause is not None and clause(a, b)


def _sub_fun(a: Function, b: Function) -> bool:
    # parameters flip direction, result keeps it
    return (len(a.params) == len(b.params)
            and all(o_subtype_consistent(t, s)
                    for s, t in zip(a.params, b.params))
            and o_subtype_consistent(a.ret, b.ret))


def _sub_obj(a: Object, b: Object) -> bool:
    return _attrs_width(a.attrs, b.attrs)


def _sub_class(a: Class, b: Class) -> bool:
    return (_attrs_width(a.class_attrs, b.class_attrs)
            and _attrs_width(a.instance_attrs, b.instance_attrs)
            and len(a.ctor_params) == len(b.ctor_params)
            and all(o_subtype_consistent(t, s)
                    for s, t in zip(a.ctor_params, b.ctor_params)))


def _sub_class_obj(a: Class, b: Object) -> bool:
    return _attrs_width(a.class_attrs, b.attrs)


def _sub_class_fun(a: Class, b: Function) -> bool:
    constructed = Object(a.name, a.openness,
                         o_instantiate(a.class_attrs, a.instance_attrs))
    return (len(a.ctor_params) == len(b.params)
            and all(o_subtype_consistent(t, s)
                    for s, t in zip(a.ctor_params, b.params))
            and o_subtype_consistent(constructed, b.ret))


def _attrs_width(d1: AttrTypes, d2: AttrTypes) -> bool:
    # every demanded label exists and agrees up to consistency; the
    # depth direction is ~, not a nested subtype test
    names2 = set(d2.names())
    if not names2 <= set(d1.names()):
        return False
    return all(o_consistent(d1[x], d2[x]) for x in names2)


def _sub_int(a: Int, b: Int) -> bool:
    return True


_SUB_CLAUSES = {
    (Int, Int): _sub_int,
    (Function, Function): _sub_fun,
    (Object, Object): _sub_obj,
    (Class, Class): _sub_class,
    (Class, Object): _sub_class_obj,
    (Class, Function): _sub_class_fun,
}


def o_inst_fun(a: AnthillType) -> AnthillType:
    if isinstance(a, Function) and len(a.params) > 0:
        return Function(tuple(a.params[1:]), a.ret)
    return a


def o_instantiate(class_attrs: AttrTypes, instance_attrs: AttrTypes) -> AttrTypes:
    out = [(x, o_inst_fun(t)) for x, t in class_attrs.items()]
    taken = {x for x, _ in out}
    out.extend((x, t) for x, t in instance_attrs.items() if x not in taken)
    return AttrTypes(out)


def o_tag_of(a: AnthillType) -> Tag:
    if isinstance(a, Dyn):
        return PYOBJ
    if isinstance(a, Int):
        return INT_TAG
    if isinstance(a, Function):
        return FunTag(len(a.params))
    if isinstance(a, Object):
        return ObjTag(frozenset(a.attrs.names()))
    if isinstance(a, Class):
        return ClassTag(frozenset(a.class_attrs.names()), len(a.ctor_params))
    raise TypeError(f"not a type: {a!r}")


# ---------------------------------------------------------------------------
# runtime metafunctions, naive recursion


def o_getattr(heap: Heap, addr: int, label: str) -> UPyExpr | None:
    """Own members first; an object falls back to its class, a class to
    its superclasses left to right, depth first."""
    h = heap[addr]
    if isinstance(h, ObjH):
        if label in h.members:
            return h.members[label]
        return o_getattr(heap, h.cls, label)
    if label in h.members:
        return h.members[label]
    for sup in h.supers:
        hit = o_getattr(heap, sup, label)
        if hit is not None:
            return hit
    return None


def o_hasattrs(heap: Heap, addr: int, labels) -> bool:
    return all(o_getattr(heap, addr, x) is not None for x in labels)


def o_param_match(heap: Heap, v: UPyExpr, c: int | None) -> bool:
    if c is None:
        if isinstance(v, ULam):
            return True
        return (isinstance(v, UAddr) and v.addr in heap
                and isinstance(heap[v.addr], ClassH))
    if isinstance(v, ULam):
        return len(v.params) == c
    if isinstance(v, UAddr) and v.addr in heap:
        h = heap[v.addr]
        if isinstance(h, ClassH):
            return o_param_match(heap, h.ctor, c + 1)
    return False


def o_check(heap: Heap, v: UPyExpr, tag: Tag) -> bool:
    if isinstance(tag, Pyobj):
        return True
    if isinstance(tag, IntTag):
        return isinstance(v, UInt)
    if isinstance(tag, ObjTag):
        return (isinstance(v, UAddr) and v.addr in heap
                and o_hasattrs(heap, v.addr, tag.labels))
    if isinstance(tag, FunTag):
        if isinstance(v, ULam):
            return len(v.params) == tag.arity
        if isinstance(v, UAddr) and v.addr in heap:
            h = heap[v.addr]
            return (isinstance(h, ClassH)
                    and o_param_match(heap, h.ctor, tag.arity + 1))
        return False
    if isinstance(tag, ClassTag):
        return (isinstance(v, UAddr) and v.addr in heap
                and isinstance(heap[v.addr], ClassH)
                and o_param_match(heap, v, tag.arity)
                and o_hasattrs(heap, v.addr, tag.labels))
    raise TypeError(f"not a tag: {tag!r}")


def o_lookup(heap: Heap, addr: int, label: str, p: Label):
    """Member read on the heap value at addr. Returns ('found', e),
    ('absent',) for the missing-member error carrying p, or ('nullary',)
    for a class-found method that has no receiver slot to fill.

    A method reached through the class chain of an object is wrapped so
    the receiver is already applied; fresh parameter names are drawn
    from the unutterable $ namespace (callers should compare results up
    to renaming of bound variables)."""
    h = heap[addr]
    if isinstance(h, ClassH):
        hit = o_getattr(heap, addr, label)
        return ("found", hit) if hit is not None else ("absent",)
    if label in h.members:
        return ("found", h.members[label])
    hit = o_getattr(heap, h.cls, label)
    if hit is None:
        return ("absent",)
    if not isinstance(hit, ULam):
        return ("found", hit)
    if len(hit.params) == 0:
        return ("nullary",)
    rest = tuple(f"$o{i}" for i in range(len(hit.params) - 1))
    wrapped = ULam(rest, UApp(hit, (UAddr(addr),) + tuple(UVar(y) for y in rest), p))
    return ("found", wrapped)


# ---------------------------------------------------------------------------
# alpha renaming, for comparing lookup results and generated code


def alpha_normalize(e: UPyExpr) -> UPyExpr:
    """Rename every bound variable to a serial name in traversal order.
    Free variables are left alone, so two expressions are alpha
    equivalent exactly when their normal forms are equal."""
    counter = itertools.count()

    def walk(e: UPyExpr, ren: dict[str, str]) -> UPyExpr:
        if isinstance(e, UVar):
            return UVar(ren.get(e.name, e.name))
        if isinstance(e, (UInt, UAddr, UHole)):
            return e
        if isinstance(e, ULam):
            fresh = tuple(f"%{next(counter)}" for _ in e.params)
            inner = {**ren, **dict(zip(e.params, fresh))}
            return ULam(fresh, walk(e.body, inner))
        if isinstance(e, ULet):
            bound = walk(e.bound, ren)
            fresh = f"%{next(counter)}"
            return ULet(fresh, bound, walk(e.body, {**ren, e.name: fresh}))
        if isinstance(e, UApp):
            return UApp(walk(e.fn, ren),
                        tuple(walk(a, ren) for a in e.args), e.label)
        if isinstance(e, UGet):
            return UGet(walk(e.subject, ren), e.attr, e.label)
        if isinstance(e, USet):
            return USet(walk(e.subject, ren), e.attr,
                        walk(e.value, ren), e.label)
        if isinstance(e, UClass):
            return UClass(e.name,
                          tuple(walk(s, ren) for s in e.supers),
                          tuple((x, walk(m, ren)) for x, m in e.members),
                          walk(e.ctor, ren), e.label)
        if isinstance(e, UCheck):
            return UCheck(walk(e.subject, ren), e.tag)
        raise TypeError(f"not an expression: {e!r}")

    return walk(e, {})


# ---------------------------------------------------------------------------
# substitution, clause by clause from the rule in the README


def o_substitute(e: UPyExpr, sub: dict[str, UPyExpr]) -> UPyExpr:
    """Simultaneous substitution of closed values, by plain recursion: a
    variable in the map becomes its value, a lambda hides its
    parameters from the map, a let hides its name from its body but not
    from its bound, and every other form substitutes into each child.
    Every node is rebuilt, even where the map has become empty."""
    if isinstance(e, UVar):
        return sub.get(e.name, e)
    if isinstance(e, (UInt, UAddr, UHole)):
        return e
    if isinstance(e, ULam):
        hidden = {x: v for x, v in sub.items() if x not in e.params}
        return ULam(e.params, o_substitute(e.body, hidden))
    if isinstance(e, ULet):
        hidden = {x: v for x, v in sub.items() if x != e.name}
        return ULet(e.name, o_substitute(e.bound, sub),
                    o_substitute(e.body, hidden))
    if isinstance(e, UApp):
        return UApp(o_substitute(e.fn, sub),
                    tuple(o_substitute(a, sub) for a in e.args), e.label)
    if isinstance(e, UGet):
        return UGet(o_substitute(e.subject, sub), e.attr, e.label)
    if isinstance(e, USet):
        return USet(o_substitute(e.subject, sub), e.attr,
                    o_substitute(e.value, sub), e.label)
    if isinstance(e, UClass):
        return UClass(e.name,
                      tuple(o_substitute(s, sub) for s in e.supers),
                      tuple((x, o_substitute(m, sub)) for x, m in e.members),
                      o_substitute(e.ctor, sub), e.label)
    if isinstance(e, UCheck):
        return UCheck(o_substitute(e.subject, sub), e.tag)
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# tag order as a closure table over a finite universe
#
# The library decides s <: t structurally. Here the order is instead
# materialized: write down the axioms over every tag in a finite
# universe, add reflexivity, close under transitivity, and answer
# queries from the table.


def tag_universe(labels=("a", "b"), fun_arities=(0, 1, 2, 3),
                 class_arities=(0, 1, 2, 3)) -> tuple[Tag, ...]:
    subsets = []
    pool = tuple(labels)
    for r in range(len(pool) + 1):
        subsets.extend(frozenset(c) for c in itertools.combinations(pool, r))
    tags: list[Tag] = [PYOBJ, INT_TAG]
    tags.extend(FunTag(n) for n in fun_arities)
    tags.extend(ObjTag(d) for d in subsets)
    for d in subsets:
        tags.extend(ClassTag(d, n) for n in class_arities)
        tags.append(ClassTag(d, None))
    return tuple(tags)


class TagOrder:
    """The subtag relation on a fixed finite universe, computed as the
    reflexive transitive closure of the axioms."""

    def __init__(self, tags) -> None:
        self.tags = tuple(dict.fromkeys(tags))
        self.index = {t: i for i, t in enumerate(self.tags)}
        n = len(self.tags)
        rel = [[False] * n for _ in range(n)]
        for i in range(n):
            rel[i][i] = True
        for s, i in self.index.items():
            for t, j in self.index.items():
                if _axiom(s, t):
                    rel[i][j] = True
        for k in range(n):
            rk = rel[k]
            for i in range(n):
                if rel[i][k]:
                    ri = rel[i]
                    for j in range(n):
                        if rk[j]:
                            ri[j] = True
        self._rel = rel

    def __contains__(self, tag: Tag) -> bool:
        return tag in self.index

    def leq(self, s: Tag, t: Tag) -> bool:
        return self._rel[self.index[s]][self.index[t]]

    def up_set(self, s: Tag) -> frozenset[Tag]:
        row = self._rel[self.index[s]]
        return frozenset(t for t, j in self.index.items() if row[j])


def _axiom(s: Tag, t: Tag) -> bool:
    if isinstance(t, Pyobj):
        return True
    if isinstance(s, ObjTag) and isinstance(t, ObjTag):
        return t.labels <= s.labels
    if isinstance(s, ClassTag) and isinstance(t, ClassTag):
        if s.labels == t.labels and s.arity is not None and t.arity is None:
            return True
        return t.labels <= s.labels and s.arity == t.arity
    if isinstance(s, ClassTag) and isinstance(t, ObjTag):
        return s.labels == t.labels
    if isinstance(s, ClassTag) and isinstance(t, FunTag):
        return s.arity == t.arity and s.arity is not None
    return False


# ---------------------------------------------------------------------------
# declarative typing as proof search
#
# The library infers one principal tag per expression. The oracle
# instead computes the whole set of derivable tags over a finite
# universe, with the subsumption rule applied eagerly (every set is
# closed upward). Sets are bitmasks over the universe for speed; the
# exhaustive agreement test visits hundreds of thousands of terms.


class UniverseError(Exception):
    """A rule needed a tag the finite universe does not contain, so the
    search would be incomplete. Enlarge the universe."""


class DeclarativeTyping:
    def __init__(self, order: TagOrder, sigma=None) -> None:
        self.order = order
        self.sigma = dict(sigma or {})
        self._bit: dict[Tag, int] = {t: i for i, t in enumerate(order.tags)}
        self._up = [0] * len(order.tags)
        for t, i in self._bit.items():
            for u in order.up_set(t):
                self._up[i] |= 1 << self._bit[u]
        self._pyobj = 1 << self._bit[PYOBJ]
        self._memo: dict[tuple[UPyExpr, tuple], int] = {}

    # -- public face

    def types(self, e: UPyExpr, env=()) -> frozenset[Tag]:
        mask = self._mask(e, self._convert_env(env))
        return frozenset(t for t, i in self._bit.items() if mask >> i & 1)

    def typable(self, e: UPyExpr, env=()) -> bool:
        return self._mask(e, self._convert_env(env)) != 0

    def has_type(self, e: UPyExpr, tag: Tag, env=()) -> bool:
        return bool(self._mask(e, self._convert_env(env)) >> self._need(tag) & 1)

    def _convert_env(self, env) -> tuple:
        pairs = env.items() if isinstance(env, dict) else env
        return tuple((x, self._need(t)) for x, t in pairs)

    def _need(self, tag: Tag) -> int:
        i = self._bit.get(tag)
        if i is None:
            raise UniverseError(f"tag outside universe: {tag!r}")
        return i

    def _upmask(self, tag: Tag) -> int:
        return self._up[self._need(tag)]

    # -- the rules

    def _mask(self, e: UPyExpr, env: tuple) -> int:
        key = (e, env)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._rules(e, env)
        return hit

    def _rules(self, e: UPyExpr, env: tuple) -> int:
        if isinstance(e, UInt):
            return self._upmask(INT_TAG)
        if isinstance(e, UVar):
            for x, i in reversed(env):
                if x == e.name:
                    return self._up[i]
            return 0
        if isinstance(e, UAddr):
            tag = self.sigma.get(e.addr)
            return self._upmask(tag) if tag is not None else 0
        if isinstance(e, ULam):
            inner = env + tuple((x, self._need(PYOBJ)) for x in e.params)
            if self._mask(e.body, inner) & self._pyobj:
                return self._upmask(FunTag(len(e.params)))
            return 0
        if isinstance(e, UCheck):
            if self._mask(e.subject, env) & self._pyobj:
                return self._upmask(e.tag)
            return 0
        if isinstance(e, ULet):
            out = 0
            bound = self._mask(e.bound, env)
            for i in range(len(self.order.tags)):
                if bound >> i & 1:
                    out |= self._mask(e.body, env + ((e.name, i),))
            return out
        if isinstance(e, UApp):
            if not all(self._mask(a, env) & self._pyobj for a in e.args):
                return 0
            fn = self._mask(e.fn, env)
            if e.label is Label.NATIVE:
                ok = bool(fn & self._pyobj)
            else:
                ok = bool(fn >> self._need(FunTag(len(e.args))) & 1)
            return self._upmask(PYOBJ) if ok else 0
        if isinstance(e, UGet):
            subject = self._mask(e.subject, env)
            if e.label is Label.NATIVE:
                ok = bool(subject & self._pyobj)
            else:
                ok = bool(subject >> self._need(ObjTag(frozenset((e.attr,)))) & 1)
            return self._upmask(PYOBJ) if ok else 0
        if isinstance(e, USet):
            if not self._mask(e.value, env) & self._pyobj:
                return 0
            subject = self._mask(e.subject, env)
            if e.label is Label.NATIVE:
                ok = bool(subject & self._pyobj)
            else:
                ok = bool(subject >> self._need(ObjTag(frozenset())) & 1)
            return self._upmask(INT_TAG) if ok else 0
        if isinstance(e, UClass):
            return self._class_rule(e, env)
        if isinstance(e, UHole):
            return 0
        raise TypeError(f"not an expression: {e!r}")

    def _class_rule(self, e: UClass, env: tuple) -> int:
        if not all(self._mask(m, env) & self._pyobj for _, m in e.members):
            return 0
        ctor = self._mask(e.ctor, env)
        own = frozenset(x for x, _ in e.members)
        if e.label is Label.NATIVE:
            supers_ok = all(self._mask(s, env) & self._pyobj for s in e.supers)
            if supers_ok and ctor & self._pyobj:
                return self._upmask(ClassTag(own, None))
            return 0
        # the typed rule: each superclass contributes the labels of some
        # class tag it can be given, the constructor fixes the arity
        choices = []
        for s in e.supers:
            mask = self._mask(s, env)
            opts = [t.labels for t, i in self._bit.items()
                    if isinstance(t, ClassTag) and t.arity is None
                    and mask >> i & 1]
            if not opts:
                return 0
            choices.append(opts)
        arities = [t.arity for t, i in self._bit.items()
                   if isinstance(t, FunTag) and t.arity >= 1
                   and ctor >> i & 1]
        out = 0
        for combo in itertools.product(*choices):
            labels = own.union(*combo) if combo else own
            for k in arities:
                out |= self._upmask(ClassTag(labels, k - 1))
        return out


# ---------------------------------------------------------------------------
# heap typing
#
# Addresses only ever satisfy class or object tags; there is no rule
# concluding pyobj for an address, so a store typing that maps an
# address to pyobj is not satisfiable here. (The library's heap_ok
# deliberately relaxes that by skipping pyobj entries.)


def o_addr_typing(heap: Heap, sigma: dict, addr: int, tag: Tag,
                  decl: DeclarativeTyping) -> bool:
    if addr not in heap:
        return False
    h = heap[addr]
    if isinstance(tag, ClassTag):
        return (isinstance(h, ClassH)
                and o_hasattrs(heap, addr, tag.labels)
                and o_param_match(heap, UAddr(addr), tag.arity)
                and all(isinstance(sigma.get(s), ClassTag) for s in h.supers)
                and all(decl.typable(v) for v in h.members.values()))
    if isinstance(tag, ObjTag):
        return (isinstance(h, ObjH)
                and o_hasattrs(heap, addr, tag.labels)
                and isinstance(sigma.get(h.cls), ClassTag)
                and all(decl.typable(v) for v in h.members.values()))
    return False


def o_heap_ok(heap: Heap, sigma: dict, decl: DeclarativeTyping) -> bool:
    if set(sigma) != set(heap):
        return False
    return all(o_addr_typing(heap, sigma, a, t, decl)
               for a, t in sigma.items())


# ---------------------------------------------------------------------------
# reference lexer
#
# The library matches one regular expression and recovers positions only
# for an error. Here the text is walked a character at a time, with the
# line and the column kept up to date as it goes. Kinds follow the token
# classes: NUM, IDENT, KW, PUNCT and a final EOF.

O_KEYWORDS = frozenset({
    "let", "in", "fun", "meth", "ctor", "init", "class", "obj",
    "open", "closed", "dyn", "int", "lambda", "check", "pyobj", "any",
    "HOLE",
})
O_PUNCTUATION = frozenset("(){}[],;:.=!@")


@dataclass(frozen=True)
class OToken:
    kind: str
    text: str
    line: int
    col: int


class OLexError(Exception):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")


def o_tokenize(text: str) -> list[OToken]:
    tokens = []
    i, line, col = 0, 1, 1
    while i < len(text):
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
        elif c in " \t\r":
            i, col = i + 1, col + 1
        elif c == "#":
            # the comment is dropped without moving the column
            while i < len(text) and text[i] != "\n":
                i += 1
        elif c == "$":
            raise OLexError("the $ namespace is reserved for runtime "
                            "binders", line, col)
        else:
            j = i + 1
            if c.isdecimal():
                kind = "NUM"
                while j < len(text) and text[j].isdecimal():
                    j += 1
            elif c.isalpha() or c == "_":
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                kind = "KW" if text[i:j] in O_KEYWORDS else "IDENT"
            elif text.startswith("->", i):
                kind, j = "PUNCT", i + 2
            elif c in O_PUNCTUATION:
                kind = "PUNCT"
            else:
                raise OLexError(f"unexpected character {c!r}", line, col)
            tokens.append(OToken(kind, text[i:j], line, col))
            col += j - i
            i = j
    tokens.append(OToken("EOF", "", line, col))
    return tokens
