"""Tag type system for the labeled target language.

Inference computes the principal (least) tag of an expression; each
rule premise that declaratively appeals to subsumption is checked
algorithmically with tag_subtype. Forms carrying the translated label
must satisfy precise premise tags; native-labeled forms only require
their pieces to be typeable, since they are allowed to fail at runtime
with their own error.
"""

from __future__ import annotations

from .printer import print_tag
from .runtime import ClassH, Heap, ObjH, call_arity, hasattrs, param_match
from .upython import (
    NATIVE,
    ClassTag,
    FunTag,
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
    PYOBJ,
    INT_TAG,
)

TagEnv = tuple[tuple[str, Tag], ...]
HeapType = dict[int, Tag]


class TagError(Exception):
    """Inference failed: some premise of the only applicable rule does
    not hold."""

    def __init__(self, rule: str, detail: str, subterm=None) -> None:
        self.rule = rule
        self.detail = detail
        self.subterm = subterm
        super().__init__(f"{rule}: {detail}")


def tag_env(bindings=()) -> TagEnv:
    """Normalize a dict or iterable of pairs into an environment."""
    if isinstance(bindings, dict):
        return tuple(bindings.items())
    return tuple(bindings)


def env_extend(env: TagEnv, *pairs: tuple[str, Tag]) -> TagEnv:
    return env + pairs


def env_lookup(env: TagEnv, name: str) -> Tag | None:
    for n, t in reversed(env):
        if n == name:
            return t
    return None


# ---------------------------------------------------------------------------
# tag subtyping


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


# ---------------------------------------------------------------------------
# inference


def infer(env, sigma: HeapType, e: UPyExpr) -> Tag:
    """Principal tag of e, or TagError. env may be a dict or a tuple of
    (name, tag) pairs; later entries shadow earlier ones."""
    return _infer(tag_env(env), sigma, e)


def _demand(env: TagEnv, sigma: HeapType, e: UPyExpr, want: Tag,
            rule: str) -> None:
    got = _infer(env, sigma, e)
    if not tag_subtype(got, want):
        raise TagError(rule, f"needs {print_tag(want)}, subexpression has "
                       f"{print_tag(got)}", e)


def _infer(env: TagEnv, sigma: HeapType, e: UPyExpr) -> Tag:
    if isinstance(e, UVar):
        tag = env_lookup(env, e.name)
        if tag is None:
            raise TagError("var", f"unbound variable {e.name!r}", e)
        return tag

    if isinstance(e, UInt):
        return INT_TAG

    if isinstance(e, UAddr):
        if e.addr not in sigma:
            raise TagError("addr", f"address @{e.addr} not in heap type", e)
        return sigma[e.addr]

    if isinstance(e, ULam):
        inner = env_extend(env, *((x, PYOBJ) for x in e.params))
        _infer(inner, sigma, e.body)
        return FunTag(len(e.params))

    if isinstance(e, UCheck):
        _infer(env, sigma, e.subject)
        return e.tag

    if isinstance(e, ULet):
        bound = _infer(env, sigma, e.bound)
        return _infer(env_extend(env, (e.name, bound)), sigma, e.body)

    if isinstance(e, UApp):
        if e.label is NATIVE:
            _demand(env, sigma, e.fn, PYOBJ, "app")
        else:
            _demand(env, sigma, e.fn, FunTag(len(e.args)), "app")
        for a in e.args:
            _demand(env, sigma, a, PYOBJ, "app")
        return PYOBJ

    if isinstance(e, UGet):
        if e.label is NATIVE:
            _demand(env, sigma, e.subject, PYOBJ, "get")
        else:
            _demand(env, sigma, e.subject, ObjTag((e.attr,)), "get")
        return PYOBJ

    if isinstance(e, USet):
        if e.label is NATIVE:
            _demand(env, sigma, e.subject, PYOBJ, "set")
        else:
            _demand(env, sigma, e.subject, ObjTag(()), "set")
        _demand(env, sigma, e.value, PYOBJ, "set")
        return INT_TAG

    if isinstance(e, UClass):
        own = frozenset(l for l, _ in e.members)
        for _, m in e.members:
            _demand(env, sigma, m, PYOBJ, "class")
        if e.label is NATIVE:
            for s in e.supers:
                _demand(env, sigma, s, PYOBJ, "class")
            _demand(env, sigma, e.ctor, PYOBJ, "class")
            return ClassTag(own, None)
        inherited: frozenset[str] = frozenset()
        for s in e.supers:
            stag = _infer(env, sigma, s)
            if not (isinstance(stag, ClassTag)):
                raise TagError(
                    "class",
                    f"superclass has non-class tag {print_tag(stag)}", s)
            inherited |= stag.labels
        ctor_tag = _infer(env, sigma, e.ctor)
        arity = (ctor_tag.arity if isinstance(ctor_tag, (FunTag, ClassTag))
                 else None)
        if arity is None or arity < 1:
            raise TagError(
                "class",
                f"constructor tag {print_tag(ctor_tag)} cannot take a "
                f"receiver", e)
        return ClassTag(own | inherited, arity - 1)

    raise TagError("expr", f"not a typeable expression: {e!r}", e)


def verifies(env, sigma: HeapType, e: UPyExpr, want: Tag) -> bool:
    """Does e type at (any subtag of) want?"""
    try:
        return tag_subtype(infer(env, sigma, e), want)
    except TagError:
        return False


# ---------------------------------------------------------------------------
# heap typing


def _value_typeable(sigma: HeapType, v: UPyExpr) -> bool:
    try:
        _infer((), sigma, v)
        return True
    except TagError:
        return False


def heap_ok(sigma: HeapType, heap: Heap) -> bool:
    """Does the heap satisfy the heap type? Domains must agree exactly;
    class entries need their labels reachable, their call arity to
    match, class-tagged superclasses, and typeable member values;
    object entries need reachable labels, a class-tagged class address,
    and typeable member values. A pyobj entry constrains nothing."""
    if set(sigma) != set(a for a in heap):
        return False
    for addr, tag in sigma.items():
        h = heap[addr]
        if isinstance(tag, Pyobj):
            continue
        if isinstance(tag, ClassTag):
            shaped = (isinstance(h, ClassH)
                      and param_match(UAddr(addr), heap, tag.arity)
                      and all(isinstance(sigma.get(s), ClassTag)
                              for s in h.supers))
        elif isinstance(tag, ObjTag):
            shaped = (isinstance(h, ObjH)
                      and isinstance(sigma.get(h.cls), ClassTag))
        else:
            return False
        if not (shaped and hasattrs(addr, tag.labels, heap)
                and all(_value_typeable(sigma, v)
                        for v in h.members.values())):
            return False
    return True


def _reachable_labels(addr: int, heap: Heap, memo: dict) -> frozenset[str]:
    if addr in memo:
        return memo[addr]
    h = heap[addr]
    labels = frozenset(h.members)
    if isinstance(h, ObjH):
        labels |= _reachable_labels(h.cls, heap, memo)
    else:
        for s in h.supers:
            labels |= _reachable_labels(s, heap, memo)
    memo[addr] = labels
    return labels


def principal_heap_type(heap: Heap) -> HeapType:
    """Most precise heap type the heap satisfies: every reachable label
    is recorded and class call arities are exact where the constructor
    determines one."""
    memo: dict = {}
    sigma: HeapType = {}
    for addr, h in heap.items():
        labels = _reachable_labels(addr, heap, memo)
        if isinstance(h, ClassH):
            sigma[addr] = ClassTag(labels, call_arity(UAddr(addr), heap))
        else:
            sigma[addr] = ObjTag(labels)
    return sigma


def sigma_extends(sigma2: HeapType, sigma1: HeapType) -> bool:
    """Does sigma2 refine sigma1: at least the same addresses, each at a
    tag at least as precise?"""
    return all(a in sigma2 and tag_subtype(sigma2[a], sigma1[a])
               for a in sigma1)
