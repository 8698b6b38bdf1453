"""Tag type system for the labeled target language.

Inference computes the principal (least) tag of an expression; each
rule premise that declaratively appeals to subsumption is checked
algorithmically with tag_subtype. Forms carrying the translated label
must satisfy precise premise tags; native-labeled forms only require
their pieces to be typeable, since they are allowed to fail at runtime
with their own error.
"""

from __future__ import annotations

from .printer import print_tag, print_upython
from .runtime import Heap, parents, value_tag
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
    class_arity,
    tag_subtype,
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


def env_lookup(env: TagEnv, name: str) -> Tag | None:
    for n, t in reversed(env):
        if n == name:
            return t
    return None


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
        inner = env + tuple((x, PYOBJ) for x in e.params)
        _infer(inner, sigma, e.body)
        return FunTag(len(e.params))

    if isinstance(e, UCheck):
        _infer(env, sigma, e.subject)
        return e.tag

    if isinstance(e, ULet):
        bound = _infer(env, sigma, e.bound)
        return _infer(env + ((e.name, bound),), sigma, e.body)

    if isinstance(e, UApp):
        want = PYOBJ if e.label is NATIVE else FunTag(len(e.args))
        _demand(env, sigma, e.fn, want, "app")
        for a in e.args:
            _demand(env, sigma, a, PYOBJ, "app")
        return PYOBJ

    if isinstance(e, UGet):
        want = PYOBJ if e.label is NATIVE else ObjTag((e.attr,))
        _demand(env, sigma, e.subject, want, "get")
        return PYOBJ

    if isinstance(e, USet):
        want = PYOBJ if e.label is NATIVE else ObjTag(())
        _demand(env, sigma, e.subject, want, "set")
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
        arity = class_arity(ctor_tag)
        if arity is None:
            raise TagError(
                "class",
                f"constructor tag {print_tag(ctor_tag)} cannot take a "
                f"receiver", e)
        return ClassTag(own | inherited, arity)

    raise TagError("expr", f"not a typeable expression: {print_upython(e)}", e)


def verifies(env, sigma: HeapType, e: UPyExpr, want: Tag) -> bool:
    """Does e type at (any subtag of) want?"""
    try:
        return tag_subtype(infer(env, sigma, e), want)
    except TagError:
        return False


# ---------------------------------------------------------------------------
# heap typing


def heap_ok(sigma: HeapType, heap: Heap) -> bool:
    """Does the heap satisfy the heap type? Domains must agree exactly.
    A class or object tag needs a record of its kind whose parents (a
    class's superclasses, an object's class) are class-tagged, whose own
    tag lies below the tag, and whose member values are typeable. A
    pyobj entry constrains nothing."""
    if sigma.keys() != heap.keys():
        return False
    for addr, tag in sigma.items():
        if isinstance(tag, Pyobj):
            continue
        h = heap[addr]
        own = value_tag(UAddr(addr), heap)
        if not (type(own) is type(tag)
                and all(isinstance(sigma.get(p), ClassTag) for p in parents(h))
                and tag_subtype(own, tag)
                and all(verifies((), sigma, v, PYOBJ)
                        for v in h.members.values())):
            return False
    return True


def principal_heap_type(heap: Heap) -> HeapType:
    """Most precise heap type the heap satisfies: each address at its
    record's own tag."""
    return {a: value_tag(UAddr(a), heap) for a in heap}


def sigma_extends(sigma2: HeapType, sigma1: HeapType) -> bool:
    """Does sigma2 refine sigma1: at least the same addresses, each at a
    tag at least as precise?"""
    return all(a in sigma2 and tag_subtype(sigma2[a], sigma1[a])
               for a in sigma1)
