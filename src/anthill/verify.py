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
    RuleTable,
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


# ---------------------------------------------------------------------------
# inference


def infer(env, sigma: HeapType, e: UPyExpr) -> Tag:
    """Principal tag of e, or TagError. env may be a dict or a tuple of
    (name, tag) pairs; later entries shadow earlier ones."""
    return _INFER_RULES[type(e)](tag_env(env), sigma, e)


def _demand(env: TagEnv, sigma: HeapType, e: UPyExpr, want: Tag,
            rule: str) -> None:
    got = _INFER_RULES[type(e)](env, sigma, e)
    if not tag_subtype(got, want):
        raise TagError(rule, f"needs {print_tag(want)}, subexpression has "
                       f"{print_tag(got)}", e)


def _untypeable(env: TagEnv, sigma: HeapType, e: UPyExpr) -> Tag:
    raise TagError("expr", f"not a typeable expression: {print_upython(e)}",
                   e)


def _var(env: TagEnv, sigma: HeapType, e: UVar) -> Tag:
    for name, tag in reversed(env):
        if name == e.name:
            return tag
    raise TagError("var", f"unbound variable {e.name!r}", e)


def _int(env: TagEnv, sigma: HeapType, e: UInt) -> Tag:
    return INT_TAG


def _addr(env: TagEnv, sigma: HeapType, e: UAddr) -> Tag:
    if e.addr not in sigma:
        raise TagError("addr", f"address @{e.addr} not in heap type", e)
    return sigma[e.addr]


def _lam(env: TagEnv, sigma: HeapType, e: ULam) -> Tag:
    inner = env + tuple((x, PYOBJ) for x in e.params)
    _INFER_RULES[type(e.body)](inner, sigma, e.body)
    return FunTag(len(e.params))


def _check(env: TagEnv, sigma: HeapType, e: UCheck) -> Tag:
    _INFER_RULES[type(e.subject)](env, sigma, e.subject)
    return e.tag


def _let(env: TagEnv, sigma: HeapType, e: ULet) -> Tag:
    bound = _INFER_RULES[type(e.bound)](env, sigma, e.bound)
    return _INFER_RULES[type(e.body)](env + ((e.name, bound),), sigma, e.body)


def _app(env: TagEnv, sigma: HeapType, e: UApp) -> Tag:
    want = PYOBJ if e.label is NATIVE else FunTag(len(e.args))
    _demand(env, sigma, e.fn, want, "app")
    for a in e.args:
        _demand(env, sigma, a, PYOBJ, "app")
    return PYOBJ


def _get(env: TagEnv, sigma: HeapType, e: UGet) -> Tag:
    want = PYOBJ if e.label is NATIVE else ObjTag((e.attr,))
    _demand(env, sigma, e.subject, want, "get")
    return PYOBJ


def _set(env: TagEnv, sigma: HeapType, e: USet) -> Tag:
    want = PYOBJ if e.label is NATIVE else ObjTag(())
    _demand(env, sigma, e.subject, want, "set")
    _demand(env, sigma, e.value, PYOBJ, "set")
    return INT_TAG


def _class(env: TagEnv, sigma: HeapType, e: UClass) -> Tag:
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
        stag = _INFER_RULES[type(s)](env, sigma, s)
        if not (isinstance(stag, ClassTag)):
            raise TagError(
                "class",
                f"superclass has non-class tag {print_tag(stag)}", s)
        inherited |= stag.labels
    ctor_tag = _INFER_RULES[type(e.ctor)](env, sigma, e.ctor)
    arity = class_arity(ctor_tag)
    if arity is None:
        raise TagError(
            "class",
            f"constructor tag {print_tag(ctor_tag)} cannot take a "
            f"receiver", e)
    return ClassTag(own | inherited, arity)


# the inference rule of each expression class, through which the rules
# recurse; a hole has none
_INFER_RULES = RuleTable(_untypeable, {
    UVar: _var, UInt: _int, UAddr: _addr, ULam: _lam, UCheck: _check,
    ULet: _let, UApp: _app, UGet: _get, USet: _set, UClass: _class})


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
