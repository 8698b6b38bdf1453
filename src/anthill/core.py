"""Source calculus: gradual types, terms, and the static relations.

Types include the dynamic type, integers, first-class functions, and
structural object/class types whose attribute maps are ordered but
compare order-insensitively. Openness controls whether unknown-member
accesses are allowed to defer to runtime checks.
"""

from __future__ import annotations

import enum
from operator import attrgetter, itemgetter

from .upython import FUN_TAGS, INT_TAG, PYOBJ, ClassTag, ObjTag, Tag, node


class Openness(enum.Enum):
    OPEN = "open"
    CLOSED = "closed"

    def __repr__(self) -> str:
        return self.name


OPEN = Openness.OPEN
CLOSED = Openness.CLOSED


class AnthillType:
    __slots__ = ()


def _immutable(*args, **kwargs):
    raise TypeError("AttrTypes is immutable")


class AttrTypes(dict):
    """Immutable label -> type map. Equality ignores order; iteration and
    printing preserve declaration order. Duplicate labels are rejected;
    a dict's labels are taken as distinct str labels without a check."""

    __slots__ = ()

    def __init__(self, entries=()) -> None:
        if type(entries) is dict:
            return dict.__init__(self, entries)
        pairs = tuple(entries)
        if not all(map(str.__instancecheck__, map(itemgetter(0), pairs))):
            pairs = tuple([(str(l), t) for l, t in pairs])
        dict.__init__(self, pairs)
        if len(self) < len(pairs):
            seen = set()
            lbl = next(l for l, _ in pairs if l in seen or seen.add(l))
            raise ValueError(f"duplicate attribute label {lbl!r}")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = \
        setdefault = update = _immutable

    @property
    def entries(self) -> tuple[tuple[str, AnthillType], ...]:
        return tuple(self.items())

    def names(self) -> tuple[str, ...]:
        return tuple(self)

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{l}: {t!r}" for l, t in self.items())
        return "{" + inner + "}"


def attrs(**kw: AnthillType) -> AttrTypes:
    return AttrTypes(kw)


@node
class Dyn(AnthillType):
    pass


@node
class Int(AnthillType):
    pass


@node
class Function(AnthillType):
    params: tuple[AnthillType, ...]
    ret: AnthillType


@node
class Object(AnthillType):
    name: str
    openness: Openness
    attrs: AttrTypes


@node
class Class(AnthillType):
    """Class type: class-side attributes (methods as receiver-inclusive
    function types, plus class fields), instance-only attributes the
    constructor is supposed to add, and constructor parameter types."""

    name: str
    openness: Openness
    class_attrs: AttrTypes
    instance_attrs: AttrTypes
    ctor_params: tuple[AnthillType, ...]


DYN = Dyn()
INT = Int()


# ---------------------------------------------------------------------------
# terms


class AnthillTerm:
    __slots__ = ()


@node
class Var(AnthillTerm):
    name: str


@node
class IntLit(AnthillTerm):
    value: int


@node
class App(AnthillTerm):
    fn: AnthillTerm
    args: tuple[AnthillTerm, ...]


@node
class Get(AnthillTerm):
    subject: AnthillTerm
    attr: str


@node
class Set(AnthillTerm):
    subject: AnthillTerm
    attr: str
    value: AnthillTerm


@node
class Let(AnthillTerm):
    name: str
    bound: AnthillTerm
    body: AnthillTerm


@node
class Fun(AnthillTerm):
    params: tuple[tuple[str, AnthillType], ...]
    ret: AnthillType
    body: AnthillTerm


@node
class Method:
    """Named method: explicit receiver binder, then annotated parameters."""

    name: str
    receiver: str
    params: tuple[tuple[str, AnthillType], ...]
    ret: AnthillType
    body: AnthillTerm


@node
class Constructor:
    receiver: str
    params: tuple[tuple[str, AnthillType], ...]
    body: AnthillTerm


@node
class ClassDecl(AnthillTerm):
    name: str
    openness: Openness
    class_attrs: AttrTypes
    instance_attrs: AttrTypes
    supers: tuple[AnthillTerm, ...]
    methods: tuple[Method, ...]
    fields: tuple[tuple[str, AnthillTerm], ...]
    ctor: Constructor

    def __post_init__(self) -> None:
        seen = set()
        for lbl in (*map(attrgetter("name"), self.methods),
                    *map(itemgetter(0), self.fields)):
            if lbl in seen:
                raise ValueError(f"duplicate member label {lbl!r}")
            seen.add(lbl)

    def declared_type(self) -> Class:
        return Class(self.name, self.openness, self.class_attrs,
                     self.instance_attrs,
                     tuple(map(itemgetter(1), self.ctor.params)))


# ---------------------------------------------------------------------------
# relations


def consistent(a: AnthillType, b: AnthillType) -> bool:
    """Symmetric, reflexive, non-transitive agreement up to the dynamic
    type. Structural on matching constructors; attribute maps agree when
    their common labels agree."""
    if isinstance(a, Dyn) or isinstance(b, Dyn):
        return True
    if isinstance(a, Int) and isinstance(b, Int):
        return True
    if isinstance(a, Function) and isinstance(b, Function):
        return (len(a.params) == len(b.params)
                and all(map(consistent, a.params, b.params))
                and consistent(a.ret, b.ret))
    if isinstance(a, Object) and isinstance(b, Object):
        return _attrs_consistent(a.attrs, b.attrs)
    if isinstance(a, Class) and isinstance(b, Class):
        return (_attrs_consistent(a.class_attrs, b.class_attrs)
                and _attrs_consistent(a.instance_attrs, b.instance_attrs)
                and len(a.ctor_params) == len(b.ctor_params)
                and all(map(consistent, a.ctor_params, b.ctor_params)))
    return False


def _attrs_consistent(d1: AttrTypes, d2: AttrTypes) -> bool:
    for l, t in d1.items():
        if l in d2 and not consistent(t, d2[l]):
            return False
    return True


def _attrs_subtype_consistent(d1: AttrTypes, d2: AttrTypes) -> bool:
    # width: every target label present in the source, members consistent
    for l, t in d2.items():
        if l not in d1 or not consistent(d1[l], t):
            return False
    return True


def subtype_consistent(a: AnthillType, b: AnthillType) -> bool:
    """Subtyping up to the dynamic type. Width subtyping on attribute
    maps, contravariant parameters, and class-to-object /
    class-to-function coercions. Names and openness are ignored."""
    if a is b or isinstance(a, Dyn) or isinstance(b, Dyn):
        return True
    if isinstance(a, Int) and isinstance(b, Int):
        return True
    if isinstance(a, Function) and isinstance(b, Function):
        return (len(a.params) == len(b.params)
                and all(map(subtype_consistent, b.params, a.params))
                and subtype_consistent(a.ret, b.ret))
    if isinstance(a, Object) and isinstance(b, Object):
        return _attrs_subtype_consistent(a.attrs, b.attrs)
    if isinstance(a, Class) and isinstance(b, Class):
        return (_attrs_subtype_consistent(a.class_attrs, b.class_attrs)
                and _attrs_subtype_consistent(a.instance_attrs, b.instance_attrs)
                and len(a.ctor_params) == len(b.ctor_params)
                and all(map(subtype_consistent,
                            b.ctor_params, a.ctor_params)))
    if isinstance(a, Class) and isinstance(b, Object):
        return _attrs_subtype_consistent(a.class_attrs, b.attrs)
    if isinstance(a, Class) and isinstance(b, Function):
        return subtype_consistent(factory_type(a), b)
    return False


def instance_type(c: Class) -> Object:
    """Type of the objects a class constructs."""
    return Object(c.name, c.openness,
                  instantiate(c.class_attrs, c.instance_attrs))


def factory_type(c: Class) -> Function:
    """A class used as a factory for its instances."""
    return Function(c.ctor_params, instance_type(c))


class MemsUndefined(Exception):
    """Raised for types with no notion of members (int, functions)."""


_EMPTY_ATTRS = AttrTypes()


def mems(a: AnthillType) -> AttrTypes:
    if isinstance(a, Dyn):
        return _EMPTY_ATTRS
    if isinstance(a, Object):
        return a.attrs
    if isinstance(a, Class):
        return a.class_attrs
    raise MemsUndefined(f"type has no members: {a!r}")


def queryable(a: AnthillType) -> Openness:
    if isinstance(a, Dyn):
        return OPEN
    if isinstance(a, (Object, Class)):
        return a.openness
    raise MemsUndefined(f"type has no openness: {a!r}")


def inst_fun(a: AnthillType) -> AnthillType:
    """Drop the receiver parameter of a method type for the instance
    view. Identity on nullary functions and non-function types."""
    if isinstance(a, Function) and len(a.params) >= 1:
        return Function(a.params[1:], a.ret)
    return a


def instantiate(class_attrs: AttrTypes, instance_attrs: AttrTypes) -> AttrTypes:
    entries = list(zip(class_attrs, map(inst_fun, class_attrs.values())))
    for entry in instance_attrs.items():
        if entry[0] not in class_attrs:
            entries.append(entry)
    return AttrTypes(entries)


def tag_of(a: AnthillType) -> Tag:
    """Forgetful map from gradual types to runtime tags."""
    if isinstance(a, Dyn):
        return PYOBJ
    if isinstance(a, Int):
        return INT_TAG
    if isinstance(a, Function):
        return FUN_TAGS[len(a.params)]
    if isinstance(a, Object):
        return ObjTag(a.attrs)
    if isinstance(a, Class):
        return ClassTag(a.class_attrs, len(a.ctor_params))
    raise TypeError(f"not a type: {a!r}")
