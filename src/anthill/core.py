"""Source calculus: gradual types, terms, and the static relations.

Types include the dynamic type, integers, first-class functions, and
structural object/class types whose attribute maps are ordered but
compare order-insensitively. Openness controls whether unknown-member
accesses are allowed to defer to runtime checks.
"""

from __future__ import annotations

import enum

from .upython import INT_TAG, PYOBJ, ClassTag, FunTag, ObjTag, Tag, node


class Openness(enum.Enum):
    OPEN = "open"
    CLOSED = "closed"

    def __repr__(self) -> str:
        return self.name


OPEN = Openness.OPEN
CLOSED = Openness.CLOSED


class AnthillType:
    __slots__ = ()


class AttrTypes:
    """Ordered label -> type map. Equality ignores order; iteration and
    printing preserve declaration order. Duplicate labels are rejected."""

    __slots__ = ("entries", "_map")

    def __init__(self, entries=()) -> None:
        entries = tuple([(str(l), t) for l, t in entries])
        mapping = dict(entries)
        if len(mapping) < len(entries):
            seen = set()
            lbl = next(l for l, _ in entries if l in seen or seen.add(l))
            raise ValueError(f"duplicate attribute label {lbl!r}")
        _set_entries(self, entries)
        _set_map(self, mapping)

    def __setattr__(self, name, value):
        raise AttributeError("AttrTypes is immutable")

    def __contains__(self, label: str) -> bool:
        return label in self._map

    def __getitem__(self, label: str) -> AnthillType:
        return self._map[label]

    def get(self, label: str, default=None):
        return self._map.get(label, default)

    def names(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.entries)

    def items(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttrTypes):
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{l}: {t!r}" for l, t in self.entries)
        return "{" + inner + "}"


# the slots' own setters, which skip the refusing __setattr__
_set_entries, _set_map = AttrTypes.entries.__set__, AttrTypes._map.__set__


def attrs(**kw: AnthillType) -> AttrTypes:
    return AttrTypes(tuple(kw.items()))


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
        for lbl in [m.name for m in self.methods] + [l for l, _ in self.fields]:
            if lbl in seen:
                raise ValueError(f"duplicate member label {lbl!r}")
            seen.add(lbl)

    def declared_type(self) -> Class:
        return Class(self.name, self.openness, self.class_attrs,
                     self.instance_attrs,
                     tuple(t for _, t in self.ctor.params))


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
                and all(consistent(p, q) for p, q in zip(a.params, b.params))
                and consistent(a.ret, b.ret))
    if isinstance(a, Object) and isinstance(b, Object):
        return _attrs_consistent(a.attrs, b.attrs)
    if isinstance(a, Class) and isinstance(b, Class):
        return (_attrs_consistent(a.class_attrs, b.class_attrs)
                and _attrs_consistent(a.instance_attrs, b.instance_attrs)
                and len(a.ctor_params) == len(b.ctor_params)
                and all(consistent(p, q)
                        for p, q in zip(a.ctor_params, b.ctor_params)))
    return False


def _attrs_consistent(d1: AttrTypes, d2: AttrTypes) -> bool:
    return all(consistent(t, d2[l]) for l, t in d1.items() if l in d2)


def _attrs_subtype_consistent(d1: AttrTypes, d2: AttrTypes) -> bool:
    # width: every target label present in the source, members consistent
    return all(l in d1 and consistent(d1[l], t) for l, t in d2.items())


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
                and all(subtype_consistent(q, p)
                        for p, q in zip(a.params, b.params))
                and subtype_consistent(a.ret, b.ret))
    if isinstance(a, Object) and isinstance(b, Object):
        return _attrs_subtype_consistent(a.attrs, b.attrs)
    if isinstance(a, Class) and isinstance(b, Class):
        return (_attrs_subtype_consistent(a.class_attrs, b.class_attrs)
                and _attrs_subtype_consistent(a.instance_attrs, b.instance_attrs)
                and len(a.ctor_params) == len(b.ctor_params)
                and all(subtype_consistent(q, p)
                        for p, q in zip(a.ctor_params, b.ctor_params)))
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
    entries = [(l, inst_fun(t)) for l, t in class_attrs.items()]
    entries += [(l, t) for l, t in instance_attrs.items()
                if l not in class_attrs]
    return AttrTypes(entries)


def tag_of(a: AnthillType) -> Tag:
    """Forgetful map from gradual types to runtime tags."""
    if isinstance(a, Dyn):
        return PYOBJ
    if isinstance(a, Int):
        return INT_TAG
    if isinstance(a, Function):
        return FunTag(len(a.params))
    if isinstance(a, Object):
        return ObjTag(a.attrs.names())
    if isinstance(a, Class):
        return ClassTag(a.class_attrs.names(), len(a.ctor_params))
    raise TypeError(f"not a type: {a!r}")
