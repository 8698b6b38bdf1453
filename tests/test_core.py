"""Gradual types: the two relations, the member metafunctions, and the
tag image. Random agreement runs against the clause-per-rule oracle in
tests/oracles.py; the pinned cases document behavior the random sweep
could miss."""

import random

import pytest
from hypothesis import given, strategies as st

from anthill.core import (
    CLOSED,
    DYN,
    INT,
    AttrTypes,
    Class,
    ClassDecl,
    Constructor,
    Function,
    IntLit,
    Method,
    MemsUndefined,
    Object,
    OPEN,
    attrs,
    consistent,
    instance_type,
    instantiate,
    inst_fun,
    mems,
    queryable,
    subtype_consistent,
    tag_of,
)
from anthill.generate import gen_type
from anthill.parser import ParseError, parse_anthill
from anthill.upython import ClassTag, FunTag, IntTag, ObjTag, Pyobj

from oracles import (
    o_consistent,
    o_inst_fun,
    o_instantiate,
    o_subtype_consistent,
    o_tag_of,
)

FUN_II = Function((INT,), INT)
FUN_DD = Function((DYN,), DYN)


def some_type(seed: int, depth: int = 4):
    return gen_type(random.Random(seed), depth)


types = st.integers(min_value=0, max_value=10 ** 9).map(some_type)


# ---------------------------------------------------------------------------
# consistency


def test_dyn_consistent_with_everything():
    for seed in range(80):
        t = some_type(seed)
        assert consistent(DYN, t) and consistent(t, DYN)


def test_int_consistent_only_with_int_and_dyn():
    assert consistent(INT, INT)
    assert not consistent(INT, FUN_II)
    assert not consistent(INT, Object("P", OPEN, attrs(a=INT)))


def test_function_consistency_is_pointwise():
    assert consistent(FUN_II, FUN_DD)
    assert not consistent(FUN_II, Function((INT, INT), INT))  # arity
    assert not consistent(Function((FUN_II,), INT),
                          Function((Function((INT, INT), INT),), INT))


def test_object_consistency_compares_shared_labels_only():
    p = Object("P", OPEN, attrs(a=INT))
    q = Object("Q", OPEN, attrs(b=FUN_II))
    assert consistent(p, q)  # no shared labels, nothing to disagree on
    r = Object("R", OPEN, attrs(a=FUN_II, b=FUN_II))
    assert not consistent(p, r)  # shared a: int vs function


def test_class_consistency_checks_both_maps_and_ctor():
    c1 = Class("C", OPEN, attrs(m=FUN_II), attrs(x=INT), (INT,))
    same = Class("D", CLOSED, attrs(m=FUN_DD), attrs(x=DYN), (DYN,))
    assert consistent(c1, same)  # names and openness carry no weight
    assert not consistent(c1, Class("C", OPEN, attrs(m=FUN_II),
                                    attrs(x=INT), (INT, INT)))
    assert not consistent(c1, Class("C", OPEN, attrs(m=FUN_II),
                                    attrs(x=FUN_II), (INT,)))


def test_consistency_not_transitive():
    assert consistent(INT, DYN) and consistent(DYN, FUN_II)
    assert not consistent(INT, FUN_II)


@given(st.integers(0, 10 ** 9), st.integers(0, 10 ** 9))
def test_consistency_symmetric(s1, s2):
    a, b = some_type(s1), some_type(s2)
    assert consistent(a, b) == consistent(b, a)


@given(types)
def test_both_relations_reflexive(t):
    assert consistent(t, t)
    assert subtype_consistent(t, t)


# ---------------------------------------------------------------------------
# subtype consistency


def test_object_width_subtyping():
    wide = Object("P", OPEN, attrs(a=INT, b=FUN_II))
    narrow = Object("P", OPEN, attrs(a=INT))
    assert subtype_consistent(wide, narrow)
    assert not subtype_consistent(narrow, wide)


def test_object_depth_uses_consistency_not_subtyping():
    # members only need to agree up to dyn, in both directions
    s = Object("P", OPEN, attrs(a=FUN_DD))
    t = Object("P", OPEN, attrs(a=FUN_II))
    assert subtype_consistent(s, t)
    assert subtype_consistent(t, s)
    # plain int vs function disagrees even under width
    u = Object("P", OPEN, attrs(a=INT))
    assert not subtype_consistent(u, t)


def test_function_parameters_contravariant():
    narrow_arg = Function((Object("P", OPEN, attrs(a=INT)),), INT)
    wide_arg = Function((Object("P", OPEN, attrs(a=INT, b=INT)),), INT)
    assert subtype_consistent(narrow_arg, wide_arg)
    assert not subtype_consistent(wide_arg, narrow_arg)


def test_class_subtype_of_object_via_class_side_members():
    c = Class("C", OPEN, attrs(m=Function((DYN, INT), INT)), attrs(x=INT),
              (INT,))
    assert subtype_consistent(c, Object("O", OPEN,
                                        attrs(m=Function((DYN, INT), INT))))
    # instance-only attributes are not on the class itself
    assert not subtype_consistent(c, Object("O", OPEN, attrs(x=INT)))


def test_class_subtype_of_function_constructs_instances():
    c = Class("C", OPEN, attrs(m=Function((DYN, INT), INT)), attrs(x=INT),
              (INT,))
    built = Object("C", OPEN, attrs(m=Function((INT,), INT), x=INT))
    assert subtype_consistent(c, Function((INT,), built))
    assert not subtype_consistent(c, Function((INT, INT), built))  # arity
    # result must be consistent with what construction yields
    assert not subtype_consistent(c, Function((INT,), INT))


def test_random_agreement_with_rule_oracle():
    rng = random.Random(1009)
    for _ in range(4000):
        a = gen_type(rng, rng.randint(1, 4))
        b = gen_type(rng, rng.randint(1, 4))
        assert consistent(a, b) == o_consistent(a, b)
        assert subtype_consistent(a, b) == o_subtype_consistent(a, b)


# ---------------------------------------------------------------------------
# member metafunctions


def test_mems_by_type():
    assert len(mems(DYN)) == 0
    o = Object("P", OPEN, attrs(a=INT))
    assert mems(o) is o.attrs
    c = Class("C", OPEN, attrs(m=FUN_II), attrs(x=INT), ())
    assert mems(c) is c.class_attrs
    with pytest.raises(MemsUndefined):
        mems(INT)
    with pytest.raises(MemsUndefined):
        mems(FUN_II)


def test_queryable_by_type():
    assert queryable(DYN) is OPEN
    assert queryable(Object("P", CLOSED, attrs())) is CLOSED
    assert queryable(Class("C", OPEN, attrs(), attrs(), ())) is OPEN
    with pytest.raises(MemsUndefined):
        queryable(INT)


def test_inst_fun_drops_receiver_only_when_present():
    assert inst_fun(Function((DYN, INT), INT)) == FUN_II
    assert inst_fun(Function((), INT)) == Function((), INT)
    assert inst_fun(INT) is INT


def test_instantiate_merges_class_view_over_instance_view():
    class_side = attrs(m=Function((DYN, INT), INT), x=INT)
    instance_side = attrs(x=FUN_II, y=DYN)  # x shadowed by the class side
    merged = instantiate(class_side, instance_side)
    assert merged["m"] == FUN_II
    assert merged["x"] == INT
    assert merged["y"] == DYN
    assert merged.names() == ("m", "x", "y")


def test_instance_type_keeps_name_and_openness():
    c = Class("C", CLOSED, attrs(m=Function((DYN,), INT)), attrs(y=INT), ())
    inst = instance_type(c)
    assert inst.name == "C" and inst.openness is CLOSED
    assert inst.attrs["m"] == Function((), INT)
    assert inst.attrs["y"] == INT


def test_metafunction_oracle_agreement():
    rng = random.Random(77)
    for _ in range(2000):
        t = gen_type(rng, rng.randint(1, 4))
        assert inst_fun(t) == o_inst_fun(t)
        assert tag_of(t) == o_tag_of(t)
        if isinstance(t, Class):
            assert (instantiate(t.class_attrs, t.instance_attrs)
                    == o_instantiate(t.class_attrs, t.instance_attrs))


# ---------------------------------------------------------------------------
# the tag image


def test_tag_of_each_constructor():
    assert tag_of(DYN) == Pyobj()
    assert tag_of(INT) == IntTag()
    assert tag_of(Function((DYN, DYN), INT)) == FunTag(2)
    assert tag_of(Object("P", OPEN, attrs(a=INT, b=DYN))) == ObjTag({"a", "b"})
    c = Class("C", OPEN, attrs(m=FUN_II), attrs(x=INT), (DYN, DYN))
    assert tag_of(c) == ClassTag({"m"}, 2)  # class-side labels, ctor arity


# ---------------------------------------------------------------------------
# the attribute map container


def test_attr_map_rejects_duplicates():
    with pytest.raises(ValueError):
        AttrTypes((("a", INT), ("a", DYN)))


def test_class_declaration_rejects_a_method_and_field_sharing_a_label():
    with pytest.raises(ValueError, match="duplicate member label 'm'"):
        ClassDecl("C", OPEN, attrs(), attrs(), (),
                  (Method("m", "self", (), INT, IntLit(0)),),
                  (("m", IntLit(1)),), Constructor("self", (), IntLit(0)))
    with pytest.raises(ParseError) as err:
        parse_anthill("class C() [open; {}; {}] { m = meth(self) -> int: 0; "
                      "m = 1; init = ctor(self): 0 }")
    assert str(err.value) == "1:83: duplicate member label 'm'"


def test_attr_map_equality_ignores_order_iteration_preserves_it():
    d1 = AttrTypes((("a", INT), ("b", DYN)))
    d2 = AttrTypes((("b", DYN), ("a", INT)))
    assert d1 == d2 and hash(d1) == hash(d2)
    assert d1.names() == ("a", "b")
    assert d2.names() == ("b", "a")
