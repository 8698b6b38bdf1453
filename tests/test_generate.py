"""Generators: exactness of goal-directed term generation, totality of
the leaf builders, label discipline of native code, and per-seed
determinism."""

import random

from anthill import generate
from anthill.core import Dyn, Function, Int, Object
from anthill.generate import (
    _below,
    _choice,
    _pick,
    _randint,
    _sample,
    _table,
    gen_native_expr,
    gen_type,
    gen_typed_program,
    gen_typed_term,
    gen_untyped_context,
    leaf_term,
)
from anthill.translate import translate_program, translate_term
from anthill.upython import (
    NATIVE,
    UApp,
    UClass,
    UGet,
    USet,
    UVar,
    walk,
)
from anthill.verify import infer

from helpers import seeds


def type_depth(ty) -> int:
    if isinstance(ty, (Dyn, Int)):
        return 1
    if isinstance(ty, Function):
        return 1 + max([type_depth(p) for p in ty.params] + [type_depth(ty.ret)])
    if isinstance(ty, Object):
        return 1 + max([type_depth(t) for _, t in ty.attrs.items()] + [0])
    return 1 + max([type_depth(t) for _, t in ty.class_attrs.items()]
                   + [type_depth(t) for _, t in ty.instance_attrs.items()]
                   + [type_depth(p) for p in ty.ctor_params] + [0])


def test_gen_type_respects_depth_and_covers_constructors():
    rng = random.Random(1)
    seen = set()
    for _ in range(2000):
        d = rng.randint(1, 5)
        ty = gen_type(rng, d)
        # the generator bottoms out at depth 0 with an atom, so a budget
        # of d yields nesting of at most d+1 in the measured sense
        assert type_depth(ty) <= d + 1
        seen.add(type(ty).__name__)
    assert seen == {"Dyn", "Int", "Function", "Object", "Class"}


def test_leaf_terms_translate_at_their_goal():
    rng = random.Random(2)
    for _ in range(600):
        goal = gen_type(rng, rng.randint(1, 4))
        term = leaf_term(rng, goal)
        _, ty = translate_term({}, term)
        assert ty == goal, goal


def test_goal_directed_terms_hit_the_goal_exactly():
    rng = random.Random(3)
    for _ in range(600):
        env = {"u": gen_type(rng, 2), "v": gen_type(rng, 3)}
        goal = gen_type(rng, rng.randint(1, 3))
        term = gen_typed_term(rng, env, goal, depth=rng.randint(1, 5))
        _, ty = translate_term(env, term)
        assert ty == goal


def test_generated_programs_are_closed_and_typed():
    rng = random.Random(4)
    for _ in range(400):
        term, goal = gen_typed_program(rng, rng.randint(1, 6))
        target, ty = translate_program(term)
        assert ty == goal
        infer((), {}, target)  # must not raise


def test_native_expressions_carry_native_labels_only():
    rng = random.Random(5)
    for _ in range(500):
        e = gen_native_expr(rng, ("x",), rng.randint(1, 6))
        assert all(n.label is NATIVE for n in walk(e)
                   if isinstance(n, (UApp, UGet, USet, UClass)))


def test_context_binder_lists_are_accurate():
    rng = random.Random(6)
    from anthill.contexts import hole_binders, plug
    checked = 0
    for _ in range(500):
        g = gen_untyped_context(rng, rng.randint(1, 6))
        for b in hole_binders(g):
            infer((), {}, plug(g, UVar(b)))  # must not raise
            checked += 1
    assert checked > 200


def test_generation_is_deterministic_per_seed():
    for seed in seeds(30):
        a = gen_typed_program(random.Random(seed), 5)
        b = gen_typed_program(random.Random(seed), 5)
        assert a == b
        ca = gen_untyped_context(random.Random(seed), 5)
        cb = gen_untyped_context(random.Random(seed), 5)
        assert ca == cb


def _weights(table):
    kinds, cum = table
    return kinds, [b - a for a, b in zip((0,) + cum, cum)]


def test_pick_draws_like_choices():
    tables = [generate.TYPE_MENU, generate.TAG_MENU, generate.CONTEXT_MENU,
              *generate.NATIVE_MENUS.values(), *generate.TERM_MENUS.values()]
    rng = random.Random(7)
    for _ in range(200):
        count = rng.randint(1, 8)
        weights = [rng.choice((0, 0, 1, 2, 3, 5, 11)) for _ in range(count)]
        if not any(weights):
            weights[rng.randrange(count)] = 1
        tables.append(_table(*((f"k{i}", w) for i, w in enumerate(weights))))
    for n, table in enumerate(tables):
        kinds, weights = _weights(table)
        for draw in range(50):
            a = random.Random(n * 1000 + draw)
            b = random.Random()
            b.setstate(a.getstate())
            assert _pick(a, table) == b.choices(kinds, weights)[0]
            assert a.getstate() == b.getstate()


# every draw the generators make, as (replay, the random.Random method
# it replays): randint over each range used (0-n for n up to the four
# labels a class type may draw), choice over the pools and shorter
# lists, sample of every size from both pools, randrange(1) and (2)
_DRAWS = [
    *((lambda r, a=a, b=b: _randint(r, a, b),
       lambda r, a=a, b=b: r.randint(a, b))
      for a, b in ((0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 9), (1, 2),
                   (1, 3))),
    *((lambda r, s=seq: _choice(r, s), lambda r, s=seq: r.choice(s))
      for seq in (generate.BINDER_POOL, generate.LABEL_POOL,
                  generate.TYPE_NAME_POOL,
                  *(list(generate.BINDER_POOL[:n]) for n in range(1, 8)))),
    *((lambda r, p=pool, k=k: _sample(r, p, k),
       lambda r, p=pool, k=k: r.sample(p, k))
      for pool in (generate.LABEL_POOL, generate.BINDER_POOL)
      for k in range(len(pool) + 1)),
    *((lambda r, n=n: _below(r, n), lambda r, n=n: r.randrange(n))
      for n in (1, 2)),
]


def test_draw_helpers_replay_random_exactly():
    for seed in seeds(300):
        a = random.Random(seed)
        b = random.Random()
        b.setstate(a.getstate())
        for replay, method in _DRAWS:
            assert replay(a) == method(b)
            assert a.getstate() == b.getstate()
