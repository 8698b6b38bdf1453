"""One-hole code contexts over the untyped target language.

A context is an expression containing exactly one hole, with every
elimination and creation form carrying the native label: contexts model
arbitrary untyped code surrounding a translated program. Plugging is
verbatim substitution, so context binders capture free variables of the
plugged expression by design.
"""

from __future__ import annotations

from .printer import print_tag, print_upython
from .upython import (
    NATIVE,
    PYOBJ,
    Tag,
    UAddr,
    UApp,
    UClass,
    UGet,
    UHole,
    ULam,
    ULet,
    UPyExpr,
    USet,
    UVar,
    is_value,
    walk,
)
from .verify import TagEnv, TagError, infer, tag_env, tag_subtype

CodeContext = UPyExpr

# the word each labelled form uses in ContextError messages
_FORM_NAME = {UApp: "call", UGet: "get", USet: "set", UClass: "class"}


class ContextError(ValueError):
    """The expression is not a well-formed one-hole native context."""


def count_holes(e: UPyExpr) -> int:
    return sum(isinstance(n, UHole) for n in walk(e))


def validate_context(ctx: CodeContext) -> None:
    """Raise ContextError unless ctx has exactly one hole, carries only
    native labels, and has value superclasses on any class whose member
    expression contains the hole."""
    nodes = list(walk(ctx))
    n = sum(isinstance(e, UHole) for e in nodes)
    if n != 1:
        raise ContextError(f"context must have exactly one hole, found {n}")
    for e in nodes:
        if isinstance(e, UAddr):
            raise ContextError(f"not a context form: {print_upython(e)}")
        form = _FORM_NAME.get(type(e))
        if form is not None and e.label is not NATIVE:
            raise ContextError(f"context contains a translated-label {form}")
        if (form == "class"
                and not all(map(is_value, e.supers))
                and any(count_holes(m) for _, m in e.members)):
            raise ContextError(
                "a class whose member holds the hole must have value "
                "superclasses")


def plug(ctx: CodeContext, e: UPyExpr) -> UPyExpr:
    """Replace the hole with e, verbatim. ctx must be a valid context,
    as validate_context checks and both callers ensure; one with no hole
    raises TagError. Only the nodes on the path to the hole are rebuilt."""
    for node, i in reversed(_hole_path(ctx)):
        kids = list(node.children())
        kids[i] = e
        e = node.rebuild(tuple(kids))
    return e


def _hole_path(ctx: CodeContext) -> list[tuple[UPyExpr, int]]:
    """The (node, child index) steps from ctx down to its first hole in
    evaluation order, found without recursion: one [node, children,
    next slot] frame per node on the current path, under a root frame."""
    path = [[None, (ctx,), 0]]
    while path:
        frame = path[-1]
        _, kids, i = frame
        if i == len(kids):
            path.pop()
            continue
        frame[2] = i + 1
        if isinstance(kids[i], UHole):
            return [(node, j - 1) for node, _, j in path[1:]]
        path.append([kids[i], kids[i].children(), 0])
    raise TagError("context", f"no hole beneath {print_upython(ctx)}", ctx)


def hole_binders(ctx: CodeContext) -> tuple[str, ...]:
    """The names bound at ctx's hole, outermost first, repeats kept:
    each lambda's parameters, and a let's name when the hole is in the
    let's body. A plugged term may use each of them, at dyn."""
    names = []
    for node, i in _hole_path(ctx):
        if isinstance(node, ULam):
            names.extend(node.params)
        elif isinstance(node, ULet) and i == 1:
            names.append(node.name)
    return tuple(names)


def type_context(ctx: CodeContext, hole_env, hole_tag: Tag) -> tuple[TagEnv, Tag]:
    """Type a one-hole context: given the environment and tag assumed at
    the hole, compute the environment and principal tag of the whole
    context once plugged. Each node on the hole path is typed by infer,
    its hole child standing for the unutterable variable $hole at the
    tag computed so far. The hole environment must be the outer
    environment extended, in path order, by the binders crossed on the
    way to the hole, and a let binder's assumed tag must bound its
    let-bound expression's. Raises TagError when a premise fails."""
    env, tag = tag_env(hole_env), hole_tag
    hole = UVar("$hole")
    # fold the hole's path outwards: (env, tag) is what the child at
    # index i, the one holding the hole, was typed with and at
    for node, i in reversed(_hole_path(ctx)):
        if isinstance(node, ULam):
            k = len(node.params)
            expected = tuple((x, PYOBJ) for x in node.params)
            if k and env[-k:] != expected:
                raise TagError(
                    "context",
                    f"hole environment does not end with the lambda binders "
                    f"{', '.join(map(repr, node.params))} at pyobj")
            env = env[:len(env) - k]
        elif isinstance(node, ULet) and i == 1:
            if len(env) == 0 or env[-1][0] != node.name:
                raise TagError(
                    "context",
                    f"hole environment does not end with the let binder "
                    f"{node.name!r}")
            env, (_, assumed) = env[:-1], env[-1]
            bound_tag = infer(env, {}, node.bound)
            if not tag_subtype(bound_tag, assumed):
                raise TagError(
                    "context",
                    f"let-bound expression has {print_tag(bound_tag)}, hole "
                    f"assumes {print_tag(assumed)}")
            continue  # the let has its body's tag, and its bound is typed
        kids = list(node.children())
        kids[i] = hole
        tag = infer(env + ((hole.name, tag),), {}, node.rebuild(kids))
    return env, tag
