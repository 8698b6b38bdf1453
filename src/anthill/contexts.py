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
    UCheck,
    UClass,
    UGet,
    UHole,
    UInt,
    ULam,
    ULet,
    UPyExpr,
    USet,
    is_value,
    rebuild_path,
    walk,
)
from .verify import TagEnv, TagError, infer, tag_env, tag_subtype

CodeContext = UPyExpr

# the word each labelled form uses in ContextError messages
_FORM_NAME = {UApp: "call", UGet: "get", USet: "set", UClass: "class"}


class ContextError(ValueError):
    """The expression is not a well-formed one-hole native context."""


def count_holes(e: UPyExpr) -> int:
    return list(map(type, walk(e))).count(UHole)


def validate_context(ctx: CodeContext) -> None:
    """Raise ContextError unless ctx has exactly one hole, carries only
    native labels, and has value superclasses on any class whose member
    expression contains the hole."""
    nodes, stack = [], [ctx]
    while stack:
        e = stack.pop()
        nodes.append(e)
        stack.extend(reversed(e.children()))
    n = list(map(type, nodes)).count(UHole)
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
                and any(map(count_holes, dict(e.members).values()))):
            raise ContextError(
                "a class whose member holds the hole must have value "
                "superclasses")


def plug(ctx: CodeContext, e: UPyExpr) -> UPyExpr:
    """Replace the hole with e, verbatim. ctx must be a valid context,
    as validate_context checks and both callers ensure; one with no hole
    raises TagError. Only the nodes on the path to the hole are rebuilt."""
    return rebuild_path(_path_of(ctx), e)


def _hole_path(ctx: CodeContext) -> tuple[tuple[UPyExpr, tuple, int], ...]:
    """The interpreter's (node, kids, slot) frames from ctx down to its
    first hole in evaluation order, found without recursion: one [node,
    children, slot searched] frame per node on the current path. kids is
    node's children tuple; a consumer that fills the slot copies it."""
    path = [[None, (ctx,), -1]]
    while path:
        frame = path[-1]
        frame[2] += 1
        _, kids, i = frame
        if i == len(kids):
            path.pop()
            continue
        if isinstance(kids[i], UHole):
            return tuple(map(tuple, path[1:]))
        path.append([kids[i], kids[i].children(), -1])
    raise TagError("context", f"no hole beneath {print_upython(ctx)}", ctx)


# The context whose hole path was found last, and that path. A trial
# asks for one context's path three times in a row, through
# hole_binders, type_context and plug; a context is immutable and the
# path is a tuple of tuples, so a repeated ask takes the same answer.
_last_path = (None, ())


def _path_of(ctx: CodeContext) -> tuple[tuple[UPyExpr, tuple, int], ...]:
    global _last_path
    last, path = _last_path
    if last is not ctx:
        path = _hole_path(ctx)
        _last_path = (ctx, path)
    return path


def hole_binders(ctx: CodeContext) -> tuple[str, ...]:
    """The names bound at ctx's hole, outermost first, repeats kept:
    each lambda's parameters, and a let's name when the hole is in the
    let's body. A plugged term may use each of them, at dyn."""
    names = []
    for node, _, i in _path_of(ctx):
        if isinstance(node, ULam):
            names.extend(node.params)
        elif isinstance(node, ULet) and i == 1:
            names.append(node.name)
    return tuple(names)


def type_context(ctx: CodeContext, hole_env, hole_tag: Tag) -> tuple[TagEnv, Tag]:
    """Type a one-hole context: given the environment and tag assumed at
    the hole, compute the environment and principal tag of the whole
    context once plugged. The hole environment must be the outer
    environment extended, in path order, by the binders crossed on the
    way to the hole, and a let binder's assumed tag must bound its
    let-bound expression's; those premises are checked and the binders
    stripped on the way out. The context is then typed by infer with
    check(0, hole_tag) in the hole, which has that tag in any
    environment, so a let on the hole path binds its name at its bound
    expression's own tag. Raises TagError when a premise fails."""
    env = tag_env(hole_env)
    for node, _, i in reversed(_path_of(ctx)):
        if isinstance(node, ULam):
            k = len(node.params)
            expected = tuple(zip(node.params, (PYOBJ,) * k))
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
    return env, infer(env, {}, plug(ctx, UCheck(UInt(0), hole_tag)))
