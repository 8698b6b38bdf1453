"""The print table: one rule for every node class of both languages,
their types and tags, and types printed as deep as the parser reads
them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import anthill
from anthill import printer
from anthill.core import AnthillTerm, AnthillType, AttrTypes, Constructor, \
    IntLit
from anthill.parser import ParseError, parse_anthill, parse_anthill_type
from anthill.printer import print_anthill_term, print_anthill_type, \
    print_tag, print_upython
from anthill.upython import Tag, UPyExpr

from helpers import package_subclasses

PRINTERS = (print_anthill_term, print_anthill_type, print_tag, print_upython)


def test_every_node_class_has_a_print_rule():
    classes = set()
    for base in (AnthillTerm, UPyExpr, AnthillType, Tag):
        classes |= package_subclasses(base)
    assert {"ClassDecl", "UHole", "Class", "ClassTag"} <= \
        {c.__name__ for c in classes}
    assert classes == set(printer._RULES)
    # a constructor, an attribute map and a non-node print only inside
    # their node; alone, each is named in the error
    for n in (Constructor("self", (), IntLit(0)), AttrTypes(), object()):
        for print_ in PRINTERS:
            with pytest.raises(TypeError) as err:
                print_(n)
            assert str(err.value) == f"not a printable node: {n!r}"


# each form nests a type once, between its two parts
NESTING_FORMS = {
    "object-attribute": ("obj P open {a: ", "}"),
    "class-attribute": ("class C open {a: ", "}{}()"),
    "instance-attribute": ("class C open {}{a: ", "}()"),
    "constructor-parameter": ("class C open {}{}(", ")"),
    "function-parameter": ("(", ") -> int"),
}


def _nested(form: str, depth: int) -> str:
    before, after = NESTING_FORMS[form]
    return before * depth + "int" + after * depth


def _deepest(parses) -> int:
    """The largest depth the parser accepts: 1 does and 4,000 does not."""
    low, high = 1, 4000
    while high - low > 1:
        mid = (low + high) // 2
        try:
            parses(mid)
            low = mid
        except ParseError as exc:
            assert str(exc).endswith("input nested too deeply")
            high = mid
    return low


@pytest.mark.parametrize("form", sorted(NESTING_FORMS))
def test_every_type_the_parser_accepts_prints(form):
    # compare text, not trees: == on a tree this deep recurses too far
    type_depth = _deepest(lambda n: parse_anthill_type(_nested(form, n)))
    text = _nested(form, type_depth)
    assert print_anthill_type(parse_anthill_type(text)) == text

    def fun(n):
        return f"fun(x: {_nested(form, n)}) -> int: 0"
    fun_depth = _deepest(lambda n: parse_anthill(fun(n)))
    assert print_anthill_term(parse_anthill(fun(fun_depth))) == fun(fun_depth)
    # an attribute map costs the parser two frames a level, a list one
    floor = 600 if form.endswith("parameter") else 300
    assert min(type_depth, fun_depth) >= floor


def _check(tmp_path, text: str):
    path = tmp_path / "deep.ant"
    path.write_text(text)
    src = str(Path(anthill.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "anthill", "check",
                           str(path)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)


@pytest.mark.parametrize("form, depth", [
    ("object-attribute", 300), ("object-attribute", 493),
    ("class-attribute", 493), ("function-parameter", 600),
    ("function-parameter", 900)])
def test_check_prints_a_deep_parameter_type(tmp_path, form, depth):
    ty = _nested(form, depth)
    done = _check(tmp_path, f"fun(x: {ty}) -> int: 0")
    assert (done.returncode, done.stdout, done.stderr) == \
        (0, f"({ty}) -> int\n", "")


def test_check_reports_a_deep_type_error(tmp_path):
    ty = _nested("object-attribute", 450)
    done = _check(tmp_path, f"fun(x: {ty}) -> int: x")
    assert (done.returncode, done.stdout, done.stderr) == \
        (1, "", f"static type error: fun: body type {ty} does not flow "
                "into declared return type int\n")
