"""Surface syntax: print/parse round trips for both languages, the tag
sublanguage, and error positions on rejected input."""

import hashlib
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from anthill.core import DYN, INT, Function, IntLit, Let, Var
from anthill.generate import (
    gen_native_expr,
    gen_tag,
    gen_type,
    gen_typed_program,
    gen_untyped_context,
)
from anthill.parser import (
    AnthillParser,
    ParseError,
    UPythonParser,
    parse_anthill,
    parse_anthill_type,
    parse_tag,
    parse_upython,
    tokenize,
)
from anthill.printer import (
    print_anthill_term,
    print_anthill_type,
    print_tag,
    print_upython,
)
from anthill.translate import translate_program
from anthill.upython import FUN_TAGS, NATIVE, TRANSLATED, FunTag, UApp, UGet, \
    UInt, ULam, UVar

from helpers import rand_bounded_expr
from oracles import OLexError, o_tokenize


# ---------------------------------------------------------------------------
# round trips


def test_source_term_round_trip_random():
    rng = random.Random(31)
    for _ in range(400):
        term, _ = gen_typed_program(rng, depth=rng.randint(1, 5))
        assert parse_anthill(print_anthill_term(term)) == term


def test_source_type_round_trip_random():
    rng = random.Random(32)
    for _ in range(800):
        ty = gen_type(rng, rng.randint(1, 5))
        assert parse_anthill_type(print_anthill_type(ty)) == ty


def test_target_round_trip_random():
    rng = random.Random(33)
    for _ in range(500):
        e = rand_bounded_expr(rng, rng.randint(1, 6), scope=("x",))
        assert parse_upython(print_upython(e)) == e
        e2 = gen_native_expr(rng, ("x", "y"), rng.randint(1, 5))
        assert parse_upython(print_upython(e2)) == e2


def test_translated_output_round_trips():
    # translator output carries labels and checks everywhere
    rng = random.Random(34)
    for _ in range(300):
        term, _ = gen_typed_program(rng, depth=rng.randint(1, 5))
        target, _ = translate_program(term)
        assert parse_upython(print_upython(target)) == target


def test_context_round_trip_needs_hole_flag():
    rng = random.Random(35)
    for _ in range(300):
        ctx = gen_untyped_context(rng, rng.randint(1, 5))
        text = print_upython(ctx)
        assert parse_upython(text, allow_hole=True) == ctx
    with pytest.raises(ParseError):
        parse_upython("HOLE")


def test_tag_round_trip_random():
    rng = random.Random(36)
    for _ in range(500):
        s = gen_tag(rng)
        assert parse_tag(print_tag(s)) == s


def test_parsing_function_tags_does_not_grow_the_arity_table():
    before = len(FUN_TAGS)
    for k in range(1000):
        assert parse_tag(f"fun[{10**6 + k}]") == FunTag(10**6 + k)
    assert len(FUN_TAGS) == before
    assert parse_tag("fun[2]") == FunTag(2)


# ---------------------------------------------------------------------------
# concrete syntax pins


def test_surface_forms_parse_to_expected_shapes():
    assert parse_anthill("let x = 1 in x") == Let("x", IntLit(1), Var("x"))
    fn = parse_anthill("fun(v: (int) -> int) -> int: v(42)")
    assert isinstance(fn.params[0][1], Function)
    assert parse_anthill_type("(dyn, int) -> dyn") == Function((DYN, INT), DYN)


def test_attribute_write_is_postfix():
    t = parse_anthill("let o = x in o.a = 2")
    assert type(t.body).__name__ == "Set"
    # chained: the write target is the inner read
    t2 = parse_anthill("x.a.b = 3")
    assert type(t2).__name__ == "Set"
    assert type(t2.subject).__name__ == "Get"


def test_labels_select_origin():
    assert parse_upython("f(1)!", allow_hole=False) == UApp(
        UVar("f"), (UInt(1),), TRANSLATED)
    assert parse_upython("f(1)") == UApp(UVar("f"), (UInt(1),), NATIVE)
    assert parse_upython("x.a!") == UGet(UVar("x"), "a", TRANSLATED)


def test_addresses_gated_by_flag():
    assert parse_upython("@3", allow_addresses=True).addr == 3
    with pytest.raises(ParseError):
        parse_upython("@3")


def test_nullary_lambda():
    assert parse_upython("lambda(): 0") == ULam((), UInt(0))


# ---------------------------------------------------------------------------
# rejections


@pytest.mark.parametrize("bad", [
    "let = 1 in x",            # missing binder
    "fun(x: int) -> : x",      # missing result type
    "class C [open {}; {}]",   # malformed header
    "x.",                      # dangling dot
    "check(x)",                # check needs a tag
    "obj[a: int",              # unclosed
    "1 2",                     # trailing garbage
    "let in = 1 in 2",         # keyword as binder
])
def test_source_rejections(bad):
    with pytest.raises(ParseError):
        parse_anthill(bad)


def test_dollar_names_unutterable():
    # the runtime owns the $ namespace for generated binders
    with pytest.raises(ParseError):
        parse_upython("$r0")
    with pytest.raises(ParseError):
        parse_anthill("let $x = 1 in $x")


def test_wildcard_binds_but_cannot_be_read():
    parse_upython("lambda(_): 0")
    with pytest.raises(ParseError):
        parse_upython("lambda(_): _")


def test_error_positions_point_at_the_offender():
    try:
        parse_anthill("let x =\n  ) in x")
    except ParseError as err:
        assert err.line == 2
        assert err.col == 3
    else:
        pytest.fail("expected a parse error")


def test_duplicate_attribute_labels_rejected():
    with pytest.raises(ParseError):
        parse_anthill_type("obj[a: int, a: dyn]")


@pytest.mark.parametrize("parse, text, count", [
    (parse_anthill_type, "obj P open {%s}", lambda t: len(t.attrs)),
    (parse_upython, "class C() {%s} init 0", lambda e: len(e.members)),
], ids=["object-type", "class-literal"])
def test_many_labels_parse_in_linear_time(parse, text, count):
    # each label is checked against the labels seen so far in a set; a
    # scan of the earlier labels took over 2 s for 8,000 of them
    sep = ": int" if parse is parse_anthill_type else " = 0"
    labels = ", ".join(f"l{i}{sep}" for i in range(8000))
    start = time.perf_counter()
    parsed = parse(text % labels)
    assert time.perf_counter() - start < 1.0
    assert count(parsed) == 8000


def test_non_decimal_digit_is_an_unexpected_character():
    # str.isdigit() holds for these, but int() cannot read them
    for bad in ("\u00b2", "\u2460", "7\u00b2", "\u216b"):
        with pytest.raises(ParseError) as err:
            parse_upython(f"f({bad})")
        assert str(err.value) == f"1:{2 + len(bad)}: unexpected character " \
            f"{bad[-1]!r}"
    # after the first character an identifier may hold any of them
    assert parse_upython("x\u00b2\u216b") == UVar("x\u00b2\u216b")
    # a decimal digit of any script is a number
    assert parse_upython("\u0663") == UInt(3)


LONG = "9" * 5000   # more digits than int() converts by default


@pytest.mark.parametrize("parse, text, col", [
    (parse_anthill, f"let x = {LONG} in x", 9),
    (parse_upython, f"f(1,\n  {LONG})", 3),
    (lambda t: parse_upython(t, allow_addresses=True), f"@{LONG}", 2),
    (parse_tag, f"fun[{LONG}]", 5),
    (parse_tag, f"class{{}}[{LONG}]", 9),
], ids=["anthill", "upython", "address", "fun-tag", "class-tag"])
def test_overlong_number_is_a_parse_error(parse, text, col):
    with pytest.raises(ParseError) as err:
        parse(text)
    line = text.count("\n") + 1
    assert str(err.value) == \
        f"{line}:{col}: number of 5000 digits is too long"


def test_number_as_long_as_int_converts_parses():
    digits = "9" * 4300
    assert parse_upython(digits) == UInt(int(digits))


@pytest.mark.parametrize("parse", [parse_anthill, parse_anthill_type,
                                   parse_upython])
def test_deep_nesting_is_a_parse_error(parse):
    with pytest.raises(ParseError, match="input nested too deeply") as err:
        parse("(" * 5000 + "1" + ")" * 5000)
    assert err.value.line == 1


@pytest.mark.parametrize("parse, text", [
    (parse_anthill, "f(" * 400 + "1" + ")" * 400),
    (parse_upython, "f(" * 400 + "1" + ")" * 400),
    (parse_anthill, "class C(" * 400 + "1"
     + ") [open; {}; {}] { init = ctor(self): 0 }" * 400),
    (parse_upython, "class C(" * 400 + "1" + ") {} init 0" * 400),
    (parse_anthill_type, "(" * 800 + "int" + ") -> int" * 800),
], ids=["anthill-call", "upython-call", "anthill-super", "upython-super",
        "function-type"])
def test_lists_nest_as_deep_as_their_rule(parse, text):
    # a rule reads its list's items in its own frame, not through a
    # callback, so each level of nesting costs the stack no more
    parse(text)


# ---------------------------------------------------------------------------
# the lexer against the reference lexer in tests/oracles.py


def _kind(token):
    # keywords and punctuation are token kinds of their own
    return token.text if token.kind in ("KW", "PUNCT") else token.kind


class _ReferenceTokens:
    """Runs a grammar over the reference lexer's tokens and positions."""

    def __init__(self, text, *flags):
        super().__init__("", *flags)
        tokens = o_tokenize(text)
        self.kind_of = {t.text: _kind(t) for t in tokens}
        self.texts = [t.text for t in tokens]
        self.positions = [(t.line, t.col) for t in tokens]

    def fail(self, message, pos=None):
        line, col = self.positions[self.pos if pos is None else pos]
        return ParseError(message, line, col)


class _ReferenceAnthill(_ReferenceTokens, AnthillParser):
    pass


class _ReferenceUPython(_ReferenceTokens, UPythonParser):
    pass


_ENTRY_POINTS = [
    (parse_anthill, _ReferenceAnthill, "term", ()),
    (parse_anthill_type, _ReferenceAnthill, "type_", ()),
    (parse_upython, _ReferenceUPython, "term", ()),
    (lambda t: parse_upython(t, True, True), _ReferenceUPython, "term",
     (True, True)),
    (parse_tag, _ReferenceUPython, "tag", ()),
]

_PIECES = st.sampled_from([
    "let", "in", "fun", "meth", "ctor", "init", "class", "obj", "open",
    "closed", "dyn", "int", "lambda", "check", "pyobj", "any", "HOLE",
    "->", "-", ">", *"(){}[],;:.=!@", " ", "\t", "\r", "\n", "\x0c",
    "# a comment", "#", "$", "_", "x", "y1", "\u00b2",
])
_CHARACTERS = st.characters(categories=("Lu", "Ll", "Lo", "Nd", "No", "Nl"))
_TEXTS = st.lists(st.one_of(_PIECES, _CHARACTERS), max_size=40).map("".join)


@st.composite
def _edited_programs(draw):
    """A printed program, type, tag or context with a span replaced."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    make = draw(st.sampled_from([
        lambda: print_anthill_term(gen_typed_program(rng, 3)[0]),
        lambda: print_anthill_type(gen_type(rng, 3)),
        lambda: print_upython(
            translate_program(gen_typed_program(rng, 3)[0])[0]),
        lambda: print_upython(gen_untyped_context(rng, 3)),
        lambda: print_tag(gen_tag(rng)),
    ]))
    text = make()
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 8)))
    return text[:i] + draw(st.lists(_PIECES, max_size=2).map("".join)) \
        + text[j:]


_INPUTS = st.one_of(_TEXTS, _edited_programs())


def _position(text, offset):
    return text.count("\n", 0, offset) + 1, \
        offset - text.rfind("\n", 0, offset)


@settings(max_examples=400, deadline=None)
@given(_INPUTS)
def test_lexer_agrees_with_reference(text):
    try:
        want = o_tokenize(text)
    except OLexError as err:
        with pytest.raises(ParseError) as got:
            tokenize(text)
        assert str(got.value) == str(err)
        return
    got = tokenize(text)
    assert [(kind, t) for kind, t, _ in got] == \
        [(_kind(t), t.text) for t in want]
    assert [_position(text, offset) for _, _, offset in got] == \
        [(t.line, t.col) for t in want]


def _lexed(text):
    """Each token's kind, text and line:col, or the error's text."""
    try:
        return [(kind, t, _position(text, offset))
                for kind, t, offset in tokenize(text)]
    except ParseError as err:
        return str(err)


def _reference_lexed(text):
    try:
        return [(_kind(t), t.text, (t.line, t.col)) for t in o_tokenize(text)]
    except OLexError as err:
        return str(err)


def test_lexer_agrees_with_reference_on_programs():
    texts = [path.read_text() for path in sorted(Path("programs").iterdir())]
    for i in range(100):
        term, _ = gen_typed_program(random.Random(i), 7)
        texts.append(print_anthill_term(term))
        texts.append(print_upython(translate_program(term)[0]))
    for text in texts:
        assert _lexed(text) == _reference_lexed(text)


@pytest.mark.parametrize("text", [
    # a comment ends at the newline, or at EOF
    "x#c\ny", "x#c",
    # only spaces, tabs, CR and LF are layout: a form feed inside a
    # chunk is an unexpected character
    "a\x0cb", "a b",
    # a number ends where a word starts; - and > apart are no arrow
    "1x", "- >",
    # CRLF line ends, and a tab before an error's column
    "let x = 1\r\nin\r\n x", "let x = 1\r\n\tin \u00b2",
    # $ glued to a word, before it and after it
    "x$y", "f($x)",
])
def test_lexer_agrees_with_reference_at_chunk_edges(text):
    assert _lexed(text) == _reference_lexed(text)


def _outcome(parse, *args):
    try:
        return parse(*args)
    except (ParseError, OLexError) as err:
        return f"error {err}"


def _reference_parse(cls, rule, flags, text):
    p = cls(text, *flags)
    return p.parse(getattr(p, rule))


@settings(max_examples=400, deadline=None)
@given(_INPUTS)
def test_parsers_agree_with_reference_lexer(text):
    for parse, cls, rule, flags in _ENTRY_POINTS:
        assert _outcome(parse, text) == \
            _outcome(_reference_parse, cls, rule, flags, text)


@pytest.mark.parametrize("parse, text, message", [
    # EOF after a trailing comment sits at the comment's #
    (parse_upython, "(1 # hi", "1:4: expected ')', found 'EOF'"),
    (parse_anthill, "let x = 1 in\n  # no body", "2:3: expected a term"),
    # a tab is one column
    (parse_upython, "\t\tx y", "1:5: unexpected trailing input 'y'"),
    (parse_anthill, "let $x = 1 in $x",
     "1:5: the $ namespace is reserved for runtime binders"),
    (parse_upython, "x\x0c", "1:2: unexpected character '\\x0c'"),
    # comma-separated lists: unterminated, a missing comma, a trailing
    # comma, and the two lists that check for duplicate labels
    (parse_anthill, "f(1,", "1:5: expected a term"),
    (parse_upython, "f(1,", "1:5: expected an expression"),
    (parse_anthill, "f(1 2)", "1:5: expected ',', found '2'"),
    (parse_upython, "f(1 2)", "1:5: expected ',', found '2'"),
    (parse_upython, "lambda(x,): x", "1:10: expected binder, found ')'"),
    (parse_upython, "lambda(x", "1:9: expected ',', found 'EOF'"),
    (parse_anthill, "fun(x: int,) -> int: x",
     "1:12: expected binder, found ')'"),
    (parse_anthill, "fun(x: int y: int) -> int: x",
     "1:12: expected ',', found 'y'"),
    (parse_anthill_type, "(int,) -> int", "1:6: expected a type"),
    (parse_anthill_type, "class C open {} {} (int,)",
     "1:25: expected a type"),
    (parse_tag, "obj{a,}", "1:7: expected label, found '}'"),
    (parse_tag, "class{a b}[any]", "1:9: expected ',', found 'b'"),
    (parse_anthill, "class C() [open; {}; {}] "
     "{ m = meth(self,) -> int: 1; init = ctor(self): 0 }",
     "1:42: expected binder, found ')'"),
    (parse_anthill, "class C() [open; {}; {}] { init = ctor(self,): 0 }",
     "1:45: expected binder, found ')'"),
    (parse_anthill, "class C() [open; {}; {}] { init = ctor(): 0 }",
     "1:40: expected binder, found ')'"),
    (parse_anthill, "class C(x [open; {}; {}] { init = ctor(self): 0 }",
     "1:11: expected ',', found '['"),
    (parse_anthill, "class C(x, [open; {}; {}] { init = ctor(self): 0 }",
     "1:12: expected a term"),
    (parse_upython, "class C(x {} init 0", "1:11: expected ',', found '{'"),
    (parse_anthill_type, "obj P open {a: int, a: int, b}",
     "1:21: duplicate attribute label 'a'"),
    (parse_upython, "class C() {a = 1, a = (} init 0",
     "1:19: duplicate member label 'a'"),
])
def test_error_positions_pinned(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message
    for entry, cls, rule, flags in _ENTRY_POINTS:
        if entry is parse:
            assert _outcome(_reference_parse, cls, rule, flags, text) == \
                f"error {message}"


# ---------------------------------------------------------------------------
# parser behaviour pinned on a corrupted corpus


_REPLACEMENTS = ("$", "\u00b2", "@", "HOLE", "9" * 5000)


def _corrupted_corpus():
    """Printed programs, their translations, types and tags, each as
    printed and with one token deleted, duplicated, swapped with the
    next or replaced by one of _REPLACEMENTS, at seeded places."""
    rng = random.Random(23)
    bases = []
    for _ in range(12):
        term, ty = gen_typed_program(rng, rng.randint(2, 4))
        bases += [print_anthill_term(term),
                  print_upython(translate_program(term)[0]),
                  print_anthill_type(ty), print_tag(gen_tag(rng))]
    for text in bases:
        yield text
        tokens = tokenize(text)[:-1]
        for _ in range(6):
            i = rng.randrange(len(tokens))
            _, token, at = tokens[i]
            end = at + len(token)
            how = rng.randrange(3 + len(_REPLACEMENTS))
            if how == 0:
                yield text[:at] + text[end:]
            elif how == 1:
                yield text[:end] + " " + text[at:]
            elif how == 2 and i + 1 < len(tokens):
                _, after, start = tokens[i + 1]
                yield (text[:at] + after + text[end:start] + token
                       + text[start + len(after):])
            elif how > 2:
                yield f"{text[:at]} {_REPLACEMENTS[how - 3]} {text[end:]}"


_PINNED_PARSES = [(parse_anthill, print_anthill_term),
                  (parse_anthill_type, print_anthill_type),
                  (parse_upython, print_upython), (parse_tag, print_tag)]


def test_corrupted_corpus_parses_as_pinned():
    # each input's printed tree or error text under each entry point,
    # printed, not repr'd, so that the digest does not depend on the hash
    # seed; the digest is the one the parser gave before its rules read
    # their own tokens
    outcomes = []
    for text in _corrupted_corpus():
        for parse, show in _PINNED_PARSES:
            try:
                outcomes.append(show(parse(text)))
            except ParseError as err:
                outcomes.append(f"error {err}")
    assert len(outcomes) == 4 * 326
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == \
        "3f4efc9708bd5fdeb414eff3b1950d09d51488dd3da59fbf4235a324075df339"


# The Python-level calls of parsing 20 generated programs, depths 5-11,
# and their translations: the events sys.setprofile reports as "call",
# 56,300 on CPython 3.11.7 and 56,220 on 3.12 and 3.13 with this test
# run alone, under any hash seed. The budget is that count with under
# 3 % headroom. Raise it only in a change whose CHANGES.md line says why
# parsing needs the extra calls.
PARSE_CALL_BUDGET = 57_900


def test_parsing_stays_within_its_python_call_budget():
    rng = random.Random(1)
    inputs = []
    for i in range(20):
        term, _ = gen_typed_program(rng, 5 + i % 7)
        inputs.append((parse_anthill, print_anthill_term(term)))
        inputs.append((parse_upython,
                       print_upython(translate_program(term)[0])))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    before = sys.getprofile()
    sys.setprofile(count)
    try:
        for parse, text in inputs:
            parse(text)
    finally:
        sys.setprofile(before)
    assert calls <= PARSE_CALL_BUDGET, calls
