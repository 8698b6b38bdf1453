"""Concrete syntax for both languages.

One lexer serves both grammars; keywords are reserved in both so a
program never means different things to the two parsers. Elimination
and creation forms parsed from source default to the native label; a
postfix exclamation mark (and class! for class expressions) marks the
translated label, which the printer emits and this parser accepts for
round-tripping. Runtime addresses (@n) and the context hole (HOLE)
parse only under explicit flags.

Tokens, after layout (spaces, tabs, carriage returns, newlines and #
comments to the end of the line) is skipped:

    NUM     a run of decimal digits, the digits int() reads; a number
            longer than int() converts (sys.get_int_max_str_digits())
            is an error
    IDENT   a letter or _, then letters, digits or _ (str.isalpha and
            str.isalnum), unless the word is one of KEYWORDS
    keyword one of KEYWORDS
    punct   -> ( ) { } [ ] , ; : . = ! @

Keywords and punctuation are token kinds of their own, named by their
text. Any other character is an error; $ gets a message of its own,
since the runtime names its binders with it. The token list ends in an
EOF sentinel. An error position is line:col, every character, a tab
included, counting as one column; EOF after a trailing comment sits at
the comment's #.

No token holds a # or a layout character, so the lexer works in passes
over the whole text: it blanks the comments, splits the text at layout
into chunks, lexes each distinct chunk once and finds the kind of each
distinct token text once. Program text repeats its chunks (binders,
keywords, punctuation runs), so most chunks are looked up, not lexed.
Only an error needs token offsets; they are found then, from the same
chunks, each of which keeps its place in the text.
"""

from __future__ import annotations

import re
from itertools import chain

from .core import (
    CLOSED,
    OPEN,
    AnthillTerm,
    AnthillType,
    App,
    AttrTypes,
    Class,
    ClassDecl,
    Constructor,
    Fun,
    Function,
    Get,
    Let,
    Method,
    Object,
    Set,
    Var,
    IntLit,
    DYN,
    INT,
)
from .upython import (
    NATIVE,
    TRANSLATED,
    ClassTag,
    FunTag,
    Label,
    ObjTag,
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
    UVar,
    INT_TAG,
    PYOBJ,
)

KEYWORDS = frozenset({
    "let", "in", "fun", "meth", "ctor", "init", "class", "obj",
    "open", "closed", "dyn", "int", "lambda", "check", "pyobj", "any",
    "HOLE",
})


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int) -> None:
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


# A token: a word may start with a non-decimal digit such as a
# superscript, which the lexer rejects, and a character that starts no
# token is a token of its own, so that findall skips nothing.
_CHUNK = re.compile(r"\d+|[^\W\d]\w*|->|.")
_COMMENT = re.compile(r"#[^\n]*")
_FIXED = frozenset((*KEYWORDS, "->", *"(){}[],;:.=!@"))


def _kind(token: str) -> str:
    if token in _FIXED:
        return token
    c = token[0]
    if c.isalpha() or c == "_":
        return "IDENT"
    return "NUM" if c.isdecimal() else "BAD"


def _chunks(text: str) -> list[str]:
    """The text split at layout, each comment blanked to spaces first:
    a chunk starts one character after the end of the one before."""
    return (_COMMENT.sub(lambda m: " " * len(m[0]), text)
            .replace("\t", " ").replace("\r", " ").replace("\n", " ")
            .split(" "))


def _lex(text: str) -> tuple[list[str], list[str]]:
    """The kind and the text of each token, both ending in EOF. Each
    distinct chunk is lexed once, and each distinct token kinded once."""
    chunks = _chunks(text)
    tokens_of = {c: _CHUNK.findall(c) for c in set(chunks)}
    texts = list(chain.from_iterable(map(tokens_of.__getitem__, chunks)))
    kind_of = {t: _kind(t) for t in set(texts)}
    kinds = list(map(kind_of.__getitem__, texts))
    if "BAD" in kind_of.values():
        i = kinds.index("BAD")
        c = texts[i][0]
        raise _error(text, _offsets(text)[i],
                     "the $ namespace is reserved for runtime binders"
                     if c == "$" else f"unexpected character {c!r}")
    kinds.append("EOF")
    texts.append("")
    return kinds, texts


def _offsets(text: str) -> list[int]:
    """The offset of each token, EOF included; only errors need them."""
    offsets = []
    at = 0
    for chunk in _chunks(text):
        for token in _CHUNK.findall(chunk):
            offsets.append(at)
            at += len(token)
        at += 1
    # no token holds a #, so the first one from the last token's start
    # on the last line opens the trailing comment
    last = offsets[-1] if offsets else 0
    comment = text.find("#", max(last, text.rfind("\n") + 1))
    offsets.append(comment if comment >= 0 else len(text))
    return offsets


def _error(text: str, offset: int, message: str) -> ParseError:
    return ParseError(message, text.count("\n", 0, offset) + 1,
                      offset - text.rfind("\n", 0, offset))


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """Each token's kind, text and offset, ending in the EOF sentinel."""
    return list(zip(*_lex(text), _offsets(text)))


class _Parser:
    # Grammar rules look at the current token before they consume it,
    # so the position never moves past the EOF sentinel. A rule reads
    # the current kind into a local once and branches on it.
    def __init__(self, text: str) -> None:
        self.source = text
        self.kinds, self.texts = _lex(text)
        self.pos = 0

    def parse(self, rule):
        """Apply rule to the whole input. The rules recurse once or more
        per level of nesting, so input nested deeper than the stack
        allows is an error at the token where it ran out."""
        try:
            result = rule()
        except RecursionError:
            raise self.fail("input nested too deeply") from None
        if self.kinds[self.pos] != "EOF":
            raise self.fail(
                f"unexpected trailing input {self.texts[self.pos]!r}")
        return result

    def expect(self, kind: str, what: str | None = None) -> str:
        pos = self.pos
        if self.kinds[pos] != kind:
            found = self.texts[pos] or "EOF"
            raise self.fail(f"expected {what or repr(kind)}, found {found!r}")
        self.pos = pos + 1
        return self.texts[pos]

    def fail(self, message: str, pos: int | None = None) -> ParseError:
        offset = _offsets(self.source)[self.pos if pos is None else pos]
        return _error(self.source, offset, message)

    def number(self) -> int:
        pos = self.pos
        digits = self.expect("NUM")
        try:
            return int(digits)
        except ValueError:   # longer than sys.get_int_max_str_digits()
            raise self.fail(f"number of {len(digits)} digits is too long",
                            pos) from None

    def ident(self, what: str) -> str:
        return self.expect("IDENT", what)

    def binder(self) -> str:
        # a binder may be the wildcard; a reference may not
        return self.ident("binder")

    def reference(self) -> str:
        pos = self.pos
        name = self.ident("variable")
        if name == "_":
            raise self.fail("the wildcard _ cannot be referenced", pos)
        return name

    def listed(self, close: str = ")", lead: bool = False):
        """Yield once per item of a comma-separated list, for the caller
        to read the item, and consume close after the last. With lead,
        an item was read already, so the first needs a comma. Items are
        read in the caller's frame: a callback would cost one more frame
        per level of nesting, so nested calls and function types would
        overflow the stack sooner."""
        while self.kinds[self.pos] != close:
            if lead:
                self.expect(",")
            lead = True
            yield
        self.pos += 1

    def postfix(self):
        """Calls, member reads and a member write after an atom, built
        with the grammar's App, Get and Set and its label() reader."""
        e = self.atom()
        kinds = self.kinds
        while True:
            k = kinds[self.pos]
            if k == "(":
                self.pos += 1
                args = []
                for _ in self.listed():
                    args.append(self.term())
                e = self.App(e, tuple(args), *self.label())
            elif k == ".":
                self.pos += 1
                attr = self.ident("attribute label")
                label = self.label()
                if kinds[self.pos] == "=":
                    self.pos += 1
                    return self.Set(e, attr, self.term(), *label)
                e = self.Get(e, attr, *label)
            else:
                return e


# ---------------------------------------------------------------------------
# source language


class AnthillParser(_Parser):
    App, Get, Set = App, Get, Set

    def label(self) -> tuple:
        """A node's label fields: none, as source forms carry no label."""
        return ()

    def term(self) -> AnthillTerm:
        k = self.kinds[self.pos]
        if k == "let":
            return self.let_term()
        if k == "fun":
            return self.fun_term()
        if k == "class":
            return self.class_term()
        return self.postfix()

    def let_term(self) -> AnthillTerm:
        self.pos += 1
        name = self.binder()
        self.expect("=")
        bound = self.term()
        self.expect("in")
        body = self.term()
        return Let(name, bound, body)

    def fun_term(self) -> AnthillTerm:
        self.pos += 1
        self.expect("(")
        params = []
        for _ in self.listed():
            params.append(self.param())
        self.expect("->")
        ret = self.type_()
        self.expect(":")
        body = self.term()
        return Fun(tuple(params), ret, body)

    def param(self) -> tuple[str, AnthillType]:
        name = self.binder()
        self.expect(":")
        return name, self.type_()

    def receiver_params(self) -> tuple[str, tuple]:
        """The parenthesized receiver and parameters of a meth or ctor."""
        self.expect("(")
        receiver = self.binder()
        params = []
        for _ in self.listed(lead=True):
            params.append(self.param())
        return receiver, tuple(params)

    def class_term(self) -> AnthillTerm:
        self.pos += 1
        name = self.ident("class name")
        self.expect("(")
        supers = []
        for _ in self.listed():
            supers.append(self.term())
        self.expect("[")
        openness = self.openness()
        self.expect(";")
        class_attrs = self.attr_types()
        self.expect(";")
        instance_attrs = self.attr_types()
        self.expect("]")
        self.expect("{")
        methods: list[Method] = []
        fields: list[tuple[str, AnthillTerm]] = []
        kinds = self.kinds
        while kinds[self.pos] != "init":
            label_pos = self.pos
            label = self.ident("member label or init")
            self.expect("=")
            if kinds[self.pos] == "meth":
                methods.append(self.meth_term(label))
            else:
                fields.append((label, self.term()))
            self.expect(";")
            if kinds[self.pos] == "}":
                raise self.fail("class body must end with an init clause",
                                label_pos)
        self.pos += 1
        self.expect("=")
        ctor = self.ctor_term()
        self.expect("}")
        try:
            return ClassDecl(name, openness, class_attrs, instance_attrs,
                             tuple(supers), tuple(methods), tuple(fields),
                             ctor)
        except ValueError as exc:
            raise self.fail(str(exc)) from None

    def meth_term(self, label: str) -> Method:
        self.pos += 1
        receiver, params = self.receiver_params()
        self.expect("->")
        ret = self.type_()
        self.expect(":")
        body = self.term()
        return Method(label, receiver, params, ret, body)

    def ctor_term(self) -> Constructor:
        self.expect("ctor")
        receiver, params = self.receiver_params()
        self.expect(":")
        body = self.term()
        return Constructor(receiver, params, body)

    def atom(self) -> AnthillTerm:
        k = self.kinds[self.pos]
        if k == "NUM":
            return IntLit(self.number())
        if k == "(":
            self.pos += 1
            inner = self.term()
            self.expect(")")
            return inner
        if k == "IDENT":
            return Var(self.reference())
        raise self.fail("expected a term")

    def openness(self):
        k = self.kinds[self.pos]
        if k == "open" or k == "closed":
            self.pos += 1
            return OPEN if k == "open" else CLOSED
        raise self.fail("expected 'open' or 'closed'")

    def attr_types(self) -> AttrTypes:
        self.expect("{")
        entries = {}
        for _ in self.listed("}"):
            label_pos = self.pos
            label = self.ident("attribute label")
            self.expect(":")
            ty = self.type_()
            if label in entries:
                raise self.fail(f"duplicate attribute label {label!r}",
                                label_pos)
            entries[label] = ty
        return AttrTypes(entries.items())

    def type_(self) -> AnthillType:
        pos = self.pos
        k = self.kinds[pos]
        self.pos = pos + 1
        if k == "dyn":
            return DYN
        if k == "int":
            return INT
        if k == "(":
            params = []
            for _ in self.listed():
                params.append(self.type_())
            self.expect("->")
            return Function(tuple(params), self.type_())
        if k == "obj":
            name = self.ident("object type name")
            openness = self.openness()
            return Object(name, openness, self.attr_types())
        if k == "class":
            name = self.ident("class type name")
            openness = self.openness()
            class_attrs = self.attr_types()
            instance_attrs = self.attr_types()
            self.expect("(")
            ctor_params = []
            for _ in self.listed():
                ctor_params.append(self.type_())
            return Class(name, openness, class_attrs, instance_attrs,
                         tuple(ctor_params))
        raise self.fail("expected a type", pos)


# ---------------------------------------------------------------------------
# target language


class UPythonParser(_Parser):
    App, Get, Set = UApp, UGet, USet

    def __init__(self, text: str, allow_hole: bool = False,
                 allow_addresses: bool = False) -> None:
        super().__init__(text)
        self.allow_hole = allow_hole
        self.allow_addresses = allow_addresses

    def label(self) -> tuple[Label]:
        """A node's label fields: its origin label, TRANSLATED when a !
        follows."""
        if self.kinds[self.pos] == "!":
            self.pos += 1
            return (TRANSLATED,)
        return (NATIVE,)

    def term(self) -> UPyExpr:
        k = self.kinds[self.pos]
        if k == "let":
            self.pos += 1
            name = self.binder()
            self.expect("=")
            bound = self.term()
            self.expect("in")
            return ULet(name, bound, self.term())
        if k == "lambda":
            self.pos += 1
            self.expect("(")
            params = []
            for _ in self.listed():
                params.append(self.binder())
            self.expect(":")
            return ULam(tuple(params), self.term())
        if k == "class":
            return self.class_expr()
        return self.postfix()

    def class_expr(self) -> UPyExpr:
        self.pos += 1
        label = self.label()
        name = self.ident("class name")
        self.expect("(")
        supers = []
        for _ in self.listed():
            supers.append(self.term())
        self.expect("{")
        members = {}
        for _ in self.listed("}"):
            label_pos = self.pos
            mlabel = self.ident("member label")
            if mlabel in members:
                raise self.fail(f"duplicate member label {mlabel!r}",
                                label_pos)
            self.expect("=")
            members[mlabel] = self.term()
        self.expect("init")
        ctor = self.term()
        return UClass(name, tuple(supers), tuple(members.items()), ctor,
                      *label)

    def atom(self) -> UPyExpr:
        k = self.kinds[self.pos]
        if k == "NUM":
            return UInt(self.number())
        if k == "(":
            self.pos += 1
            inner = self.term()
            self.expect(")")
            return inner
        if k == "check":
            self.pos += 1
            self.expect("(")
            subject = self.term()
            self.expect(",")
            tag = self.tag()
            self.expect(")")
            return UCheck(subject, tag)
        if k == "@":
            if not self.allow_addresses:
                raise self.fail("addresses are not allowed in source")
            self.pos += 1
            return UAddr(self.number())
        if k == "HOLE":
            if not self.allow_hole:
                raise self.fail("HOLE is only allowed in context files")
            self.pos += 1
            return UHole()
        if k == "IDENT":
            return UVar(self.reference())
        raise self.fail("expected an expression")

    def tag(self) -> Tag:
        pos = self.pos
        k = self.kinds[pos]
        self.pos = pos + 1
        if k == "pyobj":
            return PYOBJ
        if k == "int":
            return INT_TAG
        if k == "fun":
            self.expect("[")
            arity = self.number()
            self.expect("]")
            return FunTag(arity)
        if k == "obj":
            return ObjTag(self.tag_labels())
        if k == "class":
            labels = self.tag_labels()
            self.expect("[")
            if self.kinds[self.pos] == "any":
                self.pos += 1
                arity = None
            else:
                arity = self.number()
            self.expect("]")
            return ClassTag(labels, arity)
        raise self.fail("expected a tag", pos)

    def tag_labels(self) -> tuple[str, ...]:
        self.expect("{")
        labels = []
        for _ in self.listed("}"):
            labels.append(self.ident("label"))
        return tuple(labels)


# ---------------------------------------------------------------------------
# entry points


def parse_anthill(text: str) -> AnthillTerm:
    p = AnthillParser(text)
    return p.parse(p.term)


def parse_anthill_type(text: str) -> AnthillType:
    p = AnthillParser(text)
    return p.parse(p.type_)


def parse_upython(text: str, allow_hole: bool = False,
                  allow_addresses: bool = False) -> UPyExpr:
    p = UPythonParser(text, allow_hole, allow_addresses)
    return p.parse(p.term)


def parse_tag(text: str) -> Tag:
    p = UPythonParser(text)
    return p.parse(p.tag)
