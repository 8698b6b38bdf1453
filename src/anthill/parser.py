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

from .core import CLOSED, DYN, INT, OPEN, AnthillTerm, AnthillType, App, \
    AttrTypes, Class, ClassDecl, Constructor, Fun, Function, Get, IntLit, \
    Let, Method, Object, Set, Var
from .upython import FUN_TAGS, INT_TAG, OBJ_TAG, PYOBJ, TRANSLATED, \
    ClassTag, ObjTag, Tag, UAddr, UApp, UCheck, UClass, UGet, UHole, UInt, \
    ULam, ULet, UPyExpr, USet, UVar

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
_OPENNESS = {"open": OPEN, "closed": CLOSED}


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


def _lex(text: str) -> tuple[list[str], dict[str, str]]:
    """Each token's text, ending in EOF's empty one, and the kind of each
    token text; each distinct chunk is lexed, and token kinded, once."""
    chunks = _chunks(text)
    tokens_of = {c: _CHUNK.findall(c) for c in set(chunks)}
    texts = list(chain.from_iterable(map(tokens_of.__getitem__, chunks)))
    kind_of = {t: _kind(t) for t in set(chain(*tokens_of.values()))}
    if "BAD" in kind_of.values():
        i = list(map(kind_of.get, texts)).index("BAD")
        c = texts[i][0]
        raise _error(text, _offsets(text)[i],
                     "the $ namespace is reserved for runtime binders"
                     if c == "$" else f"unexpected character {c!r}")
    texts.append("")
    kind_of[""] = "EOF"
    return texts, kind_of


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
    texts, kind_of = _lex(text)
    return list(zip(map(kind_of.get, texts), texts, _offsets(text)))


class _Parser:
    # Rules look at the current token before they consume it, so the
    # position never moves past the EOF sentinel. A rule checks its own
    # keywords and punctuation by text and its names and numbers by kind,
    # and reads its comma lists in a loop, in its own frame; only a tag's
    # or an address's number goes through number().
    def __init__(self, text: str) -> None:
        self.source = text
        self.texts, self.kind_of = _lex(text)
        self.pos = 0

    def parse(self, rule):
        """Apply rule to the whole input. The rules recurse once or more
        per level of nesting, so input nested deeper than the stack
        allows is an error at the token where it ran out. A form nests
        through the frames it did when it had a rule of its own: sub
        stands in for that rule, as body does for a source let or fun."""
        try:
            result = rule()
        except RecursionError:
            raise self.fail("input nested too deeply") from None
        if self.texts[self.pos]:   # EOF's text is the only empty one
            raise self.fail(
                f"unexpected trailing input {self.texts[self.pos]!r}")
        return result

    def fail(self, message: str, pos: int | None = None) -> ParseError:
        offset = _offsets(self.source)[self.pos if pos is None else pos]
        return _error(self.source, offset, message)

    def expected(self, what: str, pos: int) -> ParseError:
        found = self.texts[pos] or "EOF"
        return self.fail(f"expected {what}, found {found!r}", pos)

    def too_long(self, pos: int) -> ParseError:
        # int() converts at most sys.get_int_max_str_digits() digits
        return self.fail(
            f"number of {len(self.texts[pos])} digits is too long", pos)

    def number(self, pos: int) -> int:
        if self.kind_of[self.texts[pos]] != "NUM":
            raise self.expected("'NUM'", pos)
        try:
            return int(self.texts[pos])
        except ValueError:
            raise self.too_long(pos) from None

    def sub(self):
        return self.term()

    def term(self):
        """A let, a function (fun or lambda), a class or a postfix form."""
        kind_of, texts = self.kind_of, self.texts
        pos = self.pos
        t = texts[pos]
        if t == "let":
            if kind_of[texts[pos + 1]] != "IDENT":
                raise self.expected("binder", pos + 1)
            if texts[pos + 2] != "=":
                raise self.expected("'='", pos + 2)
            self.pos = pos + 3
            bound = self.body()
            if texts[self.pos] != "in":
                raise self.expected("'in'", self.pos)
            self.pos += 1
            return self.Let(texts[pos + 1], bound, self.body())
        if t == self.FUN:
            self.pos = pos + 1
            return self.Fun(*self.head(), self.body())
        if t == "class":
            label = self.marks.get(texts[pos + 1], ())
            pos += 1 + len(label)
            if kind_of[texts[pos]] != "IDENT":
                raise self.expected("class name", pos)
            if texts[pos + 1] != "(":
                raise self.expected("'('", pos + 1)
            self.pos = pos + 2
            supers = []
            while texts[self.pos] != ")":
                if supers:
                    if texts[self.pos] != ",":
                        raise self.expected("','", self.pos)
                    self.pos += 1
                supers.append(self.sub())
            self.pos += 1
            return self.class_body(texts[pos], tuple(supers), *label)
        return self.postfix()

    def head(self, receiver: bool = False, returns: bool = True) -> list:
        """A function form's parameters in parentheses, after a receiver
        binder if it takes one (in the source binder: type, then -> and a
        return type if it returns one), and the colon before its body."""
        kind_of, texts = self.kind_of, self.texts
        pos = self.pos
        if texts[pos] != "(":
            raise self.expected("'('", pos)
        pos += 1
        if receiver and kind_of[texts[pos]] != "IDENT":
            raise self.expected("binder", pos)
        fields = [texts[pos]] if receiver else []
        pos += len(fields)
        params = []
        while texts[pos] != ")":
            if params or receiver:
                if texts[pos] != ",":
                    raise self.expected("','", pos)
                pos += 1
            if kind_of[texts[pos]] != "IDENT":
                raise self.expected("binder", pos)
            if not self.typed:
                params.append(texts[pos])
                pos += 1
                continue
            if texts[pos + 1] != ":":
                raise self.expected("':'", pos + 1)
            self.pos = pos + 2
            params.append((texts[pos], self.type_()))
            pos = self.pos
        fields.append(tuple(params))
        pos += 1
        if returns and self.typed:
            if texts[pos] != "->":
                raise self.expected("'->'", pos)
            self.pos = pos + 1
            fields.append(self.type_())
            pos = self.pos
        if texts[pos] != ":":
            raise self.expected("':'", pos)
        self.pos = pos + 1
        return fields

    def postfix(self):
        """A variable, number or atom, then the calls, member reads and
        member write after it, labelled by the marks after each."""
        kind_of, texts = self.kind_of, self.texts
        pos = self.pos
        k = kind_of[texts[pos]]
        if k == "IDENT":
            if texts[pos] == "_":
                raise self.fail("the wildcard _ cannot be referenced", pos)
            self.pos = pos + 1
            e = self.Var(texts[pos])
        elif k == "NUM":
            try:
                e = self.Int(int(texts[pos]))
            except ValueError:
                raise self.too_long(pos) from None
            self.pos = pos + 1
        else:
            e = self.atom()
        while True:
            pos = self.pos
            t = texts[pos]
            if t == "(":
                self.pos = pos + 1
                args = []
                while texts[self.pos] != ")":
                    if args:
                        if texts[self.pos] != ",":
                            raise self.expected("','", self.pos)
                        self.pos += 1
                    args.append(self.term())
                pos = self.pos + 1
                label = self.marks.get(texts[pos], ())
                self.pos = pos + len(label)
                e = self.App(e, tuple(args), *label)
            elif t == ".":
                if kind_of[texts[pos + 1]] != "IDENT":
                    raise self.expected("attribute label", pos + 1)
                label = self.marks.get(texts[pos + 2], ())
                self.pos = pos + 2 + len(label)
                if texts[self.pos] == "=":
                    self.pos += 1
                    return self.Set(e, texts[pos + 1], self.term(), *label)
                e = self.Get(e, texts[pos + 1], *label)
            else:
                return e

    def atom(self):
        """A parenthesized term or check, or one of the grammar's leaves."""
        texts = self.texts
        pos = self.pos
        t = texts[pos]
        if t == self.CHECK:
            if texts[pos + 1] != "(":
                raise self.expected("'('", pos + 1)
            pos += 1
        elif t != "(":
            return self.leaf(pos)
        self.pos = pos + 1
        inner = self.term()
        if t == self.CHECK:
            if texts[self.pos] != ",":
                raise self.expected("','", self.pos)
            self.pos += 1
            inner = UCheck(inner, self.tag())
        if texts[self.pos] != ")":
            raise self.expected("')'", self.pos)
        self.pos += 1
        return inner


# ---------------------------------------------------------------------------
# source language


class AnthillParser(_Parser):
    FUN, CHECK, typed, body = "fun", None, True, _Parser.sub
    Let, Fun, Var, Int, App, Get, Set = Let, Fun, Var, IntLit, App, Get, Set
    marks = {}   # source forms carry no label

    def class_body(self, name: str, supers: tuple) -> AnthillTerm:
        """A class declaration's openness, attribute types, members and
        constructor, after its supers."""
        kind_of, texts = self.kind_of, self.texts
        pos = self.pos
        if texts[pos] != "[":
            raise self.expected("'['", pos)
        openness = _OPENNESS.get(texts[pos + 1])
        if openness is None:
            raise self.fail("expected 'open' or 'closed'", pos + 1)
        if texts[pos + 2] != ";":
            raise self.expected("';'", pos + 2)
        self.pos = pos + 3
        class_attrs = self.attr_types()
        if texts[self.pos] != ";":
            raise self.expected("';'", self.pos)
        self.pos += 1
        instance_attrs = self.attr_types()
        if texts[self.pos] != "]":
            raise self.expected("']'", self.pos)
        if texts[self.pos + 1] != "{":
            raise self.expected("'{'", self.pos + 1)
        pos = self.pos + 2
        methods, fields = [], []
        while texts[pos] != "init":
            label = texts[pos]
            if kind_of[label] != "IDENT":
                raise self.expected("member label or init", pos)
            if texts[pos + 1] != "=":
                raise self.expected("'='", pos + 1)
            if texts[pos + 2] == "meth":
                self.pos = pos + 3
                methods.append(Method(label, *self.head(True), self.sub()))
            else:
                self.pos = pos + 2
                fields.append((label, self.term()))
            if texts[self.pos] != ";":
                raise self.expected("';'", self.pos)
            if texts[self.pos + 1] == "}":
                raise self.fail("class body must end with an init clause",
                                pos)
            pos = self.pos + 1
        if texts[pos + 1] != "=":
            raise self.expected("'='", pos + 1)
        if texts[pos + 2] != "ctor":
            raise self.expected("'ctor'", pos + 2)
        self.pos = pos + 3
        ctor = Constructor(*self.head(True, False), self.sub())
        if texts[self.pos] != "}":
            raise self.expected("'}'", self.pos)
        self.pos += 1
        try:
            return ClassDecl(name, openness, class_attrs, instance_attrs,
                             supers, tuple(methods), tuple(fields), ctor)
        except ValueError as exc:
            raise self.fail(str(exc)) from None

    def leaf(self, pos: int) -> AnthillTerm:
        raise self.fail("expected a term", pos)

    def attr_types(self) -> AttrTypes:
        kind_of, texts = self.kind_of, self.texts
        pos = self.pos
        if texts[pos] != "{":
            raise self.expected("'{'", pos)
        pos += 1
        entries = {}
        while texts[pos] != "}":
            if entries:
                if texts[pos] != ",":
                    raise self.expected("','", pos)
                pos += 1
            label = texts[pos]
            if kind_of[label] != "IDENT":
                raise self.expected("attribute label", pos)
            if texts[pos + 1] != ":":
                raise self.expected("':'", pos + 1)
            self.pos = pos + 2
            ty = self.type_()
            if label in entries:
                raise self.fail(f"duplicate attribute label {label!r}", pos)
            entries[label] = ty
            pos = self.pos
        self.pos = pos + 1
        return AttrTypes(entries)

    def type_(self) -> AnthillType:
        texts = self.texts
        pos = self.pos
        t = texts[pos]
        self.pos = pos + 1
        if t == "dyn":
            return DYN
        if t == "int":
            return INT
        if t == "obj" or t == "class":
            name = texts[pos + 1]
            if self.kind_of[name] != "IDENT":
                raise self.expected(
                    f"{'object' if t == 'obj' else t} type name", pos + 1)
            openness = _OPENNESS.get(texts[pos + 2])
            if openness is None:
                raise self.fail("expected 'open' or 'closed'", pos + 2)
            self.pos = pos + 3
            if t == "obj":
                return Object(name, openness, self.attr_types())
            class_attrs = self.attr_types()
            instance_attrs = self.attr_types()
            if texts[self.pos] != "(":
                raise self.expected("'('", self.pos)
            self.pos += 1
        elif t != "(":
            raise self.fail("expected a type", pos)
        params = []   # a function's or a class's constructor's
        while texts[self.pos] != ")":
            if params:
                if texts[self.pos] != ",":
                    raise self.expected("','", self.pos)
                self.pos += 1
            params.append(self.type_())
        pos = self.pos + 1
        if t == "class":
            self.pos = pos
            return Class(name, openness, class_attrs, instance_attrs,
                         tuple(params))
        if texts[pos] != "->":
            raise self.expected("'->'", pos)
        self.pos = pos + 1
        return Function(tuple(params), self.type_())


# ---------------------------------------------------------------------------
# target language


class UPythonParser(_Parser):
    FUN, CHECK, typed, body = "lambda", "check", False, _Parser.term
    Let, Fun, Var, Int = ULet, ULam, UVar, UInt
    App, Get, Set = UApp, UGet, USet
    marks = {"!": (TRANSLATED,)}   # a ! after a form labels it translated

    def __init__(self, text: str, allow_hole: bool = False,
                 allow_addresses: bool = False) -> None:
        super().__init__(text)
        self.allow_hole = allow_hole
        self.allow_addresses = allow_addresses

    def class_body(self, name: str, supers: tuple, *label) -> UPyExpr:
        """A class literal's members and constructor, after its supers."""
        kind_of, texts = self.kind_of, self.texts
        if texts[self.pos] != "{":
            raise self.expected("'{'", self.pos)
        pos = self.pos + 1
        members = {}
        while texts[pos] != "}":
            if members:
                if texts[pos] != ",":
                    raise self.expected("','", pos)
                pos += 1
            mlabel = texts[pos]
            if kind_of[mlabel] != "IDENT":
                raise self.expected("member label", pos)
            if mlabel in members:
                raise self.fail(f"duplicate member label {mlabel!r}", pos)
            if texts[pos + 1] != "=":
                raise self.expected("'='", pos + 1)
            self.pos = pos + 2
            members[mlabel] = self.term()
            pos = self.pos
        if texts[pos + 1] != "init":
            raise self.expected("'init'", pos + 1)
        self.pos = pos + 2
        ctor = self.term()
        return UClass(name, supers, tuple(members.items()), ctor, *label)

    def leaf(self, pos: int) -> UPyExpr:
        t = self.texts[pos]
        if t == "@":
            if not self.allow_addresses:
                raise self.fail("addresses are not allowed in source", pos)
            addr = self.number(pos + 1)
            self.pos = pos + 2
            return UAddr(addr)
        if t == "HOLE":
            if not self.allow_hole:
                raise self.fail("HOLE is only allowed in context files", pos)
            self.pos = pos + 1
            return UHole()
        raise self.fail("expected an expression", pos)

    def tag(self) -> Tag:
        kind_of, texts = self.kind_of, self.texts
        pos = self.pos
        t = texts[pos]
        self.pos = pos + 1
        if t == "pyobj":
            return PYOBJ
        if t == "int":
            return INT_TAG
        if t == "obj" or t == "class":
            if texts[pos + 1] != "{":
                raise self.expected("'{'", pos + 1)
            pos += 2
            labels = []
            while texts[pos] != "}":
                if labels:
                    if texts[pos] != ",":
                        raise self.expected("','", pos)
                    pos += 1
                if kind_of[texts[pos]] != "IDENT":
                    raise self.expected("label", pos)
                labels.append(texts[pos])
                pos += 1
            if t == "obj":
                self.pos = pos + 1
                return ObjTag(labels) if labels else OBJ_TAG
        elif t != "fun":
            raise self.fail("expected a tag", pos)
        pos += 1
        if texts[pos] != "[":
            raise self.expected("'['", pos)
        if t == "class" and texts[pos + 1] == "any":
            arity = None
        else:
            arity = self.number(pos + 1)
        if texts[pos + 2] != "]":
            raise self.expected("']'", pos + 2)
        self.pos = pos + 3
        return FUN_TAGS[arity] if t == "fun" else ClassTag(labels, arity)


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
