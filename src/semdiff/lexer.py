"""Tokenizer and diagnostics shared by the textual model languages, and the
record base class of every semdiff value type."""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterator


# Sets every field: writing ``self.__dict__`` costs CPython its inline attribute values.
_set = object.__setattr__


class Record:
    """An immutable value type whose fields are its class's own annotations, in order.

    A class attribute of a field's name is its default. A field named ``pos``
    is a source position, which ``==`` and ``hash`` leave out. Records of two
    classes are never equal, and a record holding a dict or a list is unhashable.
    """

    _fields: tuple[str, ...]  # each subclass's own annotations
    _compared: tuple[str, ...]  # its fields but ``pos``

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._compared = tuple(f for f in cls._fields if f != "pos")

    def __init__(self, *args, **kwargs):
        cls = self.__class__
        fields = cls._fields
        for name, value in zip(fields, args):
            _set(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                _set(self, name, kwargs.pop(name))
            elif name in cls.__dict__:
                _set(self, name, cls.__dict__[name])
            else:
                raise TypeError(f"{cls.__qualname__}() missing field {name!r}")
        if kwargs or len(args) > len(fields):
            raise TypeError(f"{cls.__qualname__}() takes the fields {', '.join(fields)}, each once")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            compared = self._compared
            return [getattr(self, f) for f in compared] == [getattr(other, f) for f in compared]
        return NotImplemented

    def __hash__(self):
        return hash(tuple([getattr(self, f) for f in self._compared]))

    def __repr__(self):
        shown = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Diagnostic(Record):
    """A parse or validation problem, positioned within the source text."""

    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class ParseError(Exception):
    """Raised when model text fails to tokenize, parse, or validate.

    Carries one or more positioned diagnostics; syntax errors stop at the
    first problem, validation collects everything it finds.
    """

    def __init__(self, diagnostics: Diagnostic | list[Diagnostic]):
        if isinstance(diagnostics, Diagnostic):
            diagnostics = [diagnostics]
        self.diagnostics: tuple[Diagnostic, ...] = tuple(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


IDENT = "ident"
NAT = "nat"
SYM = "sym"
EOF = "eof"

# Longest first: maximal munch must pick "]->" over "]", "-[" over "--" etc.
_SYMBOLS = (
    "]->", ":=", "==", "!=", "&&", "||", "-[", "--", "->", "..",
    "{", "}", "(", ")", "[", "]", ";", ":", ",", "*", "!", "=", "/",
)

# The one definition of a token: the blanks before it, then the first of these
# alternatives that matches. ``\d`` is exactly ``str.isdecimal`` and ``\w``
# exactly ``str.isalnum`` or "_"; a word is an identifier only if it starts
# with a letter or "_" (see _starts_ident). Only space, tab and CR separate
# tokens within a line, and the text is split into lines at LF; anything else
# is an error. A comment runs to the end of its line.
_TOKEN_RE = re.compile(
    r"(?P<blank>[ \t\r]*)(?:(?P<comment>//.*)"
    rf"|(?P<{NAT}>\d+)|(?P<{IDENT}>\w+)|(?P<{SYM}>{'|'.join(map(re.escape, _SYMBOLS))})|(?P<error>[^ \t\r]))"
)


class Token(namedtuple("Token", "kind text line col")):
    __slots__ = ()

    def describe(self) -> str:
        return "end of input" if self.kind == EOF else f"'{self.text}'"


# Builds a Token without the argument handling of namedtuple's ``__new__``.
_new = tuple.__new__


def _starts_ident(word: str) -> bool:
    return word[0].isalpha() or word[0] == "_"


def _unexpected(char: str, line: int, col: int):
    raise ParseError(Diagnostic(line, col, f"unexpected character {char!r}"))


def tokenize(text: str) -> list[Token]:
    """Split source text into tokens, skipping blanks and // comments.

    The text is split into lines at LF, and each line read by one ``findall``
    of the token regex: every match is one token and the blanks before it, so
    a token's column is the sum of the lengths read before it on its line.
    """
    tokens: list[Token] = []
    append = tokens.append
    for line, source in enumerate(text.split("\n"), 1):
        col = 1
        # With the blanks at its end stripped, no match fails: a failed one
        # would be retried from each blank after it, quadratic in their number.
        for blank, comment, nat, word, sym, error in _TOKEN_RE.findall(source.rstrip(" \t\r")):
            col += len(blank)
            if sym:
                append(_new(Token, (SYM, sym, line, col)))
                col += len(sym)
            elif word:
                if not _starts_ident(word):
                    _unexpected(word[0], line, col)
                append(_new(Token, (IDENT, word, line, col)))
                col += len(word)
            elif nat:
                append(_new(Token, (NAT, nat, line, col)))
                col += len(nat)
            elif comment:
                # The end of input after a comment is at the column it starts in.
                break
            else:
                _unexpected(error, line, col)
        else:
            col = len(source) + 1
    append(_new(Token, (EOF, "", line, col)))
    return tokens


def is_ident(text: str) -> bool:
    """Whether ``tokenize`` reads ``text`` as exactly one identifier token: the
    token regex matches all of it as a word, with no blank before it."""
    m = _TOKEN_RE.fullmatch(text)
    return m is not None and m.start(IDENT) == 0 and _starts_ident(text)


class TokenCursor:
    """Sequential reader over a token list with positioned error helpers.

    The end-of-input token is repeated once past the end, so ``peek(1)`` needs
    no bounds check, and ``advance`` never steps past the first one.
    """

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens + tokens[-1:]
        self._i = 0

    def peek(self, ahead: int = 0) -> Token:
        """The current token, or with ``ahead=1`` the one after it."""
        return self._tokens[self._i + ahead]

    def advance(self) -> Token:
        tok = self._tokens[self._i]
        if tok.kind != EOF:
            self._i += 1
        return tok

    # A symbol, a keyword and a number never share a text, so the text alone
    # says which token is meant. No such text is empty, as the end of input's is,
    # so a token matched by text is never the end of input.
    def at(self, text: str) -> bool:
        return self._tokens[self._i].text == text

    def eat(self, text: str) -> bool:
        if self._tokens[self._i].text == text:
            self._i += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self._tokens[self._i]
        if tok.text != text:
            self._expected(f"'{text}'")
        self._i += 1
        return tok

    def expect_ident(self, what: str = "an identifier") -> Token:
        tok = self._tokens[self._i]
        if tok.kind != IDENT:
            self._expected(what)
        self._i += 1
        return tok

    def expect_nat(self) -> int:
        tok = self._tokens[self._i]
        if tok.kind != NAT:
            self._expected("a number")
        self._i += 1
        return int(tok.text)

    def expect_eof(self) -> None:
        if self._tokens[self._i].kind != EOF:
            self._expected("end of input")

    def block(self, keyword: str, what: str) -> tuple[str, Iterator[Token]]:
        """Read ``keyword name {``; return the name and an iterator over the first
        token of each item, which the caller reads before the next, up to the
        ``}`` that must end the input."""
        self.expect(keyword)
        name = self.expect_ident(what).text
        self.expect("{")
        return name, self._items()

    def _items(self) -> Iterator[Token]:
        while not self.eat("}"):
            if self.peek().kind == EOF:
                self.fail("expected '}', found end of input")
            yield self.peek()
        self.expect_eof()

    def _expected(self, what: str):
        self.fail(f"expected {what}, found {self.peek().describe()}")

    def fail(self, message: str, token: Token | None = None):
        tok = token if token is not None else self.peek()
        raise ParseError(Diagnostic(tok.line, tok.col, message))
