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

# The one definition of a token, alternatives tried in order. ``\d`` is
# exactly ``str.isdecimal`` and ``\w`` exactly ``str.isalnum`` or "_"; a word
# is an identifier only if it starts with a letter or "_" (see _starts_ident).
# Only space, tab, CR and LF separate tokens; anything else is an error.
_TOKEN_RE = re.compile(
    r"(?P<newline>\n)|(?P<space>[ \t\r]+)|(?P<comment>//[^\n]*)"
    rf"|(?P<{NAT}>\d+)|(?P<{IDENT}>\w+)|(?P<{SYM}>{'|'.join(map(re.escape, _SYMBOLS))})|(?P<error>.)"
)


class Token(namedtuple("Token", "kind text line col")):
    __slots__ = ()

    def describe(self) -> str:
        return "end of input" if self.kind == EOF else f"'{self.text}'"


def _starts_ident(word: str) -> bool:
    return word[0].isalpha() or word[0] == "_"


def tokenize(text: str) -> list[Token]:
    """Split source text into tokens, skipping whitespace and // comments."""
    tokens: list[Token] = []
    line, line_start, m = 1, 0, None
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "space" or kind == "comment":
            continue
        if kind == "newline":
            line, line_start = line + 1, m.end()
            continue
        word, col = m.group(), m.start() - line_start + 1
        if kind == "error" or kind == IDENT and not _starts_ident(word):
            raise ParseError(Diagnostic(line, col, f"unexpected character {word[0]!r}"))
        tokens.append(Token(kind, word, line, col))
    # A trailing comment leaves the end of input at the column it starts in.
    end = m.start() if m is not None and m.lastgroup == "comment" else len(text)
    tokens.append(Token(EOF, "", line, end - line_start + 1))
    return tokens


def is_ident(text: str) -> bool:
    """Whether ``tokenize`` reads ``text`` as exactly one identifier token."""
    m = _TOKEN_RE.fullmatch(text)
    return m is not None and m.lastgroup == IDENT and _starts_ident(text)


class TokenCursor:
    """Sequential reader over a token list with positioned error helpers."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._i = 0

    def peek(self, ahead: int = 0) -> Token:
        i = min(self._i + ahead, len(self._tokens) - 1)
        return self._tokens[i]

    def advance(self) -> Token:
        tok = self._tokens[self._i]
        if tok.kind != EOF:
            self._i += 1
        return tok

    # A symbol, a keyword and a number never share a text, so the text alone
    # says which token is meant.
    def at(self, text: str) -> bool:
        return self._tokens[self._i].text == text

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        return self._take(self.at(text), f"'{text}'")

    def expect_ident(self, what: str = "an identifier") -> Token:
        return self._take(self.peek().kind == IDENT, what)

    def expect_nat(self) -> int:
        return int(self._take(self.peek().kind == NAT, "a number").text)

    def expect_eof(self) -> None:
        self._take(self.peek().kind == EOF, "end of input")

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

    def _take(self, found: bool, what: str) -> Token:
        if not found:
            self.fail(f"expected {what}, found {self.peek().describe()}")
        return self.advance()

    def fail(self, message: str, token: Token | None = None):
        tok = token if token is not None else self.peek()
        raise ParseError(Diagnostic(tok.line, tok.col, message))
