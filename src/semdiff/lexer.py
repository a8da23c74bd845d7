"""Tokenizer and diagnostics shared by the textual model languages."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NoReturn


@dataclass(frozen=True)
class Diagnostic:
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


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int

    def describe(self) -> str:
        return "end of input" if self.kind == EOF else f"'{self.text}'"


def tokenize(text: str) -> list[Token]:
    """Split source text into tokens, skipping whitespace and // comments."""
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token(IDENT, text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token(NAT, text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token(SYM, sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(Diagnostic(line, col, f"unexpected character {ch!r}"))
    tokens.append(Token(EOF, "", line, col))
    return tokens


def is_ident(text: str) -> bool:
    """Whether ``tokenize`` reads ``text`` as exactly one identifier token."""
    try:
        first = tokenize(text)[0]
    except ParseError:
        return False
    return first.kind == IDENT and first.text == text


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

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == SYM and tok.text == text

    def at_ident(self, text: str | None = None) -> bool:
        tok = self.peek()
        if tok.kind != IDENT:
            return False
        return text is None or tok.text == text

    def eat_sym(self, text: str) -> bool:
        if self.at_sym(text):
            self.advance()
            return True
        return False

    def eat_ident(self, text: str) -> bool:
        if self.at_ident(text):
            self.advance()
            return True
        return False

    def expect_sym(self, text: str) -> Token:
        if not self.at_sym(text):
            self.fail(f"expected '{text}', found {self.peek().describe()}")
        return self.advance()

    def expect_ident(self, what: str = "an identifier") -> Token:
        if self.peek().kind != IDENT:
            self.fail(f"expected {what}, found {self.peek().describe()}")
        return self.advance()

    def expect_keyword(self, text: str) -> Token:
        if not self.at_ident(text):
            self.fail(f"expected '{text}', found {self.peek().describe()}")
        return self.advance()

    def expect_nat(self) -> tuple[int, Token]:
        if self.peek().kind != NAT:
            self.fail(f"expected a number, found {self.peek().describe()}")
        tok = self.advance()
        return int(tok.text), tok

    def expect_eof(self) -> None:
        if self.peek().kind != EOF:
            self.fail(f"expected end of input, found {self.peek().describe()}")

    def fail(self, message: str, token: Token | None = None) -> NoReturn:
        tok = token if token is not None else self.peek()
        raise ParseError(Diagnostic(tok.line, tok.col, message))
