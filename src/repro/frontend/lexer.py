"""Tokenizer for the OpenCL-C stencil subset."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from repro.errors import ParseError


class TokenKind(enum.Enum):
    """Lexical token categories."""

    IDENT = "ident"
    NUMBER = "number"
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    ASSIGN = "="
    SEMICOLON = ";"
    COMMA = ","
    EOF = "eof"


_SINGLE = {
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    "=": TokenKind.ASSIGN,
    ";": TokenKind.SEMICOLON,
    ",": TokenKind.COMMA,
}


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position."""

    kind: TokenKind
    text: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Token({self.kind.name}, {self.text!r})"


def tokenize(source: str) -> List[Token]:
    """Tokenize stencil-kernel source.

    Comments (``//`` and ``/* */``) are skipped.  Numeric literals may
    carry C float suffixes (``f``/``F``), which are absorbed into the
    number token.
    """
    tokens: List[Token] = []
    line = 1
    column = 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            column += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise ParseError("Unterminated block comment", line, column)
            skipped = source[i : end + 2]
            newlines = skipped.count("\n")
            line += newlines
            if newlines:
                column = len(skipped) - skipped.rfind("\n")
            else:
                column += len(skipped)
            i = end + 2
            continue
        if ch.isdigit() or (
            ch == "." and i + 1 < n and source[i + 1].isdigit()
        ):
            start = i
            seen_dot = False
            seen_exp = False
            while i < n:
                c = source[i]
                if c.isdigit():
                    i += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    i += 1
                elif c in "eE" and not seen_exp and i > start:
                    seen_exp = True
                    i += 1
                    if i < n and source[i] in "+-":
                        i += 1
                else:
                    break
            text = source[start:i]
            if i < n and source[i] in "fF":
                i += 1
            tokens.append(Token(TokenKind.NUMBER, text, line, column))
            column += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(
                Token(TokenKind.IDENT, source[start:i], line, column)
            )
            column += i - start
            continue
        kind = _SINGLE.get(ch)
        if kind is None:
            raise ParseError(f"Unexpected character {ch!r}", line, column)
        tokens.append(Token(kind, ch, line, column))
        i += 1
        column += 1
    tokens.append(Token(TokenKind.EOF, "", line, column))
    return tokens
