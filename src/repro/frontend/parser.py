"""Recursive-descent parser for the OpenCL-C stencil subset.

Accepts either a full ``__kernel void name(...) { body }`` definition
(the body between the outermost braces is parsed) or a bare statement
list.  Supported statements:

- declarations with optional initializer
  (``int i = get_global_id(0);``, ``float c = 0.2f;``);
- assignments to scalars or arrays
  (``B[i][j] = 0.2f * (A[i][j] + ...);``).

Expressions cover the arithmetic stencil bodies use: ``+ - * /``,
unary minus, parentheses, numeric literals (with float suffixes),
multi-subscript array references, and calls.
"""

from __future__ import annotations

import re
from typing import List, Optional, Union

from repro.errors import ParseError
from repro.frontend.ast import (
    ArrayRef,
    Assign,
    BinOp,
    Call,
    Expr,
    Number,
    UnaryOp,
    VarRef,
)
from repro.frontend.lexer import Token, TokenKind, tokenize

_TYPE_KEYWORDS = {
    "int",
    "uint",
    "long",
    "ulong",
    "short",
    "ushort",
    "char",
    "uchar",
    "size_t",
    "float",
    "double",
    "half",
}

_QUALIFIERS = {"const", "__local", "local", "__private", "private", "unsigned"}


class Parser:
    """Token-stream parser producing :class:`Assign` statements."""

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers ---------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        """Look ahead without consuming."""
        index = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        """Consume and return the current token."""
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def expect(self, kind: TokenKind) -> Token:
        """Consume a token of the given kind or fail."""
        token = self.peek()
        if token.kind is not kind:
            raise ParseError(
                f"Expected {kind.value!r}, found {token.text!r}",
                token.line,
                token.column,
            )
        return self.advance()

    def at(self, kind: TokenKind) -> bool:
        """True when the current token has the given kind."""
        return self.peek().kind is kind

    # -- statements -------------------------------------------------------------

    def parse_statements(self) -> List[Assign]:
        """Parse statements until EOF; returns assignments in order."""
        statements: List[Assign] = []
        while not self.at(TokenKind.EOF):
            statement = self.parse_statement()
            if statement is not None:
                statements.append(statement)
        return statements

    def parse_statement(self) -> Optional[Assign]:
        """One statement; ``None`` for declarations without initializer."""
        declared_type = self._parse_declaration_prefix()
        target = self._parse_lvalue()
        if self.at(TokenKind.SEMICOLON):
            self.advance()
            return None
        self.expect(TokenKind.ASSIGN)
        value = self.parse_expression()
        self.expect(TokenKind.SEMICOLON)
        return Assign(
            target=target, value=value, declared_type=declared_type
        )

    def _parse_declaration_prefix(self) -> str:
        parts: List[str] = []
        while (
            self.at(TokenKind.IDENT)
            and self.peek().text in _QUALIFIERS | _TYPE_KEYWORDS
            and self.peek(1).kind is TokenKind.IDENT
        ):
            parts.append(self.advance().text)
        return " ".join(parts)

    def _parse_lvalue(self) -> Union[ArrayRef, VarRef]:
        name = self.expect(TokenKind.IDENT).text
        if self.at(TokenKind.LBRACKET):
            return self._parse_subscripts(name)
        return VarRef(name)

    def _parse_subscripts(self, name: str) -> ArrayRef:
        subscripts: List[Expr] = []
        while self.at(TokenKind.LBRACKET):
            self.advance()
            subscripts.append(self.parse_expression())
            self.expect(TokenKind.RBRACKET)
        return ArrayRef(name, tuple(subscripts))

    # -- expressions --------------------------------------------------------------

    def parse_expression(self) -> Expr:
        """Additive-precedence entry point."""
        left = self.parse_term()
        while self.peek().kind in (TokenKind.PLUS, TokenKind.MINUS):
            op = self.advance().text
            right = self.parse_term()
            left = BinOp(op, left, right)
        return left

    def parse_term(self) -> Expr:
        """Multiplicative level."""
        left = self.parse_unary()
        while self.peek().kind in (TokenKind.STAR, TokenKind.SLASH):
            op = self.advance().text
            right = self.parse_unary()
            left = BinOp(op, left, right)
        return left

    def parse_unary(self) -> Expr:
        """Unary plus/minus."""
        if self.peek().kind in (TokenKind.PLUS, TokenKind.MINUS):
            op = self.advance().text
            return UnaryOp(op, self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        """Literals, parenthesized expressions, refs, and calls."""
        token = self.peek()
        if token.kind is TokenKind.NUMBER:
            self.advance()
            return Number(float(token.text))
        if token.kind is TokenKind.LPAREN:
            self.advance()
            inner = self.parse_expression()
            self.expect(TokenKind.RPAREN)
            return inner
        if token.kind is TokenKind.IDENT:
            name = self.advance().text
            if self.at(TokenKind.LPAREN):
                return self._parse_call(name)
            if self.at(TokenKind.LBRACKET):
                return self._parse_subscripts(name)
            return VarRef(name)
        raise ParseError(
            f"Unexpected token {token.text!r} in expression",
            token.line,
            token.column,
        )

    def _parse_call(self, name: str) -> Call:
        self.expect(TokenKind.LPAREN)
        args: List[Expr] = []
        if not self.at(TokenKind.RPAREN):
            args.append(self.parse_expression())
            while self.at(TokenKind.COMMA):
                self.advance()
                args.append(self.parse_expression())
        self.expect(TokenKind.RPAREN)
        return Call(name, tuple(args))


def _extract_body(source: str) -> str:
    """Return the outermost brace-enclosed body, or the source itself.

    The text before the body is blanked with its newlines kept, so
    token positions, and with them a :class:`ParseError`'s line and
    column, count from the start of the submitted source.
    """
    start = source.find("{")
    if start < 0:
        return source
    depth = 0
    for i in range(start, len(source)):
        if source[i] == "{":
            depth += 1
        elif source[i] == "}":
            depth -= 1
            if depth == 0:
                head = re.sub(r"[^\n]", " ", source[: start + 1])
                return head + source[start + 1 : i]
    raise ParseError("Unbalanced braces in kernel source")


def parse_kernel_body(source: str) -> List[Assign]:
    """Parse a kernel definition or bare body into assignments."""
    body = _extract_body(source)
    return Parser(tokenize(body)).parse_statements()
