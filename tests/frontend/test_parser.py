"""Tests for the OpenCL-C subset parser."""

import pytest

from repro.errors import ParseError
from repro.frontend.ast import (
    ArrayRef,
    BinOp,
    Call,
    Number,
    UnaryOp,
    VarRef,
)
from repro.frontend.parser import Parser, parse_kernel_body
from repro.frontend.lexer import tokenize


def parse_expr(source):
    return Parser(tokenize(source)).parse_expression()


class TestExpressions:
    def test_number(self):
        assert parse_expr("3.5") == Number(3.5)

    def test_variable(self):
        assert parse_expr("x") == VarRef("x")

    def test_precedence_mul_over_add(self):
        expr = parse_expr("a + b * c")
        assert isinstance(expr, BinOp) and expr.op == "+"
        assert isinstance(expr.right, BinOp) and expr.right.op == "*"

    def test_left_associativity(self):
        expr = parse_expr("a - b - c")
        assert expr.op == "-"
        assert isinstance(expr.left, BinOp)
        assert expr.left.op == "-"

    def test_parentheses_override(self):
        expr = parse_expr("(a + b) * c")
        assert expr.op == "*"
        assert isinstance(expr.left, BinOp) and expr.left.op == "+"

    def test_unary_minus(self):
        expr = parse_expr("-x")
        assert isinstance(expr, UnaryOp) and expr.op == "-"

    def test_nested_unary(self):
        expr = parse_expr("--x")
        assert isinstance(expr.operand, UnaryOp)

    def test_array_single_subscript(self):
        expr = parse_expr("A[i]")
        assert expr == ArrayRef("A", (VarRef("i"),))

    def test_array_multi_subscript(self):
        expr = parse_expr("A[i][j-1]")
        assert isinstance(expr, ArrayRef)
        assert len(expr.subscripts) == 2
        assert isinstance(expr.subscripts[1], BinOp)

    def test_call_with_args(self):
        expr = parse_expr("get_global_id(0)")
        assert expr == Call("get_global_id", (Number(0.0),))

    def test_call_no_args(self):
        assert parse_expr("barrier()") == Call("barrier", ())

    def test_division(self):
        expr = parse_expr("a / 2.0")
        assert expr.op == "/"

    def test_error_on_trailing_operator(self):
        with pytest.raises(ParseError):
            parse_expr("a +")


class TestStatements:
    def test_assignment(self):
        stmts = parse_kernel_body("B[i] = A[i];")
        assert len(stmts) == 1
        assert stmts[0].target == ArrayRef("B", (VarRef("i"),))

    def test_declaration_with_init(self):
        stmts = parse_kernel_body("int i = get_global_id(0);")
        assert len(stmts) == 1
        assert stmts[0].target == VarRef("i")
        assert stmts[0].declared_type == "int"

    def test_declaration_without_init_skipped(self):
        assert parse_kernel_body("float tmp;") == []

    def test_const_qualified_declaration(self):
        stmts = parse_kernel_body("const float c = 0.2f;")
        assert stmts[0].declared_type == "const float"

    def test_scalar_assignment(self):
        stmts = parse_kernel_body("c = 1.5;")
        assert stmts[0].target == VarRef("c")

    def test_multiple_statements_in_order(self):
        stmts = parse_kernel_body("a = 1.0; b = 2.0; c = 3.0;")
        assert [s.target.name for s in stmts] == ["a", "b", "c"]

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_kernel_body("a = 1.0")


class TestKernelBodies:
    def test_full_kernel_definition(self):
        source = """
        __kernel void jac(__global float* A, __global float* B) {
            int i = get_global_id(0);
            B[i] = 0.5f * (A[i-1] + A[i+1]);
        }
        """
        stmts = parse_kernel_body(source)
        assert len(stmts) == 2

    def test_bare_body(self):
        stmts = parse_kernel_body("B[i] = A[i] + 1.0;")
        assert len(stmts) == 1

    def test_unbalanced_braces(self):
        with pytest.raises(ParseError, match="Unbalanced"):
            parse_kernel_body("void f() { a = 1.0;")

    @pytest.mark.parametrize(
        "source, line, column",
        [
            ("__kernel void k(__global float *a) { a[i] = a[i +; }", 1, 50),
            (
                "__kernel void k(__global float *a)\n{\n"
                "    a[i] = a[i +;\n}\n",
                3,
                17,
            ),
            ("__kernel void k() { /* note */ a[i] = a[i +; }", 1, 44),
        ],
        ids=["one-line", "four-lines", "after-a-comment"],
    )
    def test_error_position_counts_from_the_source(
        self, source, line, column
    ):
        with pytest.raises(ParseError) as exc:
            parse_kernel_body(source)
        assert (exc.value.line, exc.value.column) == (line, column)

    def test_comments_inside_body(self):
        stmts = parse_kernel_body(
            "// setup\nB[i] = A[i]; /* done */"
        )
        assert len(stmts) == 1
