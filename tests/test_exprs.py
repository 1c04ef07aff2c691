"""Parser and evaluator tests, including the exact-rational oracle crosscheck."""

import random
from fractions import Fraction

import numpy as np
import pytest

from sympinv import exprs, jets
from sympinv.errors import (
    ArityError,
    ExprSyntaxError,
    UnboundVariable,
    UnknownFunction,
)
from sympinv.exprs import BinOp, Neg, Num, Pow, Var, evaluate, parse, to_text
from sympinv.jets import MultiJet


class TestParsing:
    def test_polynomial(self):
        ast = parse("t^2 + 3*t")
        assert ast.root == BinOp("+", Pow(Var("t"), Fraction(2)),
                                 BinOp("*", Num(Fraction(3)), Var("t")))
        assert ast.free_vars == ("t",)

    def test_three_variables_with_header(self):
        ast = parse("vars: x,y,z\nx*y - 2*z")
        assert ast.free_vars == ("x", "y", "z")
        assert ast.root == BinOp("-", BinOp("*", Var("x"), Var("y")),
                                 BinOp("*", Num(Fraction(2)), Var("z")))

    def test_rational_exponent(self):
        ast = parse("t^(1/3)")
        assert ast.root == Pow(Var("t"), Fraction(1, 3))

    def test_negative_exponent(self):
        ast = parse("t^(-2)")
        assert ast.root == Pow(Var("t"), Fraction(-2))

    def test_disallowed_exponent_denominator(self):
        with pytest.raises(ExprSyntaxError):
            parse("t^(1/5)")

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            parse("tan(t)")

    def test_arity_error(self):
        with pytest.raises(ArityError):
            parse("sin(t, 2)")

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("t + $")
        assert err.value.offset == 4

    def test_no_implicit_multiplication(self):
        with pytest.raises(ExprSyntaxError):
            parse("2 t")

    def test_first_appearance_order(self):
        assert parse("b + a*b").free_vars == ("b", "a")

    def test_zero_exponent_denominator(self):
        with pytest.raises(ExprSyntaxError):
            parse("t^(1/0)")

    def test_non_ascii_digit_is_not_a_number(self):
        with pytest.raises(ExprSyntaxError):
            parse("1\u00b2")

    @pytest.mark.parametrize("src", [
        "(" * 5000 + "t" + ")" * 5000,
        "-" * 5000 + "t",
        "sin(" * 500 + "t" + ")" * 500,
        " + ".join(["t"] * 5000),
    ], ids=["parentheses", "signs", "calls", "chained-operators"])
    def test_nesting_beyond_the_limit_is_an_expr_error(self, src):
        with pytest.raises(ExprSyntaxError, match="nested deeper"):
            parse(src)

    def test_nesting_at_the_limit_parses_and_evaluates(self):
        depth = exprs.MAX_DEPTH
        assert evaluate(parse("(" * (depth - 1) + "t" + ")" * (depth - 1)), {"t": 2.0}) == 2.0
        assert evaluate(parse(" + ".join(["t"] * depth)), {"t": 1.0}) == depth


class TestPrinterRoundTrip:
    @pytest.mark.parametrize("src", [
        "t^2 + 3*t",
        "x*y - 2*z",
        "t^(1/3)",
        "-t + 4",
        "(a + b)*(a - b)",
        "1/(1 - t)",
        "sin(x)*cos(x) + exp(-x)",
        "0.5*t^2 - 1.25",
        "x^(-2/3) + sqrt(y)",
        "a - (b - c)",
        "a/(b/c)",
    ])
    def test_round_trip(self, src):
        ast = parse(src)
        assert parse(to_text(ast)) == ast


def random_poly_ast(rng, names, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Num(Fraction(rng.randint(-4, 4)))
        return Var(rng.choice(names))
    kind = rng.random()
    if kind < 0.75:
        op = rng.choice(["+", "-", "*"])
        return BinOp(op, random_poly_ast(rng, names, depth - 1),
                     random_poly_ast(rng, names, depth - 1))
    if kind < 0.9:
        return Neg(random_poly_ast(rng, names, depth - 1))
    return Pow(random_poly_ast(rng, names, depth - 1), Fraction(rng.randint(1, 3)))


class TestEvaluation:
    def test_quadratic_on_jet(self):
        ast = parse("t^2")
        t = MultiJet(1, 2, [1.0, 1.0, 0.0], (0.0,))  # t = 1 + that
        out = evaluate(ast, {"t": t})
        assert np.allclose(out.coeffs, [1.0, 2.0, 1.0])

    def test_product_of_two_jets(self):
        ast = parse("x*y")
        x = MultiJet(1, 2, [1.0, 1.0, 0.0], (0.0,))
        y = MultiJet(1, 2, [1.0, -1.0, 0.0], (0.0,))
        out = evaluate(ast, {"x": x, "y": y})
        assert np.allclose(out.coeffs, [1.0, 0.0, -1.0])

    def test_constant_expression(self):
        ast = parse("5")
        out = evaluate(ast, {"t": MultiJet.variable(0, 1, 2, (2.0,))})
        assert out == 5.0

    def test_plain_numbers_agree_with_order_zero_jets(self):
        ast = parse("x^2*y - sin(x) + 1/(y + 2)")
        xv, yv = 0.7, 1.3
        plain = evaluate(ast, {"x": xv, "y": yv})
        jet = evaluate(ast, {"x": MultiJet.constant(xv, 1, 0, (0.0,)),
                             "y": MultiJet.constant(yv, 1, 0, (0.0,))})
        assert plain == pytest.approx(jet.value(), rel=1e-15)

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            evaluate(parse("x + y"), {"x": 1.0})

    def test_random_asts_match_exact_oracle(self):
        rng = random.Random(42)
        base = (Fraction(3, 2), Fraction(-2, 3))
        basef = tuple(float(b) for b in base)
        for _ in range(60):
            ast = exprs.ExprAst(random_poly_ast(rng, ["x", "y"], 6), ("x", "y"))
            envf = {"x": MultiJet.variable(0, 2, 3, basef),
                    "y": MultiJet.variable(1, 2, 3, basef)}
            enve = {"x": MultiJet.variable(0, 2, 3, base, exact=True),
                    "y": MultiJet.variable(1, 2, 3, base, exact=True)}
            got = evaluate(ast, envf)
            want = evaluate(ast, enve)
            if isinstance(want, Fraction):
                assert got == pytest.approx(float(want), rel=1e-12, abs=1e-12)
            else:
                assert np.allclose(got.coeffs if hasattr(got, "coeffs") else got,
                                   [float(c) for c in want.coeffs], rtol=1e-11, atol=1e-11)

    def test_roots_of_a_dual_stay_exact(self):
        from sympinv.rational import Dual

        a = Dual(Fraction(9, 4), 1)
        # d/da (2 sqrt(a)) = 1/sqrt(a) = 2/3
        assert evaluate(parse("sqrt(a) + a^(1/2)"), {"a": a}) == Dual(3, Fraction(2, 3))
        b = Dual(Fraction(27, 8), 1)
        # d/db b^(2/3) = (2/3) b^(-1/3) = 4/9
        got = evaluate(parse("b^(2/3)"), {"b": b})
        assert type(got) is Dual and got == Dual(Fraction(9, 4), Fraction(4, 9))

    def test_cube_root_via_rational_exponent(self):
        ast = parse("y^(1/3)")
        out = evaluate(ast, {"y": 8.0})
        assert out == pytest.approx(2.0)
        exact = evaluate(ast, {"y": Fraction(27)})
        assert exact == Fraction(3)
