"""Expression language: parsing, printing, evaluation, differentiation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughforms import exprlang
from roughforms.errors import (
    EvalDomainError,
    ExprSyntaxError,
    NotDifferentiableError,
    UnknownIdentifierError,
)
from roughforms.exprlang import (
    FUNCTIONS,
    Bin,
    Call,
    Lit,
    Neg,
    Var,
    Weier,
    differentiate,
    evaluate,
    expr_dimension,
    parse,
    to_source,
)


def central_difference(e, point, index, h=1e-5):
    """Finite-difference oracle for d/dx_index at a single point."""

    plus = np.array(point, dtype=float)
    minus = np.array(point, dtype=float)
    plus[index - 1] += h
    minus[index - 1] -= h
    return (evaluate(e, plus) - evaluate(e, minus)) / (2.0 * h)


def test_parse_simple_sum_evaluates():
    assert evaluate(parse("x1 + 2*x2"), (1.0, 3.0)) == pytest.approx(7.0)


def test_trig_identity_at_random_points():
    e = parse("sin(x1)^2 + cos(x1)^2")
    rng = np.random.default_rng(0)
    points = rng.uniform(-10.0, 10.0, size=(20, 1))
    values = evaluate(e, points)
    assert values.shape == (20,)
    np.testing.assert_allclose(values, 1.0, rtol=0, atol=1e-12)


def test_unclosed_parenthesis_reports_column_four():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x1*(")
    assert err.value.line == 1
    assert err.value.column == 4


def test_precedence_and_associativity():
    cases = [
        ("1 - 2 - 3", -4.0),
        ("8/4/2", 1.0),
        ("6/2*3", 9.0),
        ("2*3 + 4*5", 26.0),
        ("2*(3 + 4)*5", 70.0),
        ("2^3^2", 512.0),
        ("(2^3)^2", 64.0),
        ("-2^2", -4.0),
        ("2^-2", 0.25),
        ("-(1 + 2)", -3.0),
        ("--2", 2.0),
        ("2 + -3", -1.0),
    ]
    for source, expected in cases:
        assert evaluate(parse(source), ()) == pytest.approx(expected), source


def test_print_parse_round_trip_is_identity_on_sources():
    sources = [
        "x1 + 2*x2",
        "(x1 + x2)*x3",
        "sin(x1)^2 + cos(x1)^2",
        "2^3^2",
        "(2^3)^2",
        "x1 - (x2 - x3)",
        "x1/(x2*x3)",
        "-x1^2",
        "exp(-x1*x1)",
        "sqrt(abs(x1))",
        "weierstrass(0.5, 7)(x1 + x2)",
        "1.5e-2 + x1",
    ]
    for source in sources:
        tree = parse(source)
        assert parse(to_source(tree)) == tree, source


def test_printer_uses_minimal_parentheses():
    assert to_source(parse("x1 + 2*x2")) == "x1 + 2*x2"
    assert to_source(parse("(x1 + x2)*x3")) == "(x1 + x2)*x3"
    assert to_source(parse("sin(x1)^2 + cos(x1)^2")) == "sin(x1)^2 + cos(x1)^2"
    assert to_source(parse("2^3^2")) == "2^3^2"
    assert to_source(parse("(2^3)^2")) == "(2^3)^2"
    assert to_source(parse("x1 - (x2 + x3)")) == "x1 - (x2 + x3)"


# Every node type, operator and function; literals are nonnegative and
# finite (a negative number is Neg(Lit)), weierstrass heads are literals.
LITERALS = st.builds(Lit, st.floats(min_value=0.0, allow_infinity=False))
LEAVES = LITERALS | st.builds(Var, st.integers(1, 12))


def _branches(children):
    return (
        st.builds(Neg, children)
        | st.builds(Bin, st.sampled_from("+-*/^"), children, children)
        | st.builds(Call, st.sampled_from(FUNCTIONS), children)
        | st.builds(
            Weier,
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
            st.integers(0, 2**32),
            children,
        )
    )


TREES = st.recursive(LEAVES, _branches, max_leaves=12)


@settings(max_examples=300)
@given(tree=TREES)
def test_print_parse_round_trip_is_identity_on_random_trees(tree):
    assert parse(to_source(tree)) == tree


def test_unknown_identifiers_are_rejected():
    for source in ["y1 + 2", "foo(3)", "x0", "x"]:
        with pytest.raises(UnknownIdentifierError):
            parse(source)
    with pytest.raises(UnknownIdentifierError):
        parse("x3", d=2)
    assert parse("x3", d=3) == Var(3)
    assert issubclass(UnknownIdentifierError, ExprSyntaxError)


def test_syntax_error_positions():
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 + + 2")
    assert (err.value.line, err.value.column) == (1, 5)

    with pytest.raises(ExprSyntaxError) as err:
        parse("(1 + 2")
    assert (err.value.line, err.value.column) == (1, 6)

    with pytest.raises(ExprSyntaxError) as err:
        parse("1 +\n* 2")
    assert (err.value.line, err.value.column) == (2, 1)

    with pytest.raises(ExprSyntaxError) as err:
        parse("")
    assert (err.value.line, err.value.column) == (1, 1)

    with pytest.raises(ExprSyntaxError) as err:
        parse("1 $ 2")
    assert (err.value.line, err.value.column) == (1, 3)

    with pytest.raises(ExprSyntaxError):
        parse("x1 x2")


def test_literal_formats():
    assert evaluate(parse("1e3"), ()) == 1000.0
    assert evaluate(parse(".5"), ()) == 0.5
    assert evaluate(parse("2."), ()) == 2.0
    assert evaluate(parse("1.5e-2"), ()) == 0.015


def test_evaluate_vectorizes_over_leading_axes():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(7, 2))
    values = evaluate(parse("x1*x2"), points)
    np.testing.assert_allclose(values, points[:, 0] * points[:, 1])
    constants = evaluate(parse("3"), points)
    np.testing.assert_allclose(constants, np.full(7, 3.0))


def test_evaluate_domain_errors():
    with pytest.raises(EvalDomainError):
        evaluate(parse("1/x1"), (0.0,))
    with pytest.raises(EvalDomainError):
        evaluate(parse("sqrt(x1)"), (-1.0,))
    with pytest.raises(EvalDomainError):
        evaluate(parse("exp(x1)"), (1000.0,))
    with pytest.raises(EvalDomainError):
        evaluate(parse("x1^x2"), (-2.0, 0.5))
    with pytest.raises(ValueError):
        evaluate(parse("x2"), (1.0,))


def test_weierstrass_matches_direct_sum():
    # Independent reimplementation of the 13-level cosine sum.
    rng = np.random.default_rng(7)
    xi = rng.normal(size=(13, 1))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    t = np.linspace(-1.0, 2.0, 9)
    expected = np.zeros_like(t)
    for j in range(13):
        expected += 2.0 ** (-0.5 * j) * np.cos(
            2.0 ** j * 2.0 * math.pi * xi[j, 0] * t
        )
    e = parse("weierstrass(0.5, 7)(x1)")
    np.testing.assert_allclose(evaluate(e, t[:, None]), expected, atol=1e-10)
    again = parse(to_source(e))
    np.testing.assert_allclose(evaluate(again, t[:, None]), expected, atol=1e-10)


def test_weierstrass_head_arguments_must_be_literals():
    for source in [
        "weierstrass(x1, 2)(x1)",
        "weierstrass(0.5, 1.5)(x1)",
        "weierstrass(1.5, 2)(x1)",
        "weierstrass(0.5, -2)(x1)",
        "weierstrass(0.5)(x1)",
    ]:
        with pytest.raises(ExprSyntaxError):
            parse(source)


def test_derivative_of_square_is_linear():
    derivative = differentiate(parse("x1^2"), "x1")
    assert to_source(derivative) == "2*x1"
    for t in [-2.0, 0.0, 0.7, 3.5]:
        assert evaluate(derivative, (t,)) == pytest.approx(2.0 * t)


def test_derivative_sin_chain_at_zero():
    derivative = differentiate(parse("sin(2*x1)"), 1)
    assert evaluate(derivative, (0.0,)) == pytest.approx(2.0)


def test_random_polynomial_derivative_matches_finite_differences():
    rng = np.random.default_rng(11)
    terms = []
    for _ in range(6):
        c = round(float(rng.uniform(0.1, 3.0)), 6)
        a = int(rng.integers(0, 5))
        b = int(rng.integers(0, 5))
        factors = [str(c)]
        if a:
            factors.append(f"x1^{a}")
        if b:
            factors.append(f"x2^{b}")
        terms.append("*".join(factors))
    e = parse(" + ".join(terms))
    points = rng.uniform(-1.5, 1.5, size=(100, 2))
    for index in (1, 2):
        derivative = differentiate(e, index)
        exact = evaluate(derivative, points)
        approx = np.array(
            [central_difference(e, p, index) for p in points]
        )
        scale = np.maximum(1.0, np.abs(exact))
        assert np.max(np.abs(exact - approx) / scale) < 1e-6


def test_chain_product_quotient_rules_match_finite_differences():
    sources = [
        "x1*sin(x1)",
        "x1/(1 + x2^2)",
        "exp(sin(x1))",
        "sqrt(1 + x1^2)",
        "2^x1",
        "cos(x1)^3",
        "exp(-x1^2/2)",
    ]
    rng = np.random.default_rng(13)
    points = rng.uniform(-1.2, 1.2, size=(25, 2))
    for source in sources:
        e = parse(source)
        derivative = differentiate(e, 1)
        for p in points:
            exact = evaluate(derivative, p)
            approx = central_difference(e, p, 1)
            assert exact == pytest.approx(approx, rel=1e-6, abs=1e-7), source


def test_not_differentiable_cases():
    with pytest.raises(NotDifferentiableError):
        differentiate(parse("abs(x1)"), 1)
    with pytest.raises(NotDifferentiableError):
        differentiate(parse("weierstrass(0.7, 3)(x1)"), 1)
    with pytest.raises(NotDifferentiableError):
        differentiate(parse("x1^x2"), 1)
    # Variables that do not reach the rough node differentiate to zero.
    assert differentiate(parse("abs(x2)"), "x1") == Lit(0.0)
    assert differentiate(parse("weierstrass(0.5, 1)(x2)"), 1) == Lit(0.0)


def test_differentiate_accepts_index_name_or_node():
    e = parse("x1*x2^2")
    assert differentiate(e, 2) == differentiate(e, "x2")
    assert differentiate(e, Var(2)) == differentiate(e, 2)


def test_expr_dimension():
    assert expr_dimension(parse("x3 + sin(x1)")) == 3
    assert expr_dimension(parse("2 + 2")) == 0
    assert expr_dimension(parse("weierstrass(0.5, 1)(x2)")) == 2
    with pytest.raises(TypeError):
        expr_dimension("x1")


X = Var(1)

# (op, a, b, folded): the identities of each operator, with cases where
# the order they are tested in shows, then literal pairs; a pair whose
# value is not finite stays a Bin.
FOLDING_RULES = [
    ("+", X, Lit(0.0), X),
    ("+", Lit(0.0), X, X),
    ("+", Neg(Lit(0.0)), X, X),
    ("+", Lit(0.0), Neg(Lit(0.0)), Neg(Lit(0.0))),
    ("-", X, Lit(0.0), X),
    ("-", Lit(0.0), X, Neg(X)),
    ("-", Lit(0.0), Neg(X), X),
    ("-", Lit(0.0), Lit(0.0), Lit(0.0)),
    ("-", Neg(Lit(0.0)), Lit(0.0), Neg(Lit(0.0))),
    ("*", Lit(0.0), X, Lit(0.0)),
    ("*", X, Lit(0.0), Lit(0.0)),
    ("*", Lit(1.0), X, X),
    ("*", X, Lit(1.0), X),
    ("*", Neg(Lit(0.0)), Lit(1.0), Lit(0.0)),
    ("*", Neg(Lit(1.0)), X, Bin("*", Neg(Lit(1.0)), X)),
    ("/", Lit(0.0), X, Lit(0.0)),
    ("/", Lit(0.0), Lit(0.0), Lit(0.0)),
    ("/", Neg(Lit(0.0)), Lit(1.0), Lit(0.0)),
    ("/", X, Lit(1.0), X),
    ("/", X, Lit(0.0), Bin("/", X, Lit(0.0))),
    ("^", X, Lit(1.0), X),
    ("^", X, Lit(0.0), Lit(1.0)),
    ("^", Lit(0.0), Lit(0.0), Lit(1.0)),
    ("+", Lit(2.0), Lit(3.0), Lit(5.0)),
    ("-", Lit(2.0), Lit(3.0), Neg(Lit(1.0))),
    ("-", Lit(2.0), Lit(2.0), Lit(0.0)),
    ("*", Lit(2.0), Neg(Lit(3.0)), Neg(Lit(6.0))),
    ("/", Lit(3.0), Lit(2.0), Lit(1.5)),
    ("^", Lit(2.0), Lit(3.0), Lit(8.0)),
    ("^", Lit(4.0), Lit(0.5), Lit(2.0)),
    ("+", Lit(1e308), Lit(1e308), Bin("+", Lit(1e308), Lit(1e308))),
    ("-", Neg(Lit(1e308)), Lit(1e308), Bin("-", Neg(Lit(1e308)), Lit(1e308))),
    ("*", Lit(1e200), Lit(1e200), Bin("*", Lit(1e200), Lit(1e200))),
    ("/", Lit(1.0), Lit(0.0), Bin("/", Lit(1.0), Lit(0.0))),
    ("/", Lit(1e300), Lit(1e-300), Bin("/", Lit(1e300), Lit(1e-300))),
    ("^", Lit(10.0), Lit(400.0), Bin("^", Lit(10.0), Lit(400.0))),
    ("^", Neg(Lit(8.0)), Lit(0.5), Bin("^", Neg(Lit(8.0)), Lit(0.5))),
    ("+", X, Lit(2.0), Bin("+", X, Lit(2.0))),
]


@pytest.mark.parametrize("op, a, b, folded", FOLDING_RULES)
def test_derivative_constructors_fold_rule_by_rule(op, a, b, folded):
    assert exprlang._binary(op, a, b) == folded
