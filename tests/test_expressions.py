import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masym.expressions import (Expr, ExpressionDomainError, ExpressionError,
                               const, parse, var)


def ev(e, x=(0.0, 0.0), z=(0.0,), p=(0.0, 0.0)):
    return e(np.asarray(x), np.asarray(z), np.asarray(p))


def test_parse_arithmetic():
    e = parse("1 + 2 * 3 - 4 / 2")
    assert ev(e) == pytest.approx(5.0)


def test_parse_precedence_and_parens():
    assert ev(parse("(1 + 2) * 3")) == pytest.approx(9.0)
    assert ev(parse("2 ^ 3 ^ 2")) == pytest.approx(512.0)
    assert ev(parse("-2 ^ 2")) == pytest.approx(-4.0)


def test_variables_by_kind():
    e = parse("x1 + z1 * p2")
    out = ev(e, x=(3.0, 0.0), z=(2.0,), p=(0.0, 5.0))
    assert out == pytest.approx(13.0)
    assert e.variables() == {"x1", "z1", "p2"}
    assert e.depends_on("z") and not e.depends_on("q")


def test_vectorized_eval():
    e = parse("x1 ^ 2 + x2 ^ 2")
    x = np.random.default_rng(0).normal(size=(50, 2))
    out = e(x, np.zeros((50, 1)), np.zeros((50, 2)))
    assert np.allclose(out, np.sum(x ** 2, axis=1))


def test_power_system_source_expression():
    # the coupled power source (-z2)^a must evaluate on negative z
    e = parse("(0 - z2) ^ 1.5")
    assert ev(e, z=(0.0, -4.0)) == pytest.approx(8.0)


def test_fractional_power_of_negative_base_rejected():
    e = parse("z1 ^ 0.5")
    with pytest.raises(ExpressionDomainError):
        ev(e, z=(-1.0,))


def test_division_by_zero_rejected():
    with pytest.raises(ExpressionDomainError):
        ev(parse("1 / x1"), x=(0.0, 1.0))


def test_log_domain():
    assert ev(parse("log(exp(2))")) == pytest.approx(2.0)
    with pytest.raises(ExpressionDomainError):
        ev(parse("log(x1)"), x=(-1.0, 0.0))


@pytest.mark.parametrize("text, x, z, node, message", [
    ("1 + z1 ^ 0.5", (0.0, 0.0), (-1.0,), "(z1 ^ 0.5)", "power outside the real domain"),
    ("0 ^ -1", (0.0, 0.0), (0.0,), "(0.0 ^ (- 1.0))", "power outside the real domain"),
    ("2 * (1 / x1)", (0.0, 1.0), (0.0,), "(1.0 / x1)", "division by zero"),
    ("max(log(x1), 0)", (-1.0, 0.0), (0.0,), "log(x1)", "log of a non-positive argument"),
    ("exp(1000) - exp(1000) + 1", (0.0, 0.0), (0.0,), "(exp(1000.0) - exp(1000.0))",
     "invalid value"),
], ids=["fractional_power", "zero_to_negative_power", "division", "log", "inf_minus_inf"])
def test_domain_error_names_its_node(text, x, z, node, message):
    with pytest.raises(ExpressionDomainError) as err:
        ev(parse(text), x=x, z=z)
    assert err.value.subexpression == node
    assert str(err.value) == f"{message} in subexpression '{node}'"


def test_overflow_is_a_non_finite_value():
    e = parse("exp(1000)")
    with pytest.raises(ExpressionDomainError, match="non-finite value") as err:
        ev(e)
    assert err.value.subexpression == "exp(1000.0)"
    # an overflow that a later node absorbs leaves a finite value
    assert ev(parse("min(exp(1000), 1)")) == 1.0


def test_min_max_abs():
    assert ev(parse("min(3, max(1, 2)) + abs(0 - 5)")) == pytest.approx(7.0)


def test_json_roundtrip():
    e = parse("exp(x1) * (1 + z1 ^ 2) - p1 / 2")
    e2 = Expr.from_json(e.to_json())
    rng = np.random.default_rng(1)
    x, z, p = rng.normal(size=(3, 2)), rng.normal(size=(3, 1)), rng.normal(size=(3, 2))
    assert np.allclose(e(x, z, p), e2(x, z, p))


def test_const_and_var_helpers():
    assert ev(const(3.5)) == 3.5
    assert ev(var("p1"), p=(7.0, 0.0)) == 7.0
    with pytest.raises(ExpressionError):
        var("q1")


def test_parse_errors():
    for bad in ("1 +", "(1", "1 2", "foo(1)"):
        with pytest.raises(ExpressionError):
            parse(bad)


def _tree(op, *args):
    return Expr(op, tuple(args))


_LEAVES = st.one_of(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(const),
                    st.sampled_from(["x1", "x2", "z1", "z2", "p1", "p2"]).map(var))


def _extend(children):
    binary = st.sampled_from(["+", "-", "*", "/", "^", "min", "max"])
    unary = st.sampled_from(["neg", "exp", "log", "abs"])
    return st.one_of(st.builds(_tree, binary, children, children),
                     st.builds(_tree, unary, children))


@settings(max_examples=300, deadline=None)
@given(st.recursive(_LEAVES, _extend, max_leaves=24))
def test_printed_tree_parses_back_to_itself(e):
    assert parse(str(e)) == e


X1, C = var("x1"), const


@pytest.mark.parametrize("text, tree", [
    ("-2 ^ 2", _tree("neg", _tree("^", C(2), C(2)))),
    ("2 ^ 3 ^ 2", _tree("^", C(2), _tree("^", C(3), C(2)))),
    ("2 ^ -x1 ^ 2", _tree("^", C(2), _tree("neg", _tree("^", X1, C(2))))),
    ("1 - 2 - 3", _tree("-", _tree("-", C(1), C(2)), C(3))),
    ("1 / 2 * 3", _tree("*", _tree("/", C(1), C(2)), C(3))),
    ("+-x1", _tree("neg", X1)),
    ("min(1, max(2, 3))", _tree("min", C(1), _tree("max", C(2), C(3)))),
    ("\t1 +\n x1\t\n", _tree("+", C(1), X1)),
    ("z2 ", var("z2")),
    ("(\tx1\n) ^\t2", _tree("^", X1, C(2))),
], ids=["neg-power", "power-right", "power-neg-power", "minus-left", "divide-times",
        "plus-minus", "nested-calls", "tabs-newlines", "trailing-space", "spaced-parens"])
def test_precedence_and_whitespace(text, tree):
    assert parse(text) == tree


@pytest.mark.parametrize("text", [
    "x1 ** 2", "x1 # c", "1_0", "0x10", "1j", "True", "x1 % 2", "x1 // 2", "abs(x=1)",
    "min(1)", "exp(1, 2)", "1)+(2", "-" * 201 + "x1", " + ".join(["1"] * 600),
    "(" * 400 + "x1" + ")" * 400,
], ids=lambda text: text if len(text) < 20 else f"{text[:4]}...{len(text)}-chars")
def test_text_outside_the_grammar_is_rejected(text):
    with pytest.raises(ExpressionError):
        parse(text)


def test_two_hundred_levels_parse_evaluate_and_print():
    e = parse("-" * 200 + "x1")
    assert ev(e, x=(3.0, 0.0)) == 3.0
    assert parse(str(e)) == e
    assert e.variables() == {"x1"}
