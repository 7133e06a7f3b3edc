import numpy as np
import pytest

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
