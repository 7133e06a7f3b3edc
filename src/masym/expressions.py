"""A small closed expression grammar for right-hand-side terms.

Expressions are functions of a spatial point ``x``, the unknown vector
``z`` and a gradient ``p``.  The grammar covers constants, coordinates
``x1..xn``, unknowns ``z1..zm``, gradient entries ``p1..pn``, the
arithmetic operators ``+ - * / ^`` and the functions ``exp``, ``log``,
``abs``, ``min``, ``max``; each operator is one numpy ufunc.  Trees
evaluate vectorized over numpy arrays and serialize to a JSON AST.

An evaluation has one guard: numpy raises on a division by zero or an
invalid value, and the node where that happens is named in an
:class:`ExpressionDomainError`.  Overflow and underflow run on; a result
that is not finite (an overflow) is reported as a ``non-finite value`` of
the whole expression.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["Expr", "ExpressionError", "ExpressionDomainError", "parse", "const", "var"]


class ExpressionError(ValueError):
    """Malformed expression text or AST."""


class ExpressionDomainError(ValueError):
    """Evaluation left the expression's real domain.

    Names the node where it happened (e.g. a fractional power of a
    negative base, or a log of a non-positive argument), or the whole
    expression when its value is not finite.
    """

    def __init__(self, message, subexpression):
        super().__init__(f"{message} in subexpression '{subexpression}'")
        self.subexpression = subexpression


# each operator's ufunc; its arity is the ufunc's nin
_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
           "^": np.power, "neg": np.negative, "exp": np.exp, "log": np.log,
           "abs": np.abs, "min": np.minimum, "max": np.maximum}
_FUNCTIONS = {"exp", "log", "abs", "min", "max"}  # the names the parser calls
_DOMAIN_ERRORS = {"/": "division by zero",
                  "^": "power outside the real domain",
                  "log": "log of a non-positive argument"}
_VAR_RE = re.compile(r"^(x|z|p)([1-9][0-9]*)$")


@dataclass(frozen=True)
class Expr:
    op: str
    args: tuple = ()
    value: Optional[float] = None  # for op == "const"
    name: Optional[str] = None     # for op == "var"

    def __str__(self):
        if self.op == "const":
            return repr(self.value)
        if self.op == "var":
            return self.name
        if self.op == "neg":
            return f"(- {self.args[0]})"
        if self.op in ("+", "-", "*", "/", "^"):
            return f"({self.args[0]} {self.op} {self.args[1]})"
        return f"{self.op}({', '.join(str(a) for a in self.args)})"

    def variables(self):
        if self.op == "var":
            return {self.name}
        out = set()
        for a in self.args:
            out |= a.variables()
        return out

    def depends_on(self, kind):
        """True if any variable of the given kind ('x', 'z' or 'p') appears."""
        return any(v[0] == kind for v in self.variables())

    def __call__(self, x, z, p):
        """Evaluate with broadcasting; x: (..., n), z: (..., m), p: (..., n).

        Raises :class:`ExpressionDomainError` at the node where a value
        leaves the real domain, or when the result is not finite.
        """
        with np.errstate(divide="raise", invalid="raise", over="ignore", under="ignore"):
            val = self._eval({"x": x, "z": z, "p": p})
        if not np.all(np.isfinite(val)):
            raise ExpressionDomainError("non-finite value", str(self))
        return val

    def _eval(self, env):
        if self.op == "const":
            return np.asarray(self.value, dtype=float)
        if self.op == "var":
            arr = np.asarray(env[self.name[0]], dtype=float)
            idx = int(self.name[1:]) - 1
            if idx >= arr.shape[-1]:
                raise ExpressionError(f"variable {self.name} out of range for shape {arr.shape}")
            return arr[..., idx]
        if self.op not in _UFUNCS:
            raise ExpressionError(f"unknown operator {self.op!r}")
        vals = [a._eval(env) for a in self.args]
        try:
            return _UFUNCS[self.op](*vals)
        except FloatingPointError:
            raise ExpressionDomainError(_DOMAIN_ERRORS.get(self.op, "invalid value"),
                                        str(self)) from None

    def to_json(self):
        if self.op == "const":
            return self.value
        if self.op == "var":
            return self.name
        return [self.op] + [a.to_json() for a in self.args]

    @staticmethod
    def from_json(obj):
        if isinstance(obj, (int, float)):
            return const(float(obj))
        if isinstance(obj, str):
            return var(obj)
        if isinstance(obj, (list, tuple)) and obj:
            op, args = obj[0], tuple(Expr.from_json(a) for a in obj[1:])
            if op in _UFUNCS and len(args) == _UFUNCS[op].nin:
                return Expr(op, args)
        raise ExpressionError(f"bad AST node {obj!r}")


def const(v):
    return Expr("const", value=float(v))


def var(name):
    if not _VAR_RE.match(name):
        raise ExpressionError(f"unknown variable {name!r} (expected x<k>, z<j> or p<k>)")
    return Expr("var", name=name)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ExpressionError(f"cannot tokenize {text[pos:]!r}")
        pos = m.end()
        if m.group("num"):
            out.append(("num", float(m.group("num"))))
        elif m.group("name"):
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    out.append(("end", None))
    return out


class _Parser:
    """Recursive-descent parser with standard precedence; ^ binds right."""

    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, expect=None):
        tok = self.toks[self.i]
        if expect is not None and tok != ("op", expect):
            raise ExpressionError(f"expected {expect!r}, got {tok}")
        self.i += 1
        return tok

    def parse(self):
        e = self.expr()
        if self.peek()[0] != "end":
            raise ExpressionError(f"trailing input at token {self.peek()}")
        return e

    def expr(self):
        e = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            e = Expr(op, (e, self.term()))
        return e

    def term(self):
        e = self.unary()
        while self.peek() in (("op", "*"), ("op", "/")):
            op = self.take()[1]
            e = Expr(op, (e, self.unary()))
        return e

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            return Expr("neg", (self.unary(),))
        if self.peek() == ("op", "+"):
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            return Expr("^", (base, self.unary()))
        return base

    def atom(self):
        kind, val = self.peek()
        if kind == "num":
            self.take()
            return const(val)
        if kind == "name":
            self.take()
            if val in _FUNCTIONS:
                self.take("(")
                args = [self.expr()]
                for _ in range(_UFUNCS[val].nin - 1):
                    self.take(",")
                    args.append(self.expr())
                self.take(")")
                return Expr(val, tuple(args))
            return var(val)
        if (kind, val) == ("op", "("):
            self.take()
            e = self.expr()
            self.take(")")
            return e
        raise ExpressionError(f"unexpected token {(kind, val)}")


def parse(text):
    """Parse infix text like ``"( - z2 ) ^ 2"`` into an :class:`Expr`."""
    return _Parser(_tokenize(text)).parse()
