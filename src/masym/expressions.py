"""A small closed expression grammar for right-hand-side terms.

Expressions are functions of a spatial point ``x``, the unknown vector
``z`` and a gradient ``p``.  The grammar covers constants, coordinates
``x1..xn``, unknowns ``z1..zm``, gradient entries ``p1..pn``, the
arithmetic operators ``+ - * / ^`` and the functions ``exp``, ``log``,
``abs``, ``min``, ``max``; each operator is one numpy ufunc.  Python's
parser reads the text, with ``^`` spelled ``**``, so precedence is
Python's: ``^`` binds right and tighter than unary minus.  Trees evaluate
vectorized over numpy arrays and serialize to a JSON AST.

An evaluation has one guard: numpy raises on a division by zero or an
invalid value, and the node where that happens is named in an
:class:`ExpressionDomainError`.  Overflow and underflow run on; a result
that is not finite (an overflow) is reported as a ``non-finite value`` of
the whole expression.
"""

from __future__ import annotations

import ast
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


# the number pattern of the grammar: Python's also reads 1_0, 0x10, 1j and True
_NUM_RE = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^", ast.USub: "neg"}
# Python's limit for nested parentheses: every tree prints to a text that parses
_MAX_DEPTH = 200


def _from_ast(node, source, depth):
    """The :class:`Expr` of a node of ``ast.parse(source, mode="eval")``."""
    if depth > _MAX_DEPTH:
        raise ExpressionError(f"expression nested more than {_MAX_DEPTH} levels deep")
    # the source is one line of ASCII, so the offsets index its characters
    text = source[node.col_offset:node.end_col_offset]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
        return _from_ast(node.operand, source, depth)
    if isinstance(node, (ast.BinOp, ast.UnaryOp)) and type(node.op) in _OPS:
        op = _OPS[type(node.op)]
        args = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.operand,)
    elif isinstance(node, ast.Name):
        return var(node.id)
    elif isinstance(node, ast.Constant) and _NUM_RE.fullmatch(text):
        return const(float(text))
    elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) in _FUNCTIONS
          and not node.keywords and len(node.args) == _UFUNCS[node.func.id].nin):
        op, args = node.func.id, node.args
    else:
        raise ExpressionError(f"{text!r} is not in the grammar")
    return Expr(op, tuple(_from_ast(a, source, depth + 1) for a in args))


def parse(text):
    """Parse infix text like ``"( - z2 ) ^ 2"`` into an :class:`Expr`; whitespace
    runs count as one space, and ``**``, ``#`` and non-ASCII text are rejected."""
    if not text.isascii() or "**" in text or "#" in text:
        raise ExpressionError(f"{text!r}: '**', '#' and non-ASCII text are not in the grammar")
    source = " ".join(text.split()).replace("^", "**")
    try:
        return _from_ast(ast.parse(source, mode="eval").body, source, 0)
    # the parser raises MemoryError when its own stack overflows
    except (SyntaxError, RecursionError, MemoryError) as err:
        raise ExpressionError(f"cannot parse {text!r}: {getattr(err, 'msg', 'too deep')}") \
            from None
