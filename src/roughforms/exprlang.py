"""A small arithmetic expression language for scalar functions in configs.

Grammar (standard precedence, ``^`` binds tightest and is right
associative, then unary minus, then ``* /``, then ``+ -``)::

    sum    := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?
    atom   := NUMBER | xK | FUNC "(" sum ")" | "(" sum ")"
            | "weierstrass" "(" NUMBER "," NUMBER ")" "(" sum ")"

Variables are ``x1 .. xd``.  Functions are ``sin cos exp abs sqrt`` plus
the builtin ``weierstrass(gamma, seed)(argument)`` whose two head
arguments must be numeric literals so the rough function is exactly
reproducible.  Parsed trees are immutable; evaluation is reentrant and
vectorizes over leading axes of an ``(..., d)`` point array.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    EvalDomainError,
    ExprSyntaxError,
    NotDifferentiableError,
    UnknownIdentifierError,
)
from .forms import WeierstrassFunction

__all__ = [
    "Expr",
    "Lit",
    "Var",
    "Neg",
    "Bin",
    "Call",
    "Weier",
    "parse",
    "to_source",
    "evaluate",
    "differentiate",
    "expr_dimension",
]

# One table per kind of node: each binary operator's binding level (the
# printer's and the parser's) and numpy ufunc, and each function's ufunc.
_BINARY = {
    "+": (1, np.add),
    "-": (1, np.subtract),
    "*": (2, np.multiply),
    "/": (2, np.divide),
    "^": (4, np.power),
}

_CALLS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "abs": np.abs,
    "sqrt": np.sqrt,
}

FUNCTIONS = tuple(_CALLS)


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()

    def __str__(self):
        return to_source(self)


@dataclass(frozen=True)
class Lit(Expr):
    """A nonnegative numeric literal (negatives come out as Neg(Lit))."""

    value: float


@dataclass(frozen=True)
class Var(Expr):
    """Coordinate variable with 1-based index; prints as ``x<index>``."""

    index: int


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Bin(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    name: str
    arg: Expr


@dataclass(frozen=True)
class Weier(Expr):
    """weierstrass(gamma, seed) applied to a scalar subexpression."""

    gamma: float
    seed: int
    arg: Expr


# ---------------------------------------------------------------------------
# tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<ws>\s+)"
)

_VAR_RE = re.compile(r"x([1-9][0-9]*)\Z")


def _tokenize(text):
    tokens = []
    line = 1
    column = 1
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ExprSyntaxError(
                f"unexpected character {text[pos]!r}", line, column
            )
        kind = match.lastgroup
        lexeme = match.group()
        if kind == "ws":
            newlines = lexeme.count("\n")
            if newlines:
                line += newlines
                column = len(lexeme) - lexeme.rfind("\n")
            else:
                column += len(lexeme)
        else:
            if kind == "op":
                kind = lexeme
            tokens.append(_Token(kind, lexeme, line, column))
            column += len(lexeme)
        pos = match.end()
    tokens.append(_Token("eof", "", line, column))
    return tokens


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, tokens, d=None):
        self._tokens = tokens
        self._pos = 0
        self._d = d

    def _peek(self):
        return self._tokens[self._pos]

    def _advance(self):
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _fail(self, token, message, cls=ExprSyntaxError):
        # Report end-of-input failures at the last real token so the
        # column points into the source text.
        if token.kind == "eof" and self._pos > 0:
            index = self._tokens.index(token)
            if index > 0:
                token = self._tokens[index - 1]
        raise cls(message, token.line, token.column)

    def _expect(self, kind, context):
        token = self._peek()
        if token.kind != kind:
            found = "end of input" if token.kind == "eof" else repr(token.text)
            self._fail(token, f"expected {kind!r} {context}, found {found}")
        return self._advance()

    def parse(self):
        expr = self._parse_sum()
        token = self._peek()
        if token.kind != "eof":
            self._fail(token, f"unexpected trailing input {token.text!r}")
        return expr

    def _parse_sum(self, level=1):
        """Left-associative chain of the operators of binding level 1
        (``+ -``, over level 2) or 2 (``* /``, over unary operands)."""

        def operand():
            return self._parse_sum(2) if level == 1 else self._parse_unary()

        left = operand()
        while _BINARY.get(self._peek().kind, (None,))[0] == level:
            op = self._advance().kind
            left = Bin(op, left, operand())
        return left

    def _parse_unary(self):
        if self._peek().kind == "-":
            self._advance()
            return Neg(self._parse_unary())
        return self._parse_power()

    def _parse_power(self):
        base = self._parse_atom()
        if self._peek().kind == "^":
            self._advance()
            return Bin("^", base, self._parse_unary())
        return base

    def _parse_atom(self):
        token = self._peek()
        if token.kind == "num":
            self._advance()
            return Lit(float(token.text))
        if token.kind == "(":
            self._advance()
            expr = self._parse_sum()
            self._expect(")", "to close the parenthesis")
            return expr
        if token.kind == "ident":
            self._advance()
            return self._parse_ident(token)
        found = "end of input" if token.kind == "eof" else repr(token.text)
        self._fail(token, f"expected an expression, found {found}")

    def _parse_ident(self, token):
        name = token.text
        var = _VAR_RE.match(name)
        if var is not None:
            index = int(var.group(1))
            if self._d is not None and index > self._d:
                self._fail(
                    token,
                    f"variable {name} exceeds the declared dimension {self._d}",
                    UnknownIdentifierError,
                )
            return Var(index)
        if name in FUNCTIONS:
            self._expect("(", f"after function {name}")
            arg = self._parse_sum()
            self._expect(")", f"to close the call to {name}")
            return Call(name, arg)
        if name == "weierstrass":
            return self._parse_weierstrass()
        self._fail(token, f"unknown identifier {name!r}", UnknownIdentifierError)

    def _literal_argument(self, what):
        token = self._peek()
        if token.kind != "num":
            found = "end of input" if token.kind == "eof" else repr(token.text)
            self._fail(
                token, f"{what} must be a numeric literal, found {found}"
            )
        self._advance()
        return token

    def _parse_weierstrass(self):
        self._expect("(", "after weierstrass")
        gamma_token = self._literal_argument("the weierstrass exponent")
        gamma = float(gamma_token.text)
        if not 0.0 < gamma <= 1.0:
            self._fail(
                gamma_token,
                f"the weierstrass exponent must lie in (0, 1], got {gamma_token.text}",
            )
        self._expect(",", "between the weierstrass arguments")
        seed_token = self._literal_argument("the weierstrass seed")
        seed = float(seed_token.text)
        if seed != int(seed) or seed < 0:
            self._fail(
                seed_token,
                f"the weierstrass seed must be a nonnegative integer literal, "
                f"got {seed_token.text}",
            )
        self._expect(")", "to close the weierstrass head")
        self._expect("(", "to open the weierstrass argument")
        arg = self._parse_sum()
        self._expect(")", "to close the weierstrass argument")
        return Weier(gamma, int(seed), arg)


def parse(text, d=None):
    """Parse expression source into an AST.

    ``d`` optionally limits the variable range to x1..xd; without it any
    positive index is accepted.  Raises ExprSyntaxError (with 1-based
    line/column) on malformed input and UnknownIdentifierError for
    identifiers that are neither variables nor known functions.
    """

    return _Parser(_tokenize(text), d=d).parse()


# ---------------------------------------------------------------------------
# printer


def _node_level(e):
    if isinstance(e, Bin):
        return _BINARY[e.op][0]
    if isinstance(e, Neg):
        return 3
    return 5


def _format_number(value):
    value = float(value)
    if value == int(value) and abs(value) < 1e16:
        return repr(int(value))
    return repr(value)


def _print(e, context):
    if isinstance(e, Lit):
        text = _format_number(e.value)
    elif isinstance(e, Var):
        text = f"x{e.index}"
    elif isinstance(e, Neg):
        inner = 4 if isinstance(e.arg, Neg) else 3
        text = "-" + _print(e.arg, inner)
    elif isinstance(e, Call):
        text = f"{e.name}({_print(e.arg, 1)})"
    elif isinstance(e, Weier):
        head = f"weierstrass({_format_number(e.gamma)}, {e.seed})"
        text = f"{head}({_print(e.arg, 1)})"
    elif isinstance(e, Bin) and e.op == "^":
        text = f"{_print(e.left, 5)}^{_print(e.right, 3)}"
    elif isinstance(e, Bin):
        level = _node_level(e)
        op = f" {e.op} " if level == 1 else e.op
        text = f"{_print(e.left, level)}{op}{_print(e.right, level + 1)}"
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if _node_level(e) < context:
        return f"({text})"
    return text


def to_source(e):
    """Render an AST back to source. parse(to_source(e)) == e."""

    return _print(e, 1)


# ---------------------------------------------------------------------------
# evaluation


@lru_cache(maxsize=None)
def _weier_function(gamma, seed):
    return WeierstrassFunction(gamma, 1, seed=seed)


def _variables(e):
    """Set of the variable indices an expression uses."""

    if isinstance(e, Lit):
        return set()
    if isinstance(e, Var):
        return {e.index}
    if isinstance(e, Bin):
        return _variables(e.left) | _variables(e.right)
    if isinstance(e, (Neg, Call, Weier)):
        return _variables(e.arg)
    raise TypeError(f"not an expression node: {e!r}")


def expr_dimension(e):
    """Largest variable index used, 0 for a constant expression."""

    return max(_variables(e), default=0)


def _eval(e, points):
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        return points[..., e.index - 1]
    if isinstance(e, Neg):
        return np.negative(_eval(e.arg, points))
    if isinstance(e, Bin):
        return _BINARY[e.op][1](_eval(e.left, points), _eval(e.right, points))
    if isinstance(e, Call):
        return _CALLS[e.name](_eval(e.arg, points))
    if isinstance(e, Weier):
        values = np.asarray(_eval(e.arg, points), dtype=float)
        return _weier_function(e.gamma, e.seed)(values[..., None])
    raise TypeError(f"not an expression node: {e!r}")


def evaluate(e, x):
    """Evaluate at points ``x`` of shape (..., d); returns shape (...,).

    A flat length-d sequence is a single point and yields a float.
    Division by zero, roots or non-integer powers of negatives, and
    overflow raise EvalDomainError.
    """

    points = np.asarray(x, dtype=float)
    if points.ndim == 0:
        points = points.reshape(1)
    need = expr_dimension(e)
    if need > points.shape[-1]:
        raise ValueError(
            f"expression uses x{need} but points have dimension "
            f"{points.shape[-1]}"
        )
    with np.errstate(all="ignore"):
        values = np.asarray(_eval(e, points), dtype=float)
    if not np.all(np.isfinite(values)):
        raise EvalDomainError(
            "expression left its domain (division by zero, a root or "
            "non-integer power of a negative number, or overflow)"
        )
    values = np.broadcast_to(values, points.shape[:-1])
    if values.ndim == 0:
        return float(values)
    return values.copy()


# ---------------------------------------------------------------------------
# differentiation

# Constructors that fold the trivial algebraic identities so derivative
# trees stay readable. Folding x*0 -> 0 may shrink the domain-error set
# (0*(1/x1) at 0), which is acceptable for derivative output.


def _lit(value):
    value = float(value)
    if value == 0.0:
        return Lit(0.0)
    if value < 0.0:
        return Neg(Lit(-value))
    return Lit(value)


def _lit_value(e):
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Neg) and isinstance(e.arg, Lit):
        return -e.arg.value
    return None


def _neg(a):
    value = _lit_value(a)
    if value is not None:
        return _lit(-value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _binary(op, a, b):
    """Bin(op, a, b) with op's identities folded, tested in the order below,
    and a pair of literals folded into one when their value is finite."""

    x, y = _lit_value(a), _lit_value(b)
    if op == "+":
        if x == 0.0:
            return b
        if y == 0.0:
            return a
    elif op == "-":
        if y == 0.0:
            return a
        if x == 0.0:
            return _neg(b)
    elif op == "*":
        if x == 0.0 or y == 0.0:
            return Lit(0.0)
        if x == 1.0:
            return b
        if y == 1.0:
            return a
    elif op == "/":
        if x == 0.0:
            return Lit(0.0)
        if y == 1.0:
            return a
    elif y == 1.0:  # op is "^"
        return a
    elif y == 0.0:
        return Lit(1.0)
    if x is not None and y is not None:
        with np.errstate(all="ignore"):
            value = float(_BINARY[op][1](x, y))
        if math.isfinite(value):
            return _lit(value)
    return Bin(op, a, b)


def _constant_value(e):
    """Value of a variable-free subexpression, else None."""

    if expr_dimension(e) > 0:
        return None
    return float(evaluate(e, np.zeros(1)))


def _var_index(var):
    if isinstance(var, Var):
        return var.index
    if isinstance(var, str):
        match = _VAR_RE.match(var)
        if match is None:
            raise ValueError(f"not a variable name: {var!r}")
        return int(match.group(1))
    index = int(var)
    if index < 1:
        raise ValueError("variable index must be >= 1")
    return index


def _diff(e, index):
    if index not in _variables(e):
        return Lit(0.0)
    if isinstance(e, Var):
        return Lit(1.0)
    if isinstance(e, Neg):
        return _neg(_diff(e.arg, index))
    if isinstance(e, Bin):
        if e.op in ("+", "-"):
            return _binary(e.op, _diff(e.left, index), _diff(e.right, index))
        if e.op in ("*", "/"):
            # (u v)' = u' v + u v' and (u / v)' = (u' v - u v') / v^2
            left = _binary("*", _diff(e.left, index), e.right)
            right = _binary("*", e.left, _diff(e.right, index))
            if e.op == "*":
                return _binary("+", left, right)
            square = _binary("^", e.right, Lit(2.0))
            return _binary("/", _binary("-", left, right), square)
        exponent = _constant_value(e.right)
        if exponent is not None:
            power = _binary("^", e.left, _lit(exponent - 1.0))
            scaled = _binary("*", _lit(exponent), power)
            return _binary("*", scaled, _diff(e.left, index))
        base = _constant_value(e.left)
        if base is not None and base > 0.0:
            scaled = _binary("*", _lit(math.log(base)), e)
            return _binary("*", scaled, _diff(e.right, index))
        raise NotDifferentiableError(
            "a^b with a varying base and exponent has no derivative in "
            "this language (no log function)"
        )
    if isinstance(e, Call):
        inner = _diff(e.arg, index)
        if e.name == "sin":
            return _binary("*", Call("cos", e.arg), inner)
        if e.name == "cos":
            return _neg(_binary("*", Call("sin", e.arg), inner))
        if e.name == "exp":
            return _binary("*", e, inner)
        if e.name == "sqrt":
            return _binary("/", inner, _binary("*", Lit(2.0), e))
        raise NotDifferentiableError("abs is not differentiable at zero")
    if isinstance(e, Weier):
        raise NotDifferentiableError(
            "weierstrass(...) is rough by construction and has no derivative"
        )
    raise TypeError(f"not an expression node: {e!r}")


def differentiate(e, var):
    """Symbolic partial derivative with respect to ``var`` (index, name,
    or Var node).

    Raises NotDifferentiableError when the variable flows through abs,
    weierstrass, or a power whose base and exponent both vary.
    """

    return _diff(e, _var_index(var))
