"""Parser and evaluator for the perturbation-function expression language.

Grammar (ASCII only):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          # right associative
    atom    := number | 't' | name '(' expr (',' expr)* ')' | '(' expr ')'

so '^' binds tighter than unary minus and '-t^2' reads as '-(t^2)'.
Known functions: exp, log, sin, cos, sqrt, abs, pow(x, y).
The only free variable is 't'.  ASTs are immutable and safe to evaluate
concurrently.

Evaluation maps every operator and function onto a numpy ufunc and runs
the whole tree under one floating-point guard: literals and t are finite,
so the first operation that would create an inf or NaN raises
EvalDomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvalDomainError, ExpressionError

# numpy ufuncs; each one's ``nin`` is the arity the parser enforces
_FUNCTIONS = {"exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos,
              "sqrt": np.sqrt, "abs": np.abs, "pow": np.power}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # always "t"


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


Expression = Num | Var | Neg | BinOp | Call


class _Parser:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0

    def error(self, message):
        raise ExpressionError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos] in " \t":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def take(self, char):
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def parse(self) -> Expression:
        node = self.expr()
        if self.peek():
            self.error(f"unexpected character {self.src[self.pos]!r}")
        return node

    def expr(self) -> Expression:
        node = self.term()
        while True:
            if self.take("+"):
                node = BinOp("+", node, self.term())
            elif self.take("-"):
                node = BinOp("-", node, self.term())
            else:
                return node

    def term(self) -> Expression:
        node = self.factor()
        while True:
            if self.take("*"):
                node = BinOp("*", node, self.factor())
            elif self.take("/"):
                node = BinOp("/", node, self.factor())
            else:
                return node

    def factor(self) -> Expression:
        if self.take("-"):
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        if self.take("^"):
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Expression:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            return node
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha():
            return self.identifier()
        if ch:
            self.error(f"unexpected character {ch!r}")
        self.error("unexpected end of expression")

    def number(self) -> Num:
        start = self.pos
        src = self.src
        while self.pos < len(src) and (src[self.pos].isdigit() or src[self.pos] == "."):
            self.pos += 1
        if self.pos < len(src) and src[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(src) and src[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(src) and src[self.pos].isdigit():
                while self.pos < len(src) and src[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark
        text = src[start : self.pos]
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            self.pos = start
            self.error(f"malformed or non-finite number {text!r}")
        return Num(value)

    def identifier(self) -> Expression:
        start = self.pos
        src = self.src
        while self.pos < len(src) and (src[self.pos].isalnum() or src[self.pos] == "_"):
            self.pos += 1
        name = src[start : self.pos]
        if self.peek() == "(":
            if name not in _FUNCTIONS:
                self.pos = start
                self.error(f"unknown function {name!r}")
            self.pos += 1
            args = [self.expr()]
            while self.take(","):
                args.append(self.expr())
            if not self.take(")"):
                self.error("expected ')'")
            arity = _FUNCTIONS[name].nin
            if len(args) != arity:
                self.pos = start
                self.error(
                    f"{name} takes {arity} argument(s), got {len(args)}"
                )
            return Call(name, tuple(args))
        if name == "t":
            return Var("t")
        if name == "pi":
            return Num(math.pi)
        if name == "e":
            return Num(math.e)
        self.pos = start
        self.error(f"unknown identifier {name!r}")


def parse_expression(source: str) -> Expression:
    """Parse ``source`` into an AST; raises ExpressionError with position."""
    if not source or not source.strip():
        raise ExpressionError("empty expression")
    return _Parser(source).parse()


_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
           "^": np.power}


def _eval(node: Expression, t):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return t
    if isinstance(node, Neg):
        return -_eval(node.operand, t)
    if isinstance(node, BinOp):
        return _BINARY[node.op](_eval(node.left, t), _eval(node.right, t))
    return _FUNCTIONS[node.func](*(_eval(arg, t) for arg in node.args))


def evaluate_expression(e: Expression, t):
    """Value of ``e`` at ``t`` (scalar or numpy array, elementwise).

    The whole tree is evaluated inside one ``np.errstate`` that raises on
    division by zero, overflow and invalid operations.  Literals and t are
    finite, so every inf or NaN is trapped at the operation that creates it
    (log/sqrt of a negative, division by zero, overflow, a negative base
    with a non-integer exponent) and surfaces as EvalDomainError; an
    infinity is never propagated or absorbed silently.  0^0 is 1.
    """
    scalar = np.ndim(t) == 0
    t = float(t) if scalar else np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise EvalDomainError("t must be finite")
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            out = _eval(e, t)
    except FloatingPointError as exc:
        raise EvalDomainError(str(exc)) from None
    if scalar:
        return float(out)
    arr = np.asarray(out, dtype=float)
    if arr.shape != t.shape:
        arr = np.broadcast_to(arr, t.shape).copy()
    return arr


def depends_on_t(node: Expression) -> bool:
    """Whether ``node`` mentions the variable t; if not, its value is the
    same at every t."""
    if isinstance(node, Var):
        return True
    if isinstance(node, Num):
        return False
    if isinstance(node, Neg):
        return depends_on_t(node.operand)
    if isinstance(node, BinOp):
        return depends_on_t(node.left) or depends_on_t(node.right)
    return any(depends_on_t(arg) for arg in node.args)
