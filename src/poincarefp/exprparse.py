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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvalDomainError, ExpressionError

_FUNCTIONS = {"exp": 1, "log": 1, "sin": 1, "cos": 1, "sqrt": 1, "abs": 1, "pow": 2}


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
            return Num(float(text))
        except ValueError:
            self.pos = start
            self.error(f"malformed number {text!r}")

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
            if len(args) != _FUNCTIONS[name]:
                self.pos = start
                self.error(
                    f"{name} takes {_FUNCTIONS[name]} argument(s), got {len(args)}"
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


def _power(base, exponent):
    # 0^0 = 1 by convention; negative base with non-integer exponent is a
    # domain error rather than a complex result.
    with np.errstate(all="ignore"):
        out = np.power(base, exponent)
    if not np.all(np.isfinite(out)):
        raise EvalDomainError("power left the finite real domain")
    return out


def _eval(node: Expression, t):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return t
    if isinstance(node, Neg):
        return -_eval(node.operand, t)
    if isinstance(node, BinOp):
        left = _eval(node.left, t)
        right = _eval(node.right, t)
        if node.op == "+":
            out = left + right
        elif node.op == "-":
            out = left - right
        elif node.op == "*":
            out = left * right
        elif node.op == "/":
            with np.errstate(all="ignore"):
                out = np.divide(left, right)
            if not np.all(np.isfinite(out)):
                raise EvalDomainError("division by zero")
            return out
        else:  # ^
            return _power(left, right)
        if not np.all(np.isfinite(out)):
            raise EvalDomainError(f"overflow in {node.op!r}")
        return out
    # Call
    (arg, *rest) = [_eval(a, t) for a in node.args]
    with np.errstate(all="ignore"):
        if node.func == "exp":
            out = np.exp(arg)
        elif node.func == "log":
            out = np.log(arg)
        elif node.func == "sin":
            out = np.sin(arg)
        elif node.func == "cos":
            out = np.cos(arg)
        elif node.func == "sqrt":
            out = np.sqrt(arg)
        elif node.func == "abs":
            out = np.abs(arg)
        else:  # pow
            return _power(arg, rest[0])
    if not np.all(np.isfinite(out)):
        raise EvalDomainError(f"{node.func} left the finite real domain")
    return out


def evaluate_expression(e: Expression, t):
    """Value of ``e`` at ``t`` (scalar or numpy array, elementwise).

    Raises EvalDomainError on log/sqrt of a negative, division by zero, or
    overflow; infinities are never propagated silently.
    """
    out = _eval(e, t)
    if np.ndim(t) == 0:
        return float(out)
    arr = np.asarray(out, dtype=float)
    if arr.shape != np.shape(t):
        arr = np.broadcast_to(arr, np.shape(t)).copy()
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


def pretty_print(node: Expression) -> str:
    """Fully parenthesized rendering; re-parsing yields an identical AST."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{pretty_print(node.operand)})"
    if isinstance(node, BinOp):
        return f"({pretty_print(node.left)}{node.op}{pretty_print(node.right)})"
    args = ", ".join(pretty_print(a) for a in node.args)
    return f"{node.func}({args})"
