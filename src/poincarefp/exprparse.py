"""Parser and evaluator for the perturbation-function expression language.

The language is Python's expression grammar cut down to

    number | t | pi | e | name(expr, ...) | (expr) | -expr
    | expr + expr | expr - expr | expr * expr | expr / expr | expr ^ expr

with ``^`` for Python's ``**``, at its precedence and right associative:
'-t^2' reads as '-(t^2)' and '2^-1' as '2^(-1)'.  Python's own parser
reads the text, each ``^`` as ``**``; every other form it accepts is an
ExpressionError at its position in the caller's text.  Numbers are
decimal and finite; the only characters are ASCII letters, digits, '_',
'.', '+', '-', '*', '/', '^', parentheses, commas, spaces and tabs.
Known functions: exp, log, sin, cos, sqrt, abs, pow(x, y).  The only free
variable is 't'.  Trees are immutable and safe to evaluate concurrently.

Evaluation maps every operator and function onto a numpy ufunc and runs
the whole tree under one floating-point guard: literals and t are finite,
so the first operation that would create an inf or NaN raises
EvalDomainError.
"""

from __future__ import annotations

import ast
import math
import string
import warnings
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


_CHARACTERS = frozenset(string.ascii_letters + string.digits
                        + "_.+-*/^(), \t")
_LITERAL = frozenset("0123456789.eE+-")  # a decimal number's text
_OPERATORS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
              ast.Pow: "^"}
_NAMES = {"t": Var("t"), "pi": Num(math.pi), "e": Num(math.e)}


def _convert(node: ast.expr, python: str, origin: list[int]) -> Expression:
    """The expression that Python's tree ``node`` of the text ``python``
    stands for; origin[p] is the caller's position of python[p]."""
    kind = type(node)
    if kind is ast.BinOp and type(node.op) in _OPERATORS:
        return BinOp(_OPERATORS[type(node.op)],
                     _convert(node.left, python, origin),
                     _convert(node.right, python, origin))
    if kind is ast.UnaryOp and type(node.op) is ast.USub:
        return Neg(_convert(node.operand, python, origin))
    text = python[node.col_offset:node.end_col_offset]
    where = origin[node.col_offset]
    if kind is ast.Constant and type(node.value) in (int, float) \
            and _LITERAL.issuperset(text):
        value = float(text)
        if not math.isfinite(value):
            raise ExpressionError(f"non-finite number {text!r}", where)
        return Num(value)
    if kind is ast.Name:
        if node.id not in _NAMES:
            raise ExpressionError(f"unknown identifier {node.id!r}", where)
        return _NAMES[node.id]
    # a call names its function ('(sin)(t)' starts before the name); with
    # no '=' among the characters it has no keyword argument
    if kind is ast.Call and type(node.func) is ast.Name \
            and node.func.col_offset == node.col_offset:
        name = node.func.id
        if name not in _FUNCTIONS:
            raise ExpressionError(f"unknown function {name!r}", where)
        arity = _FUNCTIONS[name].nin
        if len(node.args) != arity:
            raise ExpressionError(
                f"{name} takes {arity} argument(s), got {len(node.args)}",
                where)
        # only a comma may follow the last argument, before ')'
        rest = python.find(",", node.args[-1].end_col_offset,
                           node.end_col_offset)
        if rest >= 0:
            raise ExpressionError("trailing comma", origin[rest])
        return Call(name, tuple(_convert(arg, python, origin)
                                for arg in node.args))
    raise ExpressionError(f"{text!r} is not in the expression language",
                          where)


def parse_expression(source: str) -> Expression:
    """Parse ``source`` into an expression tree; raises ExpressionError
    with the position in ``source``."""
    if not source or not source.strip():
        raise ExpressionError("empty expression")
    for pos, char in enumerate(source):
        if char not in _CHARACTERS:
            raise ExpressionError(f"unexpected character {char!r}", pos)
    if "**" in source:
        raise ExpressionError("'**' is not an operator; write '^'",
                              source.index("**"))
    # leading blanks would be indentation to Python: parse from the first
    # token on; each '^' of source is two characters of the parsed text
    lead = len(source) - len(source.lstrip(" \t"))
    python = source[lead:].replace("^", "**")
    origin = [pos for pos, char in enumerate(source[lead:], lead)
              for _ in range(1 + (char == "^"))] + [len(source)]
    try:
        with warnings.catch_warnings():
            # '1if' and the like warn before they fail: reject at once
            warnings.simplefilter("error")
            tree = ast.parse(python, mode="eval")
        return _convert(tree.body, python, origin)
    except SyntaxError as exc:
        pos = exc.offset - 1 if exc.offset else len(python)
        raise ExpressionError(exc.msg, origin[min(pos, len(python))]) \
            from None
    except (RecursionError, MemoryError):
        raise ExpressionError("expression nested too deeply") from None


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
