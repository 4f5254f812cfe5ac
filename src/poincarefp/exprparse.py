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
variable is 't'.

Python's compiler evaluates it: the validated tree is rewritten so that
every operator and function is a call of its numpy ufunc, pi and e are
float constants and t is the one free name, and compiled once.  An
Expression holds that code, which is immutable and safe to evaluate
concurrently; the whole evaluation runs under one floating-point guard:
literals and t are finite, so the first operation that would create an
inf or NaN raises EvalDomainError.
"""

from __future__ import annotations

import ast
import math
import string
import warnings
from dataclasses import dataclass
from types import CodeType

import numpy as np

from .errors import EvalDomainError, ExpressionError

# numpy ufuncs; each one's ``nin`` is the arity the parser enforces
_FUNCTIONS = {"exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos,
              "sqrt": np.sqrt, "abs": np.abs, "pow": np.power}
_OPERATORS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
              ast.Div: np.divide, ast.Pow: np.power}
# the compiled code calls each ufunc by its own name and sees no builtins
_NAMESPACE = {"__builtins__": {}} | {
    ufunc.__name__: ufunc
    for ufunc in (*_FUNCTIONS.values(), *_OPERATORS.values())}


@dataclass(frozen=True)
class Expression:
    """A parsed expression, compiled.  Every node of its rewritten tree
    sits at the same place, so the code depends on that tree alone, and
    code objects compare by value: two expressions are equal exactly when
    their trees are."""

    code: CodeType


_CHARACTERS = frozenset(string.ascii_letters + string.digits
                        + "_.+-*/^(), \t")
_LITERAL = frozenset("0123456789.eE+-")  # a decimal number's text
_CONSTANTS = {"pi": math.pi, "e": math.e}


def _call(ufunc, args: list[ast.expr]) -> ast.Call:
    return ast.Call(ast.Name(ufunc.__name__, ast.Load()), args, [])


def _convert(node: ast.expr, python: str, origin: list[int]) -> ast.expr:
    """The ufunc-call tree that Python's tree ``node`` of the text
    ``python`` stands for; origin[p] is the caller's position of
    python[p]."""
    kind = type(node)
    if kind is ast.BinOp and type(node.op) in _OPERATORS:
        return _call(_OPERATORS[type(node.op)],
                     [_convert(node.left, python, origin),
                      _convert(node.right, python, origin)])
    if kind is ast.UnaryOp and type(node.op) is ast.USub:
        return ast.UnaryOp(node.op, _convert(node.operand, python, origin))
    text = python[node.col_offset:node.end_col_offset]
    where = origin[node.col_offset]
    if kind is ast.Constant and type(node.value) in (int, float) \
            and _LITERAL.issuperset(text):
        value = float(text)
        if not math.isfinite(value):
            raise ExpressionError(f"non-finite number {text!r}", where)
        return ast.Constant(value)
    if kind is ast.Name:
        if node.id == "t":
            return ast.Name("t", ast.Load())
        if node.id not in _CONSTANTS:
            raise ExpressionError(f"unknown identifier {node.id!r}", where)
        return ast.Constant(_CONSTANTS[node.id])
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
        return _call(_FUNCTIONS[name], [_convert(arg, python, origin)
                                        for arg in node.args])
    raise ExpressionError(f"{text!r} is not in the expression language",
                          where)


def parse_expression(source: str) -> Expression:
    """Parse and compile ``source``; raises ExpressionError with the
    position in ``source``."""
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
        body = _convert(tree.body, python, origin)
        # the new nodes carry no position: all of them get line 1, column 0
        code = ast.fix_missing_locations(ast.Expression(body))
        return Expression(compile(code, "<expression>", "eval",
                                  dont_inherit=True))
    except SyntaxError as exc:
        pos = exc.offset - 1 if exc.offset else len(python)
        raise ExpressionError(exc.msg, origin[min(pos, len(python))]) \
            from None
    except (RecursionError, MemoryError):
        raise ExpressionError("expression nested too deeply") from None


def evaluate_expression(e: Expression, t):
    """Value of ``e`` at ``t`` (scalar or numpy array, elementwise).

    The whole expression is evaluated inside one ``np.errstate`` that
    raises on division by zero, overflow and invalid operations.  Literals
    and t are finite, so every inf or NaN is trapped at the operation that
    creates it (log/sqrt of a negative, division by zero, overflow, a
    negative base with a non-integer exponent) and surfaces as
    EvalDomainError; an infinity is never propagated or absorbed silently.
    0^0 is 1.
    """
    scalar = np.ndim(t) == 0
    t = float(t) if scalar else np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise EvalDomainError("t must be finite")
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            out = eval(e.code, _NAMESPACE, {"t": t})
    except FloatingPointError as exc:
        raise EvalDomainError(str(exc)) from None
    if scalar:
        return float(out)
    arr = np.asarray(out, dtype=float)
    if arr.shape != t.shape:
        arr = np.broadcast_to(arr, t.shape).copy()
    return arr


def depends_on_t(e: Expression) -> bool:
    """Whether ``e`` mentions the variable t; if not, its value is the same
    at every t."""
    return "t" in e.code.co_names
