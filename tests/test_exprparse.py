"""Expression language: parsing, evaluation, and round-trip properties."""

from __future__ import annotations

import ast
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincarefp.errors import EvalDomainError, ExpressionError
from poincarefp.exprparse import (
    depends_on_t,
    evaluate_expression,
    parse_expression,
)


def ev(src: str, t):
    return evaluate_expression(parse_expression(src), t)


class TestParsing:
    def test_precedence_mul_over_add(self):
        assert ev("1+2*3", 0.0) == 7.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert ev("-2^2", 0.0) == -4.0

    def test_power_right_associative(self):
        assert ev("2^3^2", 0.0) == 512.0

    def test_scientific_number(self):
        assert ev("1.5e-2", 0.0) == pytest.approx(0.015)

    def test_number_followed_by_e_identifier_is_product_error(self):
        # '2e' cannot be a number; the 'e' does not glue to the 2
        with pytest.raises(ExpressionError):
            parse_expression("2e")

    def test_constants(self):
        assert ev("pi", 0.0) == pytest.approx(math.pi)
        assert ev("e", 0.0) == pytest.approx(math.e)

    def test_functions(self):
        assert ev("exp(1)", 0.0) == pytest.approx(math.e)
        assert ev("pow(2, 10)", 0.0) == 1024.0
        assert ev("abs(-3)", 0.0) == 3.0

    def test_golden_perturbation(self):
        assert ev("1/(1+t)^3", 1.0) == pytest.approx(0.125)

    @pytest.mark.parametrize(
        "src",
        ["", "  ", "1+", "foo(1)", "sin(1,2)", "(1", "1..2", "x", "1 $ 2",
         "1e400",
         # forms Python's parser accepts and the language does not
         "2**3", "1 # c", "\uff54", "0x1f", "1_000", "1j", "1" * 400,
         "+t", "~t", "sin(x=1)", "sin(t,)", "pow(2, t,)", "t if t else 1",
         "t < 1", "t in t", "t and t", "not t", "'t'", "t[0]", "t.real",
         "lambda: t", "(t, 1)", "1//2", "(sin)(t)", "sin(*t)", "...",
         "True", "1\n+2", "(t for t in t)", "1if t else 2"],
    )
    def test_rejects_malformed(self, src):
        with pytest.raises(ExpressionError):
            parse_expression(src)

    @pytest.mark.parametrize("src, position", [
        ("t + 2**3", 5), ("2^t $", 4), ("t^2^x", 4), ("2^3 + sin(t,)", 11),
        ("\t t^t^+t", 6), ("t^2 +", 5),
    ])
    def test_position_counts_a_caret_as_one_character(self, src, position):
        with pytest.raises(ExpressionError) as info:
            parse_expression(src)
        assert info.value.position == position

    def test_error_carries_position(self):
        with pytest.raises(ExpressionError) as info:
            parse_expression("1 + $")
        assert info.value.position == 4

    def test_equal_exactly_when_the_trees_are(self):
        first, *same = [parse_expression(src) for src in
                        ["t+1", " (t + 1.0)", "((t)+(1))", "t+1e0"]]
        for expr in same:
            assert expr == first and hash(expr) == hash(first)
        for src in ["1+t", "t+2", "t-1", "t+pi", "exp(t)+1", "t+1+0"]:
            assert parse_expression(src) != first, src


class TestDependsOnT:
    @pytest.mark.parametrize("src", ["0", "-2.5", "exp(1)/pi", "pow(2, 3)"])
    def test_constant(self, src):
        assert not depends_on_t(parse_expression(src))

    @pytest.mark.parametrize("src", ["t", "1/(1+t)^3", "-t", "pow(2, t)",
                                     "0*t"])
    def test_varying(self, src):
        assert depends_on_t(parse_expression(src))


class TestEvaluation:
    def test_array_broadcast(self):
        t = np.linspace(0.0, 2.0, 5)
        out = ev("t^2+1", t)
        assert out.shape == t.shape
        assert np.allclose(out, t ** 2 + 1)

    def test_constant_expression_broadcasts(self):
        t = np.zeros(4)
        out = ev("3", t)
        assert out.shape == (4,)
        assert np.all(out == 3.0)

    def test_division_by_zero_raises(self):
        with pytest.raises(EvalDomainError):
            ev("1/t", 0.0)

    def test_log_of_negative_raises(self):
        with pytest.raises(EvalDomainError):
            ev("log(t)", -1.0)

    def test_sqrt_of_negative_raises(self):
        with pytest.raises(EvalDomainError):
            ev("sqrt(t)", -4.0)

    def test_overflow_raises(self):
        with pytest.raises(EvalDomainError):
            ev("exp(t)", 1e6)

    def test_zero_to_the_zero_is_one(self):
        assert ev("t^0", 0.0) == 1.0

    @pytest.mark.parametrize("src, t", [("1/(1/t)", 0.0),
                                        ("exp(-exp(t))", 1000.0)])
    def test_absorbed_infinity_raises(self, src, t):
        # the inner inf would be absorbed into a finite 0.0 at the root
        with pytest.raises(EvalDomainError):
            ev(src, t)

    @pytest.mark.parametrize("src, t", [("t*1e308", [10.0]),
                                        ("t+1e308", [1e308]),
                                        ("-t-1e308", [1e308])])
    def test_array_overflow_raises_without_warning(self, src, t):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(EvalDomainError):
                ev(src, np.array(t))
        assert not caught

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan,
                                   np.array([0.0, math.inf]),
                                   np.array([math.nan, 1.0])])
    def test_non_finite_t_raises(self, t):
        with pytest.raises(EvalDomainError):
            ev("0*t", t)


# strategy for random expression sources
_leaf = st.one_of(
    st.just("t"),
    st.floats(
        min_value=0.125, max_value=8.0, allow_nan=False
    ).map(lambda v: f"{v!r}"),
)


def _combine(children):
    op = st.sampled_from(["+", "-", "*", "/", "^"])
    binary = op.flatmap(
        lambda o: st.tuples(children, children).map(
            lambda pair: f"({pair[0]}{o}{pair[1]})"
        )
    )
    return binary | children.map(lambda child: f"(-{child})")


def _outcome(expr, t):
    """The value of ``expr`` at t, or EvalDomainError if it raises one."""
    try:
        return evaluate_expression(expr, t)
    except EvalDomainError:
        return EvalDomainError


_source = st.recursive(_leaf, _combine, max_leaves=12)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(src=_source, t=st.floats(min_value=-3.0, max_value=3.0))
    def test_pretty_print_round_trip(self, src, t):
        expr = parse_expression(src)
        # Python's renderer: its own spacing and only the parentheses
        # its precedence needs
        python = ast.unparse(ast.parse(src.replace("^", "**"), mode="eval"))
        again = parse_expression(python.replace("**", "^"))
        assert again == expr
        assert _outcome(again, t) == _outcome(expr, t)

    @settings(max_examples=200, deadline=None)
    @given(src=_source, t=st.floats(min_value=-3.0, max_value=3.0))
    def test_matches_python_reference(self, src, t):
        expr = parse_expression(src)
        python = src.replace("t", f"({t!r})").replace("^", "**")
        try:
            reference = eval(python)  # arithmetic only
        except (ZeroDivisionError, OverflowError):
            reference = math.nan
        # Python returns a complex power of a negative base, and
        # overflows to inf in * and / without raising
        if isinstance(reference, complex) or not math.isfinite(reference):
            assert _outcome(expr, t) is EvalDomainError
        else:
            assert evaluate_expression(expr, t) == pytest.approx(
                reference, rel=1e-12, abs=1e-12
            )

    def test_thousand_random_pairs_against_reference(self):
        rng = np.random.default_rng(20260826)
        sources = [
            "t^2 - 3*t + 1",
            "exp(-t)*sin(t)",
            "1/(1+t)^3",
            "sqrt(t^2+1)",
            "cos(t)^2 + sin(t)^2",
            "pow(t, 2) + abs(t)",
        ]
        refs = [
            lambda t: t ** 2 - 3 * t + 1,
            lambda t: math.exp(-t) * math.sin(t),
            lambda t: 1 / (1 + t) ** 3,
            lambda t: math.sqrt(t ** 2 + 1),
            lambda t: math.cos(t) ** 2 + math.sin(t) ** 2,
            lambda t: t ** 2 + abs(t),
        ]
        exprs = [parse_expression(s) for s in sources]
        for _ in range(1000):
            idx = int(rng.integers(len(sources)))
            t = float(rng.uniform(0.0, 5.0))
            got = evaluate_expression(exprs[idx], t)
            assert got == pytest.approx(refs[idx](t), rel=1e-13, abs=1e-13)


# random sources over every operator and function, against an unguarded
# numpy evaluation of each subtree of Python's own tree of the source
_BINARY_REF = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
               ast.Div: np.divide, ast.Pow: np.power}
_CALL_REF = {"exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos,
             "sqrt": np.sqrt, "abs": np.abs, "pow": np.power}
_LEAVES = (0.0, 1e308, 0.5, 2.0, 3.0, 10.0, 1e-3, 700.0)
_TS = (0.0, -1.0, 0.5, 2.5, -3.0, 100.0, 710.0, 1e308, -1e308, 1e-300)


def _random_source(rng, depth):
    """A random expression's text, fully parenthesized."""
    kind = rng.integers(4) if depth > 0 else 3
    if kind == 0:
        op = str(rng.choice(["+", "-", "*", "/", "^"]))
        left = _random_source(rng, depth - 1)
        return f"({left}{op}{_random_source(rng, depth - 1)})"
    if kind == 1:
        func = str(rng.choice(list(_CALL_REF)))
        args = [_random_source(rng, depth - 1)
                for _ in range(2 if func == "pow" else 1)]
        return f"{func}({', '.join(args)})"
    if kind == 2:
        return f"(-{_random_source(rng, depth - 1)})"
    if rng.random() < 0.4:
        return "t"
    return repr(float(rng.choice(_LEAVES)))


def _reference(node, t):
    """(value, whether any subtree was non-finite) of Python's tree
    ``node``, errors ignored."""
    if isinstance(node, ast.Constant):
        return np.float64(node.value), False
    if isinstance(node, ast.Name):
        return t, False
    if isinstance(node, ast.UnaryOp):
        parts = [_reference(node.operand, t)]
        func = np.negative
    elif isinstance(node, ast.BinOp):
        parts = [_reference(node.left, t), _reference(node.right, t)]
        func = _BINARY_REF[type(node.op)]
    else:
        parts = [_reference(arg, t) for arg in node.args]
        func = _CALL_REF[node.func.id]
    with np.errstate(all="ignore"):
        value = func(*(v for v, _ in parts))
    bad = any(b for _, b in parts) or not np.all(np.isfinite(value))
    return value, bad


def test_random_trees_raise_exactly_when_a_subtree_is_not_finite():
    rng = np.random.default_rng(7)
    mismatches = []
    raised = 0
    for _ in range(12000):
        src = _random_source(rng, int(rng.integers(1, 5)))
        if rng.random() < 0.5:
            t = np.float64(rng.choice(_TS))
        else:
            t = rng.choice(_TS, size=int(rng.integers(1, 5)))
        tree = ast.parse(src.replace("^", "**"), mode="eval")
        expected, bad = _reference(tree.body, t)
        try:
            got = evaluate_expression(parse_expression(src), t)
        except EvalDomainError:
            raised += 1
            if not bad:
                mismatches.append((src, t, "raised"))
            continue
        want = np.broadcast_to(np.asarray(expected, dtype=float),
                               np.shape(t))
        if bad or np.asarray(got).tobytes() != want.tobytes():
            mismatches.append((src, t, got))
    assert not mismatches, mismatches[:5]
    # both outcomes are well represented
    assert 1000 < raised < 11000
