"""Tests for the integrand expression parser and compiler.

`evaluate` and `to_source` are the tree-walking references in helpers.py:
the compiled function must match the first bit for bit, and the second
prints generated trees back to source that must reparse to the same tree.
"""

import math

import pytest
from hypothesis import example, given, strategies as st

from cpvquad.expressions import (
    BinOp,
    Expr,
    Neg,
    Num,
    ParseError,
    Var,
    _PREC_ADD,
    _python,
    _shape,
    compile_expression,
    parse,
)

from helpers import evaluate, expr_trees, to_source


def ev(source: str, x: float = 0.0) -> float:
    return evaluate(parse(source), x)


class TestPrecedenceAndSemantics:
    def test_multiplication_binds_tighter_than_addition(self):
        assert ev("2+3*x", 4.0) == 14.0

    def test_unary_minus_binds_looser_than_power(self):
        assert ev("-x^2", 3.0) == -9.0

    def test_parenthesised_negation_is_squared(self):
        assert ev("(-x)^2", 3.0) == 9.0

    def test_power_is_right_associative(self):
        assert ev("2^3^2") == 512.0
        assert ev("(2^3)^2") == 64.0

    def test_linear_polynomial(self):
        assert ev("3*x+1", 2.0) == 7.0

    def test_subtraction_is_left_associative(self):
        assert ev("10-2-1") == 7.0

    def test_division_is_left_associative(self):
        assert ev("8/4/2") == 1.0

    def test_nested_calls(self):
        assert ev("sqrt(abs(cos(44*x))^3)", 0.0) == 1.0

    def test_log_squared_matches_direct_computation(self):
        got = ev("log(1.0001-x)^2", 0.99)
        want = math.log(1.0001 - 0.99) ** 2
        assert got == want

    def test_negative_exponent(self):
        assert ev("x^-2", 2.0) == 0.25

    def test_stacked_unary_minus(self):
        assert ev("--x", 3.0) == 3.0
        assert ev("---x", 3.0) == -3.0

    def test_constants(self):
        assert ev("pi") == math.pi
        assert ev("e") == math.e
        assert ev("2*pi") == 2.0 * math.pi

    def test_whitespace_insignificant(self):
        assert ev(" 2 + 3 * x ", 4.0) == 14.0
        assert ev("sin ( x )", 0.0) == 0.0

    def test_number_formats(self):
        assert ev(".5") == 0.5
        assert ev("2.") == 2.0
        assert ev("1e3") == 1000.0
        assert ev("1.5e-2") == 0.015
        assert ev("1E+2") == 100.0

    def test_all_functions(self):
        assert ev("sin(0)") == 0.0
        assert ev("cos(0)") == 1.0
        assert ev("tan(0)") == 0.0
        assert ev("exp(0)") == 1.0
        assert ev("log(e)") == 1.0
        assert ev("sqrt(4)") == 2.0
        assert ev("abs(-3)") == 3.0


class TestDomainViolationsYieldNan:
    @pytest.mark.parametrize(
        "source,x",
        [
            ("log(-1)", 0.0),
            ("log(x)", 0.0),
            ("sqrt(-4)", 0.0),
            ("1/x", 0.0),
            ("x^-1", 0.0),
            ("exp(1000)", 0.0),
            ("(-2)^0.5", 0.0),
        ],
    )
    def test_nan_not_exception(self, source, x):
        value = ev(source, x)
        assert math.isnan(value)

    def test_nan_input_propagates(self):
        assert math.isnan(ev("sin(x)+1", math.nan))


class TestParseErrors:
    @pytest.mark.parametrize(
        "source,position",
        [
            ("2+", 2),
            ("", 0),
            ("(1+2", 4),
            ("$", 0),
            ("1+$", 2),
            ("sin", 3),
            ("sin(", 4),
            ("2**3", 2),
            ("(", 1),
            (")", 0),
            ("x)", 1),
            ("1e999", 0),
            ("x+1e400", 2),
        ],
    )
    def test_position_reported(self, source, position):
        with pytest.raises(ParseError) as excinfo:
            parse(source)
        assert excinfo.value.position == position
        assert f"(at offset {position})" in str(excinfo.value)

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError) as excinfo:
            parse("2x")
        assert excinfo.value.position == 1

    def test_unknown_function_named(self):
        with pytest.raises(ParseError, match="foo"):
            parse("foo(x)")

    def test_unknown_identifier_named(self):
        with pytest.raises(ParseError, match="y"):
            parse("y")

    def test_parse_error_is_value_error(self):
        with pytest.raises(ValueError):
            parse("2+")


class TestPrinter:
    @pytest.mark.parametrize(
        "source,printed",
        [
            ("2+3*x", "2.0+3.0*x"),
            ("-x^2", "-x^2.0"),
            ("(-x)^2", "(-x)^2.0"),
            ("2^3^2", "2.0^3.0^2.0"),
            ("(2^3)^2", "(2.0^3.0)^2.0"),
            ("x^-2", "x^-2.0"),
            ("--x", "--x"),
            ("(x+1)*(x-1)", "(x+1.0)*(x-1.0)"),
            ("x-(1-x)", "x-(1.0-x)"),
            ("x/(2*x)", "x/(2.0*x)"),
            ("-(x+1)", "-(x+1.0)"),
            ("sin(x)^2", "sin(x)^2.0"),
            ("2/x/3", "2.0/x/3.0"),
            ("pi*e", "pi*e"),
        ],
    )
    def test_minimal_parentheses(self, source, printed):
        assert to_source(parse(source)) == printed

    @pytest.mark.parametrize(
        "source",
        [
            "x",
            "2+3*x",
            "-x^2",
            "2^3^2",
            "(2^3)^2",
            "x^-2",
            "--x",
            "x-(1-x)",
            "x/(2*x)",
            "exp(-100*(x+0.4)^2)*sin(exp(-10*x))",
            "sqrt(abs(cos(44*x))^1.5)",
            "sqrt(1-x^2)*cos(100*x)",
            "log(1.0001-x)^2",
            "sin(550*x)",
            "sqrt(2+cos(200*x))",
        ],
    )
    def test_roundtrip_reparses_identically(self, source):
        tree = parse(source)
        assert parse(to_source(tree)) == tree


def _expr_trees() -> st.SearchStrategy[Expr]:
    numbers = st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
    ).map(abs)
    return expr_trees(numbers, max_leaves=12)


class TestPrinterProperty:
    @given(tree=_expr_trees())
    def test_roundtrip_on_generated_trees(self, tree):
        assert parse(to_source(tree)) == tree


# the x values every compiled function is compared at: signed zeros, domain
# errors (log(-3), sqrt(-0.5)) and overflow (exp(1e300)) among them
_XS = (0.0, -0.0, 0.5, -0.5, -3.0, 1e300)

# letters of every name in the grammar, digits and operators
_ALPHABET = "0123456789.eE+-*/^() xpisncotalgqrb"
_TOKENS = ["x", "pi", "e", "2", ".5", "1e999", "+", "-", "*", "/", "^",
           "(", ")", "sin(", "log(", "sqrt(", "abs("]


def _same_float(a: float, b: float) -> bool:
    """Equal bit for bit, or both NaN."""
    return (math.isnan(a) and math.isnan(b)) or a.hex() == b.hex()


class TestCompileExpression:
    def test_returns_callable(self):
        f = compile_expression("x^2+1")
        assert f(0.0) == 1.0
        assert f(3.0) == 10.0

    @given(tree=_expr_trees())
    @example(tree=parse("exp(-100*(x+0.4)^2)*sin(exp(-10*x))"))
    @example(tree=parse("-0*x - -(x-(1-x))/x/-x^-x^2"))
    # literals that Python's compiler would fold, divide by zero or overflow
    # when written into the source; bound as parameters they must compute
    # the same bits
    @example(tree=parse("2*3*x"))
    @example(tree=parse("-0*x"))
    @example(tree=parse("1/0+x"))
    @example(tree=parse("0/0*x"))
    @example(tree=parse("2^1024*x"))
    @example(tree=parse("x-0"))
    @example(tree=parse("-(0)"))
    def test_closure_matches_evaluate(self, tree):
        f = compile_expression(to_source(tree))
        for x in _XS:
            assert _same_float(f(x), evaluate(tree, x)), x

    @given(source=st.one_of(
        st.text(alphabet=_ALPHABET, max_size=30),
        st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join),
    ))
    def test_any_string_compiles_or_raises_parse_error(self, source):
        try:
            f = compile_expression(source)
        except ParseError:
            return
        tree = parse(source)
        for x in _XS:
            assert _same_float(f(x), evaluate(tree, x)), x

    def test_propagates_parse_error(self):
        with pytest.raises(ParseError):
            compile_expression("2+")

    @pytest.mark.parametrize(
        "source",
        ["+".join(["x"] * 900), "sin(" * 150 + "x" + ")" * 150,
         "x-(" * 150 + "x" + ")" * 150,
         # one parameter per literal: 1992 of them, and 900 factors whose
         # product Python's compiler would have folded
         "+".join(["1"] * 1992), "*".join(["1.5"] * 900)],
        ids=["sum900", "calls150", "parentheses150", "ones1992",
             "factors900"],
    )
    def test_deep_but_supported_nesting_matches_evaluate(self, source):
        f = compile_expression(source)
        tree = parse(source)
        for x in _XS:
            assert _same_float(f(x), evaluate(tree, x)), x

    # the first five are twice the depth at which the tree-walking parser or
    # evaluator ran out of stack: 996 terms, 197 parentheses or calls, 988
    # minus signs and 495 '^' operators; the last parses, but its 299
    # nested calls of math.pow exceed the 200 nested parentheses Python's
    # tokenizer accepts
    @pytest.mark.parametrize(
        "source,value",
        [
            ("+".join(["x"] * 1992), 996.0),
            ("(" * 394 + "x" + ")" * 394, 0.5),
            ("sin(" * 394 + "x" + ")" * 394, None),
            ("-" * 1976 + "x", 0.5),
            ("^".join(["x"] * 991), None),
            ("^".join(["x"] * 300), None),
        ],
        ids=["sum1992", "parentheses394", "calls394", "minus1976", "power990",
             "power299"],
    )
    def test_too_deep_compiles_or_raises_parse_error(self, source, value):
        try:
            f = compile_expression(source)
        except ParseError as exc:
            assert "nested too deeply" in str(exc)
            return
        result = f(0.5)
        assert isinstance(result, float)
        if value is not None:
            assert result == value


class TestShapeCache:
    """One function is compiled per shape; each expression binds its own
    numbers to it."""

    def test_same_shape_shares_one_code_object(self):
        double = compile_expression("sin(2*x)")
        triple = compile_expression("sin(3*x)")
        assert double.__code__ is triple.__code__
        assert double(0.5) == math.sin(1.0)
        assert triple(0.5) == math.sin(1.5)

    def test_a_parameter_sweep_compiles_once(self):
        _shape.cache_clear()
        for i in range(100):
            source = f"sin({0.37 * i + 0.5!r}*x)"
            f = compile_expression(source)
            tree = parse(source)
            for x in _XS:
                assert _same_float(f(x), evaluate(tree, x)), (source, x)
        assert _shape.cache_info().misses == 1

    def test_literals_are_numbered_in_source_order(self):
        literals = []
        body = _python(parse("1-2*(3+x)/4^5"), _PREC_ADD, literals)
        assert body == "c0 - c1 * (c2 + x) / _pow(c3, c4)"
        assert literals == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_too_deep_raises_every_time(self):
        # lru_cache keeps no exception, so a second call fails as the first
        source = "^".join(["x"] * 300)
        for _ in range(2):
            with pytest.raises(ParseError, match="nested too deeply"):
                compile_expression(source)


def _same_tree(left, right) -> bool:
    """Structural equality walked with an explicit stack.

    Tuple equality, which the nodes inherit, recurses once per tree level
    and runs out of stack on a tree of a thousand or more levels.
    """
    stack = [(left, right)]
    while stack:
        p, q = stack.pop()
        if type(p) is not type(q):
            return False
        for name in p._fields:
            u, v = getattr(p, name), getattr(q, name)
            if hasattr(u, "_fields"):
                stack.append((u, v))
            elif u != v:
                return False
    return True


class TestLongChains:
    """evaluate and to_source handle every tree the compiler handles."""

    @pytest.mark.parametrize(
        "source",
        ["+".join(["x"] * 1992), "-".join(["x"] * 1992),
         "*".join(["x"] * 1992), "-" * 900 + "x"],
        ids=["sum1992", "difference1992", "product1992", "minus900"],
    )
    def test_evaluate_and_print_match_compiled(self, source):
        tree = parse(source)
        f = compile_expression(source)
        for x in _XS:
            assert _same_float(evaluate(tree, x), f(x)), x
        assert _same_tree(parse(to_source(tree)), tree)

    def test_sum1992_value(self):
        source = "+".join(["x"] * 1992)
        tree = parse(source)
        assert evaluate(tree, 0.5) == 996.0
        assert evaluate(tree, 0.5).hex() == compile_expression(source)(0.5).hex()
        assert to_source(tree) == source


class TestNodeValidation:
    """The parser is the one validator: the nodes themselves check nothing."""

    def test_parser_builds_only_nonnegative_finite_literals(self):
        assert parse("-1.5") == Neg(Num(1.5))
        assert parse("x^-2") == BinOp("^", Var(), Neg(Num(2.0)))
        with pytest.raises(ParseError, match="out of range"):
            parse("1e999")

    def test_trees_are_comparable(self):
        assert parse("x+1") == parse("x + 1")
        assert parse("x+1") != parse("1+x")
