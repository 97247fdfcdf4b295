"""Tiny expression language for integrands given on the command line.

Grammar (whitespace insignificant, no implicit multiplication):

    expression : term (('+' | '-') term)*
    term       : factor (('*' | '/') factor)*
    factor     : '-' factor | power
    power      : primary ('^' factor)?
    primary    : NUMBER | 'x' | CONST | FUNC '(' expression ')'
               | '(' expression ')'

'^' is right-associative and binds tighter than unary minus, so -x^2 is
-(x^2) and 2^3^2 is 2^(3^2).  Functions are sin, cos, tan, exp, log, sqrt,
abs; constants are pi and e; the only variable is x.  Every identifier is
resolved at parse time, so an Expr that `parse` returns never fails to
evaluate: domain violations (log of a nonpositive value, even roots of
negative values, division by zero) evaluate to NaN, which the quadrature
engine then reports as a nonfinite integrand at that point.

The parser is the one validator.  It refuses a literal that is not finite,
the grammar has no signed literal, every name is looked up before its node
is built, and operators come from fixed sets; so the tree's nodes are plain
records that check nothing.  The tree is internal and built only by
`parse`: the module exports `compile_expression` and `ParseError`.

`compile_expression` turns the validated tree, never the source text, into
the source of one Python function per shape, the expression with its
numbers taken out: each literal is written as a parameter c0, c1, ... in
the order the tree is walked, '^' as a call to math.pow, and the tree's
association is kept with explicit parentheses where Python's precedence
would differ.  The function for a shape is compiled once per process and
cached, and each expression binds its own numbers to it, so sin(2*x) and
sin(3*x) compiled in one process share one compiled function.  A bound
number takes part in the same floating-point operations, in the same
order, as the literal it replaces would have, folded by Python's compiler
or not.  The compiled function is the package's only evaluator; the tests
check it bit for bit, NaN and signed zero included, against a tree-walking
reference that performs the same floating-point operations in the same
order.  An expression nested deeper than the parser or Python's compiler
can follow (hundreds of parenthesis levels, unary minus signs or '^'
operators, or thousands of terms) is refused with ParseError "expression
nested too deeply".
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from types import FunctionType
from typing import Callable, NamedTuple, Union

__all__ = ["ParseError", "compile_expression"]


class ParseError(ValueError):
    """Syntax or resolution error, carrying the source offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class Num(NamedTuple):
    """Nonnegative finite literal (minus signs parse as Neg)."""

    value: float


class Var(NamedTuple):
    pass


class Const(NamedTuple):
    name: str


class Neg(NamedTuple):
    operand: "Expr"


class BinOp(NamedTuple):
    op: str
    left: "Expr"
    right: "Expr"


class Call(NamedTuple):
    name: str
    arg: "Expr"


Expr = Union[Num, Var, Const, Neg, BinOp, Call]

_FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": math.fabs,
}

_CONSTANTS: dict[str, float] = {
    "pi": math.pi,
    "e": math.e,
}

#: A number literal, also the shape of a number flag on the command line
_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"

_TOKEN_RE = re.compile(
    rf"(?P<number>{_NUMBER})"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        if source[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise ParseError(f"unexpected character {source[pos]!r}", pos)
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), pos))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.index = 0

    def _peek(self) -> tuple[str, str, int]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return ("end", "", len(self.source))

    def _advance(self) -> tuple[str, str, int]:
        token = self._peek()
        self.index += 1
        return token

    def _require_op(self, text: str) -> None:
        kind, value, pos = self._peek()
        if kind != "op" or value != text:
            raise ParseError(f"expected {text!r}", pos)
        self.index += 1

    def parse(self) -> Expr:
        expr = self.expression()
        kind, value, pos = self._peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r} after expression", pos)
        return expr

    def expression(self) -> Expr:
        node = self.term()
        while True:
            kind, value, _ = self._peek()
            if kind == "op" and value in ("+", "-"):
                self.index += 1
                node = BinOp(value, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, value, _ = self._peek()
            if kind == "op" and value in ("*", "/"):
                self.index += 1
                node = BinOp(value, node, self.factor())
            else:
                return node

    def factor(self) -> Expr:
        kind, value, _ = self._peek()
        if kind == "op" and value == "-":
            self.index += 1
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.primary()
        kind, value, _ = self._peek()
        if kind == "op" and value == "^":
            self.index += 1
            return BinOp("^", base, self.factor())
        return base

    def primary(self) -> Expr:
        kind, value, pos = self._advance()
        if kind == "number":
            number = float(value)
            if not math.isfinite(number):
                raise ParseError(f"number {value!r} out of range", pos)
            return Num(number)
        if kind == "name":
            if value == "x":
                return Var()
            if value in _CONSTANTS:
                return Const(value)
            if value in _FUNCTIONS:
                self._require_op("(")
                arg = self.expression()
                self._require_op(")")
                return Call(value, arg)
            next_kind, next_value, _ = self._peek()
            if next_kind == "op" and next_value == "(":
                raise ParseError(f"unknown function {value!r}", pos)
            raise ParseError(f"unknown identifier {value!r}", pos)
        if kind == "op" and value == "(":
            expr = self.expression()
            self._require_op(")")
            return expr
        if kind == "end":
            raise ParseError("unexpected end of expression", pos)
        raise ParseError(f"unexpected {value!r}", pos)


def parse(source: str) -> Expr:
    """Parse `source` into an Expr, or raise ParseError with the offset."""
    parser = _Parser(source)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError(
            "expression nested too deeply", parser._peek()[2]
        ) from None


# binding strength of each printable position; higher binds tighter
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5

_OP_PREC = {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL,
            "^": _PREC_POW}


def _node_prec(expr: Expr) -> int:
    if isinstance(expr, BinOp):
        return _OP_PREC[expr.op]
    if isinstance(expr, Neg):
        return _PREC_NEG
    return _PREC_ATOM


# The generated function sees only these names.  '^' is math.pow, never
# '**', which would return a complex number for (-8)**(1/3).
_NAMESPACE = {**_FUNCTIONS, **_CONSTANTS, "_pow": math.pow, "_nan": math.nan}

_FUNCTION_TEMPLATE = """\
def f(x{params}):
    try:
        return {body}
    except (ValueError, ZeroDivisionError, OverflowError):
        return _nan
"""


def _python(expr: Expr, min_prec: int, literals: list[float]) -> str:
    """Python source computing expr, parenthesized below `min_prec`.

    Each literal is appended to `literals` and written as the parameter
    that will hold it, c0 for the first one walked, so the source depends
    on the expression's shape alone; names come from the validated tree,
    so no text of the source string reaches the result.  Chains of one
    operator class and runs of unary minus are walked in a loop, not by
    recursion, so a long sum costs no stack.
    """
    if isinstance(expr, Num):
        literals.append(expr.value)
        return f"c{len(literals) - 1}"
    if isinstance(expr, Var):
        return "x"
    if isinstance(expr, Const):
        return expr.name
    if isinstance(expr, Call):
        return f"{expr.name}({_python(expr.arg, _PREC_ADD, literals)})"
    if isinstance(expr, BinOp) and expr.op == "^":
        left = _python(expr.left, _PREC_ADD, literals)
        right = _python(expr.right, _PREC_ADD, literals)
        return f"_pow({left}, {right})"
    prec = _node_prec(expr)
    if isinstance(expr, Neg):
        signs = 0
        while isinstance(expr, Neg):
            signs += 1
            expr = expr.operand
        text = "-" * signs + _python(expr, _PREC_NEG, literals)
    else:
        # left-associative: the left spine needs no parentheses, a right
        # operand of the same class does.  The spine is collected first so
        # that the right operands are walked, and numbered, left to right
        tail = []
        while isinstance(expr, BinOp) and _OP_PREC[expr.op] == prec:
            tail.append(expr)
            expr = expr.left
        text = _python(expr, prec, literals) + "".join(
            f" {node.op} {_python(node.right, prec + 1, literals)}"
            for node in reversed(tail)
        )
    if prec < min_prec:
        return f"({text})"
    return text


@lru_cache(maxsize=256)
def _shape(body: str, count: int) -> Callable[..., float]:
    """``f(x, c0, ..., c<count-1>)`` computing `body`, compiled once per
    body.

    `compile_expression` binds the numbers as the defaults of c0, ...,
    so a body seen once costs one compilation of one function, as a
    function with its numbers written in would; a factory of closures
    would compile two.  Raises RecursionError or SyntaxError for a body
    nested too deeply for Python's compiler; lru_cache keeps no exception,
    so it raises each time.
    """
    source = _FUNCTION_TEMPLATE.format(
        params="".join(f", c{i}" for i in range(count)), body=body
    )
    namespace = dict(_NAMESPACE)
    exec(compile(source, "<expression>", "exec"), namespace)
    return namespace["f"]


def compile_expression(source: str) -> Callable[[float], float]:
    """Parse once and return a plain float function of x.

    The function runs the compiled code of the expression's shape, with
    the expression's numbers bound as the defaults of its parameters after
    x, and returns NaN where the expression leaves the domain of one of
    its operations.  Raises ParseError for a syntax error or an expression
    nested too deeply to compile.
    """
    expr = parse(source)
    literals: list[float] = []
    try:
        shape = _shape(_python(expr, _PREC_ADD, literals), len(literals))
    except (RecursionError, SyntaxError):
        # RecursionError from _python or Python's compiler, SyntaxError
        # from its limit on nested parentheses
        raise ParseError("expression nested too deeply", 0) from None
    return FunctionType(shape.__code__, shape.__globals__, "f",
                        tuple(literals))
