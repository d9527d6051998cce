"""Bivariate expression trees: parsing, printing, and plain evaluation.

The language has two variables (``x``, ``y``), decimal literals, the
operators ``+ - * / ^`` with unary minus, and the functions ``exp``,
``ln``, ``sin``, ``cos``, ``sqrt``.  Precedence is ``^`` above unary
minus above ``* /`` above ``+ -``; ``^`` is right-associative, the rest
are left-associative.  There are no named constants: write ``exp(1)``
for e.

Everything here is immutable and hashable; node equality is structural
(source spans are ignored), so ``parse(to_text(parse(t))) == parse(t)``.

Jet evaluation (values plus all partials through total order 3) lives in
:mod:`triweb.kernels`; :func:`eval_value` below is a deliberately
independent tree-walking evaluator used by validation code and tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import EvalDomainError, ParseError

FUNCTIONS = ("exp", "ln", "sin", "cos", "sqrt")

_SPAN_NONE = (-1, -1)


@dataclass(frozen=True)
class Expr:
    """Base node.  ``span`` is the (start, end) byte range in the source
    text, kept for error attribution and excluded from equality."""

    span: tuple[int, int] = field(default=_SPAN_NONE, compare=False, repr=False)

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float = 0.0


@dataclass(frozen=True)
class Var(Expr):
    # axis 0 is x, axis 1 is y
    axis: int = 0


@dataclass(frozen=True)
class Neg(Expr):
    child: Expr = None


@dataclass(frozen=True)
class BinOp(Expr):
    op: str = "+"  # one of + - * / ^
    left: Expr = None
    right: Expr = None


@dataclass(frozen=True)
class Call(Expr):
    fn: str = "exp"
    arg: Expr = None


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOK_NUM = "num"
_TOK_IDENT = "ident"
_TOK_OP = "op"
_TOK_END = "end"


def _tokenize(text: str) -> list[tuple[str, object, int, int]]:
    """Return (kind, value, start, end) quadruples.  Raises ParseError on
    any character outside the grammar."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            # optional exponent, consumed only when it fully parses as one
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            out.append((_TOK_NUM, float(text[i:j]), i, j))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append((_TOK_IDENT, text[i:j], i, j))
            i = j
            continue
        if c in "+-*/^(),":
            out.append((_TOK_OP, c, i, i + 1))
            i += 1
            continue
        raise ParseError(f"illegal character {c!r}", text, i)
    out.append((_TOK_END, None, n, n))
    return out


# ---------------------------------------------------------------------------
# Recursive-descent parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, start, _ = self.peek()
        if kind != _TOK_OP or val != op:
            raise ParseError(f"expected {op!r}", self.text, start)
        return self.next()

    def parse(self) -> Expr:
        e = self.sum()
        kind, val, start, _ = self.peek()
        if kind != _TOK_END:
            raise ParseError(f"unexpected {val!r}", self.text, start)
        return e

    def sum(self) -> Expr:
        e = self.term()
        while True:
            kind, val, _, _ = self.peek()
            if kind == _TOK_OP and val in "+-":
                self.next()
                rhs = self.term()
                e = BinOp((e.span[0], rhs.span[1]), val, e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, val, _, _ = self.peek()
            if kind == _TOK_OP and val in "*/":
                self.next()
                rhs = self.unary()
                e = BinOp((e.span[0], rhs.span[1]), val, e, rhs)
            else:
                return e

    def unary(self) -> Expr:
        kind, val, start, _ = self.peek()
        if kind == _TOK_OP and val == "-":
            self.next()
            child = self.unary()
            return Neg((start, child.span[1]), child)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, val, _, _ = self.peek()
        if kind == _TOK_OP and val == "^":
            self.next()
            # right-associative; the exponent may carry a unary minus
            exponent = self.unary()
            return BinOp((base.span[0], exponent.span[1]), "^", base, exponent)
        return base

    def atom(self) -> Expr:
        kind, val, start, end = self.next()
        if kind == _TOK_NUM:
            return Const((start, end), val)
        if kind == _TOK_IDENT:
            if val == "x":
                return Var((start, end), 0)
            if val == "y":
                return Var((start, end), 1)
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.sum()
                k2, v2, s2, _ = self.peek()
                if k2 == _TOK_OP and v2 == ",":
                    raise ParseError(
                        f"function {val!r} takes exactly one argument",
                        self.text,
                        s2,
                    )
                close = self.expect_op(")")
                return Call((start, close[3]), val, arg)
            raise ParseError(f"unknown identifier {val!r}", self.text, start)
        if kind == _TOK_OP and val == "(":
            e = self.sum()
            close = self.expect_op(")")
            return _respan(e, (start, close[3]))
        raise ParseError(
            "unexpected end of input" if kind == _TOK_END else f"unexpected {val!r}",
            self.text,
            start,
        )


def _respan(e: Expr, span: tuple[int, int]) -> Expr:
    # construction-time widening of a freshly built node; spans are
    # metadata and excluded from equality, so this never leaks
    object.__setattr__(e, "span", span)
    return e


def parse(text: str) -> Expr:
    """Parse expression text into an AST.

    Raises :class:`ParseError` carrying the byte offset of the first
    problem.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", text, 0)
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC["neg"]
    return _PREC["atom"]


def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_text(e: Expr) -> str:
    """Render an AST back to grammar-conformant text.

    Parenthesization is conservative at equal precedence, so re-parsing
    the output reproduces the tree for arbitrarily nested input, not just
    for trees the parser itself built.
    """
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return "xy"[e.axis]
    if isinstance(e, Neg):
        inner = to_text(e.child)
        if _prec(e.child) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Call):
        return f"{e.fn}({to_text(e.arg)})"
    if isinstance(e, BinOp):
        lt, rt = to_text(e.left), to_text(e.right)
        p = _PREC[e.op]
        if e.op == "^":
            if _prec(e.left) <= p:  # right-assoc: nested base needs parens
                lt = f"({lt})"
            if _prec(e.right) < p or isinstance(e.right, Neg):
                rt = f"({rt})"
            return f"{lt}^{rt}"
        if _prec(e.left) < p:
            lt = f"({lt})"
        if _prec(e.right) <= p:  # left-assoc: nested right child needs parens
            rt = f"({rt})"
        return f"{lt}{e.op}{rt}"
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# Plain (non-jet) evaluation and structural helpers
# ---------------------------------------------------------------------------


def _frag(e: Expr, src: str | None) -> str:
    if src is not None and e.span != _SPAN_NONE:
        return src[e.span[0] : e.span[1]]
    return to_text(e)


def eval_value(e: Expr, point, _src: str | None = None) -> float:
    """Evaluate by direct tree walking.

    Independent of the jet kernels on purpose: validation code compares
    the two paths against each other.
    """
    x, y = float(point[0]), float(point[1])

    def rec(node: Expr) -> float:
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Var):
            return x if node.axis == 0 else y
        if isinstance(node, Neg):
            return -rec(node.child)
        if isinstance(node, Call):
            u = rec(node.arg)
            if node.fn == "exp":
                try:
                    return math.exp(u)
                except OverflowError:
                    raise EvalDomainError(
                        "overflow to non-finite", _frag(node, _src), (x, y)
                    ) from None
            if node.fn == "ln":
                if u <= 0.0:
                    raise EvalDomainError(
                        "ln of non-positive argument", _frag(node, _src), (x, y)
                    )
                return math.log(u)
            if node.fn == "sin":
                return math.sin(u)
            if node.fn == "cos":
                return math.cos(u)
            if node.fn == "sqrt":
                if u <= 0.0:
                    raise EvalDomainError(
                        "sqrt of non-positive argument", _frag(node, _src), (x, y)
                    )
                return math.sqrt(u)
        if isinstance(node, BinOp):
            a = rec(node.left)
            if node.op == "^":
                b = rec(node.right)
                if float(b).is_integer():
                    try:
                        return float(a) ** int(b)
                    except ZeroDivisionError:
                        raise EvalDomainError(
                            "division by zero", _frag(node, _src), (x, y)
                        ) from None
                if a <= 0.0:
                    raise EvalDomainError(
                        "ln of non-positive argument", _frag(node, _src), (x, y)
                    )
                return math.exp(b * math.log(a))
            b = rec(node.right)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if node.op == "/":
                if b == 0.0:
                    raise EvalDomainError(
                        "division by zero", _frag(node, _src), (x, y)
                    )
                return a / b
        raise TypeError(f"not an Expr: {node!r}")

    v = rec(e)
    if not math.isfinite(v):
        raise EvalDomainError("overflow to non-finite", _frag(e, _src), (x, y))
    return v


def depends_on_y(e: Expr) -> bool:
    """True when variable y occurs anywhere in the tree."""
    if isinstance(e, Var):
        return e.axis == 1
    if isinstance(e, Neg):
        return depends_on_y(e.child)
    if isinstance(e, Call):
        return depends_on_y(e.arg)
    if isinstance(e, BinOp):
        return depends_on_y(e.left) or depends_on_y(e.right)
    return False


def is_var_x(e: Expr) -> bool:
    return isinstance(e, Var) and e.axis == 0


def is_var_y(e: Expr) -> bool:
    return isinstance(e, Var) and e.axis == 1

