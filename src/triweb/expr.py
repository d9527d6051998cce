"""Bivariate expression trees: parsing, printing, and plain evaluation.

The language is ASCII: two variables (``x``, ``y``), finite decimal
literals, the operators ``+ - * / ^`` with unary minus, and the functions
``exp``, ``ln``, ``sin``, ``cos``, ``sqrt``; whitespace is any Unicode
space.  Precedence is ``^`` above unary minus above ``* /`` above
``+ -``; ``^`` is right-associative, the rest are left-associative.
There are no named constants: write ``exp(1)`` for e.  One regex scans
the tokens; one precedence table, ``_PREC``, drives both the parser's
binary loop and the printer's parentheses.  Any text either parses or
raises :class:`ParseError` at the offset of its first problem.

Everything here is immutable and hashable; node equality is structural
(source spans are ignored), so ``parse(to_text(parse(t))) == parse(t)``.

Jet evaluation (values plus all partials through total order 3) lives in
:mod:`triweb.kernels`; :func:`eval_value` below is a deliberately
independent tree-walking evaluator used by validation code and tests.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .errors import ConfigError, EvalDomainError, ParseError

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
# Parser: one token regex, precedence climbing over the printer's table
# ---------------------------------------------------------------------------

# Binding strength of each node kind, read by the parser and the printer
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}

# ASCII numbers, names and operators; any other non-space character is
# illegal.  Whitespace is Unicode ``\s``, the same set as ``str.isspace``.
_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^(),])|(?P<bad>\S))"
)


class _Parser:
    """Tokens are (kind, value, start, end): kind is "num" (value the float),
    "name", "end", or the operator character itself.  ``tok`` is the
    lookahead."""

    def __init__(self, text: str):
        self.text = text
        toks = []
        for m in _TOKEN.finditer(text):
            kind, lexeme = m.lastgroup, m[m.lastgroup]
            if kind == "bad":
                raise ParseError(f"illegal character {lexeme!r}", text, m.start(kind))
            value = float(lexeme) if kind == "num" else lexeme
            toks.append((lexeme if kind == "op" else kind, value, m.start(kind), m.end()))
        toks.append(("end", None, len(text), len(text)))
        self.rest = iter(toks)
        self.tok = next(self.rest)

    def shift(self, op: str | None = None):
        """Consume and return the lookahead, which must be ``op`` when given;
        past the end the lookahead stays the end token."""
        tok = self.tok
        if op is not None and tok[0] != op:
            raise ParseError(f"expected {op!r}", self.text, tok[2])
        self.tok = next(self.rest, tok)
        return tok

    def binary(self, floor: int = 1) -> Expr:
        """Left-associative ``+ - * /`` chains whose operators bind at least
        as tightly as ``floor``."""
        e = self.unary()
        while self.tok[0] in ("+", "-", "*", "/") and _PREC[self.tok[0]] >= floor:
            op = self.shift()[0]
            rhs = self.binary(_PREC[op] + 1)
            e = BinOp((e.span[0], rhs.span[1]), op, e, rhs)
        return e

    def unary(self) -> Expr:
        if self.tok[0] == "-":
            start = self.shift()[2]
            child = self.unary()
            return Neg((start, child.span[1]), child)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.tok[0] == "^":
            self.shift()
            # right-associative; the exponent may carry a unary minus
            exponent = self.unary()
            return BinOp((base.span[0], exponent.span[1]), "^", base, exponent)
        return base

    def atom(self) -> Expr:
        kind, val, start, end = self.shift()
        if kind == "num":
            if not math.isfinite(val):
                raise ParseError(f"literal {self.text[start:end]!r} overflows", self.text, start)
            return Const((start, end), val)
        if kind == "name":
            if val in ("x", "y"):
                return Var((start, end), "xy".index(val))
            if val not in FUNCTIONS:
                raise ParseError(f"unknown identifier {val!r}", self.text, start)
            self.shift("(")
            arg = self.binary()
            if self.tok[0] == ",":
                raise ParseError(
                    f"function {val!r} takes exactly one argument", self.text, self.tok[2]
                )
            return Call((start, self.shift(")")[3]), val, arg)
        if kind == "(":
            # widen the fresh node over its parentheses; spans are excluded
            # from equality, so this never leaks
            e = self.binary()
            object.__setattr__(e, "span", (start, self.shift(")")[3]))
            return e
        raise ParseError(
            "unexpected end of input" if kind == "end" else f"unexpected {val!r}",
            self.text,
            start,
        )


def parse(text: str) -> Expr:
    """Parse expression text into an AST.

    Raises :class:`ParseError` carrying the byte offset of the first
    problem.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", text, 0)
    p = _Parser(text)
    try:
        e = p.binary()
    except RecursionError:
        raise ParseError("expression nests too deeply", text, p.tok[2]) from None
    if p.tok[0] != "end":
        raise ParseError(f"unexpected {p.tok[1]!r}", text, p.tok[2])
    return e


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


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
    return _printer()(e)


def _children(e: Expr) -> tuple:
    if isinstance(e, Neg):
        return (e.child,)
    if isinstance(e, Call):
        return (e.arg,)
    if isinstance(e, BinOp):
        return (e.left, e.right)
    return ()


def _printer():
    """A function printing a node as :func:`to_text` does, without recursion.
    It keeps the text of every node it printed, by id, so the caller's tree
    must stay alive; each node is printed once, from its children's texts."""
    printed: dict[int, str] = {}

    def text(e: Expr) -> str:
        todo = [e]
        while todo:
            node = todo.pop()
            if id(node) in printed:
                continue
            kids = [c for c in _children(node) if id(c) not in printed]
            if kids:
                todo += [node, *kids]
            else:
                printed[id(node)] = _render(node, lambda c: printed[id(c)])
        return printed[id(e)]

    return text


def _render(e: Expr, text) -> str:
    """The text of ``e`` as :func:`to_text` prints it, ``text`` giving its
    children's."""
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return "xy"[e.axis]
    if isinstance(e, Neg):
        inner = text(e.child)
        if _prec(e.child) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Call):
        return f"{e.fn}({text(e.arg)})"
    if isinstance(e, BinOp):
        lt, rt = text(e.left), text(e.right)
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


def fragments(src: str | None):
    """A function from a node of a tree parsed from ``src`` (None: built
    without text) to its source fragment: its span of ``src``, or else its
    :func:`to_text` form.  It prints each node at most once, from its
    children's texts, so naming every node of a tree takes linear work."""
    text = _printer()

    def frag(e: Expr) -> str:
        if src is not None and e.span != _SPAN_NONE:
            return src[e.span[0] : e.span[1]]
        return text(e)

    return frag


def eval_value(e: Expr, point) -> float:
    """Evaluate by direct tree walking.

    Independent of the jet kernels on purpose: validation code compares
    the two paths against each other.  A tree too deep to walk raises
    :class:`ConfigError`.
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
                        "overflow to non-finite", to_text(node), (x, y)
                    ) from None
            if node.fn == "ln":
                if u <= 0.0:
                    raise EvalDomainError(
                        "ln of non-positive argument", to_text(node), (x, y)
                    )
                return math.log(u)
            if node.fn in ("sin", "cos"):
                if math.isinf(u):  # an overflowed argument, which math.sin rejects
                    raise EvalDomainError("overflow to non-finite", to_text(node), (x, y))
                return math.sin(u) if node.fn == "sin" else math.cos(u)
            if node.fn == "sqrt":
                if u <= 0.0:
                    raise EvalDomainError(
                        "sqrt of non-positive argument", to_text(node), (x, y)
                    )
                return math.sqrt(u)
        if isinstance(node, BinOp):
            a = rec(node.left)
            if node.op == "^":
                b = rec(node.right)
                try:
                    if float(b).is_integer():
                        return float(a) ** int(b)
                    if a <= 0.0:
                        raise EvalDomainError(
                            "ln of non-positive argument", to_text(node), (x, y)
                        )
                    return math.exp(b * math.log(a))
                except ZeroDivisionError:
                    raise EvalDomainError(
                        "division by zero", to_text(node), (x, y)
                    ) from None
                except OverflowError:
                    raise EvalDomainError(
                        "overflow to non-finite", to_text(node), (x, y)
                    ) from None
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
                        "division by zero", to_text(node), (x, y)
                    )
                return a / b
        raise TypeError(f"not an Expr: {node!r}")

    try:
        v = rec(e)
    except RecursionError:
        raise ConfigError("expression nests too deeply") from None
    if not math.isfinite(v):
        raise EvalDomainError("overflow to non-finite", to_text(e), (x, y))
    return v


def depends_on_y(e: Expr) -> bool:
    """True when variable y occurs anywhere in the tree."""
    todo = [e]
    while todo:
        node = todo.pop()
        if is_var_y(node):
            return True
        todo += _children(node)
    return False


def is_var_x(e: Expr) -> bool:
    return isinstance(e, Var) and e.axis == 0


def is_var_y(e: Expr) -> bool:
    return isinstance(e, Var) and e.axis == 1

