"""Jets of expressions, compiled to straight-line Python.

:func:`compile_expr` walks an :class:`~triweb.expr.Expr` and emits
Taylor-mode automatic differentiation as straight-line code for the jet
slots of :mod:`triweb.jets` (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008, ch. 13), pruning coefficients known to
be zero.  It emits two orders: order 3 (all ten slots) and order 1 (value
and gradient, the first three slots, computed by the same expressions so
they agree bit for bit).  Batches run on numpy arrays at either order
(:func:`jet_coeffs_many`); single points run order 1 on Python floats,
and order 3 as a one-row batch (:func:`jet_coeffs`), so each expression
compiles three functions.  :func:`inline_source` pastes the order-1 body
of one or more programs into caller code at its own points, and
:func:`bind_inline` binds the result.  All call numpy's elementary
functions, so a batch row equals the single-point result bit for bit.
Every op checks its domain and the finiteness of the slots it computes:
a point raises :class:`EvalDomainError` naming the op's source fragment,
a batch records the first failing op per point.  Programs are immutable
and all functions pure, so concurrent use needs no coordination.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .errors import ConfigError, EvalDomainError
from .expr import BinOp, Call, Const, Expr, Neg, Var, fragments, parse
from .jets import JET_ORDERS, JET_SIZE, PRODUCT_ROWS

# error codes of jet_coeffs_many
ERR_OK = 0
ERR_DIV_ZERO = 1
ERR_LN_DOMAIN = 2
ERR_SQRT_DOMAIN = 3
ERR_NOT_FINITE = 4

_ERR_TEXT = {
    ERR_DIV_ZERO: "division by zero",
    ERR_LN_DOMAIN: "ln of non-positive argument",
    ERR_SQRT_DOMAIN: "sqrt of non-positive argument",
    ERR_NOT_FINITE: "overflow to non-finite",
}

_MAX_INT_EXPONENT = 1000
_CHUNK = 16384  # points per batch pass: temporaries stay in cache, grid reports in bounded memory

_ORDER = tuple(i + j for i, j in JET_ORDERS)
_ZERO = (0.0,) * JET_SIZE

# g(v), g'(v), g''(v)/2 and g'''(v)/6 as g0..g3, and the domain test on v
_UNARY = {
    "exp": ("g0 = exp(v); g1 = g0; g2 = 0.5*g0; g3 = g0/6.0", None),
    "ln": ("g0 = log(v); g1 = 1.0/v; r = g1*g1; g2 = -0.5*r; g3 = r*g1/3.0", ERR_LN_DOMAIN),
    "sqrt": ("g0 = sqrt(v); g1 = 0.5/g0; g2 = -0.25*g1/v; g3 = -0.5*g2/v", ERR_SQRT_DOMAIN),
    "sin": ("g0 = sin(v); g1 = cos(v); g2 = -0.5*g0; g3 = -g1/6.0", None),
    "cos": ("g0 = cos(v); s = sin(v); g1 = -s; g2 = -0.5*g0; g3 = s/6.0", None),
    "recip": ("g0 = 1.0/v; r = g0*g0; g1 = -r; g2 = r*g0; g3 = -r*r", ERR_DIV_ZERO),
}
_LOCAL = re.compile(r"\b(v|g[0-3]|r|s)\b")
_TEMP = re.compile(r"t\d+")
_JET_NAME = re.compile(r"\b(x|y|t\d+|fail)\b")


def _lit(v: float) -> str:
    r = repr(float(v))
    return f"({r})" if r.startswith("-") else r


def _int_exponent(e: Expr):
    """Literal integer exponent of a power node, or None."""
    sign, e = (-1, e.child) if isinstance(e, Neg) else (1, e)
    if isinstance(e, Const) and float(e.value).is_integer():
        return sign * int(e.value)
    return None


class _Emitter:
    """The source of one expression's jet code through order ``order`` (1 or
    3).  A jet is a tuple of the slots of total order at most ``order``, each
    a float known at generation time or the name of a value.  Products
    follow the Leibniz table truncated at ``order``; unary functions and
    reciprocals are composed by Horner in du = u - u0 of the Taylor
    polynomial g(u0) + g'(u0) du + g''(u0)/2 du^2 + g'''(u0)/6 du^3, cut
    after du^order.  A check is kept as (condition, code, op index) until
    :meth:`render` writes it for one binding.  The generated source holds
    only generated names and float literals."""

    def __init__(self, frag: Callable, order: int):
        self.frag = frag
        self.order = order
        self.size = sum(1 for o in _ORDER if o <= order)
        self.lines: list = []
        self.frags: list[str] = []
        self.finite_names: set[str] = set()  # names a check has passed

    def let(self, code: str) -> str:
        name = f"t{len(self.lines) + 1}"
        self.lines.append(f"    {name} = {code}")
        return name

    def check(self, cond: str, code: int, k: int) -> None:
        self.lines.append((cond, code, k))

    def render(self, result, hook: bool) -> str:
        """Source of the jet function.  With ``hook`` it takes a third
        argument and calls ``check(bad, code, k)`` for every check;
        otherwise each check is inline and calls ``fail(code, k, x, y)``."""
        out = ["def jet(x, y, check):" if hook else "def jet(x, y):"]
        for line in self.lines:
            if isinstance(line, tuple):
                cond, code, k = line
                if hook:
                    line = f"    check({cond}, {code}, {k})"
                else:
                    line = f"    if {cond}: fail({code}, {k}, x, y)"
            out.append(line)
        slots = ", ".join(v if isinstance(v, str) else _lit(v) for v in result)
        out.append(f"    return ({slots})")
        return "\n".join(out) + "\n"

    def op(self, node: Expr) -> int:
        self.frags.append(self.frag(node))
        return len(self.frags) - 1

    def domain(self, v, code: int, k: int):
        """Check an op's argument; a literal that fails goes on as nan."""
        test = "==" if code == ERR_DIV_ZERO else "<="
        arg = v if isinstance(v, str) else _lit(v)
        self.check(f"{arg} {test} 0.0", code, k)
        failed = not isinstance(v, str) and (v == 0.0 if test == "==" else v <= 0.0)
        return math.nan if failed else v

    def finite(self, jet, k: int):
        # 0*v is a zero for finite v and nan otherwise, and never overflows
        if not all(math.isfinite(v) for v in jet if not isinstance(v, str)):
            self.check("True", ERR_NOT_FINITE, k)
        names = dict.fromkeys(
            v for v in jet if isinstance(v, str) and v not in self.finite_names
        )
        self.finite_names.update(names)
        if names:
            zeros = " + ".join(f"0.0*{v}" for v in names)
            self.check(f"{zeros} != 0.0", ERR_NOT_FINITE, k)

    def total(self, terms):
        """Slot holding the sum of (coefficient, factor names) terms."""
        lit = sum(c for c, fs in terms if not fs)
        live = [(c, fs) for c, fs in terms if fs and c != 0.0]
        if not live:
            return lit
        if lit == 0.0 and len(live) == 1 and live[0][0] == 1.0 and len(live[0][1]) == 1:
            return live[0][1][0]
        signs = {1.0: "", -1.0: "-"}
        code = " + ".join(signs.get(c, _lit(c) + "*") + "*".join(fs) for c, fs in live)
        return self.let(code + (f" + {_lit(lit)}" if lit != 0.0 else ""))

    @staticmethod
    def term(v, c: float = 1.0):
        return (c, [v]) if isinstance(v, str) else (c * v, [])

    def constant(self, v) -> tuple:
        return (v,) + _ZERO[1 : self.size]

    def mul(self, a, b, upto: int | None = None):
        """Truncated product; slots above order ``upto`` (by default the
        emitter's order) are left zero."""
        upto = self.order if upto is None else upto
        out = []
        for k in range(self.size):
            terms = []
            for i, j, w in PRODUCT_ROWS[k] if _ORDER[k] <= upto else ():
                ci, fi = self.term(a[i], w)
                cj, fj = self.term(b[j], ci)
                terms.append((cj, fi + fj))
            out.append(self.total(terms))
        return tuple(out)

    def unary(self, fn: str, u, k: int):
        recipe, code = _UNARY[fn]
        v = self.domain(u[0], code, k) if code else u[0]
        stmts = [stmt.split(" = ") for stmt in recipe.split("; ")]
        need = {f"g{m}" for m in range(self.order + 1)}
        for name, expr in reversed(stmts):  # skip lines only g2, g3 use
            if name in need:
                need.update(_LOCAL.findall(expr))
        local = {"v": v if isinstance(v, str) else _lit(v)}
        for name, expr in stmts:
            if name in need:
                expr = _LOCAL.sub(lambda m: local[m.group()], expr)
                local[name] = expr if _TEMP.fullmatch(expr) else self.let(expr)
        du = (0.0,) + tuple(u[1:])
        acc = self.constant(local[f"g{self.order}"])
        for m in range(self.order - 1, -1, -1):
            acc = (local[f"g{m}"],) + self.mul(acc, du, self.order - m)[1:]
        return acc

    def power(self, u, n: int, k: int):
        if abs(n) > _MAX_INT_EXPONENT:
            raise ConfigError(
                f"integer exponent {n} in {self.frags[k]!r} exceeds the supported "
                f"magnitude {_MAX_INT_EXPONENT}"
            )
        m, base, acc = abs(n), u, self.constant(1.0)
        while m:
            if m & 1:
                acc = self.mul(acc, base)
            m >>= 1
            base = self.mul(base, base) if m else base
        return self.unary("recip", acc, k) if n < 0 else acc

    def jet(self, node: Expr):
        """Emit the ops of ``node`` in postorder; returns its jet."""
        if isinstance(node, Neg):
            a = self.jet(node.child)
            self.op(node)  # negation keeps finite coefficients finite
            return tuple(self.total([self.term(v, -1.0)]) for v in a)
        if isinstance(node, Const):
            k, j = self.op(node), self.constant(float(node.value))
        elif isinstance(node, Var):
            k, v = self.op(node), "xy"[node.axis]
            j = ((v, 1.0, 0.0) if node.axis == 0 else (v, 0.0, 1.0)) + _ZERO[3 : self.size]
        elif isinstance(node, Call):
            a = self.jet(node.arg)
            k = self.op(node)
            j = self.unary(node.fn, a, k)
        elif isinstance(node, BinOp) and node.op == "^":
            n = _int_exponent(node.right)
            a = self.jet(node.left)
            k = self.op(node)
            if n is not None:
                j = self.power(a, n, k)
            else:
                # a^b -> exp(b*ln(a)); every op is blamed on the power node
                j = self.unary("ln", a, k)
                self.finite(j, k)
                j = self.mul(j, self.jet(node.right))
                k = self.op(node)
                self.finite(j, k)
                k = self.op(node)
                j = self.unary("exp", j, k)
        elif isinstance(node, BinOp):
            a, b = self.jet(node.left), self.jet(node.right)
            k = self.op(node)
            if node.op in "+-":
                sign = 1.0 if node.op == "+" else -1.0
                j = tuple(self.total([self.term(p), self.term(q, sign)]) for p, q in zip(a, b))
            else:
                j = self.mul(a, b if node.op == "*" else self.unary("recip", b, k))
        else:
            raise TypeError(f"not an Expr: {node!r}")
        self.finite(j, k)
        return j


def _exp_point(v: float) -> float:
    if v > 709.0:  # near overflow, where numpy would warn
        with np.errstate(over="ignore"):
            return float(np.exp(v))
    return float(np.exp(v))


# numpy's functions in both bindings, so batch and point agree bit for bit
_POINT_NAMES = {
    fn: (lambda v, f=getattr(np, fn): float(f(v))) for fn in ("log", "sin", "cos", "sqrt")
}
_POINT_NAMES.update(inf=math.inf, nan=math.nan, exp=_exp_point)
_ARRAY_NAMES = dict(_POINT_NAMES, exp=np.exp, log=np.log, sin=np.sin, cos=np.cos, sqrt=np.sqrt)


@dataclass(frozen=True)
class Program:
    """Generated jet code for one expression."""

    frags: tuple  # per-op source fragment, for error attribution
    source: str  # printable form of the whole expression
    at_point: Callable = field(repr=False, compare=False)  # order-1 jet(x, y)
    on_arrays: dict = field(repr=False, compare=False)  # order -> jet(x, y, check)
    point_code: str = field(repr=False, compare=False)  # source of at_point
    fail: Callable = field(repr=False, compare=False)  # fail(code, k, x, y) raises
    constant_gradient: tuple | None = field(repr=False, compare=False)  # literal (u_x, u_y)


@lru_cache(maxsize=256)
def _compiled(code: str):
    """The code object of generated source, shared by every program that
    generates the same text: the text holds only generated names and
    literals, so what differs between programs (``fail`` and its fragments)
    is bound per program by :func:`_bind`."""
    return compile(code, "<triweb jet>", "exec")


def _bind(code: str, names: dict, name: str = "jet") -> Callable:
    namespace = dict(names)
    exec(_compiled(code), namespace)
    return namespace[name]


def inline_source(template: str, codes: dict) -> str:
    """``template`` with each line ``<targets> = <site>(a, b)``, for a site
    named in ``codes``, replaced by the order-1 point jet source codes[site]
    at the point (a, b): its temps renamed per line, its checks calling
    ``<site>_fail`` and its slots assigned to the targets."""
    sites = re.compile(rf"^( *)(.+) = ({'|'.join(codes)})\((\w+), (\w+)\)$", re.M)
    numbers = itertools.count(1)

    def expand(m):
        indent, targets, site, a, b = m.groups()
        k, names = next(numbers), {"x": a, "y": b, "fail": f"{site}_fail"}
        rename = partial(_JET_NAME.sub, lambda n: names.get(n[0], f"{n[0]}_{k}"))
        _, *body, ret = codes[site].splitlines()
        lines = [indent + rename(stmt.strip()) for stmt in body]
        slots = rename(ret.strip().removeprefix("return "))
        return "\n".join(lines + [f"{indent}{targets} = {slots}"])

    return sites.sub(expand, template)


def bind_inline(code: str, programs: dict, names: dict, name: str) -> Callable:
    """Bind the function ``name`` of ``code``, made by :func:`inline_source`
    from ``programs`` (site -> Program): each site's checks call its program's
    ``fail``, so an error names the fragment and point the point jet would."""
    fails = {f"{site}_fail": p.fail for site, p in programs.items()}
    return _bind(code, dict(_POINT_NAMES, **fails, **names), name)


def compile_expr(e: Expr | str, source: str | None = None) -> Program:
    """Generate and compile the jet code of an expression (or its text)."""
    if isinstance(e, str):
        source = e
        e = parse(e)
    frag = fragments(source)  # shared, so each node is printed once per compile
    emitters = [_Emitter(frag, order) for order in (1, 3)]
    results = [em.jet(e) for em in emitters]
    frags = tuple(emitters[-1].frags)  # the same ops at every order

    def fail(code: int, k: int, x: float, y: float):
        raise EvalDomainError(_ERR_TEXT[code], frags[k], (x, y))

    point_code = emitters[0].render(results[0], hook=False)
    at_point = _bind(point_code, dict(_POINT_NAMES, fail=fail))
    on_arrays = {
        em.order: _bind(em.render(result, hook=True), _ARRAY_NAMES)
        for em, result in zip(emitters, results)
    }
    source = source if source is not None else frag(e)
    grad = results[0][1:]
    grad = None if any(isinstance(v, str) for v in grad) else grad
    return Program(frags, source, at_point, on_arrays, point_code, fail, grad)


def chunks(n: int):
    """Slices of at most _CHUNK of ``n`` points, in order: one batch pass each."""
    return (slice(lo, lo + _CHUNK) for lo in range(0, n, _CHUNK))


def _record(codes: np.ndarray, opidx: np.ndarray, bad, code: int, k: int) -> None:
    """Check hook of the array binding: keeps the first failing op per point."""
    new = bad & (opidx < 0)
    codes[new] = code
    opidx[new] = k


def jet_coeffs(program: Program, x: float, y: float, order: int = 3) -> tuple:
    """Jet coefficients at one point, as floats: the ten slots of
    :mod:`triweb.jets` at order 3, (u, u_x, u_y) at order 1.  Order 3 is
    a one-row batch, whose row and error are the point's.

    Raises :class:`EvalDomainError` naming the offending subexpression
    and point on any domain violation or overflow of a computed slot.
    """
    if order == 1:
        return program.at_point(float(x), float(y))
    return tuple(jet_coeffs_or_raise(program, [float(x)], [float(y)], order)[0].tolist())


def jet_coeffs_many(program: Program, xs, ys, order: int = 3):
    """Batch jets at many points, each row the slots :func:`jet_coeffs`
    returns at ``order``.  Non-raising: returns (coeffs (n, 10) or (n, 3),
    codes (n,), opidx (n,)), code 0 marking successful points; the rows of
    failing points are undefined."""
    xs = np.ascontiguousarray(xs, dtype=np.float64).ravel()
    ys = np.ascontiguousarray(ys, dtype=np.float64).ravel()
    jet = program.on_arrays[order]
    out = np.empty((xs.size, JET_SIZE if order == 3 else 3))
    codes = np.zeros(xs.size, dtype=np.int64)
    opidx = np.full(xs.size, -1, dtype=np.int64)
    with np.errstate(all="ignore"):
        for part in chunks(xs.size):
            check = partial(_record, codes[part], opidx[part])
            for k, v in enumerate(jet(xs[part], ys[part], check)):
                out[part, k] = v
    return out, codes, opidx


def jet_coeffs_or_raise(program: Program, xs, ys, order: int = 3) -> np.ndarray:
    """Batch jets that must all succeed: the coefficients of
    :func:`jet_coeffs_many`, or :class:`EvalDomainError` naming the first
    failing point."""
    out, codes, opidx = jet_coeffs_many(program, xs, ys, order)
    bad = np.flatnonzero(codes)
    if bad.size:
        i = int(bad[0])
        raise EvalDomainError(
            _ERR_TEXT[int(codes[i])],
            program.frags[int(opidx[i])],
            (float(np.ravel(xs)[i]), float(np.ravel(ys)[i])),
        )
    return out


def eval_jet3(e: Expr | str, point) -> tuple:
    """Value plus all partial derivatives through order 3 at a point, the
    ten slots in :data:`~triweb.jets.JET_ORDERS` order.  It compiles ``e``
    on every call: a one-shot helper, as for ``parse --at``; compile once
    with :func:`compile_expr` to evaluate many points."""
    return jet_coeffs(compile_expr(e), point[0], point[1])
