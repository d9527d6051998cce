"""Shared fixtures and independent numerical oracles.

The finite-difference machinery here validates the jet evaluator without
reusing its code paths: order-0 values come from the tree-walking
evaluator, first derivatives additionally from raw-value stencils, and
each higher order from fourth-order central differences of the
next-lower-order coefficients, so an error at any order breaks some
level of the chain.  ``Jet3`` is the Leibniz oracle: truncated-Taylor
algebra on coefficient vectors, written from the Leibniz rule alone, so
it shares no code with the emitter it checks.
"""

from __future__ import annotations

from math import comb

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from triweb.expr import BinOp, Call, Const, Expr, Neg, Var, eval_value, parse
from triweb.jets import JET_INDEX, JET_SIZE
from triweb.kernels import compile_expr, jet_coeffs
from triweb.web import Domain, ThreeWeb, builtin_web, family_web

settings.register_profile(
    "triweb",
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("triweb")

FD_STEP = 1e-4

# expressions exercising every operator and function, with a point safely
# inside each one's analytic domain
CORPUS = [
    ("x", (0.7, -0.3)),
    ("y", (5.0, -3.0)),
    ("1-x-y", (0.2, 0.3)),
    ("(x+y)*exp(-x)", (0.4, -0.9)),
    ("x*y", (1.3, 1.7)),
    ("x+x*y", (0.8, -0.2)),
    ("exp(-x)*x+exp(-x)*y", (0.5, 0.25)),
    ("sin(x)*cos(y)", (0.6, -1.1)),
    ("sqrt(1+x*x+y*y)", (-0.7, 0.4)),
    ("ln(2+x)/(2+y)", (0.3, 0.9)),
    ("x^3-2*x*y^2", (0.9, -0.6)),
    ("(1+x)*x+2*y", (0.4, 1.2)),
    ("2*x+exp(x)*y", (-0.3, 0.8)),
    ("x^-2", (1.4, 0.0)),
    ("2^x", (0.8, 0.0)),
    ("cos(x*y)", (0.9, 1.1)),
    ("exp(x+y)/(1+x^2)", (0.2, -0.4)),
    ("-x^2+y", (1.1, 0.3)),
    ("sqrt(x+2)*sin(y)", (0.5, 0.7)),
    ("ln(1+x^2+y^2)", (0.6, -0.8)),
]


@pytest.fixture(scope="session")
def paper_web() -> ThreeWeb:
    return builtin_web("paper")


@pytest.fixture(scope="session")
def parallel_web() -> ThreeWeb:
    return builtin_web("parallel")


@pytest.fixture(scope="session")
def product_web() -> ThreeWeb:
    return builtin_web("product")


@pytest.fixture(scope="session")
def free_box() -> Domain:
    """The default box with no excluded locus."""
    return Domain(box=(-2.0, 2.0, -2.0, 2.0))


@pytest.fixture(scope="session")
def family_suite():
    """The verified family members with boxes where general position holds."""
    band = Domain(box=(-2, 2, -2, 2), exclude=parse("1-x-y"), margin=0.05)
    return [
        ("1", "1", Domain(box=(-2, 2, -2, 2))),
        ("exp(-x)", "exp(-x)", band),
        ("1+x", "2", Domain(box=(0, 2, -2, 2))),
        ("2", "exp(x)", Domain(box=(-1, 1, -0.5, 1.5))),
        ("1", "x", Domain(box=(0.5, 2, -0.5, 1))),
    ]


@pytest.fixture(scope="session")
def theorem_report():
    from triweb.verify import verify_linearization

    return verify_linearization()


@pytest.fixture(scope="session")
def identity_report():
    from triweb.transform import identity_map
    from triweb.verify import verify_map
    from triweb.web import builtin_web

    return verify_map(builtin_web("paper"), identity_map())


@pytest.fixture(scope="session")
def oracle_webs(paper_web, parallel_web, product_web, family_suite):
    """(name, web, center_box) suite for curvature-versus-hexagon checks.

    center_box is the inset region centers are sampled from, sized so a
    radius-0.2 hexagon stays inside the web's domain.
    """
    webs = [
        ("parallel", parallel_web, (-1.2, 1.2, -1.2, 1.2)),
        ("product", product_web, (1.35, 1.65, 1.35, 1.65)),
        ("paper", paper_web, (-1.2, 1.2, -1.2, 1.2)),
    ]
    insets = {
        ("1", "1"): (-1.2, 1.2, -1.2, 1.2),
        ("exp(-x)", "exp(-x)"): (-1.2, 1.2, -1.2, 1.2),
        ("1+x", "2"): (0.7, 1.3, -1.2, 1.2),
        ("2", "exp(x)"): (-0.3, 0.3, 0.2, 0.8),
        ("1", "x"): (1.0, 1.5, 0.0, 0.5),
    }
    for a, b, dom in family_suite:
        webs.append((f"family({a},{b})", family_web(a, b, dom), insets[(a, b)]))
    return webs


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------


def fd4(values: list[float], h: float) -> float:
    """Fourth-order central difference from samples at -2h,-h,+h,+2h."""
    m2, m1, p1, p2 = values
    return (-p2 + 8.0 * p1 - 8.0 * m1 + m2) / (12.0 * h)


def fd_tolerance_ok(a: float, b: float, rel: float = 1e-5, abs_: float = 1e-8) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


def jet_vs_fd_report(e: Expr, p, h: float = FD_STEP):
    """Compare every jet coefficient against the finite-difference chain.

    Returns [(label, analytic, independent)] covering the value against
    the tree-walk evaluator, first derivatives against raw-value
    stencils, and all orders >= 1 against stencils of the next-lower
    analytic coefficients.
    """
    prog = compile_expr(e)
    x, y = float(p[0]), float(p[1])

    def coeffs(xx, yy):
        return jet_coeffs(prog, xx, yy)

    base = coeffs(x, y)
    out = [("value", float(base[0]), eval_value(e, p))]

    offs = (-2 * h, -h, h, 2 * h)
    vals_x = [eval_value(e, (x + o, y)) for o in offs]
    vals_y = [eval_value(e, (x, y + o)) for o in offs]
    out.append(("dx(values)", float(base[1]), fd4(vals_x, h)))
    out.append(("dy(values)", float(base[2]), fd4(vals_y, h)))

    jets_x = [coeffs(x + o, y) for o in offs]
    jets_y = [coeffs(x, y + o) for o in offs]
    for (i, j), k in JET_INDEX.items():
        if i + j == 0:
            continue
        if i >= 1:
            lower = JET_INDEX[(i - 1, j)]
            fd = fd4([c[lower] for c in jets_x], h)
        else:
            lower = JET_INDEX[(i, j - 1)]
            fd = fd4([c[lower] for c in jets_y], h)
        out.append((f"c{i}{j}", float(base[k]), float(fd)))
    return out


def assert_jet_matches_fd(e: Expr, p, rel: float = 1e-5, abs_: float = 1e-8):
    for label, analytic, independent in jet_vs_fd_report(e, p):
        assert fd_tolerance_ok(analytic, independent, rel, abs_), (
            f"{label} mismatch for {e}: jet={analytic!r} fd={independent!r} "
            f"at {tuple(p)}"
        )


# ---------------------------------------------------------------------------
# Leibniz oracle
# ---------------------------------------------------------------------------


def product_coeffs(a, b) -> np.ndarray:
    """Truncated product of two coefficient vectors by the Leibniz rule
    h_ij = sum C(i,p) C(j,q) a_pq b_(i-p)(j-q) over p <= i, q <= j."""
    out = np.zeros(JET_SIZE)
    for (i, j), k in JET_INDEX.items():
        for p in range(i + 1):
            for q in range(j + 1):
                w = comb(i, p) * comb(j, q)
                out[k] += w * a[JET_INDEX[(p, q)]] * b[JET_INDEX[(i - p, j - q)]]
    return out


class Jet3:
    """An immutable jet: its ten coefficients in ``JET_ORDERS`` order, with
    sums, scaling and the truncated Leibniz product."""

    __slots__ = ("_c",)

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=float)
        if c.shape != (JET_SIZE,):
            raise ValueError(f"expected {JET_SIZE} coefficients, got {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "_c", c)

    def __setattr__(self, name, value):
        raise AttributeError("Jet3 is immutable")

    @classmethod
    def constant(cls, v: float) -> "Jet3":
        return cls([v] + [0.0] * (JET_SIZE - 1))

    @classmethod
    def variable(cls, axis: int, value: float) -> "Jet3":
        c = np.zeros(JET_SIZE)
        c[0], c[1 + axis] = value, 1.0
        return cls(c)

    def as_array(self) -> np.ndarray:
        return self._c

    def __add__(self, other: "Jet3") -> "Jet3":
        return Jet3(self._c + other._c)

    def __mul__(self, other) -> "Jet3":
        if isinstance(other, Jet3):
            return Jet3(product_coeffs(self._c, other._c))
        return Jet3(self._c * float(other))

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# random expression generator (fixed seed, rejection-sampled into the
# evaluable, numerically tame regime)
# ---------------------------------------------------------------------------


def _random_expr(rng: np.random.Generator, depth: int) -> Expr:
    if depth == 0:
        kind = rng.integers(0, 3)
        if kind == 0:
            return Var((-1, -1), 0)
        if kind == 1:
            return Var((-1, -1), 1)
        return Const((-1, -1), float(np.round(rng.uniform(-2, 2), 3)))
    kind = rng.integers(0, 10)
    if kind < 4:
        op = "+-*/"[rng.integers(0, 4)]
        return BinOp(
            (-1, -1), op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1)
        )
    if kind == 4:
        return Neg((-1, -1), _random_expr(rng, depth - 1))
    if kind == 5:
        return BinOp(
            (-1, -1),
            "^",
            _random_expr(rng, depth - 1),
            Const((-1, -1), float(rng.integers(2, 4))),
        )
    fn = ("exp", "ln", "sin", "cos", "sqrt")[rng.integers(0, 5)]
    return Call((-1, -1), fn, _random_expr(rng, depth - 1))


def random_expression_pairs(n: int, seed: int = 20250808):
    """n (expression, point) pairs accepted by the stencil-domain and
    coefficient-magnitude filters; deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    pairs = []
    h = FD_STEP
    while len(pairs) < n:
        e = _random_expr(rng, int(rng.integers(2, 4)))
        p = (float(np.round(rng.uniform(-1.5, 1.5), 4)),
             float(np.round(rng.uniform(-1.5, 1.5), 4)))
        try:
            prog = compile_expr(e)
            pts = [p] + [(p[0] + o, p[1]) for o in (-2 * h, -h, h, 2 * h)] + [
                (p[0], p[1] + o) for o in (-2 * h, -h, h, 2 * h)
            ]
            ok = True
            for q in pts:
                c = jet_coeffs(prog, q[0], q[1])
                if np.abs(c).max() > 50.0:
                    ok = False
                    break
            if not ok:
                continue
            eval_value(e, p)
        except Exception:
            continue
        pairs.append((e, p))
    return pairs


# ---------------------------------------------------------------------------
# polyline geometry helpers
# ---------------------------------------------------------------------------


def directed_overlap_gap(P: np.ndarray, Q: np.ndarray) -> float:
    """Max distance from points of P to the polyline Q, ignoring points
    whose nearest location on Q is an open end (outside the overlap)."""
    A = Q[:-1]
    D = Q[1:] - Q[:-1]
    L2 = (D * D).sum(axis=1)
    L2 = np.where(L2 == 0.0, 1.0, L2)
    worst = 0.0
    for p in P:
        t = ((p - A) * D).sum(axis=1) / L2
        tc = np.clip(t, 0.0, 1.0)
        proj = A + tc[:, None] * D
        d = np.hypot(p[0] - proj[:, 0], p[1] - proj[:, 1])
        i = int(np.argmin(d))
        if (i == 0 and t[0] < 0.0) or (i == len(D) - 1 and t[-1] > 1.0):
            continue
        worst = max(worst, float(d[i]))
    return worst


def overlap_hausdorff(P: np.ndarray, Q: np.ndarray) -> float:
    return max(directed_overlap_gap(P, Q), directed_overlap_gap(Q, P))
