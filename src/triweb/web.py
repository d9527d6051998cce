"""Foliations, domains with excluded loci, 3-webs, and numeric leaf tracing.

A web is three foliations in general position, each given by a first
integral u(x, y) with nonvanishing gradient; a leaf is a connected level
set u = const.  Leaves are traced by a classical fourth-order
Runge-Kutta walk at fixed arc step along the unit tangent
(du/dy, -du/dx)/|grad u|, with a Newton projection back onto the level
set after every step, so the level invariant holds to tight tolerance
regardless of integrator drift.

All types are immutable after construction and every operation is pure;
batch work over seeds or grid points can run concurrently without
coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, EvalDomainError, TraceError
from .expr import Expr, depends_on_y, is_var_x, is_var_y, parse, to_text
from .kernels import (
    ERR_OK,
    Program,
    compile_expr,
    jet_coeffs,
    jet_coeffs_many,
    jet_coeffs_or_raise,
)

# tracing and validation constants
H_STEP = 1e-2  # nominal arc length per integrator step
H_MAX = 2 * H_STEP  # bound on emitted vertex spacing
PROJ_TOL = 1e-12  # Newton projection residual target
PROJ_MAX_ITER = 5
TOL_LEVEL = 1e-9  # level invariant every vertex must satisfy
EPS_GRAD = 1e-6  # minimal usable gradient norm
EPS_GP = 1e-6  # minimal pairwise transversality determinant
DEFAULT_GRID = (41, 41)
DEFAULT_MARGIN = 0.05


class _GradCollapse(Exception):
    """Internal: gradient norm fell below EPS_GRAD mid-walk."""


# ---------------------------------------------------------------------------
# Domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box, optionally minus a band around the zero set of an
    exclusion expression g: points with |g(p)| < margin are inadmissible.

    A zero margin keeps the exclusion recorded but excludes nothing, which
    is how degenerate-locus experiments are run.
    """

    box: tuple[float, float, float, float] = (-2.0, 2.0, -2.0, 2.0)
    exclude: Expr | None = None
    margin: float = 0.0

    def __post_init__(self):
        xmin, xmax, ymin, ymax = self.box
        if not (xmin < xmax and ymin < ymax):
            raise ConfigError(f"degenerate box {self.box}")
        if self.margin < 0:
            raise ConfigError("exclusion margin must be >= 0")
        prog = compile_expr(self.exclude) if self.exclude is not None else None
        object.__setattr__(self, "_exclude_program", prog)

    @property
    def exclude_program(self) -> Program | None:
        return self._exclude_program

    def in_box(self, p) -> bool:
        xmin, xmax, ymin, ymax = self.box
        return xmin <= p[0] <= xmax and ymin <= p[1] <= ymax

    def admissible(self, p) -> bool:
        if not self.in_box(p):
            return False
        if self._exclude_program is None:
            return True
        try:
            g = jet_coeffs(self._exclude_program, p[0], p[1])[0]
        except EvalDomainError:
            return False
        return abs(g) >= self.margin

    def admissible_mask(self, xs, ys) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        xmin, xmax, ymin, ymax = self.box
        mask = (xs >= xmin) & (xs <= xmax) & (ys >= ymin) & (ys <= ymax)
        if self._exclude_program is not None:
            out, codes, _ = jet_coeffs_many(self._exclude_program, xs, ys)
            mask &= (codes == ERR_OK) & (np.abs(out[:, 0]) >= self.margin)
        return mask

    def grid(self, nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
        """Flattened grid coordinates, x varying fastest."""
        if nx < 2 or ny < 2:
            raise ConfigError(f"grid must be at least 2x2, got {nx}x{ny}")
        xmin, xmax, ymin, ymax = self.box
        gx = np.linspace(xmin, xmax, nx)
        gy = np.linspace(ymin, ymax, ny)
        xx, yy = np.meshgrid(gx, gy)
        return xx.ravel(), yy.ravel()

    def with_margin(self, margin: float) -> "Domain":
        return replace(self, margin=margin)

    def diagonal_points(self, fractions) -> np.ndarray:
        xmin, xmax, ymin, ymax = self.box
        f = np.asarray(fractions, dtype=float)
        return np.column_stack((xmin + f * (xmax - xmin), ymin + f * (ymax - ymin)))


# ---------------------------------------------------------------------------
# Foliations and webs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Foliation:
    """One family of leaves, the level sets of a first integral."""

    integral: Expr
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "_program", compile_expr(self.integral))

    @property
    def program(self) -> Program:
        return self._program

    def value(self, p) -> float:
        return float(jet_coeffs(self._program, p[0], p[1])[0])

    def grad(self, p) -> tuple[float, float]:
        c = jet_coeffs(self._program, p[0], p[1])
        return float(c[1]), float(c[2])


@dataclass(frozen=True)
class ThreeWeb:
    """Three foliations over a common domain.

    General position is a property of points, not of the construction, so
    it is checked by :func:`general_position_report` over a grid rather
    than at build time.
    """

    foliations: tuple[Foliation, Foliation, Foliation]
    domain: Domain

    def foliation(self, index: int) -> Foliation:
        """1-based accessor matching the F1/F2/F3 naming in reports."""
        if index not in (1, 2, 3):
            raise ConfigError(f"foliation index must be 1, 2 or 3, got {index}")
        return self.foliations[index - 1]

    @property
    def is_normal_form(self) -> bool:
        """True when u1 = x and u2 = y, so u3 is the web function."""
        return is_var_x(self.foliations[0].integral) and is_var_y(
            self.foliations[1].integral
        )

    @property
    def web_function(self) -> Foliation:
        return self.foliations[2]


def _web(u1: str, u2: str, u3: str, domain: Domain, names=("F1", "F2", "F3")):
    return ThreeWeb(
        (
            Foliation(parse(u1), names[0]),
            Foliation(parse(u2), names[1]),
            Foliation(parse(u3), names[2]),
        ),
        domain,
    )


def _paper_web() -> ThreeWeb:
    domain = Domain(
        box=(-2.0, 2.0, -2.0, 2.0), exclude=parse("1-x-y"), margin=DEFAULT_MARGIN
    )
    return _web("x", "y", "(x+y)*exp(-x)", domain)


def _parallel_web() -> ThreeWeb:
    return _web("x", "y", "x+y", Domain(box=(-2.0, 2.0, -2.0, 2.0)))


def _product_web() -> ThreeWeb:
    return _web("x", "y", "x*y", Domain(box=(1.0, 2.0, 1.0, 2.0)))


_BUILTINS = {
    "paper": _paper_web,
    "parallel": _parallel_web,
    "product": _product_web,
}

BUILTIN_WEB_NAMES = tuple(sorted(_BUILTINS))


def builtin_web(name: str) -> ThreeWeb:
    """Bundled example webs.

    ``paper``:    x, y, (x+y)*exp(-x) on [-2,2]^2 minus a 0.05 band
                  around the degeneracy locus x+y=1;
    ``parallel``: x, y, x+y on [-2,2]^2;
    ``product``:  x, y, x*y on [1,2]^2.
    """
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown builtin web {name!r}; available: {', '.join(BUILTIN_WEB_NAMES)}"
        ) from None


def family_web(a: Expr | str, b: Expr | str, domain: Domain | None = None) -> ThreeWeb:
    """Web with integrals x, y and a(x)*x + b(x)*y.

    ``a`` and ``b`` must depend on x only; the third integral is linear
    in y with x-dependent coefficients.
    """
    from .expr import BinOp, Var

    if isinstance(a, str):
        a = parse(a)
    if isinstance(b, str):
        b = parse(b)
    for label, e in (("a", a), ("b", b)):
        if depends_on_y(e):
            raise ConfigError(
                f"family coefficient {label}(x) = {to_text(e)!r} mentions y"
            )
    if domain is None:
        domain = Domain(box=(-2.0, 2.0, -2.0, 2.0))
    u3 = BinOp(
        (-1, -1),
        "+",
        BinOp((-1, -1), "*", a, Var((-1, -1), 0)),
        BinOp((-1, -1), "*", b, Var((-1, -1), 1)),
    )
    return ThreeWeb(
        (
            Foliation(parse("x"), "F1"),
            Foliation(parse("y"), "F2"),
            Foliation(u3, "F3"),
        ),
        domain,
    )


# ---------------------------------------------------------------------------
# General position
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridFailure:
    x: float
    y: float
    check: str  # "pair12", "pair13", "pair23", "grad1", "grad2", "grad3"
    value: float


@dataclass(frozen=True)
class GeneralPositionReport:
    verdict: bool
    min_pairwise_det: float
    failures: tuple[GridFailure, ...]
    nx: int
    ny: int
    n_admissible: int
    n_total: int

    def to_dict(self) -> dict:
        return {
            "verdict": bool(self.verdict),
            "min_pairwise_det": self.min_pairwise_det,
            "n_failures": len(self.failures),
            "failing_points": [
                {"x": f.x, "y": f.y, "check": f.check, "value": f.value}
                for f in self.failures
            ],
            "grid": [self.nx, self.ny],
            "n_admissible": self.n_admissible,
            "n_total": self.n_total,
        }


def _grads_on_grid(web: ThreeWeb, xs, ys):
    """Gradients of all three integrals at given points; raises with point
    attribution on any evaluation failure."""
    return [jet_coeffs_or_raise(fol.program, xs, ys)[:, 1:3] for fol in web.foliations]


def general_position_report(
    web: ThreeWeb,
    grid: tuple[int, int] = DEFAULT_GRID,
    eps_gp: float = EPS_GP,
    eps_grad: float = EPS_GRAD,
) -> GeneralPositionReport:
    """Check pairwise transversality and gradient nondegeneracy of the
    three foliations at every admissible grid point."""
    nx, ny = grid
    xs, ys = web.domain.grid(nx, ny)
    mask = web.domain.admissible_mask(xs, ys)
    xs, ys = xs[mask], ys[mask]
    n_total = int(mask.size)
    n_adm = int(xs.size)
    if n_adm == 0:
        raise ConfigError("no admissible grid points in domain")

    g1, g2, g3 = _grads_on_grid(web, xs, ys)
    failures: list[GridFailure] = []

    for idx, g in enumerate((g1, g2, g3), start=1):
        norms = np.hypot(g[:, 0], g[:, 1])
        for i in np.nonzero(norms < eps_grad)[0]:
            failures.append(
                GridFailure(float(xs[i]), float(ys[i]), f"grad{idx}", float(norms[i]))
            )

    min_det = math.inf
    for (ia, ga), (ib, gb) in (((1, g1), (2, g2)), ((1, g1), (3, g3)), ((2, g2), (3, g3))):
        det = np.abs(ga[:, 0] * gb[:, 1] - ga[:, 1] * gb[:, 0])
        min_det = min(min_det, float(det.min()))
        for i in np.nonzero(det < eps_gp)[0]:
            failures.append(
                GridFailure(
                    float(xs[i]), float(ys[i]), f"pair{ia}{ib}", float(det[i])
                )
            )

    failures.sort(key=lambda f: (f.x, f.y, f.check))
    return GeneralPositionReport(
        verdict=not failures,
        min_pairwise_det=min_det,
        failures=tuple(failures),
        nx=nx,
        ny=ny,
        n_admissible=n_adm,
        n_total=n_total,
    )


# ---------------------------------------------------------------------------
# Leaf tracing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeafPolyline:
    """Numerically traced leaf: ordered vertices with cumulative arc length.

    ``foliation`` is the 1-based index within its web (0 when traced
    standalone); ``flags`` records truncation causes per direction.
    """

    foliation: int
    level: float
    vertices: np.ndarray  # (n, 2)
    arcs: np.ndarray  # (n,), cumulative from the first vertex
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        self.vertices.setflags(write=False)
        self.arcs.setflags(write=False)

    def __len__(self) -> int:
        return int(self.vertices.shape[0])


def _tangent(program: Program, x: float, y: float) -> tuple[float, float]:
    c = jet_coeffs(program, x, y)
    gx, gy = c[1], c[2]
    n = math.hypot(gx, gy)
    if n < EPS_GRAD:
        raise _GradCollapse()
    return gy / n, -gx / n


def _rk4_step(program: Program, x: float, y: float, h: float):
    t1x, t1y = _tangent(program, x, y)
    t2x, t2y = _tangent(program, x + 0.5 * h * t1x, y + 0.5 * h * t1y)
    t3x, t3y = _tangent(program, x + 0.5 * h * t2x, y + 0.5 * h * t2y)
    t4x, t4y = _tangent(program, x + h * t3x, y + h * t3y)
    return (
        x + h / 6.0 * (t1x + 2.0 * t2x + 2.0 * t3x + t4x),
        y + h / 6.0 * (t1y + 2.0 * t2y + 2.0 * t3y + t4y),
    )


def _project(program: Program, x: float, y: float, level: float):
    """Newton steps along the gradient back onto u = level."""
    for _ in range(PROJ_MAX_ITER):
        c = jet_coeffs(program, x, y)
        r = c[0] - level
        if abs(r) <= PROJ_TOL:
            return x, y, True
        gx, gy = c[1], c[2]
        n2 = gx * gx + gy * gy
        if n2 < EPS_GRAD * EPS_GRAD:
            raise _GradCollapse()
        x -= r * gx / n2
        y -= r * gy / n2
    c = jet_coeffs(program, x, y)
    return x, y, abs(c[0] - level) <= TOL_LEVEL


def _advance(program: Program, level: float, x: float, y: float, ds: float):
    """One projected integrator step of signed arc length ds."""
    if ds == 0.0:
        return x, y, True
    xn, yn = _rk4_step(program, x, y, ds)
    return _project(program, xn, yn, level)


def _trace_direction(program, level, x0, y0, h_signed, n_steps, domain):
    pts: list[tuple[float, float]] = []
    x, y = x0, y0
    flag = None
    for _ in range(n_steps):
        try:
            xn, yn, converged = _advance(program, level, x, y, h_signed)
        except _GradCollapse:
            flag = "gradient_collapse"
            break
        except EvalDomainError:
            flag = "domain_exit"
            break
        if not converged:
            flag = "projection_stall"
            break
        if not domain.admissible((xn, yn)):
            break  # clean truncation at the domain boundary
        pts.append((xn, yn))
        x, y = xn, yn
    return pts, flag


def trace_leaf(
    fol: Foliation,
    p0,
    max_arc: float,
    domain: Domain,
    fol_index: int = 0,
) -> LeafPolyline:
    """Trace the leaf of ``fol`` through ``p0`` in both directions.

    Extends up to ``max_arc`` of arc length per direction, truncating at
    the domain boundary; every emitted vertex satisfies the level
    invariant to TOL_LEVEL.
    """
    x0, y0 = float(p0[0]), float(p0[1])
    if not domain.admissible((x0, y0)):
        raise TraceError(f"seed point ({x0}, {y0}) is not admissible")
    c0 = jet_coeffs(fol.program, x0, y0)
    if math.hypot(c0[1], c0[2]) < EPS_GRAD:
        raise TraceError(f"gradient vanishes at seed point ({x0}, {y0})")
    level = float(c0[0])
    if max_arc <= 0:
        raise TraceError("max_arc must be positive")
    n_steps = int(max_arc / H_STEP + 1e-12)

    fwd, flag_f = _trace_direction(fol.program, level, x0, y0, H_STEP, n_steps, domain)
    bwd, flag_b = _trace_direction(fol.program, level, x0, y0, -H_STEP, n_steps, domain)

    pts = list(reversed(bwd)) + [(x0, y0)] + fwd
    vertices = np.array(pts, dtype=float)
    if len(pts) > 1:
        seg = np.hypot(np.diff(vertices[:, 0]), np.diff(vertices[:, 1]))
        arcs = np.concatenate(([0.0], np.cumsum(seg)))
    else:
        arcs = np.zeros(1)

    flags = []
    if flag_b:
        flags.append(f"backward:{flag_b}")
    if flag_f:
        flags.append(f"forward:{flag_f}")
    return LeafPolyline(
        foliation=fol_index,
        level=level,
        vertices=vertices,
        arcs=arcs,
        flags=tuple(flags),
    )


def _walk_path(program: Program, level: float, x: float, y: float, arc: float, domain: Domain):
    """Every point of a walk of signed arc length ``arc`` along the leaf
    u = level from (x, y), in steps of H_STEP and one final remainder.

    Raises :class:`TraceError` if the walk leaves the admissible domain
    or the gradient degenerates.
    """
    h = H_STEP if arc >= 0 else -H_STEP
    n_full = int(abs(arc) / H_STEP + 1e-12)
    rest = abs(arc) - n_full * H_STEP
    steps = [h] * n_full + ([math.copysign(rest, arc)] if rest > 1e-12 else [])
    path = [(x, y)]
    for ds in steps:
        try:
            x, y, converged = _advance(program, level, x, y, ds)
        except _GradCollapse:
            raise TraceError(f"gradient collapse walking leaf near ({x}, {y})") from None
        if not converged:
            raise TraceError(f"level projection stalled near ({x}, {y})")
        if not domain.admissible((x, y)):
            raise TraceError(f"walk left the admissible domain at ({x}, {y})")
        path.append((x, y))
    return path


def walk_on_leaf(fol: Foliation, p0, arc: float, domain: Domain) -> tuple[float, float]:
    """Point at signed arc distance ``arc`` from ``p0`` along the leaf
    through ``p0``, following the (du/dy, -du/dx) orientation.

    Raises :class:`TraceError` if the walk leaves the admissible domain
    or the gradient degenerates.
    """
    x, y = float(p0[0]), float(p0[1])
    c0 = jet_coeffs(fol.program, x, y)
    if math.hypot(c0[1], c0[2]) < EPS_GRAD:
        raise TraceError(f"gradient vanishes at ({x}, {y})")
    return _walk_path(fol.program, float(c0[0]), x, y, arc, domain)[-1]
