"""Foliations, domains with excluded loci, 3-webs, and numeric leaf tracing.

A web is three foliations in general position, each given by a first
integral u(x, y) with nonvanishing gradient; a leaf is a connected level
set u = const.  Leaves are traced by a classical fourth-order
Runge-Kutta walk at fixed arc step along the unit tangent
(du/dy, -du/dx)/|grad u|, with a Newton projection back onto the level
set after every step, so the level invariant holds to tight tolerance
regardless of integrator drift.  Each foliation generates that step as
one straight-line function with its jets inlined (``Foliation.advance``).

All types are immutable after construction and every operation is pure;
batch work over seeds or grid points can run concurrently without
coordination.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

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
DEFAULT_BOX = (-2.0, 2.0, -2.0, 2.0)
DEFAULT_MARGIN = 0.05


class _GradCollapse(Exception):
    """Internal: gradient norm fell below EPS_GRAD mid-walk."""


def _advance_source() -> str:
    """The leaf stepper, one per foliation: advance(x, y, gx, gy, h, level)
    takes the gradient (gx, gy) at (x, y), makes one RK4 step of signed arc
    h along the unit tangent (u_y, -u_x)/|grad u|, projects back onto
    u = level by at most PROJ_MAX_ITER Newton steps along the gradient, and
    returns the new point, the gradient there and whether it meets its
    level.  Each line
    "... = jet(a, b)" becomes the order-1 jet inlined at (a, b).  The
    projection's last jet is taken at the returned point, so its gradient
    serves as the next step's first RK4 stage."""

    def tangent(k):
        return ["n = hypot(gx, gy)", f"if n < {EPS_GRAD!r}: raise GradCollapse",
                f"t{k}x, t{k}y = gy / n, -gx / n"]

    body = ["if h == 0.0: return x, y, gx, gy, True", *tangent(1)]
    for k, c in ((2, "0.5 * h"), (3, "0.5 * h"), (4, "h")):
        body += [f"sx, sy = x + {c} * t{k - 1}x, y + {c} * t{k - 1}y",
                 "u, gx, gy = jet(sx, sy)", *tangent(k)]
    body += ["px = x + h / 6.0 * (t1x + 2.0 * t2x + 2.0 * t3x + t4x)",
             "py = y + h / 6.0 * (t1y + 2.0 * t2y + 2.0 * t3y + t4y)"]
    # a counted while loop: "for _ in range(...)" costs about 0.2 us per step
    body += ["_ = 0", "while True:"] + [f"    {b}" for b in (
        "u, gx, gy = jet(px, py)", "r = u - level",
        f"if abs(r) <= {PROJ_TOL!r}: return px, py, gx, gy, True",
        f"if _ == {PROJ_MAX_ITER}: return px, py, gx, gy, abs(r) <= {TOL_LEVEL!r}",
        "n2 = gx * gx + gy * gy", f"if n2 < {EPS_GRAD * EPS_GRAD!r}: raise GradCollapse",
        "px -= r * gx / n2", "py -= r * gy / n2", "_ += 1")]
    return "def advance(x, y, gx, gy, h, level):\n" + "".join(f"    {b}\n" for b in body)


_ADVANCE = _advance_source()
_ADVANCE_NAMES = {"hypot": math.hypot, "GradCollapse": _GradCollapse}


# ---------------------------------------------------------------------------
# Domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Survey:
    """The admissible points of an nx x ny grid over a domain's box, x
    varying fastest; ``n_total`` counts every grid point."""

    xs: np.ndarray
    ys: np.ndarray
    n_total: int
    nx: int
    ny: int

    def __post_init__(self):
        if self.xs.size == 0:
            raise ConfigError("no admissible grid points in domain")
        for name in ("xs", "ys"):  # read-only views: the caller's arrays stay as they are
            view = getattr(self, name).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)

    def jets(self, programs, order: int = 1) -> list[np.ndarray]:
        """Each program's batch jets at ``order``, one row per point; raises
        :class:`EvalDomainError` naming the first point where one fails."""
        return [jet_coeffs_or_raise(p, self.xs, self.ys, order) for p in programs]


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box, optionally minus a band around the zero set of an
    exclusion expression g: points with |g(p)| < margin are inadmissible.

    A zero margin keeps the exclusion recorded but excludes nothing, which
    is how degenerate-locus experiments are run.
    """

    box: tuple[float, float, float, float] = DEFAULT_BOX
    exclude: Expr | None = None
    margin: float = 0.0

    def __post_init__(self):
        xmin, xmax, ymin, ymax = self.box
        if not all(math.isfinite(v) for v in self.box):
            raise ConfigError(f"box edges must be finite, got {self.box}")
        if not (xmin < xmax and ymin < ymax):
            raise ConfigError(f"degenerate box {self.box}")
        if not 0 <= self.margin < math.inf:
            raise ConfigError(f"exclusion margin must be finite and >= 0, got {self.margin}")
        prog = compile_expr(self.exclude) if self.exclude is not None else None
        jet, margin = prog.at_point[1] if prog else None, self.margin

        def inside(x: float, y: float) -> bool:  # bound once: the walker calls it per step
            if not (xmin <= x <= xmax and ymin <= y <= ymax):
                return False
            if jet is None:
                return True
            try:
                return abs(jet(x, y)[0]) >= margin
            except EvalDomainError:
                return False

        object.__setattr__(self, "_exclude_program", prog)
        object.__setattr__(self, "_inside", inside)

    @property
    def exclude_program(self) -> Program | None:
        return self._exclude_program

    def admissible(self, p) -> bool:
        return self._inside(float(p[0]), float(p[1]))

    def admissible_mask(self, xs, ys) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        xmin, xmax, ymin, ymax = self.box
        mask = (xs >= xmin) & (xs <= xmax) & (ys >= ymin) & (ys <= ymax)
        if self._exclude_program is not None:
            out, codes, _ = jet_coeffs_many(self._exclude_program, xs, ys, order=1)
            mask &= (codes == ERR_OK) & (np.abs(out[:, 0]) >= self.margin)
        return mask

    def survey(self, grid: tuple[int, int]) -> Survey:
        """The admissible points of the nx x ny grid over the box.  Raises
        :class:`ConfigError` for a grid under 2x2 or, from :class:`Survey`,
        one with no admissible point."""
        nx, ny = grid
        if nx < 2 or ny < 2:
            raise ConfigError(f"grid must be at least 2x2, got {nx}x{ny}")
        xmin, xmax, ymin, ymax = self.box
        xx, yy = np.meshgrid(np.linspace(xmin, xmax, nx), np.linspace(ymin, ymax, ny))
        xs, ys = xx.ravel(), yy.ravel()
        mask = self.admissible_mask(xs, ys)
        return Survey(xs[mask], ys[mask], mask.size, nx, ny)

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

    @cached_property
    def advance(self):
        """The generated leaf stepper (see ``_advance_source``), built on
        first use, since only tracing and hexagons need it."""
        return self._program.inline(_ADVANCE, _ADVANCE_NAMES, "advance")

    @property
    def program(self) -> Program:
        return self._program


@dataclass(frozen=True)
class ThreeWeb:
    """Three foliations over a common domain.

    General position is a property of points, not of the construction, so
    it is checked by :func:`general_position_report` over a grid rather
    than at build time.
    """

    foliations: tuple[Foliation, Foliation, Foliation]
    domain: Domain

    @classmethod
    def from_integrals(cls, integrals, domain: Domain) -> "ThreeWeb":
        """The web of three integrals (expressions or their text), F1-F3."""
        return cls(
            tuple(
                Foliation(parse(u) if isinstance(u, str) else u, f"F{i}")
                for i, u in enumerate(integrals, 1)
            ),
            domain,
        )

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


# name -> (integrals, box, exclusion, margin)
BUILTINS = {
    "paper": (("x", "y", "(x+y)*exp(-x)"), DEFAULT_BOX, "1-x-y", DEFAULT_MARGIN),
    "parallel": (("x", "y", "x+y"), DEFAULT_BOX, None, 0.0),
    "product": (("x", "y", "x*y"), (1.0, 2.0, 1.0, 2.0), None, 0.0),
}
BUILTIN_WEB_NAMES = tuple(sorted(BUILTINS))


def builtin_spec(name: str) -> tuple:
    """The row of :data:`BUILTINS` for ``name``."""
    try:
        return BUILTINS[name]
    except KeyError:
        raise ConfigError(
            f"unknown builtin web {name!r}; available: {', '.join(BUILTIN_WEB_NAMES)}"
        ) from None


def builtin_web(name: str) -> ThreeWeb:
    """Bundled example webs.

    ``paper``:    x, y, (x+y)*exp(-x) on [-2,2]^2 minus a 0.05 band
                  around the degeneracy locus x+y=1;
    ``parallel``: x, y, x+y on [-2,2]^2;
    ``product``:  x, y, x*y on [1,2]^2.
    """
    integrals, box, exclude, margin = builtin_spec(name)
    domain = Domain(box, parse(exclude) if exclude is not None else None, margin)
    return ThreeWeb.from_integrals(integrals, domain)


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
    u3 = BinOp(
        (-1, -1),
        "+",
        BinOp((-1, -1), "*", a, Var((-1, -1), 0)),
        BinOp((-1, -1), "*", b, Var((-1, -1), 1)),
    )
    return ThreeWeb.from_integrals(("x", "y", u3), domain or Domain())


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


def general_position_report(web: ThreeWeb, survey: Survey) -> GeneralPositionReport:
    """Check pairwise transversality and gradient nondegeneracy of the
    three foliations at every point of ``survey``."""
    xs, ys = survey.xs, survey.ys
    g1, g2, g3 = (jet[:, 1:] for jet in survey.jets([fol.program for fol in web.foliations]))
    failures: list[GridFailure] = []

    for idx, g in enumerate((g1, g2, g3), start=1):
        norms = np.hypot(g[:, 0], g[:, 1])
        for i in np.nonzero(norms < EPS_GRAD)[0]:
            failures.append(
                GridFailure(float(xs[i]), float(ys[i]), f"grad{idx}", float(norms[i]))
            )

    min_det = math.inf
    for (ia, ga), (ib, gb) in (((1, g1), (2, g2)), ((1, g1), (3, g3)), ((2, g2), (3, g3))):
        det = np.abs(ga[:, 0] * gb[:, 1] - ga[:, 1] * gb[:, 0])
        min_det = min(min_det, float(det.min()))
        for i in np.nonzero(det < EPS_GP)[0]:
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
        nx=survey.nx,
        ny=survey.ny,
        n_admissible=int(xs.size),
        n_total=survey.n_total,
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

    @classmethod
    def from_vertices(cls, foliation: int, level: float, vertices, flags=()) -> "LeafPolyline":
        """The polyline through ``vertices``, its arc lengths summed from them."""
        seg = np.hypot(np.diff(vertices[:, 0]), np.diff(vertices[:, 1]))
        return cls(foliation, level, vertices, np.concatenate(([0.0], np.cumsum(seg))), flags)


def _walk(fol: Foliation, level: float, p0, grad, steps, domain: Domain, stop=None):
    """Walk the leaf u = level of ``fol`` from ``p0``, where the gradient is
    ``grad``, by the signed arc lengths ``steps``.

    Returns the points after ``p0`` and why the walk ended: None when it
    took every step; "boundary" at the edge of the admissible domain;
    "stop" when ``stop(k, x, y)`` holds for the k-th point (x, y), counting
    from 1; else the truncation flag.  The third item is the point the walk
    stopped at, or the EvalDomainError of "domain_exit".
    """
    advance, inside = fol.advance, domain._inside
    (x, y), (gx, gy) = p0, grad
    pts: list[tuple[float, float]] = []
    for k, ds in enumerate(steps, 1):
        try:
            xn, yn, gx, gy, converged = advance(x, y, gx, gy, ds, level)
        except _GradCollapse:
            return pts, "gradient_collapse", (x, y)
        except EvalDomainError as exc:
            return pts, "domain_exit", exc
        if not converged:
            return pts, "projection_stall", (xn, yn)
        if not inside(xn, yn):
            return pts, "boundary", (xn, yn)
        pts.append((xn, yn))
        x, y = xn, yn
        if stop is not None and stop(k, x, y):
            return pts, "stop", (x, y)
    return pts, None, (x, y)


def trace_leaf(
    fol: Foliation,
    p0,
    max_arc: float,
    domain: Domain,
    fol_index: int = 0,
) -> LeafPolyline:
    """Trace the leaf of ``fol`` through ``p0`` in both directions.

    Extends up to ``max_arc`` of arc length per direction, truncating at
    the domain boundary; a leaf that returns to ``p0`` is traced once
    round and flagged "closed".  Every emitted vertex satisfies the level
    invariant to TOL_LEVEL.
    """
    x0, y0 = float(p0[0]), float(p0[1])
    if not domain.admissible((x0, y0)):
        raise TraceError(f"seed point ({x0}, {y0}) is not admissible")
    c0 = jet_coeffs(fol.program, x0, y0, order=1)
    if math.hypot(c0[1], c0[2]) < EPS_GRAD:
        raise TraceError(f"gradient vanishes at seed point ({x0}, {y0})")
    level = float(c0[0])
    if max_arc <= 0:
        raise TraceError("max_arc must be positive")
    n_steps = int(max_arc / H_STEP + 1e-12)

    def closed(k, x, y):  # back within one step of the seed after three
        return k >= 3 and math.hypot(x - x0, y - y0) < H_STEP

    walk = (fol, level, (x0, y0), c0[1:])
    fwd, flag_f, _ = _walk(*walk, itertools.repeat(H_STEP, n_steps), domain, closed)
    bwd, flag_b = [], None
    if flag_f == "stop":
        flag_f = "closed"
    else:
        bwd, flag_b, _ = _walk(*walk, itertools.repeat(-H_STEP, n_steps), domain)

    pts = list(reversed(bwd)) + [(x0, y0)] + fwd
    flags = [
        flag if flag == "closed" else f"{direction}:{flag}"
        for direction, flag in (("backward", flag_b), ("forward", flag_f))
        if flag not in (None, "boundary")
    ]
    return LeafPolyline.from_vertices(fol_index, level, np.array(pts, dtype=float), tuple(flags))


_WALK_ERRORS = {
    "gradient_collapse": "gradient collapse walking leaf near ({}, {})",
    "projection_stall": "level projection stalled near ({}, {})",
    "boundary": "walk left the admissible domain at ({}, {})",
}


def _walk_arc(fol: Foliation, jet, p0, arc: float, domain: Domain):
    """Every point of a walk of signed arc length ``arc`` along the leaf of
    ``fol`` from ``p0``, where its order-1 jet is ``jet``, in steps of
    H_STEP and one final remainder.

    Raises :class:`TraceError` if the walk leaves the admissible domain
    or the gradient degenerates.
    """
    h = H_STEP if arc >= 0 else -H_STEP
    n_full = int(abs(arc) / H_STEP + 1e-12)
    rest = abs(arc) - n_full * H_STEP
    steps = itertools.chain(
        itertools.repeat(h, n_full), [math.copysign(rest, arc)] if rest > 1e-12 else []
    )
    pts, stop, at = _walk(fol, jet[0], p0, jet[1:], steps, domain)
    if stop == "domain_exit":
        raise at
    if stop is not None:
        raise TraceError(_WALK_ERRORS[stop].format(*at))
    return [p0] + pts


def walk_on_leaf(fol: Foliation, p0, arc: float, domain: Domain) -> tuple[float, float]:
    """Point at signed arc distance ``arc`` from ``p0`` along the leaf
    through ``p0``, following the (du/dy, -du/dx) orientation.

    Raises :class:`TraceError` if the walk leaves the admissible domain
    or the gradient degenerates.
    """
    x, y = float(p0[0]), float(p0[1])
    if not math.isfinite(arc):
        raise TraceError(f"arc must be finite, got {arc}")
    c0 = jet_coeffs(fol.program, x, y, order=1)
    if math.hypot(c0[1], c0[2]) < EPS_GRAD:
        raise TraceError(f"gradient vanishes at ({x}, {y})")
    return _walk_arc(fol, c0, (x, y), arc, domain)[-1]
