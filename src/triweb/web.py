"""Foliations, domains with excluded loci, 3-webs, and numeric leaf tracing.

A web is three foliations in general position, each given by a first
integral u(x, y) with nonvanishing gradient; a leaf is a connected level
set u = const.  Leaves are traced by a classical fourth-order
Runge-Kutta walk at fixed arc step along the unit tangent
(du/dy, -du/dx)/|grad u|, with a Newton projection back onto the level
set after every step, so the level invariant holds to tight tolerance
regardless of integrator drift.  One generated function per walk
(``Domain.walker``) inlines that step, the box test, the exclusion's jet
and one stop test: a failing integral jet ends the walk as "domain_exit",
a failing exclusion jet as "boundary", and a failing target jet raises.
It is the only stepper: :func:`walk_on_leaf`, which the hexagon's radius
leg runs, walks a given arc length with it, and the hexagon's crossing
refinement takes walks of one step.  Constant gradients are folded by the same float operations,
bit for bit, and the text is cached by the strings it is built from,
never by webs.

Grid reports read one :class:`Survey`, the admissible points of a grid
over the box, and take its jets a chunk of points at a time
(``Survey.jets``), so their working memory beyond the survey's points is
bounded however fine the grid; the survey itself is built by chunks too.

All types are immutable after construction, but for a domain's bound
walkers, and every operation is pure; batch work over seeds or grid
points can run concurrently without coordination.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, EvalDomainError, TraceError
from .expr import BinOp, Expr, Var, depends_on_y, is_var_x, is_var_y, parse, to_text
from .kernels import (
    ERR_OK,
    Program,
    bind_inline,
    chunks,
    compile_expr,
    inline_source,
    jet_coeffs,
    jet_coeffs_many,
    jet_coeffs_or_raise,
)

# tracing and validation constants
H_STEP = 1e-2  # nominal arc length per integrator step
PROJ_TOL = 1e-12  # Newton projection residual target
PROJ_MAX_ITER = 5
TOL_LEVEL = 1e-9  # level invariant every vertex must satisfy
EPS_GRAD = 1e-6  # minimal usable gradient norm
EPS_GP = 1e-6  # minimal pairwise transversality determinant
DEFAULT_GRID = (41, 41)
DEFAULT_BOX = (-2.0, 2.0, -2.0, 2.0)
DEFAULT_MARGIN = 0.05


def _step(fold, done: str, stall: str, collapse: str) -> list[str]:
    """The lines of one RK4 step of signed arc h from (x, y), where the
    gradient is (gx, gy), along the unit tangent (u_y, -u_x)/|grad u|, and
    at most PROJ_MAX_ITER Newton steps back onto u = level.  They end in
    ``done`` with the new point in (px, py) and its gradient in (gx, gy), so
    the next step needs no first jet; in ``stall`` when that point misses
    its level; in ``collapse`` when |grad u| < EPS_GRAD.  Each "... = jet(a,
    b)" stands for the order-1 jet at (a, b).  A constant gradient ``fold``
    has its norm, tangent and Newton denominator computed here, by the same
    float operations, unless the step must collapse at run time."""
    if fold is not None:
        gx, gy = fold
        n, n2 = math.hypot(gx, gy), gx * gx + gy * gy
        if not (EPS_GRAD <= n < math.inf and n2 >= EPS_GRAD * EPS_GRAD):
            fold = None

    def tangent(k):
        if fold is not None:
            return [f"t{k}x, t{k}y = {gy / n!r}, {-gx / n!r}"]
        return ["n = hypot(gx, gy)", f"if n < {EPS_GRAD!r}: {collapse}",
                f"t{k}x, t{k}y = gy / n, -gx / n"]

    body = tangent(1)
    for k, c in ((2, "0.5 * h"), (3, "0.5 * h"), (4, "h")):
        body += [f"sx, sy = x + {c} * t{k - 1}x, y + {c} * t{k - 1}y",
                 "u, gx, gy = jet(sx, sy)", *tangent(k)]
    body += ["px = x + h / 6.0 * (t1x + 2.0 * t2x + 2.0 * t3x + t4x)",
             "py = y + h / 6.0 * (t1y + 2.0 * t2y + 2.0 * t3y + t4y)"]
    newton = ["u, gx, gy = jet(px, py)", "r = u - level", f"if abs(r) <= {PROJ_TOL!r}: {done}",
              f"if _ == {PROJ_MAX_ITER}:", f"    if abs(r) <= {TOL_LEVEL!r}: {done}",
              f"    {stall}"]
    if fold is None:
        newton += ["n2 = gx * gx + gy * gy", f"if n2 < {EPS_GRAD * EPS_GRAD!r}: {collapse}"]
    d = "n2" if fold is None else repr(n2)
    newton += [f"px -= r * gx / {d}", f"py -= r * gy / {d}", "_ += 1"]
    # a counted while loop: "for _ in range(...)" costs about 0.2 us per step
    return body + ["_ = 0", *_block("while True:", newton)]


def _block(head: str, lines: list[str]) -> list[str]:
    return [head, *(f"    {line}" for line in lines)]


# stop kind -> (extra arguments, lines before the walk, the test of each new point)
_STOPS = {
    None: ("", [], []),
    "closed": ("", ["x0, y0 = x, y"], [  # back within one step of the seed after three
        f"if hypot(px - x0, py - y0) < {H_STEP!r} and len(pts) >= 3:",
        "    return pts, 'closed', (px, py)"]),
    "crossed": (", tlevel, phi", [], [
        "tu, tx, ty = target(px, py)", "q = tu - tlevel",
        "if phi * q <= 0.0: return pts, 'crossed', phi", "phi = q"]),
}


def _walker_source(fold, stop: str | None, exclude: bool) -> str:
    """The leaf walker: walk(x, y, gx, gy, steps, level[, tlevel, phi])
    walks the leaf u = level from (x, y), where the gradient is (gx, gy), by
    the nonzero signed arc lengths ``steps``.  A new point must lie in the
    box and, with ``exclude``, where the exclusion's jet succeeds with
    |value| >= margin; the box edges and margin are bound names.  Returns
    the points after (x, y), why the walk ended and where: None, with the
    last point and the gradient there; "boundary" at an inadmissible
    point; "domain_exit" with the integral's EvalDomainError;
    "gradient_collapse" with the point before the step; "projection_stall"
    with the point off its level; "closed" at the first point from the
    third on within H_STEP of (x, y); "crossed" where the target offset
    u_t - tlevel is zero or changes sign, with the offset at the point
    before (phi at the start).  A target jet raises."""
    args, start, test = _STOPS[stop]
    boundary = "return pts, 'boundary', (px, py)"
    step = _step(fold, "break", "return pts, 'projection_stall', (px, py)",
                 "return pts, 'gradient_collapse', (x, y)")
    loop = [*_block("try:", step), "except EvalDomainError as exc:",
            "    return pts, 'domain_exit', exc",
            f"if not (xmin <= px <= xmax and ymin <= py <= ymax): {boundary}"]
    if exclude:
        loop += ["try:", "    e, ex, ey = exclude(px, py)", "except EvalDomainError:",
                 f"    {boundary}", f"if not abs(e) >= margin: {boundary}"]
    loop += ["append((px, py))", "x, y = px, py", *test]
    return "\n".join(_block(f"def walk(x, y, gx, gy, steps, level{args}):", [
        "pts = []", "append = pts.append", *start, *_block("for h in steps:", loop),
        "return pts, None, (x, y, gx, gy)"]))


@lru_cache(maxsize=64)
def _walker_text(fold, stop: str | None, codes: tuple) -> str:
    """The walker of the point jet sources ``codes``, (site, source) pairs;
    keyed by strings (``fold`` follows from the "jet" source), so that a new
    web of the same integrals only binds it and no web is kept alive."""
    codes = dict(codes)
    return inline_source(_walker_source(fold, stop, "exclude" in codes), codes)


_NAMES = {"hypot": math.hypot, "EvalDomainError": EvalDomainError}


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

    def jets(self, programs, order: int = 1):
        """The programs' batch jets at ``order``, one chunk of points (see
        :func:`~triweb.kernels.chunks`) at a time: yields (part, jets), the
        slice of ``xs`` and ``ys`` and a list of one array per program, one
        row per point.  Raises :class:`EvalDomainError` as whole-survey jets
        would: for the first program, in list order, that fails at any
        point, naming its first failing point.  It raises on reaching the
        first chunk where any program fails, so a caller that defers its own
        errors to the end of the pass lets every jet failure come first."""
        programs = list(programs)
        n = self.xs.size
        for part in chunks(n):
            xs, ys = self.xs[part], self.ys[part]
            results = [jet_coeffs_many(p, xs, ys, order) for p in programs]
            failed = [k for k, (_, codes, _) in enumerate(results) if codes.any()]
            if failed:  # an earlier program may fail in a later chunk only, and still wins
                for p in programs[: failed[0] + 1]:
                    for at in chunks(n):
                        jet_coeffs_or_raise(p, self.xs[at], self.ys[at], order)
            yield part, [out for out, _, _ in results]


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
        object.__setattr__(self, "_exclude_program", prog)
        object.__setattr__(self, "_walkers", {})

    @property
    def exclude_program(self) -> Program | None:
        return self._exclude_program

    def admissible(self, p) -> bool:
        x, y = float(p[0]), float(p[1])
        xmin, xmax, ymin, ymax = self.box
        try:
            return xmin <= x <= xmax and ymin <= y <= ymax and (
                self._exclude_program is None
                or abs(self._exclude_program.at_point[1](x, y)[0]) >= self.margin)
        except EvalDomainError:
            return False

    def walker(self, fol: Foliation, stop: str | None = None, target: Foliation | None = None):
        """The walker (see ``_walker_source``) of the leaves of ``fol`` here, with stop
        None, "closed" or "crossed" (the level sets of ``target``); bound on first use."""
        key = (fol.program, stop, target and target.program)
        if key not in self._walkers:
            programs = dict(jet=fol.program, exclude=self._exclude_program, target=key[2])
            programs = {site: p for site, p in programs.items() if p is not None}
            codes = tuple((site, p.point_code) for site, p in programs.items())
            text = _walker_text(fol.program.constant_gradient, stop, codes)
            names = dict(zip(("xmin", "xmax", "ymin", "ymax"), self.box), margin=self.margin)
            self._walkers[key] = bind_inline(text, programs, dict(_NAMES, **names), "walk")
        return self._walkers[key]

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
        gx, gy = np.linspace(xmin, xmax, nx), np.linspace(ymin, ymax, ny)
        # one chunk of grid points at a time: the mask (one byte a point) and
        # the admissible points are all that outlive a chunk
        mask = np.empty(nx * ny, dtype=bool)
        for part in chunks(mask.size):
            row, col = np.divmod(np.arange(*part.indices(mask.size)), nx)
            mask[part] = self.admissible_mask(gx[col], gy[row])
        xs, ys = np.empty((2, np.count_nonzero(mask)))
        end = 0
        for part in chunks(mask.size):
            row, col = np.divmod(np.flatnonzero(mask[part]) + part.start, nx)
            xs[end : end + col.size], ys[end : end + col.size] = gx[col], gy[row]
            end += col.size
        return Survey(xs, ys, mask.size, nx, ny)


# ---------------------------------------------------------------------------
# Foliations and webs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Foliation:
    """One family of leaves, the level sets of a first integral."""

    integral: Expr

    def __post_init__(self):
        object.__setattr__(self, "_program", compile_expr(self.integral))

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
            tuple(Foliation(parse(u) if isinstance(u, str) else u) for u in integrals), domain
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
    a, b = (parse(e) if isinstance(e, str) else e for e in (a, b))
    for label, e in (("a", a), ("b", b)):
        if depends_on_y(e):
            raise ConfigError(
                f"family coefficient {label}(x) = {to_text(e)!r} mentions y"
            )
    ax, by = (BinOp(op="*", left=e, right=Var(axis=i)) for i, e in enumerate((a, b)))
    u3 = BinOp(op="+", left=ax, right=by)
    return ThreeWeb.from_integrals(("x", "y", u3), domain or Domain())


# ---------------------------------------------------------------------------
# General position
# ---------------------------------------------------------------------------


MAX_LISTED_FAILURES = 100  # failing points a grid report lists; it counts every one


def first_failures(kept: list, xs, ys, ranks, values) -> list:
    """The first MAX_LISTED_FAILURES, as (x, y, rank, value) tuples in
    (x, y, rank) order, of the failures ``kept`` and the new ones at the
    points (xs, ys).  A point fails each rank at most once, so the result
    does not depend on how a survey is split into chunks."""
    order = np.lexsort((ranks, ys, xs))[:MAX_LISTED_FAILURES]
    new = zip(*(a[order].tolist() for a in (xs, ys, ranks, values)))
    return sorted([*kept, *new])[:MAX_LISTED_FAILURES]


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
    n_failures: int
    failures: tuple[GridFailure, ...]  # the first MAX_LISTED_FAILURES, by (x, y, check)
    nx: int
    ny: int
    n_admissible: int
    n_total: int

    def to_dict(self) -> dict:
        return {
            "verdict": bool(self.verdict),
            "min_pairwise_det": self.min_pairwise_det,
            "n_failures": self.n_failures,
            "failing_points": [
                {"x": f.x, "y": f.y, "check": f.check, "value": f.value}
                for f in self.failures
            ],
            "grid": [self.nx, self.ny],
            "n_admissible": self.n_admissible,
            "n_total": self.n_total,
        }


_CHECKS = ("grad1", "grad2", "grad3", "pair12", "pair13", "pair23")  # in their sort order
_FLOORS = np.array([[EPS_GRAD]] * 3 + [[EPS_GP]] * 3)


def general_position_report(web: ThreeWeb, survey: Survey) -> GeneralPositionReport:
    """Check pairwise transversality and gradient nondegeneracy of the
    three foliations at every point of ``survey``.  A point passes a check
    only where its value reaches the floor, so a nan fails."""
    kept, n_failures, min_det = [], 0, math.inf
    for part, jets in survey.jets([fol.program for fol in web.foliations]):
        g = [jet[:, 1:] for jet in jets]
        values = np.empty((6, len(g[0])))
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is a nan that fails
            for k, (a, b) in enumerate(((0, 1), (0, 2), (1, 2))):
                np.hypot(g[k][:, 0], g[k][:, 1], out=values[k])
                np.abs(g[a][:, 0] * g[b][:, 1] - g[a][:, 1] * g[b][:, 0], out=values[3 + k])
        min_det = np.minimum(min_det, values[3:].min())  # nan if any det is nan
        ranks, at = np.divmod(np.flatnonzero(~(values >= _FLOORS)), values.shape[1])
        n_failures += ranks.size
        xs, ys = survey.xs[part][at], survey.ys[part][at]
        kept = first_failures(kept, xs, ys, ranks, values[ranks, at])
    return GeneralPositionReport(
        verdict=n_failures == 0,
        min_pairwise_det=float(min_det),
        n_failures=n_failures,
        failures=tuple(GridFailure(x, y, _CHECKS[k], v) for x, y, k, v in kept),
        nx=survey.nx,
        ny=survey.ny,
        n_admissible=int(survey.xs.size),
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
    if not 0 < max_arc / H_STEP < sys.maxsize:  # nan too; itertools.repeat counts to sys.maxsize
        raise TraceError(f"max_arc must be positive and under {sys.maxsize} steps, got {max_arc}")
    n_steps = int(max_arc / H_STEP + 1e-12)

    start = (x0, y0, c0[1], c0[2])
    fwd, flag_f, _ = domain.walker(fol, "closed")(*start, itertools.repeat(H_STEP, n_steps), level)
    bwd, flag_b = [], None
    if flag_f != "closed":
        bwd, flag_b, _ = domain.walker(fol)(*start, itertools.repeat(-H_STEP, n_steps), level)

    pts = list(reversed(bwd)) + [(x0, y0)] + fwd
    flags = [
        flag if flag == "closed" else f"{direction}:{flag}"
        for direction, flag in (("backward", flag_b), ("forward", flag_f))
        if flag not in (None, "boundary")
    ]
    return LeafPolyline.from_vertices(fol_index, level, np.array(pts, dtype=float), tuple(flags))


# how a walk ended -> the error text, formatted with the point it names
WALK_ERRORS = {
    "gradient_collapse": "gradient collapse walking leaf near ({}, {})",
    "projection_stall": "level projection stalled near ({}, {})",
    "boundary": "walk left the admissible domain at ({}, {})",
}


def walk_on_leaf(fol: Foliation, p0, arc: float, domain: Domain) -> list[tuple[float, float]]:
    """Every point of a walk of signed arc length ``arc`` along the leaf of
    ``fol`` through ``p0``, following the (du/dy, -du/dx) orientation, in
    steps of H_STEP and one final remainder: ``p0`` first, and last the
    point at arc distance ``arc``.

    Raises :class:`TraceError` if ``arc`` is not a finite length, the
    walk leaves the admissible domain or the gradient degenerates.
    """
    x, y = float(p0[0]), float(p0[1])
    if not abs(arc) / H_STEP < sys.maxsize:  # nan too; itertools.repeat counts to sys.maxsize
        raise TraceError(f"arc must be finite and under {sys.maxsize} steps, got {arc}")
    level, gx, gy = jet_coeffs(fol.program, x, y, order=1)
    if math.hypot(gx, gy) < EPS_GRAD:
        raise TraceError(f"gradient vanishes at ({x}, {y})")
    h = H_STEP if arc >= 0 else -H_STEP
    n_full = int(abs(arc) / H_STEP + 1e-12)
    rest = abs(arc) - n_full * H_STEP
    steps = itertools.chain(
        itertools.repeat(h, n_full), [math.copysign(rest, arc)] if rest > 1e-12 else []
    )
    pts, stop, at = domain.walker(fol)(x, y, gx, gy, steps, level)
    if stop == "domain_exit":
        raise at
    if stop is not None:
        raise TraceError(WALK_ERRORS[stop].format(*at))
    return [(x, y)] + pts
