"""Straightness certificates and the end-to-end linearization pipelines.

A foliation is certified linear by tracing finitely many leaves, mapping
them forward, and scoring each image against its total-least-squares
line; the normalized residual (max orthogonal distance over diameter) is
dimensionless, so one tolerance covers leaves of any size.  This is a
falsifiable numerical certificate, not a proof; for the bundled web the
first foliation's images are additionally checked against their exact
closed-form lines, which upgrades the key claim to closed-form
agreement.

Seeds are placed equally spaced along the domain-box diagonal, skipping
inadmissible points, so reports are deterministic.  Each seed also
records which side of the excluded locus it lies on, since local
equivalence statements are per-component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, TraceError, TriwebError
from .expr import Expr, eval_value, parse
from .kernels import jet_coeffs
from .transform import (
    DEFAULT_DIFFEO_TOL,
    DiffeoReport,
    PlaneMap,
    diffeo_report,
    linearizing_map,
    push_polyline,
)
from .web import (
    DEFAULT_GRID,
    Domain,
    GeneralPositionReport,
    LeafPolyline,
    ThreeWeb,
    builtin_web,
    family_web,
    general_position_report,
    trace_leaf,
)

DEFAULT_SEEDS = 7
DEFAULT_MAX_ARC = 3.0
DEFAULT_LINEARITY_TOL = 1e-8
DEFAULT_LINE_FORMULA_TOL = 1e-9


# ---------------------------------------------------------------------------
# Collinearity scoring
# ---------------------------------------------------------------------------


def _exact_coordinates(points: np.ndarray) -> tuple[list, list]:
    """x and y as Python integers on one common binary scale, so that
    orientation tests on them are exact."""
    mantissa, exponent = np.frexp(points)
    mantissa = (mantissa * 2.0**53).astype(np.int64)  # exact, |mantissa| < 1
    shift = (exponent - exponent.min()).ravel().tolist()
    ints = [m << k for m, k in zip(mantissa.ravel().tolist(), shift)]
    return ints[0::2], ints[1::2]


def _convex_hull(xs: list, ys: list, order: list) -> list:
    """Indices of the convex hull's vertices in counterclockwise order,
    without collinear ones (Andrew's monotone chain); ``order`` sorts the
    points by x, then y."""

    def chain(seq):
        out = []
        for p in seq:
            px, py = xs[p], ys[p]
            while len(out) >= 2:
                a, b = out[-2], out[-1]
                ax, ay = xs[a], ys[a]
                if (xs[b] - ax) * (py - ay) - (ys[b] - ay) * (px - ax) > 0:
                    break
                out.pop()
            out.append(p)
        return out

    return chain(order)[:-1] + chain(order[::-1])[:-1] or order[:1]


def _diameter(points: np.ndarray) -> float:
    """Largest distance between two of the points.  It is the distance of
    an antipodal pair of the convex hull's vertices, which rotating
    calipers enumerate (Preparata & Shamos, *Computational Geometry*,
    1985), in O(n log n) time and O(n) memory.  The hull and the calipers
    compare exact integer coordinates: nearly collinear sets, such as the
    images of straightened leaves, defeat floating-point orientation tests.

    Only points that can end a pair as long as a known one go to the hull.
    A point's distance to any other is at most its distance to the farthest
    corner of the bounding box, and both ends of the largest pair are at
    least the known pair's length apart; the 1e-9 relative slack covers the
    rounding of both sides, so the result is the one over all points.  On a
    leaf's image that keeps about its two ends."""
    x, y = points[:, 0], points[:, 1]
    a = np.argmax((x - x[0]) ** 2 + (y - y[0]) ** 2)  # farthest from point 0
    known = ((x - x[a]) ** 2 + (y - y[a]) ** 2).max()  # and the farthest from it
    fx = np.maximum(x - x.min(), x.max() - x)
    fy = np.maximum(y - y.min(), y.max() - y)
    points = points[fx * fx + fy * fy >= known * (1.0 - 1e-9)]
    xs, ys = _exact_coordinates(points)
    hull = _convex_hull(xs, ys, np.lexsort((points[:, 1], points[:, 0])).tolist())
    h = len(hull)
    # edge k runs from hull vertex k to vertex k + 1
    ex = [xs[b] - xs[a] for a, b in zip(hull, hull[1:] + hull[:1])]
    ey = [ys[b] - ys[a] for a, b in zip(hull, hull[1:] + hull[:1])]
    far = []  # per edge, the position of the hull vertex farthest from its line
    j = 1 % h
    for i in range(h if h > 2 else 0):
        while ex[i] * ey[j] - ey[i] * ex[j] > 0:
            j = (j + 1) % h
        far.append(j)
    # the first and last vertex, then both ends of each edge with its far vertex
    far = np.array(far, dtype=int)
    edges = np.arange(far.size)
    hull = np.array(hull)
    p = hull[np.concatenate(([0], edges, (edges + 1) % h))]
    q = hull[np.concatenate(([h - 1], far, far))]
    dx = points[p, 0] - points[q, 0]
    dy = points[p, 1] - points[q, 1]
    return float(np.sqrt(dx * dx + dy * dy).max())


def collinearity_residual(points) -> float:
    """Normalized distance of a point set from its best-fit line.

    Fits the total-least-squares line (principal axis of the centered
    second-moment matrix) and returns max orthogonal distance divided by
    the set diameter.  Zero for exactly collinear points; invariant under
    rigid motions, point order, and uniform scaling.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[1] != 2 or P.shape[0] < 3:
        raise ValueError("collinearity_residual needs at least 3 plane points")
    if not np.isfinite(P).all():
        raise ValueError("point set has non-finite coordinates")
    diam = _diameter(P)
    if diam <= 1e-9:
        raise ValueError("point set has (near-)zero diameter")
    Q = P - P.mean(axis=0)
    moment = Q.T @ Q
    _, vecs = np.linalg.eigh(moment)
    normal = vecs[:, 0]  # eigenvector of the smaller eigenvalue
    return float(np.abs(Q @ normal).max() / diam)


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------


def diagonal_seeds(domain: Domain, n: int):
    """n admissible points spaced along the box diagonal.

    Candidates are placed at even fractions; whenever exclusions swallow
    some of them, the subdivision is refined until n admissible points
    exist, keeping placement deterministic.  Refinement stops at
    min(100 n, n + 1000) candidates, so a failing placement costs
    O(1000 n) admissibility tests, not O(100 n^2).
    """
    if n < 1:
        raise ConfigError("need at least one seed")
    m = n
    while m <= min(100 * n, n + 1000):
        fractions = [(i + 1) / (m + 1) for i in range(m)]
        pts = domain.diagonal_points(fractions)
        adm = [
            (float(p[0]), float(p[1]))
            for p in pts
            if domain.admissible(p)
        ]
        if len(adm) >= n:
            return adm[:n]
        m += 1
    raise ConfigError(f"could not place {n} admissible seeds on the box diagonal")


def _seed_component(domain: Domain, seed) -> int:
    """Which side of the excluded locus the seed lies on (0: no locus)."""
    if domain.exclude_program is None:
        return 0
    g = jet_coeffs(domain.exclude_program, seed[0], seed[1], order=1)[0]
    return int(math.copysign(1.0, g)) if g != 0 else 0


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearityReport:
    """Per-foliation straightness certificate over traced (and optionally
    mapped) leaves.  ``leaves`` holds a (traced, image) pair per seed, the
    image None without a map, for exports and plots; it is not part of the
    report's dict or of its equality."""

    foliation: int
    map_name: str
    seeds: tuple
    levels: tuple
    components: tuple
    residuals: tuple
    max_residual: float
    tol: float
    verdict: bool
    flags: tuple  # (seed index, truncation flag) per flag of a traced leaf
    leaves: tuple = field(default=(), compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "foliation": self.foliation,
            "map": self.map_name,
            "verdict": bool(self.verdict),
            "max_residual": self.max_residual,
            "tol": self.tol,
            "residuals": list(self.residuals),
            "levels": list(self.levels),
            "seeds": [[s[0], s[1]] for s in self.seeds],
            "components": list(self.components),
            "flags": [[i, flag] for i, flag in self.flags],
        }


@dataclass(frozen=True)
class LineFormulaCheck:
    """Closed-form check of first-foliation image lines."""

    max_deviation: float
    tol: float
    n_leaves: int
    verdict: bool

    def to_dict(self) -> dict:
        return {
            "max_deviation": self.max_deviation,
            "tol": self.tol,
            "n_leaves": self.n_leaves,
            "verdict": bool(self.verdict),
        }


@dataclass(frozen=True)
class LinearizationReport:
    """Aggregate of every stage of the linearization pipeline."""

    overall_pass: bool
    general_position: GeneralPositionReport
    diffeo: DiffeoReport
    map_name: str
    foliations: tuple[LinearityReport, LinearityReport, LinearityReport]
    line_check: LineFormulaCheck | None

    def to_dict(self) -> dict:
        return {
            "overall_pass": bool(self.overall_pass),
            "map": self.map_name,
            "general_position": self.general_position.to_dict(),
            "diffeomorphism": self.diffeo.to_dict(),
            "foliations": [r.to_dict() for r in self.foliations],
            "line_formula": self.line_check.to_dict() if self.line_check else None,
        }


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _trace_one(web, fol_index, seed, max_arc) -> LeafPolyline:
    try:
        leaf = trace_leaf(
            web.foliation(fol_index), seed, max_arc, web.domain, fol_index=fol_index
        )
    except TriwebError as exc:
        raise TraceError(
            f"foliation F{fol_index}, seed ({seed[0]:g}, {seed[1]:g}): {exc}"
        ) from exc
    if len(leaf) < 3:
        raise TraceError(
            f"foliation F{fol_index}, seed ({seed[0]:g}, {seed[1]:g}): "
            f"leaf has only {len(leaf)} vertices"
        )
    return leaf


def foliation_linearity(
    web: ThreeWeb,
    fol_index: int,
    m: PlaneMap | None = None,
    seeds=None,
    tol: float = DEFAULT_LINEARITY_TOL,
    max_arc: float = DEFAULT_MAX_ARC,
) -> LinearityReport:
    """Trace the leaf through each seed, push it through ``m`` (identity
    when None), and score collinearity per leaf."""
    if seeds is None:
        seeds = diagonal_seeds(web.domain, DEFAULT_SEEDS)
    leaves = []
    for seed in seeds:
        pre = _trace_one(web, fol_index, seed, max_arc)
        leaves.append((pre, push_polyline(m, pre) if m is not None else None))
    residuals = []
    for seed, (pre, post) in zip(seeds, leaves):
        try:
            residuals.append(collinearity_residual((pre if post is None else post).vertices))
        except ValueError as exc:
            raise TraceError(
                f"foliation F{fol_index}, seed ({seed[0]:g}, {seed[1]:g}): {exc}"
            ) from exc
    max_res = max(residuals)
    return LinearityReport(
        foliation=fol_index,
        map_name=m.name if m is not None else "identity",
        seeds=tuple(seeds),
        levels=tuple(pre.level for pre, _ in leaves),
        components=tuple(_seed_component(web.domain, seed) for seed in seeds),
        residuals=tuple(residuals),
        max_residual=float(max_res),
        tol=tol,
        verdict=bool(max_res <= tol),
        flags=tuple((i, flag) for i, (pre, _) in enumerate(leaves) for flag in pre.flags),
        leaves=tuple(leaves),
    )


def paper_line(c: float, ybar: np.ndarray) -> np.ndarray:
    """The paper's image line of the leaf x = c: xbar = (c + ybar) exp(-c)."""
    return (c + ybar) * math.exp(-c)


def family_line(a: Expr | str, b: Expr | str) -> Callable[[float, np.ndarray], np.ndarray]:
    """The family's image line of the leaf x = c: xbar = a(c) c + b(c) ybar,
    with a and b evaluated independently of the web function's own
    expression tree."""
    a = parse(a) if isinstance(a, str) else a
    b = parse(b) if isinstance(b, str) else b

    def line(c: float, ybar: np.ndarray) -> np.ndarray:
        return eval_value(a, (c, 0.0)) * c + eval_value(b, (c, 0.0)) * ybar

    return line


def verify_map(
    web: ThreeWeb,
    m: PlaneMap,
    seeds_per_foliation: int = DEFAULT_SEEDS,
    tol: float = DEFAULT_LINEARITY_TOL,
    grid=DEFAULT_GRID,
    max_arc: float = DEFAULT_MAX_ARC,
    diffeo_tol: float = DEFAULT_DIFFEO_TOL,
    line_formula: Callable[[float, np.ndarray], np.ndarray] | None = None,
    line_tol: float = DEFAULT_LINE_FORMULA_TOL,
) -> LinearizationReport:
    """Does ``m`` linearize ``web``?  General position, diffeomorphism and
    per-foliation straightness; with ``line_formula(c, ybar)``, also that
    the image of each first-foliation leaf of level c lies within
    ``line_tol`` of xbar = line_formula(c, ybar)."""
    survey = web.domain.survey(grid)
    gp = general_position_report(web, survey)
    dif = diffeo_report(m, survey, threshold=diffeo_tol)
    seeds = diagonal_seeds(web.domain, seeds_per_foliation)
    fol_reports = tuple(foliation_linearity(web, i, m, seeds, tol, max_arc) for i in (1, 2, 3))

    line_check = None
    if line_formula is not None:
        max_dev = 0.0
        for pre, post in fol_reports[0].leaves:
            dev = np.abs(post.vertices[:, 0] - line_formula(pre.level, post.vertices[:, 1]))
            max_dev = max(max_dev, float(dev.max()))
        line_check = LineFormulaCheck(
            max_deviation=max_dev,
            tol=line_tol,
            n_leaves=len(fol_reports[0].leaves),
            verdict=bool(max_dev <= line_tol),
        )

    overall = (
        gp.verdict
        and dif.verdict
        and all(r.verdict for r in fol_reports)
        and (line_check is None or line_check.verdict)
    )
    return LinearizationReport(
        overall_pass=bool(overall),
        general_position=gp,
        diffeo=dif,
        map_name=m.name or "map",
        foliations=fol_reports,
        line_check=line_check,
    )


def verify_linearization(web: ThreeWeb | None = None, **kwargs) -> LinearizationReport:
    """Full pipeline for the bundled exponential-shear web.

    Checks that (f(x, y), y) is a diffeomorphism on the banded box, that
    all three image foliations are straight, and that every image of a
    leaf x = c lies on the exact line xbar = (c + ybar) * exp(-c)
    (:func:`paper_line`).  The keywords are those of :func:`verify_map`,
    which tests another map on the same web.
    """
    web = web or builtin_web("paper")
    return verify_map(web, linearizing_map(web), line_formula=paper_line, **kwargs)


def verify_family(
    a: Expr | str, b: Expr | str, domain: Domain | None = None, **kwargs
) -> LinearizationReport:
    """Same pipeline for the family f(x, y) = a(x) x + b(x) y.

    The first-foliation image lines are checked against
    xbar = a(c) c + b(c) ybar (:func:`family_line`).  The keywords are
    those of :func:`verify_map`.
    """
    web = family_web(a, b, domain)
    return verify_map(web, linearizing_map(web), line_formula=family_line(a, b), **kwargs)
