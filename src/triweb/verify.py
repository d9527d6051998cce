"""Straightness certificates and the end-to-end linearization pipelines.

A foliation is certified linear by tracing finitely many leaves, mapping
them forward, and scoring each image against its total-least-squares
line; the normalized residual (max orthogonal distance over diameter) is
dimensionless, so one tolerance covers leaves of any size.  This is a
falsifiable numerical certificate, not a proof.  When a web is run
under its own linearizing map (f(x, y), y), as a bundled web is, the
first foliation's images are also checked against the lines the web
function predicts: the leaf x = c maps into xbar = f(c, ybar), the line
through f(c, y) at the image's two ends when f is affine in y.

Seeds are placed equally spaced along the domain-box diagonal, skipping
inadmissible points, so reports are deterministic.  Each seed also
records which side of the excluded locus it lies on, since local
equivalence statements are per-component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, TraceError, TriwebError
from .expr import eval_value
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
    ThreeWeb,
    builtin_web,
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
    # huge coordinates overflow to a non-finite score, which the report refuses
    with np.errstate(over="ignore", invalid="ignore"):
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
    xmin, xmax, ymin, ymax = domain.box
    m = n
    while m <= min(100 * n, n + 1000):
        f = np.arange(1, m + 1) / (m + 1)
        pts = np.column_stack((xmin + f * (xmax - xmin), ymin + f * (ymax - ymin)))
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
    """Per-foliation straightness certificate over the images of traced
    leaves.  ``leaves`` holds a (traced, image) pair per seed, for exports
    and plots; it is not part of the report's dict or of its equality."""

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
    """Distance of the first-foliation images from the lines the web predicts."""

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


def foliation_linearity(
    web: ThreeWeb,
    fol_index: int,
    m: PlaneMap,
    seeds,
    tol: float = DEFAULT_LINEARITY_TOL,
    max_arc: float = DEFAULT_MAX_ARC,
) -> LinearityReport:
    """Trace the leaf through each seed, push it through ``m`` (``identity_map()``
    for the leaves themselves), then score the collinearity of each image."""
    fol = web.foliation(fol_index)

    def failed(seed, why) -> TraceError:
        return TraceError(f"foliation F{fol_index}, seed ({seed[0]:g}, {seed[1]:g}): {why}")

    leaves = []
    for seed in seeds:
        try:
            pre = trace_leaf(fol, seed, max_arc, web.domain, fol_index=fol_index)
        except TriwebError as exc:
            raise failed(seed, exc) from exc
        if len(pre) < 3:
            raise failed(seed, f"leaf has only {len(pre)} vertices")
        leaves.append((pre, push_polyline(m, pre)))
    residuals = []
    for seed, (_, post) in zip(seeds, leaves):
        try:
            residuals.append(collinearity_residual(post.vertices))
        except ValueError as exc:
            raise failed(seed, exc) from exc
    max_res = max(residuals)
    return LinearityReport(
        foliation=fol_index,
        map_name=m.name,
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


def _line_check(web: ThreeWeb, report: LinearityReport, tol: float) -> LineFormulaCheck:
    """How far each first-foliation image lies from its line.  The map
    (f(x, y), y) sends the leaf x = c into xbar = f(c, ybar), a line when f
    is affine in y: the line through f(c, y) at the image's first and last
    ybar, with f evaluated by tree walking, independently of the jet code."""
    f = web.foliation(3).integral
    devs = []
    for pre, post in report.leaves:
        xbar, ybar = post.vertices[:, 0], post.vertices[:, 1]
        y0, y1 = ybar[0], ybar[-1]
        f0, f1 = (eval_value(f, (pre.level, y)) for y in (y0, y1))
        devs.append(np.abs(xbar - f0 - (f1 - f0) * (ybar - y0) / (y1 - y0)).max())
    max_dev = float(np.max(devs))  # nan, as from y0 == y1, fails
    return LineFormulaCheck(max_dev, tol, len(devs), bool(max_dev <= tol))


def verify_map(
    web: ThreeWeb,
    m: PlaneMap | None = None,
    seeds_per_foliation: int = DEFAULT_SEEDS,
    tol: float = DEFAULT_LINEARITY_TOL,
    grid=DEFAULT_GRID,
    max_arc: float = DEFAULT_MAX_ARC,
    diffeo_tol: float = DEFAULT_DIFFEO_TOL,
    line_tol: float = DEFAULT_LINE_FORMULA_TOL,
) -> LinearizationReport:
    """Does ``m`` linearize ``web``?  General position, diffeomorphism and
    per-foliation straightness.  Without ``m`` the map is
    :func:`linearizing_map`, and each first-foliation image must also lie
    within ``line_tol`` of the line the web function predicts for it."""
    own_map = m is None
    m = linearizing_map(web) if own_map else m
    survey = web.domain.survey(grid)
    gp = general_position_report(web, survey)
    dif = diffeo_report(m, survey, threshold=diffeo_tol)
    seeds = diagonal_seeds(web.domain, seeds_per_foliation)
    fol_reports = tuple(foliation_linearity(web, i, m, seeds, tol, max_arc) for i in (1, 2, 3))
    line_check = _line_check(web, fol_reports[0], line_tol) if own_map else None
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
    """:func:`verify_map` without a map, on the paper web by default."""
    return verify_map(web or builtin_web("paper"), **kwargs)
