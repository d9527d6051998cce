"""Parallelizability diagnostics: curvature and hexagon closure.

Two independent routes decide whether a web is equivalent to three
families of parallel lines:

* the curvature of a normal-form web {x, y, f}, computed from the
  third-order jet of the web function as

      K = [ d2/dxdy ln|f_x / f_y| ] / (f_x f_y),

  expanded through jet coefficients; a web is parallelizable exactly
  when K vanishes identically.  The sign convention is fixed by this
  formula and all verdicts use only zero-versus-nonzero comparisons, so
  they are invariant under nonzero rescaling of K.

* the classical closed-hexagon construction, which needs no formula and
  works for any web: walk a small hexagon whose legs alternate between
  the three foliations, always returning to the leaves through the
  center; the traversal closes for all small radii exactly in the
  parallelizable case.  The gap between start and end point is the
  reported defect.

Absolute values inside the logarithm keep the derivative identities
valid on both signs of f_x/f_y, which matters for webs whose excluded
locus separates the domain.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EvalDomainError, HexagonError, NormalFormError, TraceError
from .kernels import jet_coeffs
from .web import H_STEP, Survey, ThreeWeb, walk_on_leaf

DEGENERATE_EPS = 1e-12  # floor on |f_x|, |f_y| for the curvature formula
HEX_NEWTON_TOL = 1e-10  # target |u_k - u_k(O)| at each leg endpoint

# leg pattern: (foliation to follow, foliation whose center leaf to hit)
_LEG_PATTERN = ((3, 2), (1, 3), (2, 1), (3, 2), (1, 3), (2, 1))

# how a one-step walk of the crossing refinement ended -> the error it raises
_REFINE_ERRORS = {
    "gradient_collapse": "gradient collapse while refining a leg crossing",
    "projection_stall": "level projection stalled while refining a leg crossing",
    "boundary": "leg crossing refinement left the admissible domain at ({:g}, {:g})",
}


def blaschke_curvature(web: ThreeWeb, p) -> float:
    """Curvature of a normal-form web at one point: :func:`curvature_grid` on a one-point survey."""
    point = Survey(np.array([float(p[0])]), np.array([float(p[1])]), 1, 1, 1)
    return float(curvature_grid(web, point)[2][0])


@dataclass(frozen=True)
class ParallelizabilityReport:
    """Grid survey of |K| with the zero-curvature verdict."""

    parallelizable: bool
    max_abs_curvature: float
    min_abs_curvature: float
    tol: float
    nx: int
    ny: int
    xs: np.ndarray
    ys: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        self.kappa.setflags(write=False)

    def to_dict(self) -> dict:
        return {
            "parallelizable": bool(self.parallelizable),
            "max_abs_curvature": self.max_abs_curvature,
            "min_abs_curvature": self.min_abs_curvature,
            "tol": self.tol,
            "grid": [self.nx, self.ny],
            "n_points": int(self.xs.size),
        }


def curvature_grid(web: ThreeWeb, survey: Survey):
    """(xs, ys, K) at every point of ``survey``, K one array; raises on
    evaluation failures or degenerate directions (|f_x| or |f_y| below
    DEGENERATE_EPS), naming the point, a jet failure anywhere first."""
    if not web.is_normal_form:
        raise NormalFormError("curvature grid requires a normal-form web")
    prog = web.foliation(3).program
    kappa, degenerate = np.empty(survey.xs.size), None
    for part, (c,) in survey.jets([prog], order=3):
        if degenerate is not None:
            continue  # the pass goes on so that a later jet failure still raises first
        fx, fy, fxx, fxy, fyy, fxxy, fxyy = (c[:, k] for k in (1, 2, 3, 4, 5, 7, 8))
        degen = np.flatnonzero((np.abs(fx) < DEGENERATE_EPS) | (np.abs(fy) < DEGENERATE_EPS))
        if degen.size:
            degenerate = part.start + int(degen[0])
            continue
        t1 = (fxxy * fx - fxx * fxy) / (fx * fx)
        t2 = (fxyy * fy - fxy * fyy) / (fy * fy)
        kappa[part] = (t1 - t2) / (fx * fy)
    if degenerate is not None:
        raise EvalDomainError(
            "degenerate direction: web-function partial below 1e-12",
            prog.source,
            (float(survey.xs[degenerate]), float(survey.ys[degenerate])),
        )
    return survey.xs, survey.ys, kappa


def parallelizability_report(
    web: ThreeWeb, survey: Survey, tol: float = 1e-8
) -> ParallelizabilityReport:
    """Verdict "parallelizable" iff max |K| over ``survey`` is within tol
    of zero."""
    xs, ys, kappa = curvature_grid(web, survey)
    absk = np.abs(kappa)
    return ParallelizabilityReport(
        parallelizable=bool(absk.max() <= tol),
        max_abs_curvature=float(absk.max()),
        min_abs_curvature=float(absk.min()),
        tol=tol,
        nx=survey.nx,
        ny=survey.ny,
        xs=xs,
        ys=ys,
        kappa=np.asarray(kappa),
    )


# ---------------------------------------------------------------------------
# Hexagon closure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HexagonFigure:
    """One hexagon traversal: six alternating legs around a center.

    ``points`` holds P0..P6; ``legs`` holds the walked paths (leg 0 is
    the initial radius walk from the center to P0).  The defect is the
    distance |P6 - P0|, zero exactly when the figure closes.
    """

    center: tuple[float, float]
    radius: float
    points: np.ndarray  # (7, 2)
    defect: float
    legs: tuple  # 7 arrays of shape (n_i, 2)

    def __post_init__(self):
        self.points.setflags(write=False)
        for leg in self.legs:
            leg.setflags(write=False)


def _leg_to_level(web, leg_index, target_index, start, target_level, max_arc):
    """Follow the leg foliation's leaf through ``start`` until it crosses
    the target foliation's level set u_target = target_level.

    Walks both orientations for the nearest sign change, the forward one
    winning a tie, then refines the crossing with safeguarded Newton on
    the arc parameter, each Newton step a walk of one step that returns
    the gradient at its end.  Returns the endpoint and the walked path.
    """
    domain = web.domain
    leg, target = web.foliation(leg_index), web.foliation(target_index)
    leg_jet, tgt_jet = leg.program.at_point, target.program.at_point
    x0, y0 = start
    leg_level, gx0, gy0 = leg_jet(x0, y0)
    phi0 = tgt_jet(x0, y0)[0] - target_level
    if abs(phi0) <= HEX_NEWTON_TOL:
        raise HexagonError(
            f"leg {leg_index}->{target_index} starts on its target level at ({x0}, {y0})"
        )

    n_steps = max(1, int(max_arc / H_STEP + 1e-12))
    walk = domain.walker(leg, "crossed", target)
    bracket = None  # (steps to the crossing, signed h, path, phi before it)
    for h in (H_STEP, -H_STEP):
        # only a crossing nearer than the one found can replace it
        steps = itertools.repeat(h, n_steps if bracket is None else bracket[0] - 1)
        pts, stop, phi = walk(x0, y0, gx0, gy0, steps, leg_level, target_level, phi0)
        if stop == "crossed":
            bracket = (len(pts), h, [start] + pts, phi)
    if bracket is None:
        raise HexagonError(
            f"leg {leg_index}->{target_index} found no crossing of its target "
            f"level within arc {max_arc:g} of ({x0:g}, {y0:g})"
        )

    # safeguarded Newton on signed arc s from the last point before the
    # crossing, where phi has the sign of side a; s_b = h by construction
    _, h, path, phi_a = bracket
    q, s_q, s_a, s_b = path[-2], 0.0, 0.0, h
    _, gx, gy = leg_jet(*q)
    step = domain.walker(leg)
    for _ in range(60):
        f_q, tx, ty = tgt_jet(*q)
        f_q -= target_level
        if (f_q < 0) == (phi_a < 0):
            s_a = s_q
        else:
            s_b = s_q
        if abs(f_q) <= HEX_NEWTON_TOL:
            break
        if abs(s_b - s_a) < 1e-15:
            raise HexagonError("leg crossing bracket collapsed before reaching tolerance")
        norm = math.hypot(gx, gy)
        slope = (tx * gy - ty * gx) / norm if norm > 0 else 0.0
        s_new = s_q - f_q / slope if slope != 0.0 else 0.5 * (s_a + s_b)
        lo, hi = (s_a, s_b) if s_a < s_b else (s_b, s_a)
        if not (lo < s_new < hi):
            s_new = 0.5 * (s_a + s_b)
        # s_q is an end of the bracket and s_new lies inside it, so the step is nonzero
        _, stop, at = step(q[0], q[1], gx, gy, (s_new - s_q,), leg_level)
        if stop == "domain_exit":
            raise at
        if stop is not None:
            raise HexagonError(_REFINE_ERRORS[stop].format(*at))
        xq, yq, gx, gy = at
        q, s_q = (xq, yq), s_new
    else:
        raise HexagonError("leg crossing refinement did not converge")

    path[-1] = q
    return q, path


def hexagon_defect(
    web: ThreeWeb,
    center,
    radius: float,
) -> HexagonFigure:
    """Walk the closure hexagon of ``web`` around ``center``.

    P0 sits on the first foliation's leaf through the center at arc
    distance ``radius``; the six legs then alternate foliations
    3, 1, 2, 3, 1, 2, each ending on the leaf through the center of
    foliations 2, 3, 1, 2, 3, 1 in turn, looking for it within an arc of
    6 * radius + 0.25 each way.  Every leg endpoint satisfies its target
    level to HEX_NEWTON_TOL.
    """
    if not 0 < radius < math.inf:
        raise HexagonError(f"hexagon radius must be positive and finite, got {radius}")
    O = (float(center[0]), float(center[1]))
    if not web.domain.admissible(O):
        raise HexagonError(f"hexagon center {O} is not admissible")
    max_leg_arc = 6.0 * radius + 0.25

    levels = [jet_coeffs(fol.program, O[0], O[1], order=1)[0] for fol in web.foliations]

    try:
        leg0 = walk_on_leaf(web.foliation(1), O, radius, web.domain)
    except TraceError as exc:
        raise HexagonError(f"radius walk failed: {exc}") from None

    points = [leg0[-1]]
    legs = [np.array(leg0, dtype=float)]
    current = leg0[-1]
    for leg_index, target_index in _LEG_PATTERN:
        current, path = _leg_to_level(
            web, leg_index, target_index, current, levels[target_index - 1], max_leg_arc
        )
        points.append(current)
        legs.append(np.array(path, dtype=float))

    pts = np.array(points, dtype=float)
    defect = float(math.hypot(pts[6, 0] - pts[0, 0], pts[6, 1] - pts[0, 1]))
    return HexagonFigure(
        center=O,
        radius=float(radius),
        points=pts,
        defect=defect,
        legs=tuple(legs),
    )
