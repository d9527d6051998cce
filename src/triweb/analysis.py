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

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvalDomainError, HexagonError, NormalFormError, TraceError
from .kernels import Program, jet_coeffs, jet_coeffs_or_raise
from .web import (
    DEFAULT_GRID,
    H_STEP,
    ThreeWeb,
    _advance,
    _GradCollapse,
    _walk_path,
)

DEGENERATE_EPS = 1e-12  # floor on |f_x|, |f_y| for the curvature formula
HEX_NEWTON_TOL = 1e-10  # target |u_k - u_k(O)| at each leg endpoint

# leg pattern: (foliation to follow, foliation whose center leaf to hit)
_LEG_PATTERN = ((3, 2), (1, 3), (2, 1), (3, 2), (1, 3), (2, 1))


def _curvature_from_coeffs(fx, fy, fxx, fxy, fyy, fxxy, fxyy):
    t1 = (fxxy * fx - fxx * fxy) / (fx * fx)
    t2 = (fxyy * fy - fxy * fyy) / (fy * fy)
    return (t1 - t2) / (fx * fy)


def blaschke_curvature(web: ThreeWeb, p) -> float:
    """Curvature of a normal-form web at one admissible point."""
    if not web.is_normal_form:
        raise NormalFormError(
            "curvature is defined for normal-form webs only; "
            "use hexagon_defect for general webs"
        )
    c = jet_coeffs(web.web_function.program, p[0], p[1])
    fx, fy = c[1], c[2]
    if abs(fx) < DEGENERATE_EPS or abs(fy) < DEGENERATE_EPS:
        raise EvalDomainError(
            "degenerate direction: web-function partial below 1e-12",
            web.web_function.program.source,
            (p[0], p[1]),
        )
    return float(_curvature_from_coeffs(fx, fy, c[3], c[4], c[5], c[7], c[8]))


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
        self.xs.setflags(write=False)
        self.ys.setflags(write=False)
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


def curvature_grid(
    web: ThreeWeb,
    grid: tuple[int, int] = DEFAULT_GRID,
):
    """K at every admissible grid point; raises on evaluation failures or
    degenerate directions, naming the point."""
    if not web.is_normal_form:
        raise NormalFormError("curvature grid requires a normal-form web")
    nx, ny = grid
    xs, ys = web.domain.grid(nx, ny)
    mask = web.domain.admissible_mask(xs, ys)
    xs, ys = xs[mask], ys[mask]
    prog = web.web_function.program
    out = jet_coeffs_or_raise(prog, xs, ys)
    fx, fy = out[:, 1], out[:, 2]
    degen = np.nonzero((np.abs(fx) < DEGENERATE_EPS) | (np.abs(fy) < DEGENERATE_EPS))[0]
    if degen.size:
        i = int(degen[0])
        raise EvalDomainError(
            "degenerate direction: web-function partial below 1e-12",
            prog.source,
            (float(xs[i]), float(ys[i])),
        )
    kappa = _curvature_from_coeffs(
        fx, fy, out[:, 3], out[:, 4], out[:, 5], out[:, 7], out[:, 8]
    )
    return xs, ys, kappa


def parallelizability_report(
    web: ThreeWeb,
    grid: tuple[int, int] = DEFAULT_GRID,
    tol: float = 1e-8,
) -> ParallelizabilityReport:
    """Verdict "parallelizable" iff max |K| over the admissible grid is
    within tol of zero."""
    xs, ys, kappa = curvature_grid(web, grid=grid)
    absk = np.abs(kappa)
    return ParallelizabilityReport(
        parallelizable=bool(absk.max() <= tol),
        max_abs_curvature=float(absk.max()),
        min_abs_curvature=float(absk.min()),
        tol=tol,
        nx=grid[0],
        ny=grid[1],
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


def _value(program: Program, x: float, y: float) -> float:
    return float(jet_coeffs(program, x, y)[0])


def _leg_to_level(web, leg_index, target_index, start, target_level, max_arc):
    """Follow the leg foliation's leaf through ``start`` until it crosses
    the target foliation's level set u_target = target_level.

    Scans both orientations for the nearest sign change, then refines the
    crossing with safeguarded Newton on the arc parameter.  Returns the
    endpoint and the walked path.
    """
    domain = web.domain
    leg_prog = web.foliation(leg_index).program
    tgt_prog = web.foliation(target_index).program
    x0, y0 = start
    leg_level = _value(leg_prog, x0, y0)
    phi0 = _value(tgt_prog, x0, y0) - target_level
    if abs(phi0) <= HEX_NEWTON_TOL:
        raise HexagonError(
            f"leg {leg_index}->{target_index} starts on its target level at ({x0}, {y0})"
        )

    n_steps = max(1, int(max_arc / H_STEP + 1e-12))
    bracket = None  # (n_steps_to_bracket, signed_h, path, phi_prev, phi_new)
    for direction in (1.0, -1.0):
        h = direction * H_STEP
        x, y = x0, y0
        phi_prev = phi0
        path = [(x0, y0)]
        for k in range(1, n_steps + 1):
            try:
                xn, yn, converged = _advance(leg_prog, leg_level, x, y, h)
            except (_GradCollapse, EvalDomainError):
                break
            if not converged or not domain.admissible((xn, yn)):
                break
            path.append((xn, yn))
            phi_new = _value(tgt_prog, xn, yn) - target_level
            if phi_prev * phi_new <= 0.0:
                if bracket is None or k < bracket[0]:
                    bracket = (k, h, path, phi_prev, phi_new)
                break
            phi_prev = phi_new
            x, y = xn, yn
    if bracket is None:
        raise HexagonError(
            f"leg {leg_index}->{target_index} found no crossing of its target "
            f"level within arc {max_arc:g} of ({x0:g}, {y0:g})"
        )

    _, h, path, phi_a, phi_b = bracket
    qa = path[-2]
    qb = path[-1]

    # safeguarded Newton on signed arc s from qa; s_b = h by construction
    s_a, f_a = 0.0, phi_a
    s_b, f_b = h, phi_b
    q, s_q, f_q = qa, 0.0, phi_a
    for _ in range(60):
        if abs(f_q) <= HEX_NEWTON_TOL:
            break
        cj = jet_coeffs(leg_prog, q[0], q[1])
        tj = jet_coeffs(tgt_prog, q[0], q[1])
        norm = math.hypot(cj[1], cj[2])
        slope = (tj[1] * cj[2] - tj[2] * cj[1]) / norm if norm > 0 else 0.0
        s_new = s_q - f_q / slope if slope != 0.0 else 0.5 * (s_a + s_b)
        lo, hi = (s_a, s_b) if s_a < s_b else (s_b, s_a)
        if not (lo < s_new < hi):
            s_new = 0.5 * (s_a + s_b)
        try:
            xq, yq, converged = _advance(leg_prog, leg_level, q[0], q[1], s_new - s_q)
        except _GradCollapse:
            raise HexagonError("gradient collapse while refining a leg crossing") from None
        if not converged:
            raise HexagonError("level projection stalled while refining a leg crossing")
        q, s_q = (xq, yq), s_new
        f_q = _value(tgt_prog, xq, yq) - target_level
        if (f_q < 0) == (f_a < 0):
            s_a, f_a = s_q, f_q
        else:
            s_b, f_b = s_q, f_q
        if abs(s_b - s_a) < 1e-15 and abs(f_q) > HEX_NEWTON_TOL:
            raise HexagonError(
                "leg crossing bracket collapsed before reaching tolerance"
            )
    else:
        raise HexagonError("leg crossing refinement did not converge")

    if not domain.admissible(q):
        raise HexagonError(f"leg endpoint ({q[0]:g}, {q[1]:g}) is inadmissible")
    path[-1] = q
    return q, path


def hexagon_defect(
    web: ThreeWeb,
    center,
    radius: float,
    max_leg_arc: float | None = None,
) -> HexagonFigure:
    """Walk the closure hexagon of ``web`` around ``center``.

    P0 sits on the first foliation's leaf through the center at arc
    distance ``radius``; the six legs then alternate foliations
    3, 1, 2, 3, 1, 2, each ending on the leaf through the center of
    foliations 2, 3, 1, 2, 3, 1 in turn.  Every leg endpoint satisfies
    its target level to HEX_NEWTON_TOL.
    """
    if radius <= 0:
        raise HexagonError("hexagon radius must be positive")
    O = (float(center[0]), float(center[1]))
    if not web.domain.admissible(O):
        raise HexagonError(f"hexagon center {O} is not admissible")
    if max_leg_arc is None:
        max_leg_arc = 6.0 * radius + 0.25

    levels = [fol.value(O) for fol in web.foliations]

    try:
        leg0 = _walk_path(web.foliation(1).program, levels[0], O[0], O[1], radius, web.domain)
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
