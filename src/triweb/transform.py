"""Candidate plane diffeomorphisms and leaf push-forwards.

A map is a pair of component expressions.  The linearizing candidate for
a normal-form web sends (x, y) to (f(x, y), y), where f is the web
function: it straightens the second and third foliations by
construction, and its Jacobian determinant equals df/dx, so it is a
local diffeomorphism exactly where the web function has nonzero
x-derivative.

Maps are pushed forward on traced polylines vertex by vertex; nothing
here inverts a map symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NormalFormError
from .expr import Expr, parse
from .kernels import compile_expr, jet_coeffs, jet_coeffs_or_raise
from .web import DEFAULT_GRID, Domain, LeafPolyline, ThreeWeb

DEFAULT_DIFFEO_TOL = 1e-6  # floor on |det J| at every admissible grid point


@dataclass(frozen=True)
class PlaneMap:
    """Candidate local diffeomorphism given by two component expressions."""

    comp1: Expr
    comp2: Expr
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "_p1", compile_expr(self.comp1))
        object.__setattr__(self, "_p2", compile_expr(self.comp2))

    @property
    def programs(self):
        return self._p1, self._p2

    @property
    def is_identity(self) -> bool:
        from .expr import is_var_x, is_var_y

        return is_var_x(self.comp1) and is_var_y(self.comp2)


def identity_map() -> PlaneMap:
    return PlaneMap(parse("x"), parse("y"), name="identity")


def linearizing_map(web: ThreeWeb) -> PlaneMap:
    """The change of variables (x, y) -> (f(x, y), y) built from the web
    function of a normal-form web.

    Requires u1 = x and u2 = y structurally; the first component is the
    third integral itself.
    """
    if not web.is_normal_form:
        raise NormalFormError(
            "linearizing map requires a web in normal form (u1 = x, u2 = y)"
        )
    return PlaneMap(web.web_function.integral, parse("y"), name="linearizing")


def apply_map(m: PlaneMap, p) -> tuple[float, float]:
    """Image of one point under the map."""
    p1, p2 = m.programs
    return (
        float(jet_coeffs(p1, p[0], p[1])[0]),
        float(jet_coeffs(p2, p[0], p[1])[0]),
    )


def jacobian_det(m: PlaneMap, p) -> float:
    """Determinant of the Jacobian at a point, from first-order jets."""
    p1, p2 = m.programs
    c1 = jet_coeffs(p1, p[0], p[1])
    c2 = jet_coeffs(p2, p[0], p[1])
    return float(c1[1] * c2[2] - c1[2] * c2[1])


@dataclass(frozen=True)
class DiffeoReport:
    verdict: bool
    min_abs_det: float
    failures: tuple[tuple[float, float, float], ...]  # (x, y, det)
    nx: int
    ny: int
    n_admissible: int
    threshold: float

    def to_dict(self) -> dict:
        return {
            "verdict": bool(self.verdict),
            "min_abs_det": self.min_abs_det,
            "threshold": self.threshold,
            "n_failures": len(self.failures),
            "failing_points": [
                {"x": x, "y": y, "det": d} for (x, y, d) in self.failures
            ],
            "grid": [self.nx, self.ny],
            "n_admissible": self.n_admissible,
        }


def diffeo_report(
    m: PlaneMap,
    domain: Domain,
    grid: tuple[int, int] = DEFAULT_GRID,
    threshold: float = DEFAULT_DIFFEO_TOL,
) -> DiffeoReport:
    """Grid certificate of local invertibility: |det J| >= threshold at
    every admissible grid point."""
    nx, ny = grid
    xs, ys = domain.grid(nx, ny)
    mask = domain.admissible_mask(xs, ys)
    xs, ys = xs[mask], ys[mask]

    jac = [jet_coeffs_or_raise(prog, xs, ys)[:, 1:3] for prog in m.programs]
    dets = jac[0][:, 0] * jac[1][:, 1] - jac[0][:, 1] * jac[1][:, 0]

    absdet = np.abs(dets)
    failing = np.nonzero(absdet < threshold)[0]
    failures = tuple(
        (float(xs[i]), float(ys[i]), float(dets[i]))
        for i in sorted(failing, key=lambda i: (xs[i], ys[i]))
    )
    return DiffeoReport(
        verdict=failing.size == 0,
        min_abs_det=float(absdet.min()) if absdet.size else float("inf"),
        failures=failures,
        nx=nx,
        ny=ny,
        n_admissible=int(xs.size),
        threshold=threshold,
    )


def push_polyline(m: PlaneMap, leaf: LeafPolyline) -> LeafPolyline:
    """Vertex-wise image of a traced leaf.

    Level and foliation metadata are preserved; cumulative arc lengths
    are recomputed from the image vertices.
    """
    xs = leaf.vertices[:, 0]
    ys = leaf.vertices[:, 1]
    images = [jet_coeffs_or_raise(prog, xs, ys)[:, 0] for prog in m.programs]
    vertices = np.column_stack(images)
    if vertices.shape[0] > 1:
        seg = np.hypot(np.diff(vertices[:, 0]), np.diff(vertices[:, 1]))
        arcs = np.concatenate(([0.0], np.cumsum(seg)))
    else:
        arcs = np.zeros(vertices.shape[0])
    return LeafPolyline(
        foliation=leaf.foliation,
        level=leaf.level,
        vertices=vertices,
        arcs=arcs,
        flags=leaf.flags,
    )
