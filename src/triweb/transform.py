"""Candidate plane diffeomorphisms and leaf push-forwards.

A map is a pair of components, each a :class:`~triweb.web.Foliation`: a
function compiled once, so a map built from a web's integrals shares
their generated code.  The linearizing candidate for
a normal-form web sends (x, y) to (f(x, y), y), where f is the web
function: it straightens the second and third foliations by
construction, and its Jacobian determinant equals df/dx, so it is a
local diffeomorphism exactly where the web function has nonzero
x-derivative.

Maps are pushed forward on traced polylines vertex by vertex; nothing
here inverts a map symbolically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NormalFormError
from .expr import parse
from .kernels import jet_coeffs_or_raise
from .web import Foliation, LeafPolyline, Survey, ThreeWeb, first_failures

DEFAULT_DIFFEO_TOL = 1e-6  # floor on |det J| at every admissible grid point


@dataclass(frozen=True)
class PlaneMap:
    """Candidate local diffeomorphism (x, y) -> (comp1, comp2)."""

    comp1: Foliation
    comp2: Foliation
    name: str = ""

    @property
    def programs(self):
        return self.comp1.program, self.comp2.program


def identity_map() -> PlaneMap:
    return PlaneMap(Foliation(parse("x")), Foliation(parse("y")), name="identity")


def linearizing_map(web: ThreeWeb) -> PlaneMap:
    """The change of variables (x, y) -> (f(x, y), y) built from the web
    function of a normal-form web.

    Requires u1 = x and u2 = y structurally; the components are the web's
    third and second foliations themselves, so nothing is compiled.
    """
    if not web.is_normal_form:
        raise NormalFormError(
            "linearizing map requires a web in normal form (u1 = x, u2 = y)"
        )
    return PlaneMap(web.foliation(3), web.foliation(2), "linearizing")


@dataclass(frozen=True)
class DiffeoReport:
    verdict: bool
    min_abs_det: float
    n_failures: int
    failures: tuple[tuple[float, float, float], ...]  # (x, y, det), the first MAX_LISTED_FAILURES
    nx: int
    ny: int
    n_admissible: int
    threshold: float

    def to_dict(self) -> dict:
        return {
            "verdict": bool(self.verdict),
            "min_abs_det": self.min_abs_det,
            "threshold": self.threshold,
            "n_failures": self.n_failures,
            "failing_points": [
                {"x": x, "y": y, "det": d} for (x, y, d) in self.failures
            ],
            "grid": [self.nx, self.ny],
            "n_admissible": self.n_admissible,
        }


def diffeo_report(
    m: PlaneMap, survey: Survey, threshold: float = DEFAULT_DIFFEO_TOL
) -> DiffeoReport:
    """Grid certificate of local invertibility: |det J| >= threshold at
    every point of ``survey``, so a nan fails; lists the first failing
    points by (x, y) and counts them all."""
    kept, n_failures, min_abs = [], 0, math.inf
    for part, (c1, c2) in survey.jets(m.programs):
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is a nan that fails
            dets = c1[:, 1] * c2[:, 2] - c1[:, 2] * c2[:, 1]
        absdet = np.abs(dets)
        min_abs = np.minimum(min_abs, absdet.min())  # nan if any is nan, as in one pass
        at = np.flatnonzero(~(absdet >= threshold))
        n_failures += at.size
        xs, ys = survey.xs[part][at], survey.ys[part][at]
        kept = first_failures(kept, xs, ys, np.zeros_like(at), dets[at])
    return DiffeoReport(
        verdict=n_failures == 0,
        min_abs_det=float(min_abs),
        n_failures=n_failures,
        failures=tuple((x, y, d) for x, y, _, d in kept),
        nx=survey.nx,
        ny=survey.ny,
        n_admissible=int(survey.xs.size),
        threshold=threshold,
    )


def push_polyline(m: PlaneMap, leaf: LeafPolyline) -> LeafPolyline:
    """Vertex-wise image of a traced leaf.

    Level and foliation metadata are preserved; cumulative arc lengths
    are recomputed from the image vertices.
    """
    xs = leaf.vertices[:, 0]
    ys = leaf.vertices[:, 1]
    images = [jet_coeffs_or_raise(prog, xs, ys, order=1)[:, 0] for prog in m.programs]
    vertices = np.column_stack(images)
    return LeafPolyline.from_vertices(leaf.foliation, leaf.level, vertices, leaf.flags)
