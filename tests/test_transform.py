"""Plane maps, Jacobian certificates, and leaf push-forwards."""

import dataclasses
import math

import numpy as np
import pytest

from triweb.errors import NormalFormError
from triweb.expr import parse, to_text
from triweb.kernels import jet_coeffs
from triweb.transform import (
    PlaneMap,
    diffeo_report,
    identity_map,
    linearizing_map,
    push_polyline,
)
from triweb.web import DEFAULT_GRID, Domain, Foliation, LeafPolyline, ThreeWeb, trace_leaf

E_INV = math.exp(-1.0)  # 0.36787944117144233


def apply_map(m, p):
    """Image of one point, pushed forward as a one-vertex polyline."""
    leaf = LeafPolyline(0, 0.0, np.array([p], dtype=float), np.zeros(1))
    return tuple(push_polyline(m, leaf).vertices[0])


def grid_dets(m, box, grid=(2, 2)):
    """{(x, y): det J} at every point of a grid over ``box``: under an
    infinite threshold diffeo_report lists every point as failing."""
    rep = diffeo_report(m, Domain(box=box).survey(grid), threshold=math.inf)
    return {(x, y): det for x, y, det in rep.failures}


class TestMapConstruction:
    def test_linearizing_map_components(self, paper_web):
        m = linearizing_map(paper_web)
        assert m.comp1 is paper_web.foliation(3)
        assert m.comp2 is paper_web.foliation(2)
        assert to_text(m.comp2.integral) == "y"

    def test_linearizing_map_shares_the_webs_programs(self, paper_web):
        p1, p2 = linearizing_map(paper_web).programs
        assert p1 is paper_web.foliation(3).program
        assert p2 is paper_web.foliation(2).program

    def test_shear_for_sum_web(self, parallel_web):
        m = linearizing_map(parallel_web)
        assert to_text(m.comp1.integral) == "x+y"

    def test_family_map(self):
        from triweb.web import family_web

        w = family_web("1", "x")
        m = linearizing_map(w)
        assert apply_map(m, (2.0, 3.0)) == (pytest.approx(8.0), 3.0)

    def test_normal_form_required(self):
        w = ThreeWeb(
            (
                Foliation(parse("y")),
                Foliation(parse("x")),
                Foliation(parse("x+y")),
            ),
            Domain(),
        )
        with pytest.raises(NormalFormError):
            linearizing_map(w)


class TestApplyAndJacobian:
    def test_apply_examples(self, paper_web):
        m = linearizing_map(paper_web)
        img = apply_map(m, (1.0, 0.0))
        assert img[0] == pytest.approx(E_INV, rel=1e-15)
        assert img[1] == 0.0
        assert apply_map(m, (0.0, 0.0)) == (0.0, 0.0)
        assert apply_map(identity_map(), (3.0, -2.0)) == (3.0, -2.0)

    def test_jacobian_at_origin(self, paper_web):
        assert grid_dets(linearizing_map(paper_web), (0, 1, 0, 1))[(0.0, 0.0)] == 1.0

    def test_jacobian_vanishes_on_locus(self, paper_web):
        dets = grid_dets(linearizing_map(paper_web), (-0.25, 0.5, 0.5, 1.25))
        assert dets[(0.5, 0.5)] == 0.0
        assert dets[(-0.25, 1.25)] == 0.0

    def test_identity_jacobian(self):
        assert set(grid_dets(identity_map(), (17, 18, -4, -3)).values()) == {1.0}

    def test_jacobian_equals_fx_structurally(self, paper_web):
        # for (f, y) the determinant reduces to df/dx exactly
        m = linearizing_map(paper_web)
        f = paper_web.foliation(3)
        dets = grid_dets(m, (-1.5, 1.5, -1.5, 1.5), (5, 4))
        assert len(dets) == 20
        for p, det in dets.items():
            fx = jet_coeffs(f.program, p[0], p[1], order=1)[1]
            assert det == pytest.approx(fx, rel=1e-12, abs=1e-300)


class TestDiffeoReport:
    def test_paper_banded_passes(self, paper_web):
        rep = diffeo_report(linearizing_map(paper_web), paper_web.domain.survey(DEFAULT_GRID))
        assert rep.verdict
        assert rep.min_abs_det >= math.exp(-2) * 0.05 * 0.9
        assert rep.min_abs_det == pytest.approx(math.exp(-2) * 0.1, rel=1e-9)

    def test_zero_margin_fails_exactly_on_locus(self, paper_web):
        d = dataclasses.replace(paper_web.domain, margin=0.0)
        rep = diffeo_report(linearizing_map(paper_web), d.survey((33, 33)))
        assert not rep.verdict
        locus = {(x, 1.0 - x) for x in np.linspace(-2, 2, 33) if -2 <= 1.0 - x <= 2}
        assert {(x, y) for x, y, _ in rep.failures} == locus

    def test_cubic_fold_fails_at_zero(self):
        m = PlaneMap(Foliation(parse("x^3")), Foliation(parse("y")), name="cubic")
        rep = diffeo_report(m, Domain(box=(-1, 1, -1, 1)).survey((5, 5)))
        assert not rep.verdict
        assert {x for x, _, _ in rep.failures} == {0.0}

    def test_nan_det_fails(self):
        # det J is inf - inf = nan at every point
        m = PlaneMap(Foliation(parse("1e200*(x+y)")), Foliation(parse("1e200*(x+y)")))
        rep = diffeo_report(m, Domain().survey((3, 3)))
        assert not rep.verdict and math.isnan(rep.min_abs_det) and rep.n_failures == 9


class TestPushPolyline:
    def test_identity_is_exact(self, paper_web, free_box):
        leaf = trace_leaf(paper_web.foliation(3), (1.0, 1.0), 2.0, free_box, 3)
        out = push_polyline(identity_map(), leaf)
        assert np.array_equal(out.vertices, leaf.vertices)
        assert out.level == leaf.level
        assert out.foliation == leaf.foliation

    def test_f1_leaf_maps_to_closed_form_line(self, paper_web):
        # the leaf x = 1 lands on xbar = (1 + ybar) / e
        leaf = trace_leaf(paper_web.foliation(1), (1.0, -1.0), 3.0, paper_web.domain, 1)
        img = push_polyline(linearizing_map(paper_web), leaf)
        xbar, ybar = img.vertices[:, 0], img.vertices[:, 1]
        assert np.abs(xbar - (1.0 + ybar) * E_INV).max() <= 1e-9

    def test_web_leaf_maps_to_vertical(self, paper_web, free_box):
        leaf = trace_leaf(paper_web.foliation(3), (1.0, 1.0), 2.0, free_box, 3)
        img = push_polyline(linearizing_map(paper_web), leaf)
        xbar = img.vertices[:, 0]
        assert np.abs(xbar - leaf.level).max() <= 1e-9
        assert xbar.max() - xbar.min() <= 1e-9

    def test_horizontal_leaf_keeps_second_coordinate(self, paper_web):
        leaf = trace_leaf(paper_web.foliation(2), (0.0, -0.8), 2.0, paper_web.domain, 2)
        img = push_polyline(linearizing_map(paper_web), leaf)
        assert np.abs(img.vertices[:, 1] + 0.8).max() <= 1e-12

    def test_arcs_recomputed(self, paper_web, free_box):
        leaf = trace_leaf(paper_web.foliation(1), (0.0, 0.0), 1.0, free_box, 1)
        img = push_polyline(linearizing_map(paper_web), leaf)
        seg = np.hypot(*np.diff(img.vertices, axis=0).T)
        assert img.arcs[-1] == pytest.approx(seg.sum(), rel=1e-12)
        assert img.arcs[0] == 0.0
