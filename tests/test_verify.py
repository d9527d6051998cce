"""Linearity certificates and the full verification pipelines."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import triweb.verify
from triweb.errors import ConfigError, TraceError
from triweb.expr import parse
from triweb.transform import identity_map, linearizing_map
from triweb.verify import (
    _diameter,
    collinearity_residual,
    diagonal_seeds,
    foliation_linearity,
    verify_family,
    verify_linearization,
    verify_map,
)
from triweb.web import DEFAULT_BOX, Domain, ThreeWeb

E_INV = math.exp(-1.0)


def _closed_form_line_points(n=20):
    ybar = np.linspace(-1.0, 1.0, n)
    return np.column_stack([(1.0 + ybar) * E_INV, ybar])


def _curved_leaf_points(n=20):
    x = np.linspace(0.0, 1.0, n)
    return np.column_stack([x, 2.0 * np.exp(x - 1.0) - x])


class TestCollinearityResidual:
    def test_closed_form_line_is_flat(self):
        assert collinearity_residual(_closed_form_line_points()) <= 1e-12

    def test_three_points_on_axis(self):
        assert collinearity_residual([(0, 0), (1, 0), (2, 0)]) <= 1e-15

    def test_curved_leaf_scores_high(self):
        assert collinearity_residual(_curved_leaf_points()) > 1e-3

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least 3"):
            collinearity_residual([(0, 0), (1, 1)])

    def test_zero_diameter(self):
        with pytest.raises(ValueError, match="diameter"):
            collinearity_residual([(1, 1)] * 5)

    def test_permutation_invariance(self):
        pts = _curved_leaf_points()
        base = collinearity_residual(pts)
        rng = np.random.default_rng(5)
        for _ in range(5):
            shuffled = pts[rng.permutation(len(pts))]
            assert abs(collinearity_residual(shuffled) - base) <= 1e-12

    @given(
        angle=st.floats(0.0, 2 * math.pi),
        tx=st.floats(-5.0, 5.0),
        ty=st.floats(-5.0, 5.0),
    )
    def test_rigid_motion_invariance(self, angle, tx, ty):
        pts = _curved_leaf_points()
        base = collinearity_residual(pts)
        c, s = math.cos(angle), math.sin(angle)
        R = np.array([[c, -s], [s, c]])
        moved = pts @ R.T + np.array([tx, ty])
        assert abs(collinearity_residual(moved) - base) <= 1e-12

    @given(scale=st.floats(1e-3, 1e3))
    def test_scale_invariance(self, scale):
        pts = _curved_leaf_points()
        base = collinearity_residual(pts)
        assert abs(collinearity_residual(pts * scale) - base) <= 1e-12


def _brute_diameter(pts: np.ndarray) -> float:
    return _brute_diameter_to(pts, pts)


def _brute_diameter_to(pts: np.ndarray, some: np.ndarray) -> float:
    """Largest distance from a point of ``some`` to one of ``pts``."""
    d = some[:, None, :] - pts[None, :, :]
    return float(np.sqrt((d * d).sum(axis=2)).max())


# quarter-integer coordinates: every hull and caliper test is exact in
# floating point too, and ties, duplicates, collinear runs and parallel
# edges are common
_grid_point = st.tuples(st.integers(-12, 12), st.integers(-12, 12)).map(
    lambda p: (p[0] / 4, p[1] / 4)
)
_any_point = st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))


class TestDiameter:
    @given(pts=st.lists(_grid_point, min_size=1, max_size=40))
    def test_matches_brute_force_exactly(self, pts):
        pts = np.array(pts, dtype=float)
        assert _diameter(pts) == _brute_diameter(pts)

    @given(pts=st.lists(_any_point, min_size=1, max_size=40))
    def test_matches_brute_force(self, pts):
        # exact up to pairs whose distances tie within rounding
        pts = np.array(pts, dtype=float)
        assert math.isclose(_diameter(pts), _brute_diameter(pts), rel_tol=1e-15)

    def test_rounded_lines(self):
        # points of a line, computed in floating point, lie off it by
        # rounding, as the images of straightened leaves do; floating-point
        # orientation tests on them gave as little as half the diameter
        t = np.linspace(-1.0, 1.3, 300)
        for c in (0.1, 0.7, 1.3):
            for pts in (
                np.column_stack(((c + t) * math.exp(-c), t)),
                np.column_stack((np.full_like(t, math.exp(-c)) * c, t * math.pi)),
            ):
                assert _diameter(pts) == _brute_diameter(pts)

    def test_arc(self):
        t = np.linspace(0.0, 3.0, 301)
        arc = np.column_stack((np.cos(t), np.sin(t)))
        assert _diameter(arc) == _brute_diameter(arc)

    @pytest.fixture
    def hull_sizes(self, monkeypatch):
        """The number of points of each set that reaches the exact hull."""
        seen = []
        exact = triweb.verify._exact_coordinates

        def spy(points):
            seen.append(len(points))
            return exact(points)

        monkeypatch.setattr(triweb.verify, "_exact_coordinates", spy)
        return seen

    def test_hull_sees_only_the_ends_of_a_long_line(self, hull_sizes):
        # a --max-arc 1000 leaf's image: the prefilter leaves the hull its ends
        t = np.linspace(-1.0, 1.3, 200_001)
        pts = np.column_stack(((0.7 + t) * math.exp(-0.7), t))
        dx, dy = pts[0] - pts[-1]
        assert _diameter(pts) == float(np.sqrt(dx * dx + dy * dy))
        assert len(hull_sizes) == 1 and hull_sizes[0] <= 16

    def test_circle_keeps_every_point(self, hull_sizes):
        # no point of a circle is nearer its farthest box corner than the
        # diameter, so all reach the hull, and near-ties abound
        t = np.random.default_rng(3).uniform(0.0, 2 * math.pi, 2000)
        pts = np.column_stack((np.cos(t), np.sin(t)))
        brute = max(_brute_diameter_to(pts, pts[lo : lo + 250]) for lo in range(0, 2000, 250))
        assert _diameter(pts) == brute
        assert hull_sizes == [2000]

    def test_memory_is_linear(self):
        # 4,001 vertices is a --max-arc 20 leaf; pairwise matrices took
        # about 489 MiB here
        t = np.linspace(0.0, 6.0, 4001)
        pts = np.column_stack((t, np.exp(-t) * np.sin(3.0 * t)))
        tracemalloc.start()
        try:
            collinearity_residual(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestSeeds:
    def test_band_is_skipped_and_count_met(self, paper_web):
        seeds = diagonal_seeds(paper_web.domain, 7)
        assert len(seeds) == 7
        for s in seeds:
            assert paper_web.domain.admissible(s)
            assert abs(1.0 - s[0] - s[1]) >= 0.05

    def test_deterministic(self, paper_web):
        assert diagonal_seeds(paper_web.domain, 7) == diagonal_seeds(
            paper_web.domain, 7
        )

    def test_plain_box(self, free_box):
        seeds = diagonal_seeds(free_box, 5)
        assert len(seeds) == 5
        # evenly spaced diagonal fractions on [-2,2]^2
        assert seeds[0] == (pytest.approx(-2 + 4 / 6), pytest.approx(-2 + 4 / 6))

    def test_count_validation(self, free_box):
        with pytest.raises(ConfigError):
            diagonal_seeds(free_box, 0)

    def test_failing_placement_is_bounded(self, monkeypatch):
        # the band around x = y swallows the whole diagonal; refinement stops
        # at n + 1000 candidates, about 7e5 tests for n = 200 (not 2e8)
        domain = Domain(DEFAULT_BOX, parse("x-y"), 0.1)
        calls = 0
        admissible = Domain.admissible

        def spy(self, p):
            nonlocal calls
            calls += 1
            if calls > 10**6:
                raise AssertionError("seed placement is not bounded")
            return admissible(self, p)

        monkeypatch.setattr(Domain, "admissible", spy)
        with pytest.raises(ConfigError, match="could not place 200"):
            diagonal_seeds(domain, 200)


class TestFoliationLinearity:
    def test_web_leaves_curved_under_identity(self, paper_web):
        rep = foliation_linearity(
            paper_web, 3, identity_map(), seeds=[(1.0, 1.0), (0.5, 0.0), (-1.0, 0.5)]
        )
        assert not rep.verdict
        assert rep.max_residual > 1e-3

    def test_web_leaves_straight_under_linearizing_map(self, paper_web):
        rep = foliation_linearity(
            paper_web,
            3,
            linearizing_map(paper_web),
            seeds=[(1.0, 1.0), (0.5, 0.0), (-1.0, 0.5)],
        )
        assert rep.verdict
        assert rep.max_residual <= 1e-9

    def test_vertical_foliation_already_straight(self, paper_web):
        rep = foliation_linearity(paper_web, 1, identity_map(), seeds=[(0.3, -0.7), (1.2, 0.1)])
        assert rep.verdict

    def test_bad_seed_attributed(self, paper_web):
        with pytest.raises(TraceError, match=r"F3, seed \(0\.5, 0\.5\)"):
            foliation_linearity(paper_web, 3, identity_map(), seeds=[(0.5, 0.5)])

    def test_components_recorded(self, paper_web):
        rep = foliation_linearity(
            paper_web, 1, identity_map(), seeds=[(0.0, 0.0), (1.5, 1.5)]
        )
        assert rep.components == (1, -1)  # opposite sides of x+y = 1

    @pytest.mark.parametrize("fol", [1, 2, 3])
    def test_identity_images_are_the_traced_leaves(self, paper_web, fol):
        # the identity push gives back each traced vertex bit for bit, so the
        # residuals are those of the raw leaves
        seeds = diagonal_seeds(paper_web.domain, 7)
        rep = foliation_linearity(paper_web, fol, identity_map(), seeds)
        assert rep.map_name == "identity"
        for (pre, post), residual in zip(rep.leaves, rep.residuals):
            assert np.array_equal(post.vertices, pre.vertices)
            assert np.array_equal(post.arcs, pre.arcs)
            assert residual == collinearity_residual(pre.vertices)


class TestVerifyLinearization:
    def test_default_run_passes(self, theorem_report):
        rep = theorem_report
        assert rep.overall_pass
        assert rep.general_position.verdict
        assert rep.diffeo.verdict
        assert all(r.verdict for r in rep.foliations)
        assert rep.line_check is not None and rep.line_check.verdict
        assert rep.line_check.n_leaves == 7

    def test_numerical_headroom_at_tighter_tolerance(self):
        rep = verify_linearization(tol=1e-9)
        assert rep.overall_pass

    def test_identity_fails_only_in_third_foliation(self, identity_report):
        rep = identity_report
        assert not rep.overall_pass
        by_fol = {r.foliation: r for r in rep.foliations}
        assert by_fol[1].verdict and by_fol[2].verdict
        assert not by_fol[3].verdict
        assert by_fol[3].max_residual >= 1e-3
        assert rep.line_check is None

    def test_zero_margin_fails_in_degeneracy_stage_only(self, paper_web):
        web = ThreeWeb(paper_web.foliations, dataclasses.replace(paper_web.domain, margin=0.0))
        rep = verify_linearization(web, grid=(33, 33))
        assert not rep.overall_pass
        assert not rep.general_position.verdict
        assert not rep.diffeo.verdict
        # straightness of the images is undamaged
        assert all(r.verdict for r in rep.foliations)
        assert rep.line_check.verdict

    def test_line_formula_values(self, theorem_report):
        # spot-check one F1 trace against the closed-form image line
        pre, post = theorem_report.foliations[0].leaves[0]
        c = pre.level
        xbar, ybar = post.vertices[:, 0], post.vertices[:, 1]
        assert np.abs(xbar - (c + ybar) * math.exp(-c)).max() <= 1e-9


class TestVerifyFamily:
    def test_unit_shear(self):
        rep = verify_family("1", "1")
        assert rep.overall_pass
        pre, post = rep.foliations[0].leaves[0]
        c = pre.level
        assert np.abs(post.vertices[:, 0] - (c + post.vertices[:, 1])).max() <= 1e-12

    def test_exponential_member_matches_theorem_run(self, theorem_report):
        dom = Domain(box=(-2, 2, -2, 2), exclude=parse("1-x-y"), margin=0.05)
        rep = verify_family("exp(-x)", "exp(-x)", dom)
        assert rep.overall_pass
        assert rep.to_dict().keys() == theorem_report.to_dict().keys()
        assert [r.verdict for r in rep.foliations] == [
            r.verdict for r in theorem_report.foliations
        ]

    def test_quadratic_member(self):
        rep = verify_family("1+x", "2", Domain(box=(0, 2, -2, 2)))
        assert rep.overall_pass
        pre, post = rep.foliations[0].leaves[0]
        c = pre.level
        expected = (1.0 + c) * c + 2.0 * post.vertices[:, 1]
        assert np.abs(post.vertices[:, 0] - expected).max() <= 1e-9

    def test_general_position_precondition_visible(self):
        # box straddles f_x = 1 + 2x = 0, so the pipeline must not pass
        rep = verify_family("1+x", "2", Domain(box=(-2, 2, -2, 2)))
        assert not rep.overall_pass
        assert not rep.general_position.verdict


class TestVerifyMap:
    def test_identity_linearizes_an_already_linear_web(self, parallel_web):
        rep = verify_map(parallel_web, identity_map())
        assert rep.overall_pass
        assert rep.line_check is None

    def test_identity_fails_on_paper_web(self, paper_web):
        rep = verify_map(paper_web, identity_map())
        assert not rep.overall_pass

    def test_custom_map(self, paper_web):
        rep = verify_map(paper_web, linearizing_map(paper_web))
        assert rep.overall_pass
