"""Webs, domains, general position, and leaf tracing.

Closed-form leaf checks: on the bundled web the third foliation's leaf
through (1,1) is y = 2 e^(x-1) - x (level 2/e) and the leaf through the
origin is the straight line y = -x (level 0); both follow from solving
(x+y) e^-x = const by hand.
"""

import dataclasses
import gc
import io
import math
import re
import sys
import tokenize
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import triweb.cli
import triweb.kernels
import triweb.web
from conftest import overlap_hausdorff
from triweb.errors import ConfigError, EvalDomainError, TraceError
from triweb.expr import parse
from triweb.analysis import curvature_grid, parallelizability_report
from triweb.kernels import jet_coeffs
from triweb.transform import PlaneMap, diffeo_report, identity_map, linearizing_map
from triweb.web import (
    DEFAULT_GRID,
    EPS_GRAD,
    H_STEP,
    PROJ_MAX_ITER,
    PROJ_TOL,
    TOL_LEVEL,
    Domain,
    Foliation,
    Survey,
    ThreeWeb,
    _walker_source,
    builtin_web,
    family_web,
    general_position_report,
    trace_leaf,
    walk_on_leaf,
)

TWO_OVER_E = 2.0 * math.exp(-1.0)  # 0.7357588823428847
H_MAX = 2 * H_STEP  # bound on the spacing of traced vertices


class TestDomain:
    def test_admissibility_band(self, paper_web):
        d = paper_web.domain
        assert not d.admissible((0.5, 0.5))  # g = 0 on the locus
        assert d.admissible((0.5, 0.55))  # |g| = 0.05 sits on the edge
        assert d.admissible((0.0, 0.0))
        assert not d.admissible((3.0, 0.0))  # outside the box

    def test_zero_margin_keeps_everything(self):
        d = Domain(box=(-1, 1, -1, 1), exclude=parse("1-x-y"), margin=0.0)
        assert d.admissible((0.5, 0.5))

    def test_degenerate_box_rejected(self):
        with pytest.raises(ConfigError):
            Domain(box=(1, 1, 0, 2))
        with pytest.raises(ConfigError):
            Domain(box=(0, 1, 0, 1), margin=-0.1)

    def test_non_finite_box_rejected(self):
        for box in ((-math.inf, 1, 0, 1), (0, 1, 0, math.inf), (0, math.nan, 0, 1)):
            with pytest.raises(ConfigError):
                Domain(box=box)

    def test_grid_requires_2x2(self):
        with pytest.raises(ConfigError):
            Domain().survey((1, 5))

    def test_mask_matches_pointwise(self, paper_web):
        d = paper_web.domain
        xx, yy = np.meshgrid(np.linspace(-2, 2, 11), np.linspace(-2, 2, 11))
        xs, ys = xx.ravel(), yy.ravel()
        mask = d.admissible_mask(xs, ys)
        for i in range(xs.size):
            assert mask[i] == d.admissible((xs[i], ys[i]))
        # the survey keeps exactly these points, x varying fastest
        s = d.survey((11, 11))
        assert (s.n_total, s.nx, s.ny) == (121, 11, 11)
        assert [jets for _, jets in s.jets([])] == [[]]  # one chunk, no programs
        assert np.array_equal(s.xs, xs[mask]) and np.array_equal(s.ys, ys[mask])

    def test_survey_is_read_only_and_leaves_its_input(self, paper_web):
        xs, ys = np.array([-1.0, -0.5, 0.0]), np.zeros(3)
        s = Survey(xs, ys, 3, 3, 1)
        assert not (s.xs.flags.writeable or s.ys.flags.writeable)
        # neither the survey nor a report on it freezes the caller's arrays
        rep = parallelizability_report(paper_web, s)
        assert rep.xs is s.xs and not rep.kappa.flags.writeable
        assert xs.flags.writeable and ys.flags.writeable

    def test_unevaluable_exclusion_means_inadmissible(self):
        # ln(x) cannot be evaluated for x <= 0: those points drop out
        d = Domain(box=(-1, 1, -1, 1), exclude=parse("ln(x)"), margin=0.1)
        assert not d.admissible((-0.5, 0.0))
        assert d.admissible((0.5, 0.0))  # |ln 0.5| = 0.69 >= 0.1
        mask = d.admissible_mask(np.array([-0.5, 0.5]), np.array([0.0, 0.0]))
        assert list(mask) == [False, True]

    def test_foliation_index_bounds(self, paper_web):
        with pytest.raises(ConfigError):
            paper_web.foliation(0)
        with pytest.raises(ConfigError):
            paper_web.foliation(4)


class TestBuiltinWebs:
    def test_paper_values(self, paper_web):
        u3 = paper_web.foliation(3)
        assert jet_coeffs(u3.program, 1.0, 1.0, order=1)[0] == pytest.approx(TWO_OVER_E, rel=1e-15)
        assert jet_coeffs(u3.program, 0.0, 0.0, order=1)[0] == 0.0
        assert paper_web.is_normal_form
        assert paper_web.domain.margin == 0.05

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown builtin"):
            builtin_web("nope")

    def test_registry(self):
        for name in ("paper", "parallel", "product"):
            w = builtin_web(name)
            assert w.is_normal_form


class TestFamilyWeb:
    def test_exponential_member_reproduces_paper_integral(self, paper_web):
        w = family_web("exp(-x)", "exp(-x)", paper_web.domain)
        u3 = w.foliation(3)
        ref = paper_web.foliation(3)
        for p in [(0.3, -0.7), (1.1, 0.4), (-0.8, 0.2)]:
            want = jet_coeffs(ref.program, *p, order=1)[0]
            assert jet_coeffs(u3.program, *p, order=1)[0] == pytest.approx(want, rel=1e-14)

    def test_unit_coefficients_give_sum(self):
        w = family_web("1", "1")
        assert jet_coeffs(w.foliation(3).program, 0.7, -0.2, order=1)[0] == pytest.approx(0.5)

    def test_a1_bx_member(self):
        u3 = family_web("1", "x").foliation(3).program
        assert jet_coeffs(u3, 2.0, 3.0, order=1)[0] == pytest.approx(8.0)  # x + x*y

    def test_y_dependence_rejected(self):
        with pytest.raises(ConfigError, match="mentions y"):
            family_web("1+y", "1")
        with pytest.raises(ConfigError, match="mentions y"):
            family_web("1", "sin(y)")


class TestGeneralPosition:
    def test_paper_default_passes(self, paper_web):
        rep = general_position_report(paper_web, paper_web.domain.survey(DEFAULT_GRID))
        assert rep.verdict
        # min pairwise det is e^-x |1-x-y| at x=2 with the grid's smallest
        # off-band |1-x-y| = 0.1
        assert rep.min_pairwise_det == pytest.approx(math.exp(-2) * 0.1, rel=1e-9)

    def test_zero_margin_fails_exactly_on_locus(self, paper_web):
        web = ThreeWeb(paper_web.foliations, dataclasses.replace(paper_web.domain, margin=0.0))
        rep = general_position_report(web, web.domain.survey((33, 33)))
        assert not rep.verdict
        # step 1/8 makes x+y = 1 land exactly on grid points
        locus = {(x, 1.0 - x) for x in np.linspace(-2, 2, 33) if -2 <= 1.0 - x <= 2}
        failing = {(f.x, f.y) for f in rep.failures}
        assert failing == locus
        assert all(f.check == "pair23" for f in rep.failures)

    def test_zero_margin_fails_on_default_grid_too(self, paper_web):
        # the 41x41 grid hits x+y = 1 only up to rounding, but the
        # resulting determinants still sit far below the threshold
        web = ThreeWeb(paper_web.foliations, dataclasses.replace(paper_web.domain, margin=0.0))
        rep = general_position_report(web, web.domain.survey(DEFAULT_GRID))
        assert not rep.verdict
        for f in rep.failures:
            assert abs(1.0 - f.x - f.y) < 1e-9

    def test_parallel_passes_everywhere(self, parallel_web):
        rep = general_position_report(parallel_web, parallel_web.domain.survey(DEFAULT_GRID))
        assert rep.verdict
        assert rep.min_pairwise_det == pytest.approx(1.0)

    def test_family_1_x_fails_on_x_axis(self):
        # f = x + x*y has d f/dy = x, so F1 and F3 become tangent at x = 0
        w = family_web("1", "x", Domain(box=(-1, 1, -0.5, 1)))
        rep = general_position_report(w, w.domain.survey((5, 5)))
        assert not rep.verdict
        assert {f.x for f in rep.failures} == {0.0}
        assert {f.check for f in rep.failures} == {"pair13"}

    def test_eval_errors_carry_point(self):
        w = ThreeWeb(
            (
                Foliation(parse("x")),
                Foliation(parse("y")),
                Foliation(parse("y+ln(x)")),
            ),
            Domain(box=(-1, 1, -1, 1)),
        )
        with pytest.raises(EvalDomainError, match="ln") as err:
            general_position_report(w, w.domain.survey((5, 5)))
        # the failing op is named once, as a point jet names it
        assert (err.value.fragment, err.value.point) == ("ln(x)", (-1.0, -1.0))
        assert str(err.value).count("ln(x)") == 1

    def test_empty_admissible_grid_is_config_error(self):
        # |1| < 2 everywhere: no point of the box is admissible
        w = ThreeWeb.from_integrals(("x", "y", "x+y"), Domain((0, 1, 0, 1), parse("1"), 2.0))
        empty = np.empty(0)
        surveys = (lambda: w.domain.survey(DEFAULT_GRID), lambda: Survey(empty, empty, 4, 2, 2))
        reports = (
            lambda s: general_position_report(w, s),
            lambda s: diffeo_report(identity_map(), s),
            lambda s: parallelizability_report(w, s),
        )
        for survey in surveys:
            for report in reports:
                with pytest.raises(ConfigError, match="no admissible grid points"):
                    report(survey())


class TestChunkedSurvey:
    """Grid reports take their jets a chunk of points at a time
    (``kernels._CHUNK``, made small here), with the results and the errors
    of one pass over the whole survey."""

    @pytest.fixture
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(triweb.kernels, "_CHUNK", 4)

    def reports(self, web, survey):
        return (
            general_position_report(web, survey).to_dict(),
            diffeo_report(linearizing_map(web), survey).to_dict(),
        )

    def test_reports_do_not_depend_on_the_chunk(self, paper_web, monkeypatch):
        # on the locus, with failures in many chunks, and off it
        locus = ThreeWeb(paper_web.foliations, dataclasses.replace(paper_web.domain, margin=0.0))

        def run():
            s = paper_web.domain.survey((21, 19))
            on_locus = self.reports(locus, locus.domain.survey((33, 33)))
            return on_locus, self.reports(paper_web, s), curvature_grid(paper_web, s)[2]

        whole = run()
        monkeypatch.setattr(triweb.kernels, "_CHUNK", 5)
        chunked = run()
        assert chunked[:2] == whole[:2] and whole[0][0]["n_failures"] > 0
        assert np.array_equal(chunked[2], whole[2])

    def test_survey_does_not_depend_on_the_chunk(self, paper_web, small_chunks):
        d = paper_web.domain
        xx, yy = np.meshgrid(np.linspace(-2, 2, 13), np.linspace(-2, 2, 7))
        mask = d.admissible_mask(xx.ravel(), yy.ravel())
        s = d.survey((13, 7))
        assert np.array_equal(s.xs, xx.ravel()[mask]) and np.array_equal(s.ys, yy.ravel()[mask])
        assert [part for part, _ in s.jets([])] == [slice(lo, lo + 4) for lo in range(0, s.xs.size, 4)]

    @pytest.mark.parametrize("report", [
        lambda w, s: general_position_report(w, s),
        lambda w, s: diffeo_report(PlaneMap(*w.foliations[:2]), s),
    ])
    def test_first_program_to_fail_wins_across_chunks(self, small_chunks, report):
        # F1 fails only from y = 1.5, in a late chunk; F2 at x = -2, from the first
        w = ThreeWeb.from_integrals(("sqrt(1.5-y)", "ln(x+1.9)", "x+y"), Domain())
        with pytest.raises(EvalDomainError) as err:
            report(w, w.domain.survey((9, 9)))
        assert (err.value.fragment, err.value.point) == ("sqrt(1.5-y)", (-2.0, 1.5))

    def test_jet_failure_comes_before_a_degenerate_direction(self, small_chunks):
        # f_x = 2x vanishes at (0, -1), in the first chunk; ln(1-y) fails at y = 1, in the last
        w = ThreeWeb.from_integrals(("x", "y", "x^2+y+ln(1-y)"), Domain((-1, 1, -1, 1)))
        with pytest.raises(EvalDomainError) as err:
            curvature_grid(w, w.domain.survey((5, 5)))
        assert (err.value.fragment, err.value.point) == ("ln(1-y)", (-1.0, 1.0))
        # without the failure, the first degenerate point is named
        w = ThreeWeb.from_integrals(("x", "y", "x^2+y"), Domain((-1, 1, -1, 1)))
        with pytest.raises(EvalDomainError, match="degenerate direction") as err:
            curvature_grid(w, w.domain.survey((5, 5)))
        assert err.value.point == (0.0, -1.0)


class TestGridMemory:
    """The survey and its reports hold the admissible points, K and one chunk
    of jets, not jets of every grid point: at 1000 x 1000 their traced peak
    stays under 40 bytes a grid point (about 126 with whole-survey jets)."""

    N = 1000

    def bytes_per_point(self, run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] / self.N**2
        finally:
            tracemalloc.stop()

    def test_analyze_reports(self, paper_web):
        def run():
            s = paper_web.domain.survey((self.N, self.N))
            general_position_report(paper_web, s)
            parallelizability_report(paper_web, s)

        assert self.bytes_per_point(run) <= 40

    def test_verify_map_reports(self, paper_web):
        def run():
            s = paper_web.domain.survey((self.N, self.N))
            general_position_report(paper_web, s)
            diffeo_report(linearizing_map(paper_web), s)

        assert self.bytes_per_point(run) <= 40


class TestTraceLeaf:
    def test_vertical_leaf(self, paper_web):
        leaf = trace_leaf(paper_web.foliation(1), (0.5, 0.0), 3.0, paper_web.domain, 1)
        v = leaf.vertices
        assert np.abs(v[:, 0] - 0.5).max() == 0.0
        # truncated at the exclusion band around y = 0.5
        assert v[:, 1].max() <= 0.45 + 1e-12

    def test_closed_form_leaf_through_1_1(self, paper_web, free_box):
        leaf = trace_leaf(paper_web.foliation(3), (1.0, 1.0), 3.0, free_box, 3)
        assert leaf.level == pytest.approx(TWO_OVER_E, rel=1e-15)
        v = leaf.vertices
        dev = np.abs(v[:, 1] - (2.0 * np.exp(v[:, 0] - 1.0) - v[:, 0]))
        assert dev.max() <= 1e-9
        # the leaf crosses x = 0 at height 2/e
        assert v[:, 0].min() < 0.0 < v[:, 0].max()
        i = int(np.argmin(np.abs(v[:, 0])))
        assert v[i, 1] == pytest.approx(TWO_OVER_E, abs=2e-2)
        k = int(np.searchsorted(v[:, 0], 0.0)) if v[0, 0] < v[-1, 0] else None
        if k:  # linear interpolation through the crossing
            x0, y0 = v[k - 1]
            x1, y1 = v[k]
            y_at_zero = y0 + (0.0 - x0) * (y1 - y0) / (x1 - x0)
            assert y_at_zero == pytest.approx(TWO_OVER_E, abs=1e-4)

    def test_level_zero_leaf_is_a_line(self, paper_web, free_box):
        leaf = trace_leaf(paper_web.foliation(3), (0.0, 0.0), 2.0, free_box, 3)
        v = leaf.vertices
        assert np.abs(v[:, 1] + v[:, 0]).max() <= 1e-9

    def test_level_preserved(self, paper_web, free_box):
        leaf = trace_leaf(paper_web.foliation(3), (0.7, -0.3), 2.5, free_box, 3)
        u3 = paper_web.foliation(3).program
        drift = max(abs(jet_coeffs(u3, *p, order=1)[0] - leaf.level) for p in leaf.vertices)
        assert drift <= TOL_LEVEL

    def test_spacing_and_arcs(self, paper_web, free_box):
        leaf = trace_leaf(paper_web.foliation(3), (1.0, 1.0), 2.0, free_box, 3)
        seg = np.hypot(*np.diff(leaf.vertices, axis=0).T)
        assert seg.max() <= H_MAX
        assert np.all(np.diff(leaf.arcs) > 0)
        assert leaf.arcs[0] == 0.0
        assert leaf.arcs[-1] == pytest.approx(seg.sum(), rel=1e-12)

    def test_domain_respected(self, paper_web):
        leaf = trace_leaf(paper_web.foliation(3), (1.0, 1.0), 3.0, paper_web.domain, 3)
        g = parse("1-x-y")
        from triweb.expr import eval_value

        for p in leaf.vertices:
            assert abs(eval_value(g, p)) >= paper_web.domain.margin - 1e-15

    def test_retrace_consistency(self, paper_web, free_box):
        leaf = trace_leaf(paper_web.foliation(3), (1.0, 1.0), 2.0, free_box, 3)
        k = len(leaf) // 3
        again = trace_leaf(
            paper_web.foliation(3), tuple(leaf.vertices[k]), 2.0, free_box, 3
        )
        assert overlap_hausdorff(leaf.vertices, again.vertices) <= 1e-6

    def test_inadmissible_seed(self, paper_web):
        with pytest.raises(TraceError, match="not admissible"):
            trace_leaf(paper_web.foliation(3), (0.5, 0.5), 1.0, paper_web.domain)

    @pytest.mark.parametrize("max_arc", [math.nan, math.inf, 1e300])
    def test_non_finite_or_uncountable_max_arc(self, paper_web, max_arc):
        with pytest.raises(TraceError, match="max_arc must be positive and under"):
            trace_leaf(paper_web.foliation(3), (0.0, 0.0), max_arc, paper_web.domain)

    def test_vanishing_gradient_seed(self):
        fol = Foliation(parse("x*y"))
        with pytest.raises(TraceError, match="gradient vanishes"):
            trace_leaf(fol, (0.0, 0.0), 1.0, Domain(box=(-1, 1, -1, 1)))

    def test_gradient_collapse_mid_trace_flags(self):
        # the level-0 leaf of x*y through (0.5, 0) is the x-axis, where
        # grad = (0, x) collapses at the origin; the backward direction
        # must truncate there and say so
        fol = Foliation(parse("x*y"))
        d = Domain(box=(-1, 1, -1, 1))
        leaf = trace_leaf(fol, (0.5, 0.0), 1.0, d)
        assert any("gradient_collapse" in f for f in leaf.flags)
        assert leaf.vertices[:, 0].min() > -1e-6


class TestWalkOnLeaf:
    def test_straight_walk_exact(self, paper_web):
        p = walk_on_leaf(paper_web.foliation(1), (0.0, 0.0), 0.5, paper_web.domain)[-1]
        assert p[0] == 0.0
        assert p[1] == pytest.approx(-0.5, abs=1e-12)

    def test_returns_every_walked_point(self, paper_web, free_box):
        # the seed first, then steps of H_STEP and a shorter last one, all on the level
        fol = paper_web.foliation(3)
        pts = walk_on_leaf(fol, (1.0, 1.0), 0.255, free_box)
        assert pts[0] == (1.0, 1.0) and len(pts) == 27
        seg = np.hypot(*np.diff(np.array(pts), axis=0).T)
        assert seg[:-1] == pytest.approx(H_STEP, rel=1e-3)
        assert seg[-1] == pytest.approx(0.005, rel=1e-3)
        level = jet_coeffs(fol.program, 1.0, 1.0, order=1)[0]
        assert all(abs(jet_coeffs(fol.program, *p, order=1)[0] - level) <= TOL_LEVEL for p in pts)

    def test_walk_roundtrip(self, paper_web, free_box):
        start = (1.0, 1.0)
        out = walk_on_leaf(paper_web.foliation(3), start, 0.7, free_box)[-1]
        back = walk_on_leaf(paper_web.foliation(3), out, -0.7, free_box)[-1]
        assert math.hypot(back[0] - start[0], back[1] - start[1]) <= 1e-9

    def test_walk_leaves_domain(self, paper_web):
        with pytest.raises(TraceError, match="left the admissible domain"):
            walk_on_leaf(paper_web.foliation(1), (0.0, 1.05), 0.5, paper_web.domain)

    def test_huge_arc_walks_lazily_to_the_boundary(self, paper_web):
        # 1e11 steps: a step list built up front would not fit in memory
        with pytest.raises(TraceError, match="left the admissible domain"):
            walk_on_leaf(paper_web.foliation(1), (0.0, 0.0), 1e9, paper_web.domain)

    @pytest.mark.parametrize("arc", [math.nan, math.inf, -math.inf])
    def test_non_finite_arc(self, paper_web, arc):
        with pytest.raises(TraceError, match="finite"):
            walk_on_leaf(paper_web.foliation(1), (0.0, 0.0), arc, paper_web.domain)

    @pytest.mark.parametrize("arc", [1e300, -1e300])
    def test_arc_of_too_many_steps(self, paper_web, arc):
        # 1e302 steps: more than itertools.repeat can count
        with pytest.raises(TraceError, match="under 9223372036854775807 steps"):
            walk_on_leaf(paper_web.foliation(1), (0.0, 0.0), arc, paper_web.domain)


class TestClosedLeaves:
    def test_circle_stops_after_one_turn(self):
        # the leaf of x^2 + y^2 through (0.5, 0) is the circle of radius 0.5,
        # pi = 314.16 steps of 0.01 round: without the closing rule the walk
        # wraps it again and again up to max-arc in both directions
        fol = Foliation(parse("x^2+y^2"))
        leaf = trace_leaf(fol, (0.5, 0.0), 10.0, Domain(box=(-2, 2, -2, 2)))
        assert len(leaf) == 315
        assert leaf.flags == ("closed",)
        v = leaf.vertices
        assert math.hypot(*(v[-1] - v[0])) < H_STEP
        assert np.abs(np.hypot(v[:, 0], v[:, 1]) - 0.5).max() <= 1e-9
        assert leaf.arcs[-1] == pytest.approx(math.pi - 0.0016, abs=1e-3)

    def test_short_budget_is_not_closed(self):
        fol = Foliation(parse("x^2+y^2"))
        leaf = trace_leaf(fol, (0.5, 0.0), 1.0, Domain(box=(-2, 2, -2, 2)))
        assert len(leaf) == 201 and leaf.flags == ()


# ---------------------------------------------------------------------------
# One step of the generated walker against the plain-Python stepper it
# replaced
# ---------------------------------------------------------------------------


class _Collapse(Exception):
    """The reference stepper's gradient fell below EPS_GRAD."""


def _tangent(program, x, y):
    _, gx, gy = jet_coeffs(program, x, y, order=1)
    n = math.hypot(gx, gy)
    if n < EPS_GRAD:
        raise _Collapse()
    return gy / n, -gx / n


def _rk4_step(program, x, y, h):
    t1x, t1y = _tangent(program, x, y)
    t2x, t2y = _tangent(program, x + 0.5 * h * t1x, y + 0.5 * h * t1y)
    t3x, t3y = _tangent(program, x + 0.5 * h * t2x, y + 0.5 * h * t2y)
    t4x, t4y = _tangent(program, x + h * t3x, y + h * t3y)
    return (
        x + h / 6.0 * (t1x + 2.0 * t2x + 2.0 * t3x + t4x),
        y + h / 6.0 * (t1y + 2.0 * t2y + 2.0 * t3y + t4y),
    )


def _project(program, x, y, level):
    for _ in range(PROJ_MAX_ITER):
        u, gx, gy = jet_coeffs(program, x, y, order=1)
        r = u - level
        if abs(r) <= PROJ_TOL:
            return x, y, True
        n2 = gx * gx + gy * gy
        if n2 < EPS_GRAD * EPS_GRAD:
            raise _Collapse()
        x -= r * gx / n2
        y -= r * gy / n2
    u = jet_coeffs(program, x, y, order=1)[0]
    return x, y, abs(u - level) <= TOL_LEVEL


def reference_advance(program, level, x, y, ds):
    """One projected RK4 step, one jet call per stage and Newton step."""
    xn, yn = _rk4_step(program, x, y, ds)
    return _project(program, xn, yn, level)


def reference_step(fol, x, y, gx, gy, h, level):
    """The reference step in the form of ``walker_step``; it ignores the
    gradient it is given and takes the one at its new point by a jet."""
    xn, yn, converged = reference_advance(fol.program, level, x, y, h)
    if not converged:
        return "stall", xn, yn
    return "ok", xn, yn, *jet_coeffs(fol.program, xn, yn, order=1)[1:]


_FREE = Domain((-sys.float_info.max, sys.float_info.max) * 2)  # every finite point


def walker_step(fol, x, y, gx, gy, h, level):
    """A walk of one step, as the hexagon's crossing refinement takes it:
    ("ok", x, y, gx, gy) with the gradient at the new point, or ("stall",
    x, y) at the point off its level; the walk's error, or _Collapse, is
    raised."""
    pts, stop, at = _FREE.walker(fol)(x, y, gx, gy, (h,), level)
    if stop is None:
        assert pts == [at[:2]]
        return "ok", *at
    assert not pts
    if stop == "projection_stall":
        return "stall", *at
    if stop == "domain_exit":
        raise at
    assert (stop, at) == ("gradient_collapse", (x, y))
    raise _Collapse()


def _outcome(step):
    """A step's result with its floats as hex, or what it raised."""
    try:
        return [v.hex() if isinstance(v, float) else v for v in step()]
    except EvalDomainError as exc:
        return ["EvalDomainError", str(exc), exc.fragment, exc.point]
    except _Collapse:
        return ["gradient collapse"]


def _walk_both(fol, p0, steps):
    """The outcomes of the generated and the reference step along the same
    walk; the generated one gets the gradient it returned last."""
    x, y = p0
    level, gx, gy = jet_coeffs(fol.program, x, y, order=1)
    pairs = []
    for h in steps:
        got, want = (_outcome(lambda: step(fol, x, y, gx, gy, h, level))
                     for step in (walker_step, reference_step))
        pairs.append((got, want))
        if got[0] != "ok":
            break
        x, y, gx, gy = (float.fromhex(v) for v in got[1:])
    return pairs


_STEPPER_WEBS = {
    "paper": builtin_web("paper").foliations,
    "family": family_web("1+x", "exp(x)").foliations,
    "sqrt": (Foliation(parse("x")), Foliation(parse("y")), Foliation(parse("y+sqrt(x+1)"))),
    # constant gradients: the first two are folded, 1e-7*x is below EPS_GRAD
    "affine": tuple(Foliation(parse(u)) for u in ("x-2*y", "0.5*x+y", "1e-7*x")),
}


class TestStepperMatchesReference:
    @given(
        web=st.sampled_from(sorted(_STEPPER_WEBS)),
        index=st.integers(0, 2),
        x=st.floats(-1.0, 1.5),
        y=st.floats(-1.5, 1.5),
        steps=st.lists(
            st.sampled_from([H_STEP, -H_STEP, 0.05, -0.3, 2.0, -2.0])
            | st.floats(-0.5, 0.5).filter(bool),
            min_size=1,
            max_size=12,
        ),
    )
    def test_points_and_gradients_bitwise(self, web, index, x, y, steps):
        fol = _STEPPER_WEBS[web][index]
        try:
            jet_coeffs(fol.program, x, y, order=1)
        except EvalDomainError:
            return  # no leaf through a point where u cannot be evaluated
        for got, want in _walk_both(fol, (x, y), steps):
            assert got == want

    @given(
        x=st.floats(-0.9999, -0.8),
        y=st.floats(-1.5, 1.5),
        steps=st.lists(st.floats(-0.3, 0.0).filter(bool), min_size=1, max_size=12),
    )
    def test_walks_into_the_end_of_a_sqrt_leaf(self, x, y, steps):
        pairs = _walk_both(_STEPPER_WEBS["sqrt"][2], (x, y), steps)
        for got, want in pairs:
            assert got == want

    def test_domain_error_names_the_stage_point(self):
        # the leaf y + sqrt(x+1) = c ends at x = -1; a step towards it puts
        # an RK4 stage point where sqrt(x+1) is undefined
        fol = _STEPPER_WEBS["sqrt"][2]
        (got, want), = _walk_both(fol, (-0.999, 0.0), [-0.05])
        assert got == want
        assert got[0] == "EvalDomainError" and "sqrt of non-positive" in got[1]
        assert got[2] == "sqrt(x+1)" and got[3][0] < -1.0

    def test_gradient_collapse_in_the_same_stage(self):
        # from (0.005, 0) the second RK4 stage of a backward step lands on
        # the origin, where grad(x*y) vanishes
        fol = Foliation(parse("x*y"))
        assert _walk_both(fol, (0.005, 0.0), [-H_STEP]) == [(["gradient collapse"],) * 2]

    @pytest.mark.parametrize(
        "text,p0,h",
        [
            ("sin(5*x)+y", (0.012440656289377738, 1.8700569248230368), 2.0),
            ("exp(3*x)*y", (1.6421356234530933, -0.7237972190525634), 2.0),
        ],
    )
    def test_projection_stall_in_the_same_cases(self, text, p0, h):
        (got, want), = _walk_both(Foliation(parse(text)), p0, [h])
        assert got == want
        assert got[0] == "stall"

    def test_gradient_below_eps_collapses_unfolded(self):
        fol = _STEPPER_WEBS["affine"][2]
        assert fol.program.constant_gradient == (1e-7, 0.0)
        assert _walk_both(fol, (0.3, 0.2), [H_STEP]) == [(["gradient collapse"],) * 2]

    def test_fold_keeps_a_failing_newton_check(self):
        # |grad u| >= EPS_GRAD, but gx * gx + gy * gy < EPS_GRAD^2: off its
        # level, the first Newton step must collapse
        fol = Foliation(parse("9.967311300555508e-08*x+9.950202362483798e-07*y"))
        gx, gy = fol.program.constant_gradient
        assert math.hypot(gx, gy) >= EPS_GRAD and gx * gx + gy * gy < EPS_GRAD**2
        got, want = (_outcome(lambda: step(fol, 0.0, 0.0, gx, gy, H_STEP, 1e-9))
                     for step in (walker_step, reference_step))
        assert got == want == ["gradient collapse"]

    @pytest.mark.parametrize("text,folded", [("x", True), ("x-2*y", True), ("1e-7*x", False)])
    def test_constant_gradients_fold(self, text, folded):
        fold = Foliation(parse(text)).program.constant_gradient
        for stop in (None, "crossed"):  # the closed stop's test calls hypot itself
            source = _walker_source(fold, stop, False)
            assert ("hypot" in source) is not folded
            assert ("n2 = gx * gx + gy * gy" in source) is not folded

    def test_source_holds_only_generated_names_and_literals(self, monkeypatch):
        sources = []
        bind = triweb.kernels._bind

        def spy(code, names, name="jet"):
            if name == "walk":
                sources.append(code)
            return bind(code, names, name)

        monkeypatch.setattr(triweb.kernels, "_bind", spy)
        target = Foliation(parse("sin(x)+y"))
        texts = ("(x+y)*exp(-x)", "y+sqrt(x+1)", "ln(2+x)/(2+y)", "x^-2+2^x", "sin(x)*cos(y)", "x")
        for text in texts:
            fol = Foliation(parse(text))
            domain = Domain((-1.5, 1.5, -1.0, 1.0), parse("ln(3+x)-y"), 0.01)
            for stop in (None, "closed", "crossed"):
                domain.walker(fol, stop, target if stop == "crossed" else None)
        assert len(sources) == 3 * len(texts)
        bound = {"def", "if", "return", "True", "False", "abs", "hypot", "exp", "log", "sin",
                 "cos", "sqrt", "inf", "nan", "while", "_"}
        # the walkers: control flow, their arguments and bound names, and one
        # fail per inlined program
        bound |= {"walk", "for", "in", "try", "except", "as", "break", "not", "and", "None",
                  "len", "append", "pts", "steps", "exc", "EvalDomainError", "xmin", "xmax",
                  "ymin", "ymax", "margin", "x0", "y0", "tlevel", "phi", "q", "tu", "tx", "ty",
                  "e", "ex", "ey", "jet_fail", "exclude_fail", "target_fail"}
        reasons = {"'boundary'", "'domain_exit'", "'gradient_collapse'", "'projection_stall'",
                   "'closed'", "'crossed'"}
        generated = re.compile(r"[xy]|[gsp][xy]|h|level|[unr]|n2|t\d+[xy]|t\d+_\d+")
        for code in sources:
            assert not re.search(r"= (jet|exclude|target)\(", code)
            for tok in tokenize.generate_tokens(io.StringIO(code).readline):
                if tok.type == tokenize.STRING:
                    assert tok.string in reasons, tok
                elif tok.type == tokenize.NAME:
                    assert tok.string in bound or generated.fullmatch(tok.string), tok
                elif tok.type == tokenize.NUMBER:
                    float(tok.string)


# ---------------------------------------------------------------------------
# The generated walker against the Python walk loop it replaced
# ---------------------------------------------------------------------------


def reference_walk(fol, domain, level, p0, steps, stop=None):
    """Walk the leaf u = level of ``fol`` from ``p0`` by ``steps`` with the
    reference stepper, admitting points by ``Domain.admissible``.  ``stop(k,
    x, y)``, on the k-th point from 1, may end the walk with (reason, where)."""
    x, y = p0
    pts = []
    for k, ds in enumerate(steps, 1):
        try:
            xn, yn, converged = reference_advance(fol.program, level, x, y, ds)
        except _Collapse:
            return pts, "gradient_collapse", (x, y)
        except EvalDomainError as exc:
            return pts, "domain_exit", exc
        if not converged:
            return pts, "projection_stall", (xn, yn)
        if not domain.admissible((xn, yn)):
            return pts, "boundary", (xn, yn)
        pts.append((xn, yn))
        x, y = xn, yn
        end = stop(k, x, y) if stop is not None else None
        if end is not None:
            return pts, *end
    return pts, None, (x, y, *jet_coeffs(fol.program, x, y, order=1)[1:])


def _closed(x0, y0):
    def stop(k, x, y):  # back within one step of the seed after three
        return ("closed", (x, y)) if k >= 3 and math.hypot(x - x0, y - y0) < H_STEP else None

    return stop


def _crossed(target, tlevel, phi0):
    phis = [phi0]

    def stop(k, x, y):
        phis.append(jet_coeffs(target.program, x, y, order=1)[0] - tlevel)
        return ("crossed", phis[-2]) if phis[-2] * phis[-1] <= 0.0 else None

    return stop


def _walk_result(walk):
    """A walk's points, reason and where with floats as hex, or the error it
    raised."""

    def hexed(v):
        if isinstance(v, EvalDomainError):
            return ["EvalDomainError", str(v), v.fragment, v.point]
        return v.hex() if isinstance(v, float) else [hexed(w) for w in v]

    try:
        pts, reason, where = walk()
    except EvalDomainError as exc:
        return ["raised", hexed(exc)]
    return [hexed(pts), reason, None if where is None else hexed(where)]


def _compare_walks(fol, domain, p0, steps, stop=None, target=None, tlevel=0.0):
    """The generated and the reference walk must agree bit for bit; returns
    the generated walk's result."""
    x, y = p0
    level, gx, gy = jet_coeffs(fol.program, x, y, order=1)
    extra, ref_stop = (), None
    if stop == "closed":
        ref_stop = _closed(x, y)
    elif stop == "crossed":
        phi0 = jet_coeffs(target.program, x, y, order=1)[0] - tlevel
        extra, ref_stop = (tlevel, phi0), _crossed(target, tlevel, phi0)
    walk = domain.walker(fol, stop, target)
    got = _walk_result(lambda: walk(x, y, gx, gy, iter(steps), level, *extra))
    want = _walk_result(lambda: reference_walk(fol, domain, level, p0, steps, ref_stop))
    assert got == want
    return got


_PAPER = builtin_web("paper")
_WALK_CASES = {
    "paper": (_PAPER.foliations, _PAPER.domain),
    "family": (family_web("1+x", "exp(x)").foliations, Domain((-1.0, 1.5, -1.5, 1.5))),
    "sqrt": (_STEPPER_WEBS["sqrt"], Domain((-2.0, 2.0, -2.0, 2.0))),
    "affine": (_STEPPER_WEBS["affine"], Domain((-1.0, 1.5, -1.5, 1.5), parse("1-x-y"), 0.05)),
    "ln": (_STEPPER_WEBS["paper"], Domain((-1.0, 1.0, -1.0, 1.0), parse("ln(x)"), 0.1)),
    "circle": ((Foliation(parse("x^2+y^2")), Foliation(parse("x*y")), Foliation(parse("y"))),
               Domain((-2.0, 2.0, -2.0, 2.0))),
}
_UNIT_BOX = (-1.0, 1.0, -1.0, 1.0)


class TestWalkerMatchesReference:
    # no explain phase: it traces every line of the generated walkers, and a
    # failure took minutes to report
    @settings(max_examples=300, phases=[p for p in Phase if p is not Phase.explain])
    @given(
        case=st.sampled_from(sorted(_WALK_CASES)),
        index=st.integers(0, 2),
        stop=st.sampled_from([None, "closed", "crossed"]),
        x=st.floats(-1.0, 1.5),
        y=st.floats(-1.5, 1.5),
        offset=st.floats(-0.5, 0.5),
        steps=st.lists(
            st.sampled_from([H_STEP, -H_STEP, 0.05, -0.3, 2.0, -2.0])
            | st.floats(-0.5, 0.5).filter(bool),
            max_size=40,
        ),
    )
    def test_walks_bitwise(self, case, index, stop, x, y, offset, steps):
        foliations, domain = _WALK_CASES[case]
        fol, target = foliations[index], foliations[index - 1]
        try:
            jet_coeffs(fol.program, x, y, order=1)
            tlevel = jet_coeffs(target.program, x, y, order=1)[0] + offset
        except EvalDomainError:
            return  # no leaf through a point where u cannot be evaluated
        if stop != "crossed":
            target = None
        _compare_walks(fol, domain, (x, y), steps, stop, target, tlevel)

    @pytest.mark.parametrize(
        "fol,domain,p0,steps,reason",
        [
            # F1 = x walks towards -y for h > 0: to the box edge y = -2, or
            # for h < 0 into the band |1-x-y| < 0.05 around y = 1
            (_PAPER.foliation(1), _PAPER.domain, (-1.0, -1.5), [H_STEP] * 20, None),
            (_PAPER.foliation(1), _PAPER.domain, (-1.0, -1.9), [H_STEP] * 20, "boundary"),
            (_PAPER.foliation(1), _PAPER.domain, (0.0, 0.9), [-H_STEP] * 20, "boundary"),
            # the leaf y + sqrt(x+1) = c ends at x = -1
            (_STEPPER_WEBS["sqrt"][2], Domain(), (-0.999, 0.0), [-0.05], "domain_exit"),
            # the second RK4 stage lands on the origin, where grad(x*y) vanishes
            (Foliation(parse("x*y")), Domain(_UNIT_BOX), (0.005, 0.0), [-H_STEP], "gradient_collapse"),
            (Foliation(parse("sin(5*x)+y")), Domain(),
             (0.012440656289377738, 1.8700569248230368), [2.0], "projection_stall"),
            (Foliation(parse("exp(3*x)*y")), Domain((-2.0, 2.0, -2.0, 2.0)),
             (1.6421356234530933, -0.7237972190525634), [2.0], "projection_stall"),
        ],
    )
    def test_every_ending(self, fol, domain, p0, steps, reason):
        got = _compare_walks(fol, domain, p0, steps)
        assert got[1] == reason
        if reason is None:
            assert len(got[0]) == len(steps)

    def test_boundary_where_the_exclusion_jet_fails(self):
        # F2 = y walks towards -x for h < 0; ln(x) fails past x = 0, which
        # is no error but the edge of the domain
        domain = _WALK_CASES["ln"][1]
        got = _compare_walks(_PAPER.foliation(2), domain, (0.5, 0.0), [-H_STEP] * 80)
        assert got[1] == "boundary"
        at = tuple(float.fromhex(v) for v in got[2])
        assert at[0] <= 0.0
        with pytest.raises(EvalDomainError):
            jet_coeffs(domain.exclude_program, *at, order=1)

    def test_closed(self):
        fol = _WALK_CASES["circle"][0][0]
        got = _compare_walks(fol, Domain(), (0.5, 0.0), [H_STEP] * 400, "closed")
        assert got[1] == "closed" and len(got[0]) == 314

    def test_crossed(self):
        # F1 = x walks down from the origin; ten steps of 0.01 end a rounding
        # error above y = -0.1, so the eleventh crosses
        got = _compare_walks(_PAPER.foliation(1), _PAPER.domain, (0.0, 0.0), [H_STEP] * 40,
                             "crossed", _PAPER.foliation(2), -0.1)
        assert got[1] == "crossed" and len(got[0]) == 11

    def test_failing_target_jet_raises(self):
        # sqrt(y) >= 0 never reaches level -1; past y = 0 its jet fails, and
        # that must raise, not read as the edge of the domain
        target = Foliation(parse("sqrt(y)"))
        got = _compare_walks(_PAPER.foliation(1), Domain(_UNIT_BOX), (0.0, 0.5), [H_STEP] * 80,
                             "crossed", target, -1.0)
        assert got[0] == "raised" and got[1][2] == "sqrt(y)"


class TestWalkerGeneration:
    def test_text_is_generated_once_per_integral_and_stop(self, monkeypatch, tmp_path):
        calls = []
        generate = triweb.web.inline_source

        def spy(template, codes):
            calls.append((template, tuple(codes.items())))
            return generate(template, codes)

        triweb.web._walker_text.cache_clear()
        monkeypatch.setattr(triweb.web, "inline_source", spy)
        for i, box in enumerate((["-2", "2", "-2", "2"], ["-1.9", "2.1", "-2.05", "1.95"])):
            argv = ["verify-theorem", "--builtin", "paper", "--box", *box, "--seeds", "2",
                    "--out", str(tmp_path / str(i))]
            assert triweb.cli.main(argv) == 0
            if i == 0:
                first = len(calls)
        # three integrals, each walked with and without the closed-leaf stop
        assert first == len(calls) == len(set(calls)) == 6

    def test_webs_are_not_kept_alive(self):
        web = builtin_web("paper")
        trace_leaf(web.foliation(3), (1.0, 1.0), 0.5, web.domain, 3)
        refs = [weakref.ref(web.domain), weakref.ref(web.foliation(3))]
        del web
        gc.collect()
        assert all(ref() is None for ref in refs)
