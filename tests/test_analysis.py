"""Curvature and hexagon-closure behavior.

The closed form K = -e^(2x) / (1-x-y)^3 for the bundled web follows by
hand from ln|f_x/f_y| = ln|1-x-y|: its mixed second derivative is
-(1-x-y)^-2 and f_x f_y = e^(-2x) (1-x-y).  The finite-difference oracle
below rebuilds K from raw function values only (no jets), so the two
routes share no code.
"""

import math

import numpy as np
import pytest

from triweb.errors import EvalDomainError, HexagonError, NormalFormError
from triweb.expr import eval_value, parse
from triweb.kernels import jet_coeffs
from triweb.analysis import (
    _leg_to_level,
    blaschke_curvature,
    curvature_grid,
    hexagon_defect,
    parallelizability_report,
)
from triweb.web import DEFAULT_GRID, Domain, Foliation, ThreeWeb, family_web


def paper_curvature_closed_form(x, y):
    return -np.exp(2.0 * x) / (1.0 - x - y) ** 3


def _fd4_values(f, center, axis, h):
    offs = (-2 * h, -h, h, 2 * h)
    vals = []
    for o in offs:
        p = (center[0] + o, center[1]) if axis == 0 else (center[0], center[1] + o)
        vals.append(f(p))
    m2, m1, p1, p2 = vals
    return (-p2 + 8 * p1 - 8 * m1 + m2) / (12 * h)


def curvature_fd_oracle(web, p, h_grad=1e-3, h_mix=2e-2):
    """K from raw function values only: finite-difference the partials of
    the web function, then the mixed second derivative of ln|f_x/f_y|."""
    f = web.foliation(3).integral

    def value(q):
        return eval_value(f, q)

    def log_ratio(q):
        fx = _fd4_values(value, q, 0, h_grad)
        fy = _fd4_values(value, q, 1, h_grad)
        return math.log(abs(fx / fy))

    offs = (-2 * h_mix, -h_mix, h_mix, 2 * h_mix)
    rows = []
    for ox in offs:
        col = [log_ratio((p[0] + ox, p[1] + oy)) for oy in offs]
        m2, m1, p1, p2 = col
        rows.append((-p2 + 8 * p1 - 8 * m1 + m2) / (12 * h_mix))
    m2, m1, p1, p2 = rows
    mixed = (-p2 + 8 * p1 - 8 * m1 + m2) / (12 * h_mix)

    fx = _fd4_values(value, p, 0, h_grad)
    fy = _fd4_values(value, p, 1, h_grad)
    return mixed / (fx * fy)


class TestCurvatureValues:
    def test_sum_web_everywhere_zero(self, parallel_web):
        for p in [(0.0, 0.0), (1.3, -0.7), (-1.9, 1.9)]:
            assert blaschke_curvature(parallel_web, p) == 0.0

    def test_paper_at_origin(self, paper_web):
        assert blaschke_curvature(paper_web, (0.0, 0.0)) == pytest.approx(
            -1.0, rel=1e-13
        )

    def test_paper_at_1_1(self, paper_web):
        assert blaschke_curvature(paper_web, (1.0, 1.0)) == pytest.approx(
            math.exp(2.0), rel=1e-13
        )

    def test_product_web_zero(self, product_web):
        for p in [(1.2, 1.8), (1.5, 1.5), (1.9, 1.1)]:
            assert blaschke_curvature(product_web, p) == 0.0

    def test_closed_form_on_grid(self, paper_web):
        xs, ys, kappa = curvature_grid(paper_web, paper_web.domain.survey(DEFAULT_GRID))
        ref = paper_curvature_closed_form(xs, ys)
        rel = np.abs(kappa - ref) / np.abs(ref)
        assert rel.max() <= 1e-10

    def test_point_equals_grid_bit_for_bit(self, paper_web):
        xs, ys, kappa = curvature_grid(paper_web, paper_web.domain.survey(DEFAULT_GRID))
        assert xs.size == 1650
        point = [blaschke_curvature(paper_web, p) for p in zip(xs, ys)]
        assert np.array_equal(point, kappa)

    def test_against_value_only_fd(self, paper_web):
        rng = np.random.default_rng(42)
        count = 0
        while count < 20:
            p = tuple(rng.uniform(-1.5, 1.5, 2))
            if abs(1.0 - p[0] - p[1]) < 0.3:
                continue
            k_jet = blaschke_curvature(paper_web, p)
            k_fd = curvature_fd_oracle(paper_web, p)
            assert abs(k_jet - k_fd) <= 1e-4 * abs(k_jet), (p, k_jet, k_fd)
            count += 1

    def test_fd_oracle_near_zero_for_parallel(self, parallel_web):
        assert abs(curvature_fd_oracle(parallel_web, (0.3, -0.4))) <= 1e-6

    def test_degenerate_direction_raises(self, paper_web):
        with pytest.raises(EvalDomainError, match="degenerate direction"):
            blaschke_curvature(paper_web, (0.5, 0.5))

    def test_normal_form_required(self):
        w = ThreeWeb(
            (
                Foliation(parse("x+y")),
                Foliation(parse("y-x")),
                Foliation(parse("x")),
            ),
            Domain(),
        )
        # the point is the grid on a one-point survey, so the two say the same
        with pytest.raises(NormalFormError) as point:
            blaschke_curvature(w, (0.0, 0.0))
        with pytest.raises(NormalFormError) as grid:
            curvature_grid(w, w.domain.survey(DEFAULT_GRID))
        assert str(point.value) == str(grid.value) == "curvature grid requires a normal-form web"


class TestParallelizabilityReport:
    def test_sum_web(self, parallel_web):
        rep = parallelizability_report(parallel_web, parallel_web.domain.survey(DEFAULT_GRID))
        assert rep.parallelizable
        assert rep.max_abs_curvature == 0.0

    def test_product_web(self, product_web):
        rep = parallelizability_report(product_web, product_web.domain.survey(DEFAULT_GRID))
        assert rep.parallelizable

    def test_paper_web(self, paper_web):
        rep = parallelizability_report(paper_web, paper_web.domain.survey(DEFAULT_GRID))
        assert not rep.parallelizable
        # |K| = e^(2x)/|1-x-y|^3 is smallest at the (-2,-2) corner where
        # the denominator reaches 5^3
        assert rep.min_abs_curvature == pytest.approx(
            math.exp(-4.0) / 125.0, rel=1e-10
        )
        assert rep.max_abs_curvature > 1.0

    def test_family_members(self, family_suite):
        expected = {
            ("1", "1"): True,
            ("exp(-x)", "exp(-x)"): False,
            ("1+x", "2"): True,
            ("2", "exp(x)"): False,
            ("1", "x"): True,
        }
        for a, b, dom in family_suite:
            rep = parallelizability_report(family_web(a, b, dom), dom.survey(DEFAULT_GRID))
            assert rep.parallelizable == expected[(a, b)], (a, b)


class TestHexagon:
    def test_parallel_closes_exactly(self, parallel_web):
        fig = hexagon_defect(parallel_web, (0.0, 0.0), 0.5)
        assert fig.defect <= 1e-9
        expected = np.array(
            [
                [0.0, -0.5],
                [-0.5, 0.0],
                [-0.5, 0.5],
                [0.0, 0.5],
                [0.5, 0.0],
                [0.5, -0.5],
                [0.0, -0.5],
            ]
        )
        assert np.abs(fig.points - expected).max() <= 1e-9

    def test_paper_fails_to_close(self, paper_web):
        fig = hexagon_defect(paper_web, (0.0, 0.0), 0.2)
        assert fig.defect > 1e-4

    def test_legs_end_on_target_levels(self, paper_web):
        fig = hexagon_defect(paper_web, (0.0, 0.0), 0.2)
        O = fig.center

        def value(i, p):
            return jet_coeffs(paper_web.foliation(i).program, p[0], p[1], order=1)[0]

        levels = [value(i, O) for i in (1, 2, 3)]
        pattern = ((3, 2), (1, 3), (2, 1), (3, 2), (1, 3), (2, 1))
        # P0 lies on the first foliation's leaf through the center
        assert abs(value(1, fig.points[0]) - levels[0]) <= 1e-9
        for i, (leg, target) in enumerate(pattern, start=1):
            p_prev, p_cur = fig.points[i - 1], fig.points[i]
            leg_level = value(leg, p_prev)
            assert abs(value(leg, p_cur) - leg_level) <= 1e-9
            assert abs(value(target, p_cur) - levels[target - 1]) <= 1e-9

    def test_radius_walk_has_length_r(self, parallel_web):
        fig = hexagon_defect(parallel_web, (0.0, 0.0), 0.37)
        d = math.hypot(fig.points[0][0], fig.points[0][1])
        assert d == pytest.approx(0.37, abs=1e-9)

    def test_defect_scaling(self, paper_web):
        radii = (0.2, 0.1, 0.05, 0.025)
        defects = [hexagon_defect(paper_web, (0.0, 0.0), r).defect for r in radii]
        assert all(d1 > d2 for d1, d2 in zip(defects, defects[1:]))
        slope = np.polyfit(np.log(radii), np.log(defects), 1)[0]
        assert slope >= 2.5

    def test_product_web_closes(self, product_web):
        # parallelizable but with curved leaves: the projections keep the
        # construction exact well below the closure tolerance
        fig = hexagon_defect(product_web, (1.5, 1.5), 0.2)
        assert fig.defect <= 1e-7

    def test_defect_invariant_under_diagonal_translation(self, paper_web):
        # shifting (x, y) by (t, -t) multiplies the web function by e^-t,
        # which rescales levels without moving any leaf, so the whole
        # figure is congruent and the defect must not change
        d0 = hexagon_defect(paper_web, (0.0, 0.0), 0.1).defect
        for t in (0.5, -0.7):
            dt = hexagon_defect(paper_web, (t, -t), 0.1).defect
            assert dt == pytest.approx(d0, rel=1e-9)

    def test_normal_form_not_required(self):
        w = ThreeWeb(
            (
                Foliation(parse("x+y")),
                Foliation(parse("y-x")),
                Foliation(parse("x")),
            ),
            Domain(box=(-2, 2, -2, 2)),
        )
        fig = hexagon_defect(w, (0.0, 0.0), 0.3)
        assert fig.defect <= 1e-9

    def test_inadmissible_center(self, paper_web):
        with pytest.raises(HexagonError, match="not admissible"):
            hexagon_defect(paper_web, (0.5, 0.5), 0.1)

    def test_construction_crossing_band_fails(self, paper_web):
        with pytest.raises(HexagonError):
            hexagon_defect(paper_web, (0.0, 1.05), 0.5)

    def test_bad_radius(self, paper_web):
        with pytest.raises(HexagonError, match="positive"):
            hexagon_defect(paper_web, (0.0, 0.0), 0.0)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_non_finite_radius(self, paper_web, radius):
        with pytest.raises(HexagonError, match="positive and finite"):
            hexagon_defect(paper_web, (0.0, 0.0), radius)

    def test_radius_beyond_a_walk_is_a_radius_walk_failure(self, paper_web):
        # 1e302 steps of H_STEP are more than a walk can count
        with pytest.raises(HexagonError, match="radius walk failed: arc must be finite"):
            hexagon_defect(paper_web, (0.0, 0.0), 1e300)

    @pytest.mark.parametrize(
        "x0,side,steps",
        [
            (0.02, 1, 43),  # forward crossing nearer
            (-0.02, -1, 43),  # backward crossing nearer
            (0.0, 1, 45),  # a tie: forward wins
            (-0.002, 1, 45),  # backward nearer in arc, but not in steps: forward wins
        ],
    )
    def test_leg_takes_the_nearer_crossing(self, x0, side, steps):
        # the leaves of y are the lines y = c, walked towards +x, and the
        # level set x^2 = 0.2 is the pair of lines x = +-0.4472
        web = ThreeWeb(
            (Foliation(parse("y")), Foliation(parse("x^2")), Foliation(parse("x+y"))), Domain()
        )
        q, path = _leg_to_level(web, 1, 2, (x0, 0.3), 0.2, 1.0)
        assert q == pytest.approx((side * math.sqrt(0.2), 0.3), abs=1e-9)
        assert len(path) == steps + 1 and path[0] == (x0, 0.3) and path[-1] == q
        assert (path[-2][0] - x0) * side == pytest.approx(0.01 * (steps - 1))

    def test_legs_recorded_for_export(self, parallel_web):
        fig = hexagon_defect(parallel_web, (0.0, 0.0), 0.5)
        assert len(fig.legs) == 7
        assert np.allclose(fig.legs[0][0], (0.0, 0.0))
        for i in range(1, 7):
            assert np.allclose(fig.legs[i][0], fig.points[i - 1])
            assert np.allclose(fig.legs[i][-1], fig.points[i])


def _refine_with(monkeypatch, step):
    """Bracket scans walk as they do; every one-step walk of the crossing
    refinement calls ``step`` instead."""
    real = Domain.walker

    def walker(domain, fol, stop=None, target=None):
        return real(domain, fol, stop, target) if stop == "crossed" else step

    monkeypatch.setattr(Domain, "walker", walker)


def _stuck(x, y, gx, gy, steps, level):
    """A one-step walker that never moves."""
    return [(x, y)], None, (x, y, gx, gy)


class TestCrossingRefinementExits:
    """Every end of the Newton refinement of a leg crossing.  The leaf x = 0
    of F1 = x is walked towards -y from the origin, to the level y = tlevel
    of F2 = y, which it crosses between its walk points (0, -0.05) and
    (0, -0.06).  Where geometry cannot produce an end, a fake one-step
    walker stands in."""

    def leg(self, tlevel, f1="x", domain=None):
        web = ThreeWeb.from_integrals((f1, "y", "x+y"), domain or Domain())
        return _leg_to_level(web, 1, 2, (0.0, 0.0), tlevel, 1.0)

    def test_converges(self, monkeypatch):
        steps = []

        def step(x, y, gx, gy, arcs, level):
            steps.append(arcs)
            return real(x, y, gx, gy, arcs, level)

        real = Domain().walker(Foliation(parse("x")))
        _refine_with(monkeypatch, step)
        q, path = self.leg(-0.0575)
        assert q == pytest.approx((0.0, -0.0575), abs=1e-12) and path[-1] == q
        # walks of one nonzero step, from the last point before the crossing
        assert steps and all(len(arcs) == 1 and arcs[0] != 0.0 for arcs in steps)

    def test_failing_leg_jet_propagates(self):
        # F1's jet fails only where |y + 0.05375| < 1e-4, a band between the
        # points where the bracket scan evaluates it (y = -0.05, -0.055,
        # -0.06), but where the refinement's first step puts an RK4 stage
        with pytest.raises(EvalDomainError) as exc:
            self.leg(-0.0575, f1="x+0*sqrt((y+0.05375)^2-1e-8)")
        assert exc.value.fragment == "sqrt((y+0.05375)^2-1e-08)"
        assert str(exc.value).startswith("sqrt of non-positive argument")
        assert exc.value.point[0] == 0.0 and abs(exc.value.point[1] + 0.05375) < 1e-4

    def test_boundary(self):
        # the crossing lies in an excluded band thinner than a step
        domain = Domain((-2.0, 2.0, -2.0, 2.0), parse("y+0.0575"), 1e-4)
        with pytest.raises(HexagonError) as exc:
            self.leg(-0.0575, domain=domain)
        assert str(exc.value) == "leg crossing refinement left the admissible domain at (0, -0.0575)"

    def test_gradient_collapse(self, monkeypatch):
        _refine_with(monkeypatch, lambda x, y, gx, gy, steps, level: (
            [], "gradient_collapse", (x, y)))
        with pytest.raises(HexagonError) as exc:
            self.leg(-0.0575)
        assert str(exc.value) == "gradient collapse while refining a leg crossing"

    def test_projection_stall(self, monkeypatch):
        _refine_with(monkeypatch, lambda x, y, gx, gy, steps, level: (
            [], "projection_stall", (x, y - steps[0])))
        with pytest.raises(HexagonError) as exc:
            self.leg(-0.0575)
        assert str(exc.value) == "level projection stalled while refining a leg crossing"

    def test_bracket_collapsed(self, monkeypatch):
        # the crossing is 1e-5 short of the far end: the first Newton step
        # stays inside the bracket, every later one leaves it, and bisection
        # halves it below 1e-15 in under 60 steps
        _refine_with(monkeypatch, _stuck)
        with pytest.raises(HexagonError) as exc:
            self.leg(-0.06 + 1e-5)
        assert str(exc.value) == "leg crossing bracket collapsed before reaching tolerance"

    def test_did_not_converge(self, monkeypatch):
        # the crossing is 1e-5 past the near end: 60 Newton steps of 1e-5
        # stay inside the bracket of 1e-2
        steps = []

        def step(x, y, gx, gy, arcs, level):
            steps.append(arcs[0])
            return _stuck(x, y, gx, gy, arcs, level)

        _refine_with(monkeypatch, step)
        with pytest.raises(HexagonError) as exc:
            self.leg(-0.05 - 1e-5)
        assert str(exc.value) == "leg crossing refinement did not converge"
        assert len(steps) == 60 and steps[-1] == pytest.approx(1e-5)


class TestOracleConsistency:
    def test_paper_vs_parallel(self, paper_web, parallel_web):
        k_paper, k_par = (
            parallelizability_report(w, w.domain.survey(DEFAULT_GRID)).max_abs_curvature
            for w in (paper_web, parallel_web)
        )
        d_paper = hexagon_defect(paper_web, (0.0, 0.0), 0.2).defect
        d_par = hexagon_defect(parallel_web, (0.0, 0.0), 0.2).defect
        assert (k_paper <= 1e-8) == (d_paper <= 1e-7) == False  # noqa: E712
        assert (k_par <= 1e-8) == (d_par <= 1e-7) == True  # noqa: E712
