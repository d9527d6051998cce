"""Webs, domains, general position, and leaf tracing.

Closed-form leaf checks: on the bundled web the third foliation's leaf
through (1,1) is y = 2 e^(x-1) - x (level 2/e) and the leaf through the
origin is the straight line y = -x (level 0); both follow from solving
(x+y) e^-x = const by hand.
"""

import dataclasses
import io
import math
import re
import tokenize

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import triweb.kernels
from conftest import overlap_hausdorff
from triweb.errors import ConfigError, EvalDomainError, TraceError
from triweb.expr import parse
from triweb.analysis import parallelizability_report
from triweb.kernels import jet_coeffs
from triweb.transform import diffeo_report, identity_map
from triweb.web import (
    DEFAULT_GRID,
    EPS_GRAD,
    H_MAX,
    H_STEP,
    PROJ_MAX_ITER,
    PROJ_TOL,
    TOL_LEVEL,
    Domain,
    Foliation,
    Survey,
    ThreeWeb,
    _GradCollapse,
    builtin_web,
    family_web,
    general_position_report,
    trace_leaf,
    walk_on_leaf,
)

TWO_OVER_E = 2.0 * math.exp(-1.0)  # 0.7357588823428847


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
        assert (s.n_total, s.nx, s.ny) == (121, 11, 11) and s.jets([]) == []
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
                Foliation(parse("x"), "F1"),
                Foliation(parse("y"), "F2"),
                Foliation(parse("y+ln(x)"), "F3"),
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

    def test_vanishing_gradient_seed(self):
        fol = Foliation(parse("x*y"), "hyperbola")
        with pytest.raises(TraceError, match="gradient vanishes"):
            trace_leaf(fol, (0.0, 0.0), 1.0, Domain(box=(-1, 1, -1, 1)))

    def test_gradient_collapse_mid_trace_flags(self):
        # the level-0 leaf of x*y through (0.5, 0) is the x-axis, where
        # grad = (0, x) collapses at the origin; the backward direction
        # must truncate there and say so
        fol = Foliation(parse("x*y"), "hyperbola")
        d = Domain(box=(-1, 1, -1, 1))
        leaf = trace_leaf(fol, (0.5, 0.0), 1.0, d)
        assert any("gradient_collapse" in f for f in leaf.flags)
        assert leaf.vertices[:, 0].min() > -1e-6


class TestWalkOnLeaf:
    def test_straight_walk_exact(self, paper_web):
        p = walk_on_leaf(paper_web.foliation(1), (0.0, 0.0), 0.5, paper_web.domain)
        assert p[0] == 0.0
        assert p[1] == pytest.approx(-0.5, abs=1e-12)

    def test_walk_roundtrip(self, paper_web, free_box):
        start = (1.0, 1.0)
        out = walk_on_leaf(paper_web.foliation(3), start, 0.7, free_box)
        back = walk_on_leaf(paper_web.foliation(3), out, -0.7, free_box)
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


class TestClosedLeaves:
    def test_circle_stops_after_one_turn(self):
        # the leaf of x^2 + y^2 through (0.5, 0) is the circle of radius 0.5,
        # pi = 314.16 steps of 0.01 round: without the closing rule the walk
        # wraps it again and again up to max-arc in both directions
        fol = Foliation(parse("x^2+y^2"), "circle")
        leaf = trace_leaf(fol, (0.5, 0.0), 10.0, Domain(box=(-2, 2, -2, 2)))
        assert len(leaf) == 315
        assert leaf.flags == ("closed",)
        v = leaf.vertices
        assert math.hypot(*(v[-1] - v[0])) < H_STEP
        assert np.abs(np.hypot(v[:, 0], v[:, 1]) - 0.5).max() <= 1e-9
        assert leaf.arcs[-1] == pytest.approx(math.pi - 0.0016, abs=1e-3)

    def test_short_budget_is_not_closed(self):
        fol = Foliation(parse("x^2+y^2"), "circle")
        leaf = trace_leaf(fol, (0.5, 0.0), 1.0, Domain(box=(-2, 2, -2, 2)))
        assert len(leaf) == 201 and leaf.flags == ()


# ---------------------------------------------------------------------------
# The generated stepper against the plain-Python stepper it replaced
# ---------------------------------------------------------------------------


def _tangent(program, x, y):
    _, gx, gy = jet_coeffs(program, x, y, order=1)
    n = math.hypot(gx, gy)
    if n < EPS_GRAD:
        raise _GradCollapse()
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
            raise _GradCollapse()
        x -= r * gx / n2
        y -= r * gy / n2
    u = jet_coeffs(program, x, y, order=1)[0]
    return x, y, abs(u - level) <= TOL_LEVEL


def reference_advance(program, level, x, y, ds):
    """One projected RK4 step, one jet call per stage and Newton step."""
    if ds == 0.0:
        return x, y, True
    xn, yn = _rk4_step(program, x, y, ds)
    return _project(program, xn, yn, level)


def _outcome(step):
    """A step's result with its floats as hex, or what it raised."""
    try:
        return [v.hex() if isinstance(v, float) else v for v in step()]
    except EvalDomainError as exc:
        return ["EvalDomainError", str(exc), exc.fragment, exc.point]
    except _GradCollapse:
        return ["gradient collapse"]


def _walk_both(fol, p0, steps):
    """The outcomes of the generated and the reference stepper along the
    same walk; the generated one gets the gradient it returned last, the
    reference yields the gradient at its own point."""
    x, y = p0
    level, gx, gy = jet_coeffs(fol.program, x, y, order=1)
    pairs = []
    for h in steps:
        got = _outcome(lambda: fol.advance(x, y, gx, gy, h, level))
        want = _outcome(lambda: reference_advance(fol.program, level, x, y, h))
        if len(want) == 3:  # the gradient at the reference's new point
            xn, yn = float.fromhex(want[0]), float.fromhex(want[1])
            want[2:2] = [v.hex() for v in jet_coeffs(fol.program, xn, yn, order=1)[1:]]
        pairs.append((got, want))
        if len(got) != 5 or got[4] is not True:
            break
        x, y, gx, gy = (float.fromhex(v) for v in got[:4])
    return pairs


_STEPPER_WEBS = {
    "paper": builtin_web("paper").foliations,
    "family": family_web("1+x", "exp(x)").foliations,
    "sqrt": (Foliation(parse("x")), Foliation(parse("y")), Foliation(parse("y+sqrt(x+1)"))),
}


class TestStepperMatchesReference:
    @given(
        web=st.sampled_from(sorted(_STEPPER_WEBS)),
        index=st.integers(0, 2),
        x=st.floats(-1.0, 1.5),
        y=st.floats(-1.5, 1.5),
        steps=st.lists(
            st.sampled_from([H_STEP, -H_STEP, 0.0, 0.05, -0.3, 2.0, -2.0]) | st.floats(-0.5, 0.5),
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
        steps=st.lists(st.floats(-0.3, 0.0), min_size=1, max_size=12),
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
        assert got[4] is False

    def test_source_holds_only_generated_names_and_literals(self, monkeypatch):
        sources = []
        bind = triweb.kernels._bind

        def spy(code, names, name="jet"):
            if name == "advance":
                sources.append(code)
            return bind(code, names, name)

        monkeypatch.setattr(triweb.kernels, "_bind", spy)
        for text in ("(x+y)*exp(-x)", "y+sqrt(x+1)", "ln(2+x)/(2+y)", "x^-2+2^x", "sin(x)*cos(y)"):
            Foliation(parse(text)).advance
        assert len(sources) == 5
        bound = {"def", "if", "return", "raise", "True", "advance", "abs", "hypot",
                 "GradCollapse", "fail", "exp", "log", "sin", "cos", "sqrt", "inf", "nan",
                 "while", "_"}
        generated = re.compile(r"[xy]|[gsp][xy]|h|level|[unr]|n2|t\d+[xy]|t\d+_\d+")
        for code in sources:
            assert code.count("= jet(") == 0
            for tok in tokenize.generate_tokens(io.StringIO(code).readline):
                assert tok.type != tokenize.STRING, tok
                if tok.type == tokenize.NAME:
                    assert tok.string in bound or generated.fullmatch(tok.string), tok
                elif tok.type == tokenize.NUMBER:
                    float(tok.string)
