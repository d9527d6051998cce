"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict
line per criterion.  Each check pins its tolerance here; nothing is
deferred to later calibration.

Criterion 5b is expected to fail and is kept failing on purpose: the
required curvature floor of 0.018 (= e^-4) is not attainable on the
default box, where |K| = e^(2x) / |1 - x - y|^3 reaches its true
minimum e^-4 / 125 ~ 1.47e-4 at the (-2, -2) corner.  The bound is
asserted as required rather than weakened to match actual behavior;
the verified actual minimum is covered in test_analysis.py.
"""

import dataclasses
import json
import math

import numpy as np

from conftest import fd_tolerance_ok, jet_vs_fd_report, random_expression_pairs
from triweb.analysis import curvature_grid, hexagon_defect, parallelizability_report
from triweb.cli import main
from triweb.errors import HexagonError
from triweb.transform import diffeo_report, linearizing_map, push_polyline
from triweb.web import DEFAULT_GRID, ThreeWeb, general_position_report, trace_leaf


def _verdict(label: str, ok: bool, detail: str = "") -> bool:
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}{suffix}")
    return ok


DETJ_FLOOR = math.exp(-2.0) * 0.05 * 0.9
LINEARITY_TOL = 1e-8
LINE_TOL = 1e-9


def test_criterion_1_theorem_reproduction(theorem_report, tmp_path):
    cli_code = main(["verify-theorem", "--builtin", "paper", "--out", str(tmp_path)])
    rep = theorem_report
    worst_residual = max(r.max_residual for r in rep.foliations)
    ok = (
        cli_code == 0
        and rep.overall_pass
        and rep.diffeo.min_abs_det >= DETJ_FLOOR
        and all(len(r.residuals) >= 7 for r in rep.foliations)
        and worst_residual <= LINEARITY_TOL
    )
    _verdict(
        "1 (theorem reproduction)",
        ok,
        f"exit={cli_code}, min|detJ|={rep.diffeo.min_abs_det:.3e}, "
        f"max residual={worst_residual:.3e}",
    )
    assert cli_code == 0
    assert rep.diffeo.min_abs_det >= DETJ_FLOOR
    assert all(len(r.residuals) >= 7 for r in rep.foliations)
    assert worst_residual <= LINEARITY_TOL


def test_criterion_2_closed_form_line_formula(paper_web):
    m = linearizing_map(paper_web)
    worst = 0.0
    for c in (-1.0, 0.0, 0.5, 1.5):
        leaf = trace_leaf(paper_web.foliation(1), (c, -1.0), 3.0, paper_web.domain, 1)
        img = push_polyline(m, leaf)
        xbar, ybar = img.vertices[:, 0], img.vertices[:, 1]
        worst = max(worst, float(np.abs(xbar - (c + ybar) * math.exp(-c)).max()))
    ok = worst <= LINE_TOL
    _verdict("2 (closed-form line formula)", ok, f"max |xbar-(c+ybar)e^-c|={worst:.3e}")
    assert worst <= LINE_TOL


def test_criterion_3_identity_map_discriminates(identity_report):
    rep = identity_report
    f3 = next(r for r in rep.foliations if r.foliation == 3)
    ok = (not rep.overall_pass) and f3.max_residual >= 1e-3
    _verdict(
        "3 (discrimination)",
        ok,
        f"overall={'FAIL' if not rep.overall_pass else 'PASS'}, "
        f"F3 residual={f3.max_residual:.3e}",
    )
    assert not rep.overall_pass
    assert f3.max_residual >= 1e-3


FAMILY_CLI_CASES = [
    (["--a", "1", "--b", "1"], "(1,1)"),
    (
        ["--a", "exp(-x)", "--b", "exp(-x)", "--exclude", "1-x-y", "--margin", "0.05"],
        "(exp(-x),exp(-x))",
    ),
    (["--a", "1+x", "--b", "2", "--box", "0", "2", "-2", "2"], "(1+x,2)"),
    (["--a", "2", "--b", "exp(x)", "--box", "-1", "1", "-0.5", "1.5"], "(2,exp(x))"),
    (["--a", "1", "--b", "x", "--box", "0.5", "2", "-0.5", "1"], "(1,x)"),
]


def test_criterion_4_family(tmp_path):
    details = []
    ok = True
    for idx, (flags, label) in enumerate(FAMILY_CLI_CASES):
        out = tmp_path / f"fam{idx}"
        code = main(["family", *flags, "--out", str(out)])
        rep = json.loads((out / "report.json").read_text())
        line = rep["line_formula"]
        case_ok = (
            code == 0
            and rep["overall_pass"]
            and line["verdict"]
            and line["max_deviation"] <= LINE_TOL
        )
        ok = ok and case_ok
        details.append(f"{label}:{'ok' if case_ok else 'FAIL'}")
    _verdict("4 (family webs)", ok, ", ".join(details))
    assert ok


def test_criterion_5a_curvature_closed_form(paper_web):
    survey = paper_web.domain.survey(DEFAULT_GRID)
    xs, ys, kappa = survey.xs, survey.ys, curvature_grid(paper_web, survey)
    ref = -np.exp(2.0 * xs) / (1.0 - xs - ys) ** 3
    rel = float((np.abs(kappa - ref) / np.abs(ref)).max())
    ok = rel <= 1e-10
    _verdict(
        "5a (curvature closed form)", ok, f"max rel dev={rel:.3e} over {xs.size} points"
    )
    assert rel <= 1e-10


def test_criterion_5b_curvature_magnitude_floor(paper_web):
    """Required floor: min |K| >= 0.018 over the default banded box.

    Not attainable there (see module docstring); kept as required and
    expected to fail with the true minimum near 1.47e-4.
    """
    rep = parallelizability_report(paper_web, paper_web.domain.survey(DEFAULT_GRID))
    ok = rep.min_abs_curvature >= 0.018
    _verdict(
        "5b (curvature magnitude floor)",
        ok,
        f"min|K|={rep.min_abs_curvature:.6e}, required >= 1.8e-2",
    )
    assert rep.min_abs_curvature >= 0.018


def test_criterion_5c_hexagon_separates_webs(paper_web, parallel_web):
    d_paper = hexagon_defect(paper_web, (0.0, 0.0), 0.2).defect
    d_parallel = hexagon_defect(parallel_web, (0.0, 0.0), 0.2).defect
    ok = d_paper > 1e-4 and d_parallel <= 1e-9
    _verdict(
        "5c (hexagon separation)",
        ok,
        f"defect paper={d_paper:.3e}, parallel={d_parallel:.3e}",
    )
    assert d_paper > 1e-4
    assert d_parallel <= 1e-9


def _sample_centers(web, inset_box, n, radius, seed):
    rng = np.random.default_rng(seed)
    xmin, xmax, ymin, ymax = inset_box
    found = []
    for _ in range(200):
        if len(found) == n:
            break
        p = (float(rng.uniform(xmin, xmax)), float(rng.uniform(ymin, ymax)))
        if not web.domain.admissible(p):
            continue
        try:
            fig = hexagon_defect(web, p, radius)
        except HexagonError:
            continue
        found.append((p, fig.defect))
    assert len(found) == n, f"could not place {n} hexagons inside {inset_box}"
    return found


def test_criterion_6_oracle_agreement(oracle_webs):
    radius = 0.2
    disagreements = []
    details = []
    for idx, (name, web, inset) in enumerate(oracle_webs):
        rep = parallelizability_report(web, web.domain.survey(DEFAULT_GRID))
        flat = rep.max_abs_curvature <= 1e-8
        centers = _sample_centers(web, inset, n=5, radius=radius, seed=1000 + idx)
        for p, defect in centers:
            if (defect <= 1e-7) != flat:
                disagreements.append((name, p, defect, flat))
        details.append(f"{name}:{'flat' if flat else 'curved'}")
    ok = not disagreements
    _verdict(
        "6 (curvature vs hexagon oracle)",
        ok,
        f"{len(oracle_webs)} webs x 5 centers, disagreements={len(disagreements)}",
    )
    assert not disagreements, disagreements


def test_criterion_7_autodiff_soundness():
    pairs = random_expression_pairs(100)
    failures = []
    for e, p in pairs:
        for label, analytic, independent in jet_vs_fd_report(e, p):
            if not fd_tolerance_ok(analytic, independent, rel=1e-5, abs_=1e-8):
                failures.append((str(e), p, label, analytic, independent))
    ok = not failures
    _verdict(
        "7 (autodiff vs finite differences)",
        ok,
        f"100 expression/point pairs, {len(failures)} mismatches",
    )
    assert not failures, failures[:5]


def test_criterion_8_degeneracy_localization(paper_web):
    web = ThreeWeb(paper_web.foliations, dataclasses.replace(paper_web.domain, margin=0.0))
    grid = (33, 33)  # step 1/8 puts x+y = 1 exactly on grid points
    locus = {
        (float(x), float(1.0 - x))
        for x in np.linspace(-2, 2, grid[0])
        if -2.0 <= 1.0 - x <= 2.0
    }
    survey = web.domain.survey(grid)
    gp = general_position_report(web, survey)
    dif = diffeo_report(linearizing_map(web), survey)
    gp_points = {(f.x, f.y) for f in gp.failures}
    dif_points = {(x, y) for x, y, _ in dif.failures}
    ok = gp_points == locus and dif_points == locus and len(locus) == 25
    _verdict(
        "8 (degeneracy localization)",
        ok,
        f"{len(locus)} locus points, gp={len(gp_points)}, diffeo={len(dif_points)}",
    )
    assert gp_points == locus
    assert dif_points == locus


def test_criterion_9_hexagon_scaling(paper_web):
    radii = (0.2, 0.1, 0.05, 0.025)
    defects = [hexagon_defect(paper_web, (0.0, 0.0), r).defect for r in radii]
    monotone = all(a > b for a, b in zip(defects, defects[1:]))
    slope = float(np.polyfit(np.log(radii), np.log(defects), 1)[0])
    ok = monotone and slope >= 2.5
    _verdict(
        "9 (hexagon defect scaling)",
        ok,
        f"slope={slope:.2f}, defects={['%.2e' % d for d in defects]}",
    )
    assert monotone
    assert slope >= 2.5
