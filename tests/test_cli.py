"""Command-line behavior: exit codes, file outputs, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from conftest import _random_expr
from hypothesis import example, given, settings
from hypothesis import strategies as st

import triweb
from triweb.cli import (
    MAX_GRID_POINTS,
    MAX_SEEDS,
    SETTINGS,
    RunConfig,
    _json_fields,
    build_parser,
    main,
)
from triweb.errors import ConfigError, ParseError
from triweb.expr import parse

ROOT = Path(__file__).resolve().parent.parent


def _child_env() -> dict:
    """This environment with the imported triweb's source root first on
    PYTHONPATH, so a child interpreter runs the same package."""
    src = str(Path(triweb.__file__).resolve().parents[1])
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def run(argv, capsys=None):
    code = main(argv)
    return code


def _parses(text) -> bool:
    try:
        parse(text)
    except ParseError:
        return False
    return True


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class TestExitCodes:
    def test_verify_theorem_passes(self, tmp_path):
        assert run(["verify-theorem", "--builtin", "paper", "--out", str(tmp_path)]) == 0

    def test_identity_map_fails_verdict(self, tmp_path):
        code = run(
            [
                "verify-theorem",
                "--builtin",
                "paper",
                "--map",
                "identity",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 1

    def test_missing_config(self, tmp_path):
        code = run(
            ["verify-theorem", "--config", str(tmp_path / "missing.json")]
        )
        assert code == 2

    def test_bad_expression(self, tmp_path):
        code = run(["analyze", "--web", "x", "y", "x+", "--out", str(tmp_path)])
        assert code == 2

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["verify-theorem", "--builtin", "nonsense"])
        assert exc.value.code == 2

    def test_hexagon_crossing_band_is_3(self, tmp_path):
        code = run(
            [
                "hexagon",
                "--builtin",
                "paper",
                "--center",
                "0",
                "1.05",
                "--radii",
                "0.5",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 3

    def test_family_without_coefficients(self, tmp_path):
        assert run(["family", "--out", str(tmp_path)]) == 2


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("vt")
    assert main(["verify-theorem", "--builtin", "paper", "--out", str(out)]) == 0
    return out


class TestVerifyTheoremOutputs:
    def test_files_exist(self, outdir):
        for name in (
            "report.json",
            "leaves_f1.csv",
            "leaves_f2.csv",
            "leaves_f3.csv",
            "web.svg",
        ):
            assert (outdir / name).is_file()

    def test_report_shape(self, outdir):
        rep = json.loads((outdir / "report.json").read_text())
        assert rep["overall_pass"] is True
        assert rep["map"] == "linearizing"
        assert rep["diffeomorphism"]["verdict"] is True
        assert len(rep["foliations"]) == 3
        assert rep["line_formula"]["verdict"] is True
        assert all(len(f["seeds"]) == 7 for f in rep["foliations"])
        assert all(f["flags"] == [] for f in rep["foliations"])

    def test_leaf_csv_schema(self, outdir):
        header, rows = read_csv(outdir / "leaves_f3.csv")
        assert header == "foliation,level,arc,x,y,image"
        assert {r[0] for r in rows} == {"3"}
        assert {r[5] for r in rows} == {"0", "1"}
        # 17-significant-digit floats round-trip
        x = rows[10][3]
        assert float(x) == float(repr(float(x)))

    def test_svg_well_formed_one_polyline_per_leaf(self, outdir):
        tree = ET.parse(outdir / "web.svg")
        ns = {"svg": "http://www.w3.org/2000/svg"}
        polylines = tree.getroot().findall(".//svg:polyline", ns)
        # 3 foliations x 7 seeds, each with original and image
        assert len(polylines) == 42
        dashed = [p for p in polylines if p.get("stroke-dasharray")]
        assert len(dashed) == 21  # exactly the mapped images
        assert len({p.get("stroke") for p in polylines}) == 3

    def test_image_rows_satisfy_closed_form_line(self, outdir):
        _, rows = read_csv(outdir / "leaves_f1.csv")
        worst = 0.0
        for r in rows:
            if r[5] != "1":
                continue
            c, xbar, ybar = float(r[1]), float(r[3]), float(r[4])
            worst = max(worst, abs(xbar - (c + ybar) * math.exp(-c)))
        assert worst <= 1e-9


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["verify-theorem", "--builtin", "paper", "--out", str(out)]) == 0
        for name in ("report.json", "leaves_f1.csv", "leaves_f2.csv",
                     "leaves_f3.csv", "web.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_family_report_byte_compatible_with_theorem(self, tmp_path):
        t_out, f_out = tmp_path / "t", tmp_path / "f"
        assert main(["verify-theorem", "--builtin", "paper", "--out", str(t_out)]) == 0
        assert (
            main(
                [
                    "family",
                    "--a",
                    "exp(-x)",
                    "--b",
                    "exp(-x)",
                    "--exclude",
                    "1-x-y",
                    "--margin",
                    "0.05",
                    "--out",
                    str(f_out),
                ]
            )
            == 0
        )
        assert (t_out / "report.json").read_bytes() == (
            f_out / "report.json"
        ).read_bytes()

    # report.json of five runs, kept in tests/golden; report floats are
    # rounded to 9 digits, so last-ulp differences between CPUs vanish
    @pytest.mark.parametrize(
        "golden, argv, code",
        [
            ("verify-theorem", ["verify-theorem"], 0),
            ("verify-map-paper-x-y", ["verify-map", "--builtin", "paper", "--map", "x", "y"], 1),
            ("family-1+x-exp", ["family", "--a", "1+x", "--b", "exp(x)"], 1),
            ("analyze-paper-grid-101",
             ["analyze", "--builtin", "paper", "--grid", "101", "101"], 0),
            ("analyze-product", ["analyze", "--builtin", "product"], 0),
        ],
    )
    def test_report_matches_golden(self, tmp_path, golden, argv, code):
        assert main(argv + ["--out", str(tmp_path)]) == code
        want = (ROOT / "tests" / "golden" / f"{golden}.json").read_bytes()
        assert (tmp_path / "report.json").read_bytes() == want

    # SHA-256 of curvature.csv from two analyze runs, in tests/golden; the
    # CSV keeps all 17 digits, so the pin holds where numpy's exp and
    # arithmetic round as they did when it was written
    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("analyze-paper-grid-101", ["--builtin", "paper", "--grid", "101", "101"]),
            ("analyze-product", ["--builtin", "product"]),
        ],
    )
    def test_curvature_csv_matches_golden(self, tmp_path, golden, argv):
        pins = (ROOT / "tests" / "golden" / "curvature.sha256").read_text().splitlines()
        want = dict(reversed(line.split()) for line in pins)[golden]
        assert main(["analyze", *argv, "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "curvature.csv").read_bytes()).hexdigest() == want

    # SHA-256 of the leaf CSVs and SVG of verify-theorem, in tests/golden;
    # the CSVs keep all 17 digits of every traced and mapped vertex
    def test_theorem_outputs_match_golden(self, tmp_path):
        pins = (ROOT / "tests" / "golden" / "theorem-outputs.sha256").read_text().splitlines()
        want = dict(reversed(line.split()) for line in pins)
        assert sorted(want) == ["leaves_f1.csv", "leaves_f2.csv", "leaves_f3.csv", "web.svg"]
        assert main(["verify-theorem", "--builtin", "paper", "--out", str(tmp_path)]) == 0
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in want}
        assert got == want

    # SHA-256 of the hexagon CSVs and of a trace leaf CSV (no image column),
    # in tests/golden
    @pytest.mark.parametrize(
        "argv, names",
        [
            (["hexagon", "--builtin", "paper", "--center", "0.3", "-0.4", "--radii", "0.2", "0.1"],
             ["hexagon.csv", "hexagon_legs_0.csv", "hexagon_legs_1.csv"]),
            (["trace", "--builtin", "paper", "--foliation", "3"], ["leaves_f3.csv"]),
        ],
    )
    def test_csv_outputs_match_golden(self, tmp_path, argv, names):
        pins = (ROOT / "tests" / "golden" / "cli-outputs.sha256").read_text().splitlines()
        want = dict(reversed(line.split()) for line in pins)
        assert main(argv + ["--out", str(tmp_path)]) == 0
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names}
        assert got == {name: want[name] for name in names}


class TestAnalyze:
    def test_paper(self, tmp_path, capsys):
        assert main(["analyze", "--builtin", "paper", "--out", str(tmp_path)]) == 0
        said = capsys.readouterr().out
        assert "not parallelizable" in said
        header, rows = read_csv(tmp_path / "curvature.csv")
        assert header == "x,y,K"
        at_origin = [r for r in rows if float(r[0]) == 0.0 and float(r[1]) == 0.0]
        assert len(at_origin) == 1
        assert float(at_origin[0][2]) == pytest.approx(-1.0, rel=1e-12)

    def test_sum_web(self, tmp_path, capsys):
        assert main(["analyze", "--web", "x", "y", "x+y", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "curvature: parallelizable" in out

    def test_product_web_on_its_box(self, tmp_path, capsys):
        code = main(
            [
                "analyze",
                "--web",
                "x",
                "y",
                "x*y",
                "--box",
                "1",
                "2",
                "1",
                "2",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert "curvature: parallelizable" in capsys.readouterr().out

    def test_grid_failure_names_its_op_once(self, tmp_path, capsys):
        argv = ["analyze", "--web", "ln(x)", "y", "x+y", "--box", "-1", "1", "-1", "1"]
        assert main(argv + ["--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: ln of non-positive argument in 'ln(x)' at point (-1.0, -1.0)\n"
        )


class TestHexagonCommand:
    def test_defect_table_decreasing(self, tmp_path):
        code = main(
            [
                "hexagon",
                "--builtin",
                "paper",
                "--center",
                "0",
                "0",
                "--radii",
                "0.2",
                "0.1",
                "0.05",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "hexagon.csv")
        assert header == "r,defect"
        defects = [float(r[1]) for r in rows]
        assert defects[0] > defects[1] > defects[2] > 0
        legs = (tmp_path / "hexagon_legs_0.csv").read_text().strip().splitlines()
        assert legs[0] == "leg,x,y"
        assert legs[-1].startswith("defect=")

    def test_parallel_web_closes(self, tmp_path):
        code = main(
            [
                "hexagon",
                "--web",
                "x",
                "y",
                "x+y",
                "--center",
                "0",
                "0",
                "--radii",
                "0.5",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "hexagon.csv")
        assert float(rows[0][1]) <= 1e-9

    def test_radius_walk_from_a_critical_center(self, tmp_path, capsys):
        # grad x^2 vanishes on x = 0: walk_on_leaf refuses the radius leg's start
        argv = ["--web", "x^2", "y", "x+y", "--center", "0", "0.5", "--radii", "0.1"]
        assert main(["hexagon", *argv, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: radius walk failed: gradient vanishes at (0.0, 0.5)\n"

    @pytest.mark.parametrize(
        "center, radii, stdout",
        [
            (["9", "9"], ["0.1"], ""),
            # the first figure is printed, then the second radius leaves the domain
            (["0.3", "-0.4"], ["0.1", "5"], "r=0.1: defect=0.000730625\n"),
        ],
        ids=["bad-center", "later-radius-fails"],
    )
    def test_failure_leaves_no_output_directory(self, tmp_path, capsys, center, radii, stdout):
        out = tmp_path / "D"
        argv = ["--builtin", "paper", "--center", *center, "--radii", *radii]
        assert main(["hexagon", *argv, "--out", str(out)]) == 3
        assert capsys.readouterr().out == stdout
        assert not out.exists()


class TestTraceCommand:
    def test_single_seed(self, tmp_path):
        code = main(
            [
                "trace",
                "--builtin",
                "paper",
                "--foliation",
                "3",
                "--seed",
                "1",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "leaves_f3.csv")
        assert header == "foliation,level,arc,x,y"
        assert {r[0] for r in rows} == {"3"}
        level = float(rows[0][1])
        assert level == pytest.approx(2 * math.exp(-1), rel=1e-12)


class TestConfigFile:
    def test_config_drives_run_and_flags_win(self, tmp_path, capsys):
        cfg = {
            "web": {"builtin": "paper"},
            "grid": [21, 21],
            "seeds": 5,
            "out": str(tmp_path / "cfg_out"),
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["verify-theorem", "--config", str(cfg_path)]) == 0
        rep = json.loads((tmp_path / "cfg_out" / "report.json").read_text())
        assert len(rep["foliations"][0]["seeds"]) == 5

        assert (
            main(["verify-theorem", "--config", str(cfg_path), "--seeds", "3"]) == 0
        )
        rep = json.loads((tmp_path / "cfg_out" / "report.json").read_text())
        assert len(rep["foliations"][0]["seeds"]) == 3

    def test_diffeo_tolerance_reaches_report(self, tmp_path, capsys):
        # min |det J| of the linearizing map is about 0.0135, so a floor of
        # 100 must fail the diffeomorphism verdict, from a flag or a config
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"tolerances": {"diffeo": 100}}))
        small = ["--builtin", "paper", "--seeds", "2", "--max-arc", "0.5"]
        for source in (["--tol-diffeo", "100"], ["--config", str(cfg_path)]):
            out = tmp_path / source[0].lstrip("-")
            argv = ["verify-theorem", *small, *source, "--out", str(out)]
            assert main(argv) == 1
            assert "threshold 100" in capsys.readouterr().out
            diffeo = json.loads((out / "report.json").read_text())["diffeomorphism"]
            assert diffeo["threshold"] == 100
            assert diffeo["verdict"] is False

    def test_invalid_json_config(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["verify-theorem", "--config", str(p)]) == 2

    @pytest.mark.parametrize(
        "command, cfg, key",
        [
            ("verify-theorem", {"grid": "ab"}, "grid"),
            ("verify-theorem", {"grid": [3]}, "grid"),
            ("verify-theorem", {"seeds": "many"}, "seeds"),
            ("verify-theorem", {"seeds": 2.7}, "seeds"),
            ("hexagon", {"center": 3}, "center"),
            ("hexagon", {"radii": 0.1}, "radii"),
            ("analyze", {"web": {"family": "x"}}, "web.family"),
            ("analyze", {"web": {"integrals": ["x", "y"]}}, "web.integrals"),
            ("analyze", {"web": {"builtin": "paper"}, "domain": {"box": [0, 1]}}, "domain.box"),
            ("verify-theorem", {"max-arc": 0.001}, "max-arc"),
            ("analyze", {"web": "paper"}, "web"),
        ],
    )
    def test_malformed_or_unknown_key_exits_2(self, tmp_path, capsys, command, cfg, key):
        p = tmp_path / "run.json"
        p.write_text(json.dumps(cfg))
        assert main([command, "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    def test_scenario_files_load(self, tmp_path, capsys):
        # each scenario file runs end to end through the command it was written for
        commands = {
            "theorem.json": ["verify-theorem", "--seeds", "2", "--max-arc", "0.5"],
            "family_quadratic.json": ["family", "--seeds", "2", "--max-arc", "0.5"],
            "hexagon_scaling.json": ["hexagon"],
        }
        paths = sorted((ROOT / "scenarios").glob("*.json"))
        assert sorted(p.name for p in paths) == sorted(commands)
        for path in paths:
            out = tmp_path / path.stem
            assert main([*commands[path.name], "--config", str(path), "--out", str(out)]) == 0
            assert any(out.iterdir()), path.name
        assert "FAIL" not in capsys.readouterr().out


# Each subcommand's arguments as (option strings, dest, nargs, type, choices),
# in order.  The options are those of the parser before the settings table,
# less every flag that its command never read.
_CONFIG = (["--config"], "config", None, None, None)
_OUT = (["--out"], "out", None, None, None)
_BUILTIN = (["--builtin"], "builtin", None, None, ("paper", "parallel", "product"))
_WEB = (["--web"], "web", 3, None, None)
_FAMILY = [(["--a"], "a", None, None, None), (["--b"], "b", None, None, None)]
_DOMAIN = [
    (["--box"], "box", 4, float, None),
    (["--exclude"], "exclude", None, None, None),
    (["--margin"], "margin", None, float, None),
]
_GRID = (["--grid"], "grid", 2, int, None)
_TRACING = [
    (["--seeds"], "seeds", None, int, None),
    (["--max-arc"], "max_arc", None, float, None),
]
_TOL_LINEARITY = (["--tol-linearity"], "tol_linearity", None, float, None)
_TOL_DIFFEO = (["--tol-diffeo"], "tol_diffeo", None, float, None)
_TOL_LINE = (["--tol-line"], "tol_line", None, float, None)
_MAP = (["--map"], "map", "+", None, None)
_ANY_WEB = [_CONFIG, _OUT, _BUILTIN, _WEB, *_FAMILY, *_DOMAIN]
EXPECTED_OPTIONS = {
    "parse": [([], "expr", "+", None, None), (["--at"], "at", 2, float, None)],
    "analyze": _ANY_WEB + [_GRID, (["--tol-curvature"], "tol_curvature", None, float, None)],
    "trace": _ANY_WEB
    + _TRACING
    + [
        (["--foliation"], "foliation", None, int, (1, 2, 3)),
        (["--seed"], "seed_point", 2, float, None),
    ],
    "hexagon": _ANY_WEB
    + [(["--center"], "center", 2, float, None), (["--radii"], "radii", "+", float, None)],
    "verify-theorem": [_CONFIG, _OUT, _BUILTIN, *_DOMAIN, _GRID, *_TRACING]
    + [_TOL_LINEARITY, _TOL_DIFFEO, _TOL_LINE, _MAP],
    "verify-map": _ANY_WEB + [_GRID, *_TRACING, _TOL_LINEARITY, _TOL_DIFFEO, _MAP],
    "family": [_CONFIG, _OUT, *_FAMILY, *_DOMAIN, _GRID, *_TRACING]
    + [_TOL_LINEARITY, _TOL_DIFFEO, _TOL_LINE],
}


class TestParserLayout:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_options_match_hand_written_parser(self):
        ap = build_parser()
        sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
        actions = {
            name: [a for a in p._actions if not isinstance(a, argparse._HelpAction)]
            for name, p in sub.choices.items()
        }
        got = {
            name: [(a.option_strings, a.dest, a.nargs, a.type, a.choices) for a in acts]
            for name, acts in actions.items()
        }
        assert got == EXPECTED_OPTIONS
        # no flag has a default, so an absent flag never overrides a config value
        assert all(a.default is None for acts in actions.values() for a in acts)


class TestReadmeMatchesSettings:
    def test_schema_block_lists_every_config_key(self):
        text = (ROOT / "README.md").read_text()
        block = text.split("### Config files", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        data = json.loads(block)

        def paths(obj, prefix=""):
            for key, v in obj.items():
                if isinstance(v, dict):
                    yield from paths(v, prefix + key + ".")
                else:
                    yield prefix + key

        assert set(paths(data)) == {s.json for s in SETTINGS if s.json}
        _json_fields(data)  # every example value has the type its key takes

    def test_common_knobs_list_every_common_flag(self):
        text = (ROOT / "README.md").read_text()
        knobs = text.split("common knobs:\n\n", 1)[1].split("\n\n", 1)[0]
        assert set(re.findall(r"--[a-z][a-z-]*", knobs)) == {
            s.flag for s in SETTINGS if s.commands is None
        }

    def test_flag_table_lists_each_flags_commands(self):
        text = (ROOT / "README.md").read_text()
        rows = re.findall(r"^\| (`--.*) \| ([a-z, -]+) \|$", text, re.MULTILINE)
        table = {
            flag: set(commands.split(", "))
            for flags, commands in rows
            for flag in re.findall(r"`(--[a-z][a-z-]*)", flags)
        }
        assert table == {s.flag: set(s.commands) for s in SETTINGS if s.commands is not None}


class TestUnreadFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["hexagon", "--builtin", "paper", "--center", "0", "0", "--radii", "0.1",
             "--seeds", "99", "--tol-diffeo", "5", "--grid", "2", "2"],
            ["family", "--builtin", "paper", "--a", "1", "--b", "2"],
            ["verify-theorem", "--web", "x", "y", "x+y"],
            ["verify-map", "--builtin", "paper", "--map", "identity", "--tol-line", "1"],
            ["analyze", "--builtin", "paper", "--max-arc", "1"],
            ["trace", "--builtin", "paper", "--tol-curvature", "1"],
        ],
    )
    def test_flag_the_command_never_reads_exits_2(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_config_keys_the_command_never_reads_are_accepted(self, tmp_path):
        p = tmp_path / "run.json"
        cfg = {"web": {"builtin": "paper"}, "center": [0, 0], "radii": [0.1], "seeds": 99,
               "grid": [2, 2], "tolerances": {"diffeo": 5}, "map": "identity"}
        p.write_text(json.dumps(cfg))
        assert main(["hexagon", "--config", str(p), "--out", str(tmp_path / "out")]) == 0


class TestIneffectiveSettings:
    """A flag its command reads, but that could change nothing in this run,
    is refused before any output is written; each has a control run where it
    does take effect."""

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["trace", "--builtin", "paper", "--seed", "0", "0", "--seeds", "3"], "--seeds"),
            (["verify-theorem", "--map", "identity", "--tol-line", "1"], "--tol-line"),
            (["analyze", "--web", "x", "y", "x+y", "--margin", "0.5"], "margin"),
        ],
    )
    def test_refused_before_any_output(self, tmp_path, capsys, argv, name):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and "no effect" in err
        assert not out.exists()

    def test_seeds_takes_effect_without_seed(self, tmp_path, capsys):
        for n in (2, 3):
            argv = ["trace", "--builtin", "paper", "--seeds", str(n), "--max-arc", "0.5"]
            assert main([*argv, "--out", str(tmp_path)]) == 0
            assert capsys.readouterr().out.startswith(f"traced {n} leaves of F3")

    def test_tol_line_takes_effect_without_map(self, tmp_path):
        argv = ["verify-theorem", "--seeds", "2", "--max-arc", "0.5", "--tol-line", "0.25"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["line_formula"]["tol"] == 0.25

    def test_margin_takes_effect_with_exclude(self, tmp_path):
        # on the 5 x 5 grid of the default box, |x| >= 0.5 drops the column x = 0
        counts = []
        for margin in ("0", "0.5"):
            argv = ["analyze", "--web", "x", "y", "x+y", "--exclude", "x", "--margin", margin,
                    "--grid", "5", "5", "--out", str(tmp_path)]
            assert main(argv) == 0
            rep = json.loads((tmp_path / "report.json").read_text())
            counts.append(rep["parallelizability"]["n_points"])
        assert counts == [25, 20]

    def test_config_keys_are_refused_only_for_margin(self, tmp_path, capsys):
        # seeds and tolerances.line_formula may sit in a config for other
        # commands, as in the theorem scenario; a margin from a config is
        # refused as the flag is
        seeds = tmp_path / "seeds.json"
        seeds.write_text(json.dumps({"seeds": 3}))
        argv = ["trace", "--builtin", "paper", "--seed", "0", "0", "--max-arc", "0.5"]
        assert main([*argv, "--config", str(seeds), "--out", str(tmp_path / "t")]) == 0
        argv = ["verify-theorem", "--config", str(ROOT / "scenarios" / "theorem.json"),
                "--map", "identity", "--seeds", "2", "--max-arc", "0.5"]
        assert main([*argv, "--out", str(tmp_path / "v")]) == 1
        margin = tmp_path / "margin.json"
        margin.write_text(json.dumps({"domain": {"margin": 0.5}}))
        argv = ["analyze", "--web", "x", "y", "x+y", "--config", str(margin)]
        assert main([*argv, "--out", str(tmp_path / "a")]) == 2
        assert "error: margin has no effect" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()


class TestWorkCaps:
    def test_validate_rejects_work_above_the_caps(self):
        for cfg in (
            RunConfig(grid=(1001, 1000)),
            RunConfig(grid=(2, MAX_GRID_POINTS // 2 + 1)),
            RunConfig(max_arc=1000.01),
            RunConfig(max_arc=math.inf),
            RunConfig(max_arc=math.nan),
            RunConfig(radii=(0.1, 1000.01)),
        ):
            with pytest.raises(ConfigError, match="cap"):
                cfg.validate()

    def test_caps_admit_the_largest_runs(self):
        RunConfig(grid=(1000, 1000), max_arc=1000.0, radii=(1000.0,)).validate()
        RunConfig(grid=(500, 500)).validate()

    def test_seed_cap(self):
        RunConfig(seeds=MAX_SEEDS).validate()
        with pytest.raises(ConfigError, match="cap"):
            RunConfig(seeds=MAX_SEEDS + 1).validate()

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--builtin", "paper", "--grid", "1001", "1000"],
            ["verify-theorem", "--max-arc", "inf"],
            ["trace", "--builtin", "paper", "--seeds", "20000", "--max-arc", "0.01"],
            ["hexagon", "--builtin", "paper", "--center", "0", "0", "--radii", "1e9"],
        ],
    )
    def test_cli_exits_2(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert "exceeds the cap" in capsys.readouterr().err


class TestNonFiniteSettings:
    @pytest.mark.parametrize(
        "argv,name",
        [
            (["verify-theorem", "--tol-linearity", "nan", "--seeds", "2", "--max-arc", "0.5"],
             "tol-linearity"),
            (["verify-theorem", "--tol-line", "inf", "--seeds", "2", "--max-arc", "0.5"],
             "tol-line"),
            (["verify-map", "--builtin", "paper", "--map", "identity", "--tol-diffeo", "nan"],
             "tol-diffeo"),
            (["analyze", "--builtin", "paper", "--tol-curvature", "nan"], "tol-curvature"),
            (["analyze", "--builtin", "paper", "--margin", "nan"], "margin"),
            (["trace", "--builtin", "paper", "--margin", "inf"], "margin"),
            *(
                (["hexagon", "--builtin", "paper", "--center", "0", "0", "--radii", r], "radii")
                for r in ("nan", "inf", "-1", "0")
            ),
        ],
    )
    def test_exits_2_naming_the_setting(self, tmp_path, capsys, argv, name):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert name in err and "finite" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["hexagon", "--builtin", "paper", "--center", "nan", "0", "--radii", "0.1"], "center"),
            (["hexagon", "--builtin", "paper", "--center", "0", "inf", "--radii", "0.1"], "center"),
            (["trace", "--builtin", "paper", "--seed", "nan", "0"], "seed"),
            (["trace", "--builtin", "paper", "--seed", "0", "inf", "--max-arc", "0.5"], "seed"),
        ],
    )
    def test_point_exits_2_before_any_output(self, tmp_path, capsys, argv, name):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{name} must be finite" in err
        assert not out.exists()

    def test_config_center_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"  # Python's json reads NaN
        cfg.write_text('{"web": {"builtin": "paper"}, "center": [NaN, 0], "radii": [0.1]}')
        out = tmp_path / "out"
        assert main(["hexagon", "--config", str(cfg), "--out", str(out)]) == 2
        assert "center must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("at", [["nan", "0"], ["0", "inf"]])
    def test_parse_at_exits_2_before_any_output(self, capsys, at):
        assert main(["parse", "x*y", "--at", *at]) == 2
        captured = capsys.readouterr()
        assert "--at must be finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["hexagon", "--builtin", "paper", "--center", "9", "9", "--radii", "0.1"],
            ["trace", "--builtin", "paper", "--seed", "9", "9"],
        ],
    )
    def test_finite_point_outside_the_domain_stays_numeric(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path)]) == 3
        assert "is not admissible" in capsys.readouterr().err

    def test_non_finite_config_box_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"  # Python's json reads Infinity
        cfg.write_text('{"domain": {"box": [-Infinity, 1, 0, 1]}}')
        out = tmp_path / "out"
        argv = ["analyze", "--builtin", "parallel", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "box" in err and "finite" in err
        assert not out.exists()


class TestTruncationFlags:
    def test_domain_exit_reaches_report_and_summary(self, tmp_path, capsys):
        # F3's leaves y + sqrt(x+1) = c end at (-1, c), where sqrt stops
        # being differentiable: tracing towards it stops with domain_exit.
        # The exclusion sqrt(x+1) cannot be evaluated at x <= -1, so no
        # grid point or seed lies there.
        argv = ["verify-map", "--web", "x", "y", "y+sqrt(x+1)", "--exclude", "sqrt(x+1)",
                "--margin", "0", "--map", "identity", "--seeds", "3", "--max-arc", "2"]
        assert main([*argv, "--out", str(tmp_path)]) == 1
        rep = json.loads((tmp_path / "report.json").read_text())
        assert [f["flags"] for f in rep["foliations"]] == [
            [], [], [[0, "backward:domain_exit"], [1, "backward:domain_exit"]]
        ]
        lines = capsys.readouterr().out.splitlines()
        assert [line.endswith(", 2 truncation flags)") for line in lines[2:5]] == [
            False, False, True
        ]

    def test_closed_leaves_reach_report_and_summary(self, tmp_path, capsys):
        # F1's leaves are circles: each is traced once round and flagged
        argv = ["verify-map", "--web", "x^2+y^2", "y", "x", "--map", "identity",
                "--seeds", "2", "--max-arc", "10"]
        assert main([*argv, "--out", str(tmp_path)]) == 1
        rep = json.loads((tmp_path / "report.json").read_text())
        assert [f["flags"] for f in rep["foliations"]] == [[[0, "closed"], [1, "closed"]], [], []]
        assert rep["foliations"][0]["verdict"] is False
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].endswith("NOT linear (max residual 0.5, tol 1e-08, 2 truncation flags)")

    def test_trace_counts_vertices_and_flags(self, tmp_path, capsys):
        argv = ["trace", "--web", "x^2+y^2", "y", "x", "--exclude", "1", "--foliation", "1",
                "--seed", "0.5", "0", "--max-arc", "10", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert "(315 vertices, 1 truncation flags)" in capsys.readouterr().out


class TestVerifyMapCommand:
    def test_identity_on_linear_web(self, tmp_path):
        code = main(
            [
                "verify-map",
                "--web",
                "x",
                "y",
                "x+y",
                "--map",
                "identity",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0

    def test_identity_on_paper_web(self, tmp_path):
        code = main(
            [
                "verify-map",
                "--builtin",
                "paper",
                "--map",
                "identity",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 1

    def test_explicit_map_expressions(self, tmp_path):
        code = main(
            [
                "verify-map",
                "--builtin",
                "paper",
                "--map",
                "(x+y)*exp(-x)",
                "y",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0

    def test_map_required(self, tmp_path):
        assert (
            main(["verify-map", "--builtin", "paper", "--out", str(tmp_path)]) == 2
        )


class TestModuleEntryPoint:
    def test_analyze_subprocess(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "triweb.cli",
                "analyze",
                "--web",
                "x",
                "y",
                "x+y",
                "--grid",
                "9",
                "9",
                "--out",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
            timeout=300,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "parallelizable" in proc.stdout


class TestParseCommand:
    def test_prints_canonical_form(self, capsys):
        assert main(["parse", "(x + y) * exp(-x)"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "(x+y)*exp(-x)"

    def test_jet_table(self, capsys):
        assert main(["parse", "(x+y)*exp(-x)", "--at", "0", "0"]) == 0
        out = capsys.readouterr().out
        assert "dxx: -2" in out
        assert "dxxx: 3" in out

    def test_parse_error(self, capsys):
        assert main(["parse", "(x+y)*foo(x)"]) == 2

    def test_domain_violation_at_point_is_numeric_failure(self):
        assert main(["parse", "ln(x)", "--at", "-1", "0"]) == 3

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["parse", "x+\u00b2"], "illegal character '\u00b2' (at offset 2"),
            (["parse", "1e999"], "literal '1e999' overflows (at offset 0"),
            (["parse", "x^2000", "--at", "1", "1"], "integer exponent 2000 in 'x^2000'"),
            (["analyze", "--web", "x", "y", "x^2000"], "integer exponent 2000 in 'x^2000'"),
        ],
    )
    def test_bad_expression_is_one_error_line(self, tmp_path, capsys, argv, message):
        out = ["--out", str(tmp_path)] if argv[0] == "analyze" else []
        assert main([*argv, *out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]

    def test_nesting_at_the_recursion_limit(self):
        # the deepest chains of unary minus that parse may still be too deep
        # for the printer or the jet emitter
        deepest = next(n for n in range(sys.getrecursionlimit(), 0, -1) if _parses("-" * n + "x"))
        for n in range(deepest - 3, deepest + 1):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert main(["parse", "--at", "0.5", "0.5", "--", "-" * n + "x"]) in (0, 2)

    @given(
        st.one_of(
            st.text(),
            st.lists(
                st.sampled_from(
                    ["x", "y", "1", ".5", "2e-3", "1e999", "\u00b2", "\u0661", "\u00e9",
                     "x^2000", "x^400", "exp(", "ln(", "sqrt(", "(", ")", "+", "-", "*",
                     "/", "^", ",", " "]
                ),
                max_size=12,
            ).map("".join),
        )
    )
    def test_any_expression_text_exits_cleanly(self, text):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["parse", "--at", "0.5", "0.5", "--", text]) in (0, 2, 3)


def _integral_text(seed: int, depth: int, huge: bool) -> str:
    """A random first integral: a ``conftest._random_expr`` tree, scaled by
    1e200 when ``huge``, so that jets and reports overflow.  It is
    bracketed, as argparse would read a leading "-" as a flag."""
    text = triweb.to_text(_random_expr(np.random.default_rng(seed), depth))
    return f"(1e200*({text}))" if huge else f"({text})"


_INTEGRALS = st.one_of(  # x and y often, so that some webs are in normal form
    st.sampled_from(["x", "y"]),
    st.builds(_integral_text, st.integers(0, 2**32 - 1), st.integers(0, 3), st.booleans()),
)


class TestNoTraceback:
    @settings(max_examples=200)
    @given(
        integrals=st.tuples(_INTEGRALS, _INTEGRALS, _INTEGRALS),
        box=st.just(None),
        map_spec=st.just(("identity",)),
    )
    # a nan pair determinant passed general position; a nan K and an
    # infinite det J ended in a traceback after writing part of the outputs
    @example(integrals=("1e200*(x+y)", "1e200*(x+y)", "x"), box=None, map_spec=("identity",))
    @example(integrals=("x", "y", "1e200*x^2*y"), box=(0.5, 1, 0.5, 1), map_spec=("identity",))
    @example(
        integrals=("x", "y", "x+y"), box=(0.5, 1.5, 0.5, 1.5), map_spec=("1e200*x^2", "1e200*y")
    )
    def test_every_run_ends_in_an_exit_code(self, integrals, box, map_spec):
        # a failed run (2 or 3) writes nothing; two equal integrals are never
        # in general position, so verify-map cannot pass on them
        small = ["--web", *integrals, "--grid", "3", "3"]
        small += ["--box", *map(str, box)] if box else []
        runs = (
            ["analyze", *small],
            ["verify-map", *small, "--map", *map_spec, "--seeds", "1", "--max-arc", "0.05"],
        )
        for argv in runs:
            with tempfile.TemporaryDirectory() as tmp:
                out = Path(tmp) / "out"
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main([*argv, "--out", str(out)])
                assert code in (0, 1, 2, 3), argv
                assert out.exists() == (code in (0, 1)), argv
            if argv[0] == "verify-map" and len(set(integrals)) < 3:
                assert code != 0, argv


class TestMoreCommandPaths:
    def test_verify_theorem_custom_map_skips_line_check(self, tmp_path):
        code = main(
            [
                "verify-theorem",
                "--builtin",
                "paper",
                "--map",
                "(x+y)*exp(-x)",
                "y",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["map"] == "custom"
        assert rep["line_formula"] is None

    def test_verify_theorem_with_map_writes_verify_maps_files(self, tmp_path):
        common = ["--builtin", "paper", "--map", "identity", "--seeds", "2", "--max-arc", "0.5"]
        assert main(["verify-theorem", *common, "--out", str(tmp_path / "theorem")]) == 1
        assert main(["verify-map", *common, "--out", str(tmp_path / "map")]) == 1
        names = sorted(p.name for p in (tmp_path / "theorem").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "map").iterdir())
        assert len(names) == 5
        for name in names:
            assert (tmp_path / "theorem" / name).read_bytes() == (
                tmp_path / "map" / name
            ).read_bytes(), name

    def test_analyze_non_normal_form_is_config_error(self, tmp_path):
        code = main(
            ["analyze", "--web", "x+y", "y", "x", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_trace_diagonal_seeds(self, tmp_path):
        code = main(
            [
                "trace",
                "--builtin",
                "paper",
                "--foliation",
                "1",
                "--seeds",
                "4",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "leaves_f1.csv")
        assert len({r[1] for r in rows}) == 4  # one level per seed

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "triweb", "parse", "x+y"],
            capture_output=True,
            text=True,
            timeout=300,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "x+y"


class TestVerifyTheoremWeb:
    @pytest.mark.parametrize("name", ["parallel", "product"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_other_builtin_runs_the_line_check(self, tmp_path, name, source):
        # the line check is derived from each web, not from the paper's closed form
        argv = ["--builtin", name]
        if source == "config":
            p = tmp_path / "run.json"
            p.write_text(json.dumps({"web": {"builtin": name}}))
            argv = ["--config", str(p)]
        out = tmp_path / "out"
        small = ["--seeds", "2", "--max-arc", "0.5"]
        assert main(["verify-theorem", *argv, *small, "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["map"] == "linearizing"
        assert rep["line_formula"]["verdict"] is True and rep["line_formula"]["n_leaves"] == 2

    def test_other_builtin_with_a_map_runs(self, tmp_path):
        # with --map no closed form is scored: the run is verify-map's
        small = ["--builtin", "parallel", "--map", "identity", "--seeds", "2", "--max-arc", "0.5"]
        assert main(["verify-theorem", *small, "--out", str(tmp_path)]) == 0

    def test_runs_verify_linearization(self, tmp_path):
        # the library call and the command are one run: the same report
        argv = ["--seeds", "2", "--max-arc", "0.5", "--out", str(tmp_path)]
        assert main(["verify-theorem", *argv]) == 0
        want = triweb.verify_linearization(seeds_per_foliation=2, max_arc=0.5)
        assert (tmp_path / "report.json").read_text() == triweb.outputs.report_json(want.to_dict())

    @staticmethod
    def compiled(tmp_path, monkeypatch, argv) -> list:
        """The text of every expression compiled by one small run of ``argv``, sorted."""
        real = triweb.kernels.compile_expr
        compiled = []

        def spy(e, source=None):
            compiled.append(e if isinstance(e, str) else triweb.to_text(e))
            return real(e, source)

        for mod in list(sys.modules.values()):
            if mod and mod.__name__.startswith("triweb") and getattr(mod, "compile_expr", None) is real:
                monkeypatch.setattr(mod, "compile_expr", spy)
        assert main([*argv, "--seeds", "2", "--max-arc", "0.5", "--out", str(tmp_path)]) == 0
        return sorted(compiled)

    def test_each_expression_is_compiled_once(self, tmp_path, monkeypatch):
        compiled = self.compiled(tmp_path, monkeypatch, ["verify-theorem"])
        assert compiled == ["(x+y)*exp(-x)", "1-x-y", "x", "y"]

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["family", "--a", "2+x^2", "--b", "1"], ["(2+x^2)*x+1*y", "x", "y"]),
            # the map's components are compiled too, once each
            (["verify-map", "--builtin", "parallel", "--map", "x+2*y", "x-y"],
             ["x", "x+2*y", "x+y", "x-y", "y"]),
        ],
        ids=["family", "verify-map"],
    )
    def test_other_pipelines_compile_each_expression_once(self, tmp_path, monkeypatch, argv, want):
        assert self.compiled(tmp_path, monkeypatch, argv) == want


class TestJetOrders:
    """Each report reads the jet order it uses: order 1 for general
    position, the diffeomorphism grid, push-forward and admissibility,
    order 3 only for the curvature grid.  Each command surveys its grid
    once."""

    def orders(self, monkeypatch, argv):
        """(function, order, called from curvature_grid) of every jet call,
        and the number of admissibility masks, of one run."""
        calls, masks = [], []
        for name in ("jet_coeffs", "jet_coeffs_many"):
            real = getattr(triweb.kernels, name)

            def spy(program, x, y, order=3, real=real, name=name):
                frame, stack = sys._getframe(1), set()
                while frame is not None:
                    stack.add(frame.f_code.co_name)
                    frame = frame.f_back
                calls.append((name, order, "curvature_grid" in stack))
                return real(program, x, y, order)

            for mod in list(sys.modules.values()):
                if mod and mod.__name__.startswith("triweb") and getattr(mod, name, None) is real:
                    monkeypatch.setattr(mod, name, spy)
        real_mask = triweb.web.Domain.admissible_mask

        def mask_spy(domain, xs, ys):
            masks.append(domain)
            return real_mask(domain, xs, ys)

        monkeypatch.setattr(triweb.web.Domain, "admissible_mask", mask_spy)
        assert main(argv) == 0
        return calls, len(masks)

    def test_verify_theorem_reads_order_1_only(self, tmp_path, monkeypatch):
        argv = ["verify-theorem", "--seeds", "2", "--max-arc", "0.5", "--out", str(tmp_path)]
        calls, _ = self.orders(monkeypatch, argv)
        assert {order for _, order, _ in calls} == {1}
        assert {name for name, _, _ in calls} == {"jet_coeffs", "jet_coeffs_many"}

    def test_analyze_reads_order_3_once_for_curvature(self, tmp_path, monkeypatch):
        argv = ["analyze", "--builtin", "paper", "--out", str(tmp_path)]
        calls, _ = self.orders(monkeypatch, argv)
        assert [c for c in calls if c[1] != 1] == [("jet_coeffs_many", 3, True)]

    def test_analyze_surveys_once(self, tmp_path, monkeypatch):
        argv = ["analyze", "--builtin", "paper", "--out", str(tmp_path)]
        calls, masks = self.orders(monkeypatch, argv)
        assert masks == 1
        # the mask, three general-position gradients and the curvature jets
        assert [c[0] for c in calls] == ["jet_coeffs_many"] * 5

    def test_verify_theorem_surveys_once(self, tmp_path, monkeypatch):
        argv = ["verify-theorem", "--seeds", "3", "--max-arc", "0.5", "--out", str(tmp_path)]
        _, masks = self.orders(monkeypatch, argv)
        assert masks == 1


class TestReadmeLibrary:
    def test_library_block_runs(self):
        text = (ROOT / "README.md").read_text()
        block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})
