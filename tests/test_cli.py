"""Command-line behavior: exit codes, file outputs, determinism."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import triweb
from triweb.cli import (
    MAX_GRID_POINTS,
    SETTINGS,
    RunConfig,
    _config_from_sources,
    _json_fields,
    build_parser,
    main,
)
from triweb.errors import ConfigError

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

    def test_scenario_files_load(self):
        paths = sorted((ROOT / "scenarios").glob("*.json"))
        assert paths
        for path in paths:
            cfg = _config_from_sources(build_parser().parse_args(["analyze", "--config", str(path)]))
            cfg.build_web()


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


class TestWorkCaps:
    def test_validate_rejects_work_above_the_caps(self):
        for cfg in (
            RunConfig(grid=(1001, 1000)),
            RunConfig(grid=(2, MAX_GRID_POINTS // 2 + 1)),
            RunConfig(max_arc=1000.01),
            RunConfig(max_arc=math.inf),
            RunConfig(max_arc=math.nan),
        ):
            with pytest.raises(ConfigError, match="cap"):
                cfg.validate()

    def test_caps_admit_the_largest_runs(self):
        RunConfig(grid=(1000, 1000), max_arc=1000.0).validate()
        RunConfig(grid=(500, 500)).validate()

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--builtin", "paper", "--grid", "1001", "1000"],
            ["verify-theorem", "--max-arc", "inf"],
        ],
    )
    def test_cli_exits_2(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert "exceeds the cap" in capsys.readouterr().err


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
