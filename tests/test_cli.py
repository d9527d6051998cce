"""Command-line behavior: exit codes, file outputs, determinism."""

import json
import math
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from triweb.cli import main


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
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "x+y"
