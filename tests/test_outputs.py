"""File writers: float formats, JSON quantization, CSV schemas."""

import json
import math

import numpy as np
import pytest

from triweb.outputs import (
    dump_json,
    fmt,
    write_curvature_csv,
    write_defect_table_csv,
    write_hexagon_legs_csv,
    write_leaf_csv,
)
from triweb.analysis import hexagon_defect
from triweb.web import LeafPolyline


class TestFloatFormat:
    def test_roundtrip_exact(self):
        for v in (1 / 3, math.pi, 2 * math.exp(-1), 1e-17, -0.05):
            assert float(fmt(v)) == v

    def test_lowercase_exponent(self):
        assert fmt(1e-5) == "1.0000000000000001e-05"

    def test_integers_stay_short(self):
        assert fmt(-1.0) == "-1"
        assert fmt(0.0) == "0"


class TestJsonQuantization:
    def test_rounding_and_floor(self, tmp_path):
        p = tmp_path / "r.json"
        dump_json(
            {"a": 0.013533528323661281, "b": 8.59e-13, "c": [True, 3, "s", None]}, p
        )
        data = json.loads(p.read_text())
        assert data["a"] == 0.0135335283
        assert data["b"] == 0.0
        assert data["c"] == [True, 3, "s", None]

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            dump_json({"bad": float("nan")}, tmp_path / "x.json")

    def test_numpy_scalars_accepted(self, tmp_path):
        p = tmp_path / "n.json"
        dump_json({"v": np.float64(0.5), "n": np.int64(3)}, p)
        assert json.loads(p.read_text()) == {"v": 0.5, "n": 3}


class TestLeafCsv:
    def _leaf(self):
        v = np.array([[0.0, 0.0], [0.0, -0.01], [0.0, -0.02]])
        return LeafPolyline(1, 0.5, v, np.array([0.0, 0.01, 0.02]))

    def test_plain_schema(self, tmp_path):
        p = tmp_path / "l.csv"
        write_leaf_csv(p, [self._leaf()])
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "foliation,level,arc,x,y"
        assert lines[1] == "1,0.5,0,0,0"
        assert len(lines) == 4

    def test_image_schema(self, tmp_path):
        p = tmp_path / "l.csv"
        write_leaf_csv(p, [(self._leaf(), 0), (self._leaf(), 1)], with_image=True)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "foliation,level,arc,x,y,image"
        assert lines[1].endswith(",0")
        assert lines[-1].endswith(",1")


class TestCurvatureCsv:
    def test_fields_are_fmt(self, tmp_path):
        xs = np.array([-0.0, 5e-324, 1e308, 0.1, 1e-5])
        ys, ks = xs[::-1], -xs
        p = tmp_path / "curvature.csv"
        write_curvature_csv(p, xs, ys, ks)
        text = p.read_text()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines[0] == "x,y,K"
        assert [line.split(",") for line in lines[1:]] == [
            [fmt(x), fmt(y), fmt(k)] for x, y, k in zip(xs, ys, ks)
        ]


class TestHexagonCsv:
    def test_legs_and_summary(self, tmp_path, parallel_web):
        fig = hexagon_defect(parallel_web, (0.0, 0.0), 0.25)
        p = tmp_path / "legs.csv"
        write_hexagon_legs_csv(p, fig)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "leg,x,y"
        assert lines[-1] == f"defect={fmt(fig.defect)}"
        legs_seen = {line.split(",")[0] for line in lines[1:-1]}
        assert legs_seen == {"0", "1", "2", "3", "4", "5", "6"}

    def test_defect_table(self, tmp_path):
        p = tmp_path / "d.csv"
        write_defect_table_csv(p, [0.2, 0.1], [1e-3, 1e-4])
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "r,defect"
        assert len(lines) == 3
