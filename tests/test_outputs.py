"""File writers: float formats, JSON quantization, CSV schemas."""

import json
import math
import os
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import triweb.outputs
from triweb.outputs import (
    _FOLIATION_COLORS,
    _g_text,
    dump_json,
    fmt,
    write_curvature_csv,
    write_defect_table_csv,
    write_hexagon_legs_csv,
    write_leaf_csv,
    write_svg,
)
from triweb.analysis import hexagon_defect
from triweb.web import Domain, LeafPolyline


class TestFloatFormat:
    def test_roundtrip_exact(self):
        for v in (1 / 3, math.pi, 2 * math.exp(-1), 1e-17, -0.05):
            assert float(fmt(v)) == v

    def test_lowercase_exponent(self):
        assert fmt(1e-5) == "1.0000000000000001e-05"

    def test_integers_stay_short(self):
        assert fmt(-1.0) == "-1"
        assert fmt(0.0) == "0"


def kernel_texts(values, digits):
    """The texts of _g_text, its rows with their 0 bytes dropped."""
    rows = _g_text(np.asarray(values, dtype=float), digits)
    lines = np.concatenate((rows, np.full((len(rows), 1), ord("\n"), np.uint8)), axis=1)
    return lines.tobytes().translate(None, b"\0").decode().splitlines()


def assert_like_percent(values, digits):
    """_g_text prints every value as ``'%.{digits}g' %`` does."""
    values = np.asarray(values, dtype=float)
    want = [f"%.{digits}g" % v for v in values.tolist()]
    got = kernel_texts(values, digits)
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


def _powers_of_ten():
    p = np.array([float(f"1e{k}") for k in range(-330, 309)])
    return np.concatenate([p, np.nextafter(p, np.inf), np.nextafter(p, -np.inf)])


class TestGText:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_floats(self, values):
        for digits in (17, 6):
            assert_like_percent(values, digits)

    @pytest.mark.parametrize("digits", [17, 6])
    def test_random_bit_patterns(self, digits):
        bits = np.random.default_rng(20260419).integers(0, 2**64, 200_000, dtype=np.uint64)
        assert_like_percent(bits.view(float), digits)

    @pytest.mark.parametrize("digits", [17, 6])
    def test_every_decade_of_the_fast_range_and_beyond(self, digits):
        rng = np.random.default_rng(20260420)
        assert_like_percent(rng.choice([-1, 1], 100_000) * 10 ** rng.uniform(-13, 19, 100_000), digits)

    @pytest.mark.parametrize("digits", [17, 6])
    def test_powers_of_ten_and_neighbours(self, digits):
        assert_like_percent(_powers_of_ten(), digits)

    def test_exact_ties(self):
        odd = 2 * np.random.default_rng(7).integers(0, 2**24, 50_000) + 1
        assert_like_percent(odd / 2**17, 17)
        assert_like_percent(odd / 2**4, 6)

    @pytest.mark.parametrize("digits", [17, 6])
    def test_form_switch_points(self, digits):
        edges = np.array([1e-5, 1e-4, 1e16, 1e17, 10.0**digits, 10.0 ** (digits - 1)])
        near = [np.nextafter(edges, 0), edges, np.nextafter(edges, np.inf)]
        assert_like_percent(np.concatenate(near + [-e for e in near]), digits)

    def test_rounding_up_to_a_power_of_ten(self):
        k = np.arange(-11, 17)
        assert_like_percent(10.0**k * (1 - 3e-7), 6)
        assert_like_percent([9.9999995, 999999.5, 0.000999999951, 99999.99999999999], 6)
        # the doubles just below each power of ten, at 17 digits
        assert_like_percent(np.nextafter(10.0**k, 0), 17)
        assert kernel_texts([9.9999995, 999999.5], 6) == ["10", "1e+06"]

    def test_zeros_and_specials(self):
        values = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308]
        for digits in (17, 6):
            assert_like_percent(values, digits)
        assert kernel_texts([0.0, -0.0], 17) == ["0", "-0"]


class TestWriterMemory:
    # chunked writers: working memory stays bounded however many rows
    BOUND = 8 * 2**20

    def peak(self, write, *args):
        write(os.devnull, *args)
        tracemalloc.start()
        try:
            write(os.devnull, *args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_curvature_csv_of_250k_rows(self):
        g = np.linspace(-2, 2, 500)
        xs, ys = np.tile(g, 500), np.repeat(g, 500)
        assert self.peak(write_curvature_csv, xs, ys, xs * ys - 0.5) < self.BOUND

    def test_curvature_csv_of_1m_rows(self):
        g = np.linspace(-2, 2, 1000)
        xs, ys = np.tile(g, 1000), np.repeat(g, 1000)
        assert self.peak(write_curvature_csv, xs, ys, xs * ys - 0.5) < self.BOUND

    def test_scattered_curvature_csv(self):
        # no coordinate repeats: a table of every distinct x would grow with the file
        xs, ys = np.random.default_rng(5).uniform(-2, 2, (2, 100_000))
        assert self.peak(write_curvature_csv, xs, ys, xs * ys) < self.BOUND

    def test_leaf_csv_of_one_long_leaf(self):
        t = np.linspace(0.0, 2000.0, 200_001)
        leaf = LeafPolyline.from_vertices(1, 0.5, np.column_stack((np.cos(t), 0.3 * np.sin(t))))
        assert self.peak(write_leaf_csv, [leaf]) < self.BOUND
        assert self.peak(write_leaf_csv, [(leaf, 1)], True) < self.BOUND



class TestCoordinateTables:
    def test_grid_coordinates_are_formatted_once_per_file(self, tmp_path, monkeypatch):
        sizes = []
        real = triweb.outputs._g_text

        def spy(values, digits, out=None):
            sizes.append(len(values))
            return real(values, digits, out)

        monkeypatch.setattr(triweb.outputs, "_g_text", spy)
        g = np.linspace(-2, 2, 500)
        xs, ys = np.tile(g, 500), np.repeat(g, 500)
        path = tmp_path / "k.csv"
        write_curvature_csv(path, xs, ys, xs - ys)
        # the 500 x and 500 y values once, in one call, then K chunk by chunk
        assert sizes[0] == 1000 and sum(sizes[1:]) == xs.size
        assert len(sizes) == 1 + -(-xs.size // triweb.outputs._CHUNK_ROWS)
        lines = path.read_bytes().split(b"\n")[1:-1]
        for i in (0, 1, 8191, 8192, 123_456, xs.size - 1):
            assert lines[i].decode() == ",".join(fmt(v) for v in (xs[i], ys[i], xs[i] - ys[i]))

    def test_signed_zero_and_repeats_across_chunks(self, tmp_path):
        # -0.0 and 0.0 are distinct texts; a value first seen in a late chunk is in the table
        n = 20_000
        xs = np.where(np.arange(n) % 3 == 0, -0.0, 0.0)
        xs[-1] = 7.25
        ys = np.repeat([1.5, -2.0, 1e-300], [9000, 10_999, 1])
        path = tmp_path / "k.csv"
        write_curvature_csv(path, xs, ys, ys)
        want = "".join(f"{fmt(x)},{fmt(y)},{fmt(y)}\n" for x, y in zip(xs, ys))
        assert path.read_text() == f"x,y,K\n{want}"

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


# values whose text differs though they compare equal (0.0 and -0.0), or
# compare unequal to themselves (nan)
_SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -1.0, 0.1, 1e308]


class TestCurvatureCsv:
    def check(self, path, xs, ys, ks):
        xs, ys, ks = (np.array(v, dtype=float) for v in (xs, ys, ks))
        write_curvature_csv(path, xs, ys, ks)
        reference_curvature_csv(path.with_suffix(".ref"), xs, ys, ks)
        assert path.read_bytes() == path.with_suffix(".ref").read_bytes()

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

    def test_columns_of_unequal_length_are_refused(self, tmp_path):
        with pytest.raises(ValueError, match="lengths differ"):
            write_curvature_csv(tmp_path / "c.csv", [0.0, 1.0], [0.0], [1.0, 2.0])

    def test_empty_writes_the_header(self, tmp_path):
        self.check(tmp_path / "c.csv", [], [], [])
        assert (tmp_path / "c.csv").read_text() == "x,y,K\n"

    def test_ungrouped_and_repeated_ys(self, tmp_path):
        ys = [1.0, 2.0, 1.0, 1.0, 2.0, 2.0, 3.0, 1.0]
        self.check(tmp_path / "c.csv", np.arange(8) / 7, ys, np.arange(8) * 0.3)

    def test_repeated_x(self, tmp_path):
        xs = [0.5, 0.5, 0.5, -1.0, 0.5, -1.0]
        self.check(tmp_path / "c.csv", xs, [0.0, 0.0, 1.0, 1.0, 1.0, 0.0], np.arange(6) / 3)

    def test_special_values_in_every_column(self, tmp_path):
        for shift in range(len(_SPECIAL)):
            rolled = _SPECIAL[shift:] + _SPECIAL[:shift]
            self.check(tmp_path / "c.csv", _SPECIAL, rolled, rolled[::-1])
        # -0.0 and 0.0 share a run under ==, but not their text
        self.check(tmp_path / "c.csv", [1.0, 2.0, 1.0], [0.0, -0.0, -0.0], [-0.0, 0.0, 5e-324])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from(_SPECIAL), st.floats()),
                st.one_of(st.sampled_from(_SPECIAL[:4]), st.floats()),
                st.floats(),
            ),
            max_size=40,
        )
    )
    def test_matches_reference_on_random_rows(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            self.check(Path(tmp) / "c.csv", *(zip(*rows) if rows else ([], [], [])))


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


# ---------------------------------------------------------------------------
# Reference writers: the per-row blocks and the per-value SVG loop that the
# template writers replaced.  The writers must reproduce their bytes.
# ---------------------------------------------------------------------------


def _reference_csv(path, header, blocks, footer=""):
    line = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    with open(path, "w") as f:
        f.write(header + "\n")
        for block in blocks:
            f.write(line * len(block) % tuple(block.ravel().tolist()))
        f.write(footer)


def reference_curvature_csv(path, xs, ys, ks):
    """Every field formatted on its own by ``fmt``, one row per point."""
    with open(path, "w") as f:
        f.write("x,y,K\n")
        f.writelines(f"{fmt(x)},{fmt(y)},{fmt(k)}\n" for x, y, k in zip(xs, ys, ks))


def reference_leaf_csv(path, leaves, with_image=False):
    def block(leaf, image=None):
        n = len(leaf)
        cols = [np.full(n, leaf.foliation), np.full(n, leaf.level), leaf.arcs, leaf.vertices]
        return np.column_stack(cols + ([np.full(n, image)] if with_image else []))

    blocks = (block(*item) for item in leaves) if with_image else map(block, leaves)
    header = "foliation,level,arc,x,y,image" if with_image else "foliation,level,arc,x,y"
    _reference_csv(path, header, blocks)


def reference_hexagon_legs_csv(path, figure):
    blocks = (np.column_stack((np.full(len(leg), i), leg)) for i, leg in enumerate(figure.legs))
    _reference_csv(path, "leg,x,y", blocks, footer=f"defect={fmt(figure.defect)}\n")


def reference_svg(path, domain, leaves, width=640.0):
    def svg_fmt(v):
        return format(v, ".6g")

    leaves = list(leaves)
    xmin, xmax, ymin, ymax = domain.box
    for leaf, _ in leaves:
        if len(leaf) == 0:
            continue
        xmin = min(xmin, float(leaf.vertices[:, 0].min()))
        xmax = max(xmax, float(leaf.vertices[:, 0].max()))
        ymin = min(ymin, float(leaf.vertices[:, 1].min()))
        ymax = max(ymax, float(leaf.vertices[:, 1].max()))
    pad = 0.03 * max(xmax - xmin, ymax - ymin)
    xmin, xmax = xmin - pad, xmax + pad
    ymin, ymax = ymin - pad, ymax + pad
    scale = width / (xmax - xmin)
    height = (ymax - ymin) * scale

    def to_px(x, y):
        return (x - xmin) * scale, (ymax - y) * scale

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{svg_fmt(width)}" '
        f'height="{svg_fmt(height)}" viewBox="0 0 {svg_fmt(width)} {svg_fmt(height)}">',
        f'<rect width="{svg_fmt(width)}" height="{svg_fmt(height)}" fill="white"/>',
    ]
    bx0, by0 = to_px(domain.box[0], domain.box[3])
    bx1, by1 = to_px(domain.box[1], domain.box[2])
    parts.append(
        f'<rect x="{svg_fmt(bx0)}" y="{svg_fmt(by0)}" '
        f'width="{svg_fmt(bx1 - bx0)}" height="{svg_fmt(by1 - by0)}" '
        'fill="none" stroke="#bbbbbb" stroke-width="1"/>'
    )
    for leaf, image in leaves:
        if len(leaf) < 2:
            continue
        pts = " ".join(
            f"{svg_fmt(px)},{svg_fmt(py)}" for px, py in (to_px(x, y) for x, y in leaf.vertices)
        )
        color = _FOLIATION_COLORS.get(leaf.foliation, _FOLIATION_COLORS[0])
        dash = ' stroke-dasharray="6 4"' if image else ""
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.4"{dash}/>'
        )
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")


def _leaf(foliation, level, points):
    v = np.array(points, dtype=float).reshape(-1, 2)
    seg = np.hypot(*np.diff(v, axis=0).T)
    return LeafPolyline(foliation, level, v, np.concatenate(([0.0], np.cumsum(seg)))[: len(v)])


# an empty leaf, a one-vertex leaf, foliation 0, levels and coordinates
# printing with an exponent or as -0, and leaves far outside the box
EDGE_LEAVES = [
    (_leaf(1, 0.5, []), 0),
    (_leaf(2, -0.0, [[0.25, -0.0]]), 1),
    (_leaf(0, 1e-20, [[-0.0, 1e-7], [3e-5, -0.0], [1.5e-300, 2.5]]), 0),
    (_leaf(3, -2.5e17, [[1e9, -1e9], [1e9 + 0.5, -1e9 + 1e-3]]), 1),
    (_leaf(7, 123456789.125, [[-3.0, 40.0], [-2.999999, 40.000001], [5.0, 1e-5]]), 0),
]


def _pipeline_items(report, fol_index):
    return [
        (leaf, image)
        for pre, post in report.foliations[fol_index - 1].leaves
        for leaf, image in ((pre, 0), (post, 1))
    ]


def _same_bytes(tmp_path, write, reference, *args):
    new, ref = tmp_path / "new", tmp_path / "ref"
    write(new, *args)
    reference(ref, *args)
    assert new.read_bytes() == ref.read_bytes()


class TestWritersMatchReference:
    @pytest.mark.parametrize("fol_index", [1, 2, 3])
    def test_leaf_csv_of_paper_web(self, tmp_path, theorem_report, fol_index):
        items = _pipeline_items(theorem_report, fol_index)
        _same_bytes(tmp_path, write_leaf_csv, reference_leaf_csv, items, True)
        pre = [leaf for leaf, image in items if not image]
        _same_bytes(tmp_path, write_leaf_csv, reference_leaf_csv, pre)

    def test_svg_of_paper_web(self, tmp_path, theorem_report, paper_web):
        items = sum((_pipeline_items(theorem_report, f) for f in (1, 2, 3)), [])
        _same_bytes(tmp_path, write_svg, reference_svg, paper_web.domain, items)
        plain = [(leaf, 0) for leaf, image in items if not image]
        _same_bytes(tmp_path, write_svg, reference_svg, paper_web.domain, plain)

    def test_edge_cases(self, tmp_path):
        _same_bytes(tmp_path, write_leaf_csv, reference_leaf_csv, EDGE_LEAVES, True)
        leaves = [leaf for leaf, _ in EDGE_LEAVES]
        _same_bytes(tmp_path, write_leaf_csv, reference_leaf_csv, leaves)
        csv = (tmp_path / "new").read_text()
        assert "\n2,-0,0,0.25,-0\n" in csv and "e-08" in csv and "-2.5e+17" in csv
        for items in (EDGE_LEAVES[2:3], EDGE_LEAVES):
            _same_bytes(tmp_path, write_svg, reference_svg, Domain(), items)
        svg = (tmp_path / "new").read_text()
        strokes = re.findall(r'<polyline points="([^"]*)" fill="none" stroke="([^"]*)"', svg)
        assert len(strokes) == 3  # the empty and the one-vertex leaf are skipped
        assert {color for _, color in strokes} == {_FOLIATION_COLORS[0], _FOLIATION_COLORS[3]}
        assert re.search(r'<rect x="[^"]*" y="[^"]*" width="[\d.]+e-06"', svg)  # grown 1e9-fold

    def test_hexagon_legs(self, tmp_path, paper_web):
        fig = hexagon_defect(paper_web, (0.3, -0.4), 0.1)
        _same_bytes(tmp_path, write_hexagon_legs_csv, reference_hexagon_legs_csv, fig)
