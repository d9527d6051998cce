"""File outputs: CSV, JSON reports, and SVG plots.

CSV floats are printed with 17 significant digits and a lowercase
exponent so values round-trip exactly.  Report JSON is meant for diffing
across runs, so its floats are quantized: rounded to 9 significant
digits, with magnitudes below 1e-11 reported as 0.  Full-precision
numbers always live in the CSVs.

All writers are deterministic: identical inputs produce byte-identical
files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .analysis import HexagonFigure
from .web import Domain

CSV_FLOAT_DIGITS = 17
_JSON_FLOOR = 1e-11
_JSON_DIGITS = 9

LEAF_HEADER = "foliation,level,arc,x,y"
LEAF_IMAGE_HEADER = "foliation,level,arc,x,y,image"
CURVATURE_HEADER = "x,y,K"
HEXAGON_LEGS_HEADER = "leg,x,y"
DEFECT_TABLE_HEADER = "r,defect"
# curvature rows turned into Python floats per pass: converting a 500x500
# grid in one piece left the process about 7 MiB larger after repeated runs
_CSV_CHUNK_ROWS = 16384

# fixed stroke palette per foliation (1-based)
_FOLIATION_COLORS = {0: "#7f7f7f", 1: "#1f77b4", 2: "#2ca02c", 3: "#d62728"}


def fmt(v: float) -> str:
    """17-significant-digit decimal form with lowercase exponent."""
    return format(float(v), f".{CSV_FLOAT_DIGITS}g")


def _clean_json(obj):
    if isinstance(obj, dict):
        return {k: _clean_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean_json(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            raise ValueError(f"non-finite value {v!r} in report")
        if abs(v) < _JSON_FLOOR:
            return 0.0
        return float(f"{v:.{_JSON_DIGITS}g}")
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def dump_json(obj: dict, path: Path | str) -> None:
    """Write a report object as quantized, diff-stable JSON."""
    text = json.dumps(_clean_json(obj), indent=2) + "\n"
    Path(path).write_text(text)


def _write_csv(path: Path | str, header: str, blocks, footer: str = "") -> None:
    """Write ``blocks`` as CSV lines under ``header``; ``footer`` ends the file.

    Each block is ``(lead, table, trail)``: a 2-d array of the varying
    columns, and the text of the constant columns before and after them,
    formatted once by ``fmt``.  The table is turned into Python numbers
    once and formatted by one ``%`` over the flat tuple, every field in the
    form of ``fmt``.
    """
    field = f"%.{CSV_FLOAT_DIGITS}g"
    with Path(path).open("w") as f:
        f.write(header + "\n")
        for lead, table, trail in blocks:
            line = lead + ",".join([field] * table.shape[1]) + trail + "\n"
            f.write(line * len(table) % tuple(table.ravel().tolist()))
        f.write(footer)


def write_leaf_csv(path: Path | str, leaves, with_image: bool = False) -> None:
    """One vertex per row.

    ``leaves`` is an iterable of LeafPolyline, or of (LeafPolyline,
    image_flag) pairs when ``with_image`` is set.
    """

    def block(leaf, image=None):
        lead = f"{fmt(leaf.foliation)},{fmt(leaf.level)},"
        trail = "," + fmt(image) if with_image else ""
        return lead, np.column_stack((leaf.arcs, leaf.vertices)), trail

    blocks = (block(*item) for item in leaves) if with_image else map(block, leaves)
    _write_csv(path, LEAF_IMAGE_HEADER if with_image else LEAF_HEADER, blocks)


def write_curvature_csv(path: Path | str, xs, ys, kappa) -> None:
    """One grid point per row; ``xs``, ``ys`` and ``kappa`` are 1-d arrays."""
    table, n = np.column_stack((xs, ys, kappa)), _CSV_CHUNK_ROWS
    chunks = (table[i : i + n] for i in range(0, len(table), n))
    _write_csv(path, CURVATURE_HEADER, (("", chunk, "") for chunk in chunks))


def write_hexagon_legs_csv(path: Path | str, figure: HexagonFigure) -> None:
    """Leg paths (leg 0 is the radius walk) plus a defect summary line."""
    blocks = ((fmt(i) + ",", leg, "") for i, leg in enumerate(figure.legs))
    _write_csv(path, HEXAGON_LEGS_HEADER, blocks, footer=f"defect={fmt(figure.defect)}\n")


def write_defect_table_csv(path: Path | str, radii, defects) -> None:
    _write_csv(path, DEFECT_TABLE_HEADER, [("", np.column_stack((radii, defects)), "")])


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------


def _svg_fmt(v: float) -> str:
    return format(v, ".6g")


def write_svg(
    path: Path | str,
    domain: Domain,
    leaves,
    width: float = 640.0,
) -> None:
    """Static plot with one polyline element per exported leaf.

    ``leaves`` is an iterable of (LeafPolyline, image_flag); images are
    dashed.  The viewport always contains the whole domain box and grows
    as needed to keep mapped leaves visible; the box outline is drawn for
    reference.
    """
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

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_svg_fmt(width)}" '
        f'height="{_svg_fmt(height)}" viewBox="0 0 {_svg_fmt(width)} {_svg_fmt(height)}">',
        f'<rect width="{_svg_fmt(width)}" height="{_svg_fmt(height)}" fill="white"/>',
    ]
    bx0, by0 = (domain.box[0] - xmin) * scale, (ymax - domain.box[3]) * scale
    bx1, by1 = (domain.box[1] - xmin) * scale, (ymax - domain.box[2]) * scale
    parts.append(
        f'<rect x="{_svg_fmt(bx0)}" y="{_svg_fmt(by0)}" '
        f'width="{_svg_fmt(bx1 - bx0)}" height="{_svg_fmt(by1 - by0)}" '
        'fill="none" stroke="#bbbbbb" stroke-width="1"/>'
    )
    for leaf, image in leaves:
        if len(leaf) < 2:
            continue
        # the same IEEE operations per vertex as (x - xmin) * scale on floats
        v = leaf.vertices
        px = np.column_stack(((v[:, 0] - xmin) * scale, (ymax - v[:, 1]) * scale))
        pts = ("%.6g,%.6g " * len(v) % tuple(px.ravel().tolist()))[:-1]
        color = _FOLIATION_COLORS.get(leaf.foliation, _FOLIATION_COLORS[0])
        dash = ' stroke-dasharray="6 4"' if image else ""
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.4"{dash}/>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
