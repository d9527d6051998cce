"""File outputs: CSV, JSON reports, and SVG plots.

CSV floats are printed with 17 significant digits and a lowercase
exponent so values round-trip exactly.  Report JSON is meant for diffing
across runs, so its floats are quantized: rounded to 9 significant
digits, with magnitudes below 1e-11 reported as 0.  Full-precision
numbers always live in the CSVs.

CSV fields are the bytes of ``'%.17g' % v``, computed exactly in numpy by
``_g_text``: the 53-bit significand times 5**s (s <= 27) stays below 2**116
in two 64-bit limbs, and a right shift of at most 63 bits rounds half to
even on the exact remainder.  That covers zero and normal values from 1e-11
to 1e17; Python's ``%`` prints the rest.  Rows go out _CHUNK_ROWS at a time.
The writer finds the columns that repeat their values (a grid's x and y,
a leaf's foliation and level, every column of a short file): each is
formatted through a table of its distinct values, made once per file and
copied into each chunk's lines, unless it has more than _CHUNK_ROWS of
them; so a writer's working memory does not grow with the rows.

All writers are deterministic: identical inputs produce byte-identical
files.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

from .analysis import HexagonFigure
from .errors import NonFiniteError
from .web import Domain

CSV_FLOAT_DIGITS = 17
_CHUNK_ROWS = 8192  # CSV rows formatted per step
_JSON_FLOOR = 1e-11
_JSON_DIGITS = 9
_U = np.uint64
_POW5 = np.array([5**s for s in range(28)], _U)  # every 5**s below 2**63

LEAF_HEADER = "foliation,level,arc,x,y"
LEAF_IMAGE_HEADER = "foliation,level,arc,x,y,image"
CURVATURE_HEADER = "x,y,K"
HEXAGON_LEGS_HEADER = "leg,x,y"
DEFECT_TABLE_HEADER = "r,defect"

SVG_WIDTH = 640.0  # pixels
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
            raise NonFiniteError(f"non-finite value {v!r} in report")
        if abs(v) < _JSON_FLOOR:
            return 0.0
        return float(f"{v:.{_JSON_DIGITS}g}")
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def report_json(obj: dict) -> str:
    """A report object as quantized, diff-stable JSON text; raises
    :class:`NonFiniteError` on a nan or infinite number."""
    return json.dumps(_clean_json(obj), indent=2) + "\n"


@functools.cache
def _digit_words() -> np.ndarray:
    """ASCII of 0000..9999 as 4-byte words, then with trailing zeros as 0 bytes."""
    i = np.arange(10000, dtype=np.uint16)[:, None]
    text = (i // np.uint16([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    return np.r_[text, text * (i % np.uint16([10000, 1000, 100, 10]) > 0)].view(np.uint32).ravel()


def _g_text(values, digits: int, out=None) -> np.ndarray:
    """``'%.{digits}g' % v`` of each value (digits <= 17), as one row of ASCII
    per value with 0 bytes to be dropped, anywhere in the row; written into
    ``out`` when given, zeros of shape (len(values), 2 * digits + 9)."""
    v = np.ascontiguousarray(values, dtype=float).ravel()
    p, n, bits = digits, len(v), v.view(_U)
    q = (bits >> _U(52)).astype(np.int64) & 0x7FF
    with np.errstate(divide="ignore", invalid="ignore"):  # zero: x = 0; inf, nan: out of range
        x = np.nan_to_num(np.floor(np.log10(abs(v))), nan=999, posinf=999, neginf=0).astype(int)
    # d: |v| * 10**s = m * 5**s / 2**shift with s = p - 1 - x, rounded half to even
    s = p - 1 - x
    shift = 1075 - q - s
    ok = (s >= 0) & (s <= 27) & (shift <= 63)
    s, shift = np.where(ok, s, 0), np.where(ok, shift, 0)
    m = ((bits & _U(2**52 - 1)) | _U(2**52)) << np.maximum(-shift, 0).astype(_U)
    r = np.maximum(shift, 0).astype(_U)
    m0, m1, f0, f1 = m & _U(2**32 - 1), m >> _U(32), _POW5[s] & _U(2**32 - 1), _POW5[s] >> _U(32)
    low, mid = m0 * f0, m0 * f1 + m1 * f0
    lo = low + (mid << _U(32))
    hi = m1 * f1 + (mid >> _U(32)) + (lo < low)
    d = ((hi << (_U(63) - r)) << _U(1)) | (lo >> r)
    twice, one = (lo & ((_U(1) << r) - _U(1))) << _U(1), _U(1) << r  # 2 * remainder, 2**r
    ok &= (d >= _U(10 ** (p - 1))) & (d < _U(10**p))  # else log10 was one off, at a power of ten
    d = np.where(ok, d + ((twice > one) | ((twice == one) & (d & _U(1) == 1))), 0)
    carry = d == _U(10**p)  # rounded up to the next power of ten
    d[carry] = _U(10 ** (p - 1))
    x = x + carry
    fallback = np.flatnonzero((d == 0) & ((bits << _U(1)) != 0))  # all but ok values and zeros
    del s, shift, m, r, m0, m1, f0, f1, low, mid, lo, hi, twice, one  # before the digit arrays
    # the last p of the 20 digits of d, trailing zeros as 0 bytes
    words, table, bare = np.empty((n, 5), np.uint32), _digit_words(), np.full(n, 10000)
    for i in range(4, -1, -1):
        d, k = d // _U(10000), d  # k: the last four digits
        k = (k - d * _U(10000)).astype(np.int64)
        words[:, i] = table[k + bare]
        bare[k != 0] = 0
    dg, flat = words.view(np.uint8)[:, 20 - p :], words.view(np.uint8).ravel()
    digit = np.arange(n) * 20 + (20 - p)  # each value's first digit in flat
    # columns: sign, "0.000" before x < 0, digit k at 6 + 2k and its point, "e+xx"
    out = np.zeros((n, 2 * p + 9), np.uint8) if out is None else out
    out[:, 0] = np.signbit(v) * np.uint8(ord("-"))
    out[:, 6 : 2 * p + 5 : 2] = dg
    expo = (x < -4) | (x >= p)
    # integers whose last digits are zeros (100, 0): those 0 bytes print as "0"
    unit = np.flatnonzero(~expo & (x >= 0) & (flat[digit + np.clip(x, 0, p - 1)] == 0))
    out[unit, 6 : 2 * p + 5 : 2] |= (np.arange(p) <= x[unit, None]) * np.uint8(48)
    point = np.where(expo, 1, x + 1)  # digits before the point
    rows = np.flatnonzero((point > 0) & (point < p) & (flat[digit + np.clip(point, 0, p - 1)] != 0))
    out[rows, 5 + 2 * point[rows]] = ord(".")
    zeros = np.where(~expo & (x < 0), -1 - x, -2)  # zeros after a leading "0.", -2 for none
    for k, char in enumerate(b"0.000"):
        out[:, 1 + k] = (zeros > k - 2) * np.uint8(char)
    e = np.abs(x[expo])
    out[expo, -4:] = np.c_[np.full_like(e, 101), 43 + 2 * (x[expo] < 0), 48 + e // 10, 48 + e % 10]
    for i in fallback.tolist():
        out[i] = np.frombuffer((b"%.*g" % (p, v[i])).ljust(out.shape[1], b"\0"), np.uint8)
    return out


def _chunks(blocks):
    """The rows of ``blocks``, tuples of columns of one length, as lists of
    pieces (slices of one block's columns) of at most _CHUNK_ROWS rows in all."""
    pieces, size = [], 0
    for columns in blocks:
        for a in range(0, len(columns[0]), _CHUNK_ROWS):
            piece = [c[a : a + _CHUNK_ROWS] for c in columns]
            if size + len(piece[0]) > _CHUNK_ROWS:
                yield pieces
                pieces, size = [], 0
            pieces.append(piece)
            size += len(piece[0])
    if pieces:
        yield pieces


def _run_starts(a: np.ndarray) -> np.ndarray:
    """The first item of each run of equal items of the nonempty ``a``."""
    return a[np.r_[True, a[1:] != a[:-1]]]


def _tables(chunks, width: int) -> dict:
    """Column number -> (bits, texts) for each of the ``width`` columns that
    repeats its values: each distinct value of the column in all ``chunks``
    (by bits: -0.0 is not 0.0), sorted by its bits, and its text as one void
    item; every table of the file comes from one kernel call.  A column with
    more than _CHUNK_ROWS distinct values gets no table, as its table would
    grow with the file: it is formatted chunk by chunk."""
    seen = {j: np.empty(0, np.int64) for j in range(width)}
    for pieces in chunks:
        for j, known in list(seen.items()):
            bits = np.concatenate([piece[j] for piece in pieces], dtype=float).view(np.int64)
            # runs of one value first; sorting beats np.unique here, in time and in RSS
            seen[j] = known = _run_starts(np.sort(np.concatenate((known, _run_starts(bits)))))
            if known.size > _CHUNK_ROWS:
                del seen[j]
    seen = {j: known for j, known in seen.items() if known.size}
    if not seen:
        return {}
    texts = _g_text(np.concatenate(list(seen.values())).view(float), CSV_FLOAT_DIGITS)
    tables = {}
    ends = np.cumsum([known.size for known in seen.values()])[:-1]
    for (j, known), text in zip(seen.items(), np.split(texts, ends)):
        text = np.ascontiguousarray(text[:, text.any(axis=0)])
        tables[j] = known, text.view(f"V{text.shape[1]}")[:, 0]
    return tables


def _csv_lines(pieces, tables) -> bytearray:
    """CSV lines of ``pieces``, lists of columns, every field in the form of
    ``fmt``: a column with a table of :func:`_tables` copies its texts from it,
    the others go through the kernel."""
    cols = [np.concatenate(c, dtype=float) for c in zip(*pieces)]
    widths = [tables[j][1].itemsize if j in tables else 2 * CSV_FLOAT_DIGITS + 9
              for j in range(len(cols))]
    lines = bytearray(len(cols[0]) * (sum(widths) + len(widths)))
    out = np.frombuffer(lines, np.uint8).reshape(len(cols[0]), -1)
    end = 0
    for j, w in enumerate(widths):
        field = out[:, end : end + w]
        if j in tables:
            # every value is in the table; "clip" writes straight into the lines
            bits, texts = tables[j]
            at = bits.searchsorted(cols[j].view(np.int64))
            np.take(texts, at, out=field.view(texts.dtype)[:, 0], mode="clip")
        else:
            _g_text(cols[j], CSV_FLOAT_DIGITS, field)
        end += w + 1
        out[:, end - 1] = 44  # ","
    out[:, -1] = 10  # "\n"
    del cols  # before translate copies the lines
    return lines.translate(None, b"\0")


def _write_csv(path: Path | str, header: str, blocks, footer: str = "") -> None:
    """Write ``blocks``, tuples of columns of one length, as CSV lines under
    ``header``, at most _CHUNK_ROWS rows at a time; ``footer`` ends the file.
    Each distinct value of a column that repeats its values is formatted
    once per file (see :func:`_tables`)."""
    blocks = list(blocks)
    tables = _tables(_chunks(blocks), header.count(",") + 1)
    with Path(path).open("wb") as f:
        f.write(f"{header}\n".encode())
        for pieces in _chunks(blocks):
            f.write(_csv_lines(pieces, tables))
        f.write(footer.encode())


def write_leaf_csv(path: Path | str, leaves, with_image: bool = False) -> None:
    """One vertex per row.

    ``leaves`` is an iterable of LeafPolyline, or of (LeafPolyline,
    image_flag) pairs when ``with_image`` is set.
    """

    def block(leaf, *image):
        fixed = [np.broadcast_to(c, len(leaf)) for c in (leaf.foliation, leaf.level, *image)]
        return (*fixed[:2], leaf.arcs, *leaf.vertices.T, *fixed[2:])

    blocks = (block(*item) for item in leaves) if with_image else map(block, leaves)
    _write_csv(path, LEAF_IMAGE_HEADER if with_image else LEAF_HEADER, blocks)


def write_curvature_csv(path: Path | str, xs, ys, kappa) -> None:
    """One grid point per row; ``xs``, ``ys`` and ``kappa`` are 1-d arrays."""
    if not len(xs) == len(ys) == len(kappa):
        raise ValueError(f"column lengths differ: {len(xs)}, {len(ys)}, {len(kappa)}")
    _write_csv(path, CURVATURE_HEADER, [(xs, ys, kappa)])


def write_hexagon_legs_csv(path: Path | str, figure: HexagonFigure) -> None:
    """Leg paths (leg 0 is the radius walk) plus a defect summary line."""
    blocks = ((np.broadcast_to(i, len(leg)), *leg.T) for i, leg in enumerate(figure.legs))
    _write_csv(path, HEXAGON_LEGS_HEADER, blocks, f"defect={fmt(figure.defect)}\n")


def write_defect_table_csv(path: Path | str, radii, defects) -> None:
    _write_csv(path, DEFECT_TABLE_HEADER, [(radii, defects)])


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------


def write_svg(path: Path | str, domain: Domain, leaves) -> None:
    """Static plot, SVG_WIDTH pixels wide, with one polyline element per
    exported leaf.

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
    width = SVG_WIDTH
    scale = width / (xmax - xmin)
    height = (ymax - ymin) * scale

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.6g}" '
        f'height="{height:.6g}" viewBox="0 0 {width:.6g} {height:.6g}">',
        f'<rect width="{width:.6g}" height="{height:.6g}" fill="white"/>',
    ]
    bx0, by0 = (domain.box[0] - xmin) * scale, (ymax - domain.box[3]) * scale
    bx1, by1 = (domain.box[1] - xmin) * scale, (ymax - domain.box[2]) * scale
    parts.append(
        f'<rect x="{bx0:.6g}" y="{by0:.6g}" '
        f'width="{bx1 - bx0:.6g}" height="{by1 - by0:.6g}" '
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
