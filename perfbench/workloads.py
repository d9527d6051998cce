"""The three benchmark workloads: seeded inputs, one op each, and its oracle.

Importing this module puts the checkout's ``src`` first on ``sys.path``
and imports ``triweb`` from there, so the benchmark always measures the
source tree it ships with.  It exits with code 2 when that tree is absent.

Each workload object holds its inputs as a list of *groups*; a group is a
run of ops that the timed loop never splits (a hexagon center at all four
radii, or a single CLI call).  ``call`` is the only part that is timed;
``check`` is the oracle, returning ``None`` or the reason the op failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "triweb" / "__init__.py").is_file():
    sys.stderr.write(f"perfbench: no triweb sources under {SRC}; run from a full checkout\n")
    raise SystemExit(2)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import triweb  # noqa: E402
import triweb.analysis  # noqa: E402
import triweb.cli  # noqa: E402

if Path(triweb.__file__).resolve().parent != SRC / "triweb":
    sys.stderr.write(f"perfbench: imported triweb from {triweb.__file__}, not {SRC}\n")
    raise SystemExit(2)

BOX = (-2.0, 2.0, -2.0, 2.0)
BOX_JITTER = 0.1  # each box edge moves by at most this much
N_BOXES = 8  # jittered boxes per seed, cycled by the timed loop
GRID_N = 500  # analyze grid, GRID_N x GRID_N (~246k admissible points)
MARGIN = 0.05  # the paper web's exclusion band |1 - x - y| >= MARGIN
HEX_RADII = (0.2, 0.1, 0.05, 0.025)
# 32 fixed base centers, the first points of the R2 (Kronecker) sequence in
# [-1.45, 1.45]^2 with |1 - x - y| >= 0.9, each moved by a seeded
# U(-0.05, 0.05) per coordinate: centers lie in [-1.5, 1.5]^2 with
# |1 - x - y| >= 0.8.  Figure cost varies several-fold with the center, so
# fixed bases keep the mix of cheap and costly figures the same in every
# run.  Nearer the degenerate locus an r = 0.2 figure can need a leg across
# the excluded band, and hexagon_defect then rightly raises HexagonError
# (seen at gaps up to 0.68; none in 500 centers with gaps of 0.7 to 1.0).
N_CENTERS = 32
HEX_CENTER_JITTER = 0.05
HEX_BASE_BOX = 1.45
HEX_BASE_GAP = 0.9
# log2(defect(r) / defect(r/2)) must lie in 3 +- HEX_ORDER_BAND.  Closure
# defects scale like r^3; at r = 0.2 near the locus, higher-order terms
# push the first ratio up to about 3.3.
HEX_ORDER_BAND = 0.5
K_REL_TOL = 1e-9  # curvature against the closed form, relative
THEOREM_VERDICTS = (
    ("overall_pass",),
    ("general_position", "verdict"),
    ("diffeomorphism", "verdict"),
    ("foliations", 0, "verdict"),
    ("foliations", 1, "verdict"),
    ("foliations", 2, "verdict"),
    ("line_formula", "verdict"),
)


def _jittered_boxes(rng: random.Random) -> list[tuple[float, ...]]:
    """N_BOXES boxes in antithetic pairs: each random edge shift is followed
    by its negation, so every run's boxes average to BOX and op cost does
    not drift with the seed."""
    boxes = []
    for _ in range(N_BOXES // 2):
        shift = [rng.uniform(-BOX_JITTER, BOX_JITTER) for _ in BOX]
        boxes.append(tuple(e + d for e, d in zip(BOX, shift)))
        boxes.append(tuple(e - d for e, d in zip(BOX, shift)))
    return boxes


def _box_args(box) -> list[str]:
    return ["--box", *(repr(v) for v in box)]


def _dig(obj, path):
    for key in path:
        obj = obj[key]
    return obj


class _Cli:
    """A CLI command on one jittered box per op; ``_argv`` names the command."""

    def __init__(self, seed: int):
        self.groups = [[box] for box in _jittered_boxes(random.Random(seed))]

    def describe(self) -> str:
        return f"{len(self.groups)} boxes, first {self.groups[0][0]}"

    def prepare(self) -> None:
        box = self.groups[0][0]
        triweb.cli.build_parser().parse_args(self._argv(box, Path("out")))
        paper = triweb.builtin_web("paper")
        d = paper.domain
        self.web = triweb.ThreeWeb(
            paper.foliations, triweb.Domain(box=box, exclude=d.exclude, margin=d.margin)
        )

    def call(self, box, out: Path):
        """``triweb.cli.main`` in process, with its stdout captured.  The
        attribute is looked up per call so a traced wrapper is used."""
        with contextlib.redirect_stdout(io.StringIO()):
            return triweb.cli.main(self._argv(box, out))


class Theorem(_Cli):
    """``triweb verify-theorem --builtin paper`` on a jittered box."""

    name = "theorem"

    def _argv(self, box, out: Path) -> list[str]:
        return ["verify-theorem", "--builtin", "paper", *_box_args(box), "--out", str(out)]

    def check(self, box, rc, out: Path) -> str | None:
        if rc != triweb.cli.EXIT_PASS:
            return f"exit code {rc}"
        report = json.loads((out / "report.json").read_text())
        for path in THEOREM_VERDICTS:
            if _dig(report, path) is not True:
                return f"verdict {'.'.join(map(str, path))} is not PASS"
        line = report["line_formula"]
        if not line["max_deviation"] <= line["tol"]:
            return f"line-formula deviation {line['max_deviation']} > {line['tol']}"
        for f in ("leaves_f1.csv", "leaves_f2.csv", "leaves_f3.csv", "web.svg"):
            if not (out / f).is_file():
                return f"missing output {f}"
        return None


class Grid(_Cli):
    """``triweb analyze --builtin paper`` on a 500 x 500 grid over a
    jittered box, writing curvature.csv."""

    name = "grid"

    def _argv(self, box, out: Path) -> list[str]:
        n = str(GRID_N)
        return ["analyze", "--builtin", "paper", "--grid", n, n, *_box_args(box), "--out", str(out)]

    def check(self, box, rc, out: Path) -> str | None:
        if rc != triweb.cli.EXIT_PASS:
            return f"exit code {rc}"
        rows = np.loadtxt(out / "curvature.csv", delimiter=",", skiprows=1, ndmin=2)
        x, y, k = rows[:, 0], rows[:, 1], rows[:, 2]
        exact = -np.exp(2 * x) / (1 - x - y) ** 3
        worst = float(np.max(np.abs(k - exact) / np.abs(exact)))
        if not worst <= K_REL_TOL:
            return f"curvature off the closed form by {worst:.3g} relative"
        # the rows are exactly the admissible grid points; points within
        # 1e-12 of the band edge may fall either way
        gx, gy = np.meshgrid(np.linspace(box[0], box[1], GRID_N), np.linspace(box[2], box[3], GRID_N))
        g = np.abs(1 - gx - gy)
        lo, hi = int(np.sum(g >= MARGIN + 1e-12)), int(np.sum(g >= MARGIN - 1e-12))
        if not lo <= len(k) <= hi:
            return f"{len(k)} curvature rows, expected {lo}..{hi} admissible points"
        if np.min(np.abs(1 - x - y)) < MARGIN - 1e-12:
            return "curvature row inside the excluded band"
        return None


def _base_centers() -> list[tuple[float, float]]:
    """The first N_CENTERS points (k = 1, 2, ...) of the R2 sequence
    k * (1/g, 1/g^2) mod 1, g the plastic number, mapped onto
    [-HEX_BASE_BOX, HEX_BASE_BOX]^2 and kept where |1 - x - y| >= HEX_BASE_GAP."""
    g = 1.324717957244746  # real root of t^3 = t + 1
    centers = []
    k = 0
    while len(centers) < N_CENTERS:
        k += 1
        x = HEX_BASE_BOX * (2 * ((k / g) % 1.0) - 1)
        y = HEX_BASE_BOX * (2 * ((k / g**2) % 1.0) - 1)
        if abs(1 - x - y) >= HEX_BASE_GAP:
            centers.append((x, y))
    return centers


class Hexagon:
    """One ``analysis.hexagon_defect`` figure on the paper web; a group is
    one center at every radius of HEX_RADII, largest first."""

    name = "hexagon"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        jitter = HEX_CENTER_JITTER
        centers = [
            (x + rng.uniform(-jitter, jitter), y + rng.uniform(-jitter, jitter))
            for x, y in _base_centers()
        ]
        self.groups = [[(c, r) for r in HEX_RADII] for c in centers]
        self._last = {}  # center -> (radius, defect) of its previous figure

    def describe(self) -> str:
        return f"{len(self.groups)} centers x radii {HEX_RADII}, first {self.groups[0][0][0]}"

    def prepare(self) -> None:
        self.web = triweb.builtin_web("paper")

    def call(self, item, out: Path):
        center, radius = item
        return triweb.analysis.hexagon_defect(self.web, center, radius)

    def check(self, item, figure, out: Path) -> str | None:
        center, radius = item
        d = figure.defect
        prev = self._last.get(center)
        self._last[center] = (radius, d)
        if not (math.isfinite(d) and d > 0):
            return f"defect {d} at r={radius} is not positive"
        if prev is not None and prev[0] == 2 * radius:
            order = math.log2(prev[1] / d)
            if abs(order - 3) > HEX_ORDER_BAND:
                return f"log2 defect ratio {order:.3f} at r={radius} outside 3 +- {HEX_ORDER_BAND}"
        return None


WORKLOADS = {w.name: w for w in (Theorem, Hexagon, Grid)}


def fresh_dir(path: Path) -> None:
    """An empty directory at ``path``, so no stale output satisfies an oracle."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
