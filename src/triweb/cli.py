"""Config-driven command-line front end.

Commands: parse, analyze, trace, hexagon, verify-theorem, verify-map,
family.  A run is described by a JSON config file and/or flags; flags
win.  Exit codes form a strict contract:

    0  computation succeeded and any geometric verdict passed
    1  computation succeeded but a geometric verdict failed
    2  usage, config, or expression-parse error
    3  numerical failure (tracing, hexagon legs, domain violations)

Outputs are written into the --out directory: ``report.json``,
``curvature.csv``, ``leaves_*.csv``, ``hexagon.csv``, ``web.svg``,
depending on the command.  Identical configs produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import hexagon_defect, parallelizability_report
from .errors import (
    ConfigError,
    EvalDomainError,
    HexagonError,
    NormalFormError,
    ParseError,
    TraceError,
    TriwebError,
)
from .expr import parse as parse_expr
from .expr import to_text
from .kernels import eval_jet3
from .jets import JET_ORDERS
from .outputs import (
    dump_json,
    fmt,
    write_curvature_csv,
    write_defect_table_csv,
    write_hexagon_legs_csv,
    write_leaf_csv,
    write_svg,
)
from .transform import DEFAULT_DIFFEO_TOL, PlaneMap, identity_map
from .verify import (
    DEFAULT_LINE_FORMULA_TOL,
    DEFAULT_LINEARITY_TOL,
    DEFAULT_MAX_ARC,
    DEFAULT_SEEDS,
    LinearizationReport,
    diagonal_seeds,
    verify_family,
    verify_linearization,
    verify_map,
)
from .web import (
    BUILTIN_WEB_NAMES,
    DEFAULT_GRID,
    Domain,
    Foliation,
    ThreeWeb,
    builtin_web,
    family_web,
    general_position_report,
    trace_leaf,
)

EXIT_PASS = 0
EXIT_VERDICT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


@dataclass
class RunConfig:
    """Everything one run needs; see README for the JSON schema."""

    builtin: str | None = None
    integrals: tuple[str, str, str] | None = None
    family_a: str | None = None
    family_b: str | None = None
    box: tuple[float, float, float, float] | None = None
    exclude: str | None = None
    margin: float | None = None
    grid: tuple[int, int] = DEFAULT_GRID
    seeds: int = DEFAULT_SEEDS
    max_arc: float = DEFAULT_MAX_ARC
    tol_linearity: float = DEFAULT_LINEARITY_TOL
    tol_curvature: float = 1e-8
    tol_diffeo: float = DEFAULT_DIFFEO_TOL
    tol_line: float = DEFAULT_LINE_FORMULA_TOL
    out: Path = field(default_factory=lambda: Path("out"))
    map_spec: tuple[str, ...] | None = None
    center: tuple[float, float] | None = None
    radii: tuple[float, ...] = ()
    foliation: int = 3
    seed_point: tuple[float, float] | None = None

    def validate(self) -> None:
        if self.grid[0] < 2 or self.grid[1] < 2:
            raise ConfigError(f"grid must be at least 2x2, got {self.grid}")
        for name in ("tol_linearity", "tol_curvature", "tol_diffeo", "tol_line"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name.replace('_', '-')} must be positive")
        if self.seeds < 1:
            raise ConfigError("seeds must be at least 1")
        if self.max_arc <= 0:
            raise ConfigError("max-arc must be positive")

    # -- web construction --------------------------------------------------

    def domain_override(self, base: Domain) -> Domain:
        box = self.box if self.box is not None else base.box
        exclude = parse_expr(self.exclude) if self.exclude is not None else base.exclude
        margin = self.margin if self.margin is not None else base.margin
        return Domain(box=box, exclude=exclude, margin=margin)

    def build_web(self) -> ThreeWeb:
        chosen = [
            k
            for k, v in (
                ("builtin", self.builtin),
                ("web", self.integrals),
                ("family", self.family_a or self.family_b),
            )
            if v
        ]
        if len(chosen) > 1:
            raise ConfigError(f"give exactly one web spec, got {' and '.join(chosen)}")
        if self.builtin:
            base = builtin_web(self.builtin)
            return ThreeWeb(base.foliations, self.domain_override(base.domain))
        if self.integrals:
            u1, u2, u3 = (parse_expr(t) for t in self.integrals)
            domain = self.domain_override(Domain())
            return ThreeWeb(
                (Foliation(u1, "F1"), Foliation(u2, "F2"), Foliation(u3, "F3")),
                domain,
            )
        if self.family_a or self.family_b:
            if not (self.family_a and self.family_b):
                raise ConfigError("family web needs both --a and --b")
            return family_web(
                self.family_a, self.family_b, self.domain_override(Domain())
            )
        raise ConfigError("no web specified: use --builtin, --web, or --a/--b")

    def build_map(self) -> PlaneMap | None:
        if self.map_spec is None:
            return None
        if len(self.map_spec) == 1:
            if self.map_spec[0] == "identity":
                return identity_map()
            raise ConfigError(
                "--map takes 'identity' or two component expressions"
            )
        if len(self.map_spec) == 2:
            return PlaneMap(
                parse_expr(self.map_spec[0]), parse_expr(self.map_spec[1]), name="custom"
            )
        raise ConfigError("--map takes 'identity' or two component expressions")


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _config_from_sources(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    data = _load_config(args.config) if getattr(args, "config", None) else {}

    web = data.get("web", {})
    if "builtin" in web:
        cfg.builtin = str(web["builtin"])
    if "integrals" in web:
        cfg.integrals = tuple(str(t) for t in web["integrals"])
    if "family" in web:
        cfg.family_a = str(web["family"].get("a", "")) or None
        cfg.family_b = str(web["family"].get("b", "")) or None
    dom = data.get("domain", {})
    if "box" in dom:
        cfg.box = tuple(float(v) for v in dom["box"])
    if "exclude" in dom:
        cfg.exclude = str(dom["exclude"])
    if "margin" in dom:
        cfg.margin = float(dom["margin"])
    if "grid" in data:
        cfg.grid = (int(data["grid"][0]), int(data["grid"][1]))
    if "seeds" in data:
        cfg.seeds = int(data["seeds"])
    if "max_arc" in data:
        cfg.max_arc = float(data["max_arc"])
    tols = data.get("tolerances", {})
    if "linearity" in tols:
        cfg.tol_linearity = float(tols["linearity"])
    if "curvature" in tols:
        cfg.tol_curvature = float(tols["curvature"])
    if "diffeo" in tols:
        cfg.tol_diffeo = float(tols["diffeo"])
    if "line_formula" in tols:
        cfg.tol_line = float(tols["line_formula"])
    if "out" in data:
        cfg.out = Path(str(data["out"]))
    if "map" in data:
        m = data["map"]
        cfg.map_spec = (str(m),) if isinstance(m, str) else tuple(str(t) for t in m)
    if "center" in data:
        cfg.center = (float(data["center"][0]), float(data["center"][1]))
    if "radii" in data:
        cfg.radii = tuple(float(r) for r in data["radii"])
    if "foliation" in data:
        cfg.foliation = int(data["foliation"])

    # flags win over config values
    if getattr(args, "builtin", None):
        cfg.builtin = args.builtin
    if getattr(args, "web", None):
        cfg.integrals = tuple(args.web)
    if getattr(args, "a", None):
        cfg.family_a = args.a
    if getattr(args, "b", None):
        cfg.family_b = args.b
    if getattr(args, "box", None):
        cfg.box = tuple(args.box)
    if getattr(args, "exclude", None):
        cfg.exclude = args.exclude
    if getattr(args, "margin", None) is not None:
        cfg.margin = args.margin
    if getattr(args, "grid", None):
        cfg.grid = (args.grid[0], args.grid[1])
    if getattr(args, "seeds", None) is not None:
        cfg.seeds = args.seeds
    if getattr(args, "max_arc", None) is not None:
        cfg.max_arc = args.max_arc
    if getattr(args, "tol_linearity", None) is not None:
        cfg.tol_linearity = args.tol_linearity
    if getattr(args, "tol_curvature", None) is not None:
        cfg.tol_curvature = args.tol_curvature
    if getattr(args, "tol_diffeo", None) is not None:
        cfg.tol_diffeo = args.tol_diffeo
    if getattr(args, "tol_line", None) is not None:
        cfg.tol_line = args.tol_line
    if getattr(args, "out", None):
        cfg.out = Path(args.out)
    if getattr(args, "map", None):
        cfg.map_spec = tuple(args.map)
    if getattr(args, "center", None):
        cfg.center = (args.center[0], args.center[1])
    if getattr(args, "radii", None):
        cfg.radii = tuple(args.radii)
    if getattr(args, "foliation", None) is not None:
        cfg.foliation = args.foliation
    if getattr(args, "seed_point", None):
        cfg.seed_point = (args.seed_point[0], args.seed_point[1])

    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _write_pipeline_outputs(cfg: RunConfig, web: ThreeWeb, report: LinearizationReport):
    out = cfg.out
    out.mkdir(parents=True, exist_ok=True)
    dump_json(report.to_dict(), out / "report.json")
    svg_items = []
    for fol_index in (1, 2, 3):
        rows = []
        for t in report.traces:
            if t.foliation != fol_index:
                continue
            rows.append((t.pre, 0))
            svg_items.append((t.pre, 0))
            if t.post is not None:
                rows.append((t.post, 1))
                svg_items.append((t.post, 1))
        write_leaf_csv(out / f"leaves_f{fol_index}.csv", rows, with_image=True)
    write_svg(out / "web.svg", web.domain, svg_items)


def _print_pipeline_summary(report: LinearizationReport) -> None:
    def mark(ok: bool) -> str:
        return "PASS" if ok else "FAIL"

    gp = report.general_position
    dif = report.diffeo
    print(f"general position: {mark(gp.verdict)} (min pairwise det {gp.min_pairwise_det:.6g})")
    print(
        f"diffeomorphism ({report.map_name}): {mark(dif.verdict)} "
        f"(min |det J| {dif.min_abs_det:.6g}, threshold {dif.threshold:.6g})"
    )
    for r in report.foliations:
        print(
            f"foliation F{r.foliation} images: "
            f"{'linear' if r.verdict else 'NOT linear'} "
            f"(max residual {r.max_residual:.6g}, tol {r.tol:.6g})"
        )
    if report.line_check is not None:
        lc = report.line_check
        print(
            f"line formula: {mark(lc.verdict)} "
            f"(max deviation {lc.max_deviation:.6g} over {lc.n_leaves} leaves)"
        )
    print(f"overall: {mark(report.overall_pass)}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_parse(args) -> int:
    for text in args.expr:
        e = parse_expr(text)
        print(to_text(e))
        if args.at is not None:
            jet = eval_jet3(e, (args.at[0], args.at[1]))
            for (i, j), v in zip(JET_ORDERS, jet.as_array()):
                label = "value" if (i, j) == (0, 0) else f"d{'x' * i}{'y' * j}"
                print(f"  {label}: {fmt(v)}")
    return EXIT_PASS


def _cmd_analyze(args) -> int:
    cfg = _config_from_sources(args)
    web = cfg.build_web()
    gp = general_position_report(web, grid=cfg.grid)
    rep = parallelizability_report(web, grid=cfg.grid, tol=cfg.tol_curvature)
    cfg.out.mkdir(parents=True, exist_ok=True)
    write_curvature_csv(cfg.out / "curvature.csv", rep.xs, rep.ys, rep.kappa)
    dump_json(
        {"general_position": gp.to_dict(), "parallelizability": rep.to_dict()},
        cfg.out / "report.json",
    )
    print(
        f"general position: {'PASS' if gp.verdict else 'FAIL'} "
        f"(min pairwise det {gp.min_pairwise_det:.6g})"
    )
    verdict = "parallelizable" if rep.parallelizable else "not parallelizable"
    print(
        f"curvature: {verdict} "
        f"(max |K| {rep.max_abs_curvature:.6g}, min |K| {rep.min_abs_curvature:.6g}, "
        f"tol {rep.tol:.6g})"
    )
    return EXIT_PASS


def _cmd_trace(args) -> int:
    cfg = _config_from_sources(args)
    web = cfg.build_web()
    fol = web.foliation(cfg.foliation)
    if cfg.seed_point is not None:
        seeds = [cfg.seed_point]
    else:
        seeds = diagonal_seeds(web.domain, cfg.seeds)
    leaves = [
        trace_leaf(fol, s, cfg.max_arc, web.domain, fol_index=cfg.foliation)
        for s in seeds
    ]
    cfg.out.mkdir(parents=True, exist_ok=True)
    path = cfg.out / f"leaves_f{cfg.foliation}.csv"
    write_leaf_csv(path, leaves)
    write_svg(cfg.out / "web.svg", web.domain, [(leaf, 0) for leaf in leaves])
    total = sum(len(leaf) for leaf in leaves)
    print(f"traced {len(leaves)} leaves of F{cfg.foliation} ({total} vertices) -> {path}")
    return EXIT_PASS


def _cmd_hexagon(args) -> int:
    cfg = _config_from_sources(args)
    web = cfg.build_web()
    if cfg.center is None:
        raise ConfigError("hexagon needs --center x y")
    if not cfg.radii:
        raise ConfigError("hexagon needs --radii r1 [r2 ...]")
    cfg.out.mkdir(parents=True, exist_ok=True)
    defects = []
    for idx, r in enumerate(cfg.radii):
        figure = hexagon_defect(web, cfg.center, r)
        defects.append(figure.defect)
        write_hexagon_legs_csv(cfg.out / f"hexagon_legs_{idx}.csv", figure)
        print(f"r={r:g}: defect={figure.defect:.6g}")
    write_defect_table_csv(cfg.out / "hexagon.csv", cfg.radii, defects)
    return EXIT_PASS


def _cmd_verify_theorem(args) -> int:
    cfg = _config_from_sources(args)
    if cfg.integrals or cfg.family_a or cfg.family_b:
        raise ConfigError(
            "verify-theorem runs the bundled web; use verify-map or family "
            "for other webs"
        )
    base = builtin_web(cfg.builtin or "paper")
    web = ThreeWeb(base.foliations, cfg.domain_override(base.domain))
    report = verify_linearization(
        web,
        seeds_per_foliation=cfg.seeds,
        tol=cfg.tol_linearity,
        line_tol=cfg.tol_line,
        grid=cfg.grid,
        map_override=cfg.build_map(),
        max_arc=cfg.max_arc,
        diffeo_tol=cfg.tol_diffeo,
    )
    _write_pipeline_outputs(cfg, web, report)
    _print_pipeline_summary(report)
    return EXIT_PASS if report.overall_pass else EXIT_VERDICT_FAIL


def _cmd_verify_map(args) -> int:
    cfg = _config_from_sources(args)
    web = cfg.build_web()
    m = cfg.build_map()
    if m is None:
        raise ConfigError("verify-map needs --map (identity or two expressions)")
    report = verify_map(
        web,
        m,
        seeds_per_foliation=cfg.seeds,
        tol=cfg.tol_linearity,
        grid=cfg.grid,
        max_arc=cfg.max_arc,
        diffeo_tol=cfg.tol_diffeo,
    )
    _write_pipeline_outputs(cfg, web, report)
    _print_pipeline_summary(report)
    return EXIT_PASS if report.overall_pass else EXIT_VERDICT_FAIL


def _cmd_family(args) -> int:
    cfg = _config_from_sources(args)
    if not (cfg.family_a and cfg.family_b):
        raise ConfigError("family needs --a and --b coefficient expressions")
    domain = cfg.domain_override(Domain())
    report = verify_family(
        cfg.family_a,
        cfg.family_b,
        domain,
        seeds_per_foliation=cfg.seeds,
        tol=cfg.tol_linearity,
        line_tol=cfg.tol_line,
        grid=cfg.grid,
        max_arc=cfg.max_arc,
        diffeo_tol=cfg.tol_diffeo,
    )
    web = family_web(cfg.family_a, cfg.family_b, domain)
    _write_pipeline_outputs(cfg, web, report)
    _print_pipeline_summary(report)
    return EXIT_PASS if report.overall_pass else EXIT_VERDICT_FAIL


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, web_flags: bool = True) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--out", help="output directory (default: out)")
    if web_flags:
        p.add_argument(
            "--builtin", choices=BUILTIN_WEB_NAMES, help="bundled example web"
        )
        p.add_argument(
            "--web",
            nargs=3,
            metavar=("U1", "U2", "U3"),
            help="three first-integral expressions",
        )
        p.add_argument("--a", help="family coefficient a(x)")
        p.add_argument("--b", help="family coefficient b(x)")
    p.add_argument(
        "--box",
        nargs=4,
        type=float,
        metavar=("XMIN", "XMAX", "YMIN", "YMAX"),
        help="domain box",
    )
    p.add_argument("--exclude", help="exclusion expression g(x,y)")
    p.add_argument("--margin", type=float, help="exclusion margin (|g| >= margin)")
    p.add_argument("--grid", nargs=2, type=int, metavar=("NX", "NY"), help="report grid")
    p.add_argument("--seeds", type=int, help="seeds per foliation")
    p.add_argument("--max-arc", dest="max_arc", type=float, help="arc budget per direction")
    p.add_argument("--tol-linearity", dest="tol_linearity", type=float)
    p.add_argument("--tol-curvature", dest="tol_curvature", type=float)
    p.add_argument("--tol-diffeo", dest="tol_diffeo", type=float)
    p.add_argument("--tol-line", dest="tol_line", type=float)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="triweb",
        description="Planar 3-webs from first integrals: trace leaves, measure "
        "curvature, close hexagons, and verify linearizations.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse expressions and print canonical form")
    p.add_argument("expr", nargs="+", help="expression text")
    p.add_argument(
        "--at", nargs=2, type=float, metavar=("X", "Y"), help="print the jet here"
    )
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("analyze", help="general position and curvature survey")
    _add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("trace", help="trace leaves and export CSV")
    _add_common(p)
    p.add_argument("--foliation", type=int, choices=(1, 2, 3), help="which foliation")
    p.add_argument(
        "--seed",
        dest="seed_point",
        nargs=2,
        type=float,
        metavar=("X", "Y"),
        help="trace the single leaf through this point",
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("hexagon", help="closure hexagons around a center")
    _add_common(p)
    p.add_argument("--center", nargs=2, type=float, metavar=("X", "Y"))
    p.add_argument("--radii", nargs="+", type=float, metavar="R")
    p.set_defaults(func=_cmd_hexagon)

    p = sub.add_parser(
        "verify-theorem",
        help="full linearization pipeline for the bundled web",
    )
    _add_common(p)
    p.add_argument(
        "--map",
        nargs="+",
        metavar="M",
        help="override the canonical map: 'identity' or two expressions",
    )
    p.set_defaults(func=_cmd_verify_theorem)

    p = sub.add_parser("verify-map", help="does a given map linearize a given web?")
    _add_common(p)
    p.add_argument("--map", nargs="+", metavar="M", help="'identity' or two expressions")
    p.set_defaults(func=_cmd_verify_map)

    p = sub.add_parser("family", help="pipeline for webs x, y, a(x)x+b(x)y")
    _add_common(p)
    p.set_defaults(func=_cmd_family)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ConfigError, NormalFormError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TraceError, HexagonError, EvalDomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except TriwebError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
