"""Config-driven command-line front end.

Commands: parse, analyze, trace, hexagon, verify-theorem, verify-map,
family.  A run is described by a JSON config file and/or flags; flags
win.  Exit codes form a strict contract:

    0  computation succeeded and any geometric verdict passed
    1  computation succeeded but a geometric verdict failed
    2  usage, config, or expression-parse error
    3  numerical failure (tracing, hexagon legs, domain violations, a
       nan or infinite value in a report)

Outputs are written into the --out directory: ``report.json``,
``curvature.csv``, ``leaves_*.csv``, ``hexagon.csv``, ``web.svg``,
depending on the command.  Identical configs produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

from .analysis import DEFAULT_CURVATURE_TOL, hexagon_defect, parallelizability_report
from .errors import ConfigError, EvalDomainError, NonFiniteError, TraceError, TriwebError
from .expr import parse as parse_expr
from .expr import to_text
from .kernels import eval_jet3
from .jets import JET_ORDERS
from .outputs import (
    fmt,
    report_json,
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
    diagonal_seeds,
    verify_map,
)
from .web import (
    BUILTIN_WEB_NAMES,
    DEFAULT_BOX,
    DEFAULT_GRID,
    H_STEP,
    Domain,
    Foliation,
    ThreeWeb,
    builtin_spec,
    family_web,
    general_position_report,
    trace_leaf,
)

EXIT_PASS = 0
EXIT_VERDICT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# work caps, checked before anything is allocated: grid points of a report
# grid (1000 x 1000), integrator steps per leaf direction (max-arc 1000) or
# hexagon radius walk (radius 1000), and seeds per foliation
MAX_GRID_POINTS = 1_000_000
MAX_TRACE_STEPS = 100_000
MAX_SEEDS = 1_000


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
    tol_curvature: float = DEFAULT_CURVATURE_TOL
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
        if self.grid[0] * self.grid[1] > MAX_GRID_POINTS:
            raise ConfigError(
                f"grid {self.grid[0]}x{self.grid[1]} exceeds the cap of {MAX_GRID_POINTS} points"
            )
        for name in ("tol_linearity", "tol_curvature", "tol_diffeo", "tol_line"):
            if not 0 < getattr(self, name) < math.inf:  # also rejects nan
                raise ConfigError(f"{name.replace('_', '-')} must be positive and finite")
        if self.seeds < 1:
            raise ConfigError("seeds must be at least 1")
        if self.seeds > MAX_SEEDS:
            raise ConfigError(f"seeds {self.seeds} exceeds the cap of {MAX_SEEDS} per foliation")
        if self.max_arc <= 0:
            raise ConfigError("max-arc must be positive")
        if not self.max_arc / H_STEP <= MAX_TRACE_STEPS:  # also rejects nan and inf
            raise ConfigError(
                f"max-arc {self.max_arc:g} exceeds the cap of {MAX_TRACE_STEPS} steps of "
                f"{H_STEP:g} per direction (max-arc {MAX_TRACE_STEPS * H_STEP:g})"
            )
        for name, p in (("center", self.center), ("seed", self.seed_point)):
            if p is not None and not all(map(math.isfinite, p)):
                raise ConfigError(f"{name} must be finite, got ({p[0]:g}, {p[1]:g})")
        for r in self.radii:
            if not 0 < r < math.inf:
                raise ConfigError(f"radii must be positive and finite, got {r:g}")
            if r / H_STEP > MAX_TRACE_STEPS:
                raise ConfigError(
                    f"radii {r:g} exceeds the cap of {MAX_TRACE_STEPS} steps of {H_STEP:g} "
                    f"(radius {MAX_TRACE_STEPS * H_STEP:g})"
                )

    # -- web construction --------------------------------------------------

    def build_web(self) -> ThreeWeb:
        """The web the config names, on the domain of its builtin row (for
        ``--web`` and ``--a/--b``: the default box, no exclusion) with the
        config's box, exclusion and margin in place of that row's.  A margin
        without an exclusion would widen nothing, so it is refused."""
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
        if not chosen:
            raise ConfigError("no web specified: use --builtin, --web, or --a/--b")
        family = self.family_a or self.family_b
        if family and not (self.family_a and self.family_b):
            raise ConfigError("family web needs both --a and --b")
        integrals, box, exclude, margin = (
            builtin_spec(self.builtin) if self.builtin else (self.integrals, DEFAULT_BOX, None, 0.0)
        )
        exclude = self.exclude if self.exclude is not None else exclude
        domain = Domain(
            self.box if self.box is not None else box,
            parse_expr(exclude) if exclude is not None else None,
            self.margin if self.margin is not None else margin,
        )
        if self.margin is not None and exclude is None:
            raise ConfigError("margin has no effect without an exclusion (--exclude G)")
        if family:
            return family_web(self.family_a, self.family_b, domain)
        return ThreeWeb.from_integrals(integrals, domain)

    def build_map(self) -> PlaneMap | None:
        if self.map_spec is None:
            return None
        if self.map_spec == ("identity",):
            return identity_map()
        if len(self.map_spec) == 2:
            comp1, comp2 = (Foliation(parse_expr(t)) for t in self.map_spec)
            return PlaneMap(comp1, comp2, name="custom")
        raise ConfigError("--map takes 'identity' or two component expressions")


class Setting(NamedTuple):
    """One run setting: its flag, its config-file key and its RunConfig field.

    ``json`` is the key's dotted path in a config file (None: flag only) and
    ``name`` the RunConfig field, by default the path's last component.
    ``type`` is the type of each value and ``nargs`` the flag's arity; a
    config value mirrors it: a scalar for None, else a list.  ``commands``
    names exactly the subcommands that read the setting and so take the
    flag, None meaning every command but ``parse``; a config file may still
    hold keys its command does not read.  ``dest`` is needed only where
    argparse's own differs.
    """

    flag: str
    json: str | None
    type: type = str
    nargs: int | str | None = None
    name: str | None = None
    dest: str | None = None
    commands: tuple[str, ...] | None = None
    choices: tuple | None = None
    metavar: str | tuple[str, ...] | None = None
    help: str | None = None

    @property
    def field(self) -> str:
        return self.name or self.json.rpartition(".")[2]


# the commands that read each group of settings: a command takes a flag
# only if it reads the setting, so argparse rejects any other flag
_WEB_COMMANDS = ("analyze", "trace", "hexagon", "verify-map")  # any web of build_web
_PIPELINE = ("verify-theorem", "verify-map", "family")
SETTINGS = (
    Setting("--out", "out", help="output directory (default: out)"),
    Setting("--builtin", "web.builtin", commands=_WEB_COMMANDS + ("verify-theorem",),
            choices=BUILTIN_WEB_NAMES, help="bundled example web"),
    Setting("--web", "web.integrals", nargs=3, commands=_WEB_COMMANDS, metavar=("U1", "U2", "U3"),
            help="three first-integral expressions"),
    Setting("--a", "web.family.a", name="family_a", commands=_WEB_COMMANDS + ("family",),
            help="family coefficient a(x)"),
    Setting("--b", "web.family.b", name="family_b", commands=_WEB_COMMANDS + ("family",),
            help="family coefficient b(x)"),
    Setting("--box", "domain.box", float, 4, metavar=("XMIN", "XMAX", "YMIN", "YMAX"),
            help="domain box"),
    Setting("--exclude", "domain.exclude", help="exclusion expression g(x,y)"),
    Setting("--margin", "domain.margin", float, help="exclusion margin (|g| >= margin)"),
    Setting("--grid", "grid", int, 2, commands=("analyze",) + _PIPELINE, metavar=("NX", "NY"),
            help="report grid"),
    Setting("--seeds", "seeds", int, commands=("trace",) + _PIPELINE, help="seeds per foliation"),
    Setting("--max-arc", "max_arc", float, commands=("trace",) + _PIPELINE,
            help="arc budget per direction"),
    Setting("--tol-linearity", "tolerances.linearity", float, name="tol_linearity",
            commands=_PIPELINE),
    Setting("--tol-curvature", "tolerances.curvature", float, name="tol_curvature",
            commands=("analyze",)),
    Setting("--tol-diffeo", "tolerances.diffeo", float, name="tol_diffeo", commands=_PIPELINE),
    Setting("--tol-line", "tolerances.line_formula", float, name="tol_line",
            commands=("verify-theorem", "family"), help="line check of the map (f(x,y), y): "
            "how far the image of a leaf x = c may lie from the line through f(c, y) at its ends"),
    Setting("--foliation", "foliation", int, commands=("trace",), choices=(1, 2, 3),
            help="which foliation"),
    Setting("--seed", None, float, 2, name="seed_point", dest="seed_point", commands=("trace",),
            metavar=("X", "Y"), help="trace the single leaf through this point"),
    Setting("--center", "center", float, 2, commands=("hexagon",), metavar=("X", "Y")),
    Setting("--radii", "radii", float, "+", commands=("hexagon",), metavar="R"),
    Setting("--map", "map", nargs="+", name="map_spec", commands=("verify-theorem", "verify-map"),
            metavar="M", help="'identity' or two expressions; overrides verify-theorem's map"),
)
_BY_KEY = {s.json: s for s in SETTINGS if s.json}
# per element type: the JSON value types it accepts (a bool is no number
# here), and its name for messages, singular and plural
_JSON_TYPES = {
    str: ((str,), "a string", "strings"),
    int: ((int,), "an integer", "integers"),
    float: ((int, float), "a number", "numbers"),
}


def _json_value(path: str, s: Setting, v):
    """One config value, checked against its setting's arity, type and
    choices, in the form the RunConfig field holds."""
    accepted, one, many = _JSON_TYPES[s.type]
    if s.nargs is None:
        items, want = [v], one
    else:
        # a lone string stands for a list of one, as in "map": "identity"
        items = [v] if s.nargs == "+" and isinstance(v, str) else v
        want = f"a list of {'one or more' if s.nargs == '+' else s.nargs} {many}"
    if s.choices:
        want += f" from {', '.join(map(str, s.choices))}"
    ok = (
        isinstance(items, list)
        and (len(items) == s.nargs if isinstance(s.nargs, int) else len(items) > 0)
        and all(type(x) in accepted for x in items)
        and all(x in s.choices for x in items if s.choices)
    )
    if not ok:
        raise ConfigError(f"config key {path!r} must be {want}, got {json.dumps(v)}")
    values = tuple(s.type(x) for x in items)
    return values if s.nargs else values[0]


def _json_fields(data: dict, prefix: str = "") -> dict:
    """RunConfig field values from a config object; unknown keys are errors."""
    values = {}
    for key, v in data.items():
        path = prefix + key
        if path in _BY_KEY:
            values[_BY_KEY[path].field] = _json_value(path, _BY_KEY[path], v)
        elif any(k.startswith(path + ".") for k in _BY_KEY):
            if not isinstance(v, dict):
                raise ConfigError(f"config key {path!r} must be an object, got {json.dumps(v)}")
            values.update(_json_fields(v, path + "."))
        else:
            raise ConfigError(f"unknown config key {path!r}")
    return values


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
    return _json_fields(data)


def _config_from_sources(args: argparse.Namespace) -> RunConfig:
    values = _load_config(args.config) if args.config else {}
    for s in SETTINGS:  # a given flag wins; flags of other commands are absent
        v = getattr(args, s.dest or s.flag[2:].replace("-", "_"), None)
        if v is not None:
            values[s.field] = tuple(v) if s.nargs else v
    cfg = RunConfig(**values)
    cfg.out = Path(cfg.out)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# pipeline runs
# ---------------------------------------------------------------------------


def _mark(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _print_general_position(gp) -> None:
    """The summary line of a general-position report, as every command prints it."""
    print(f"general position: {_mark(gp.verdict)} (min pairwise det {gp.min_pairwise_det:.6g})")


def _run_pipeline(cfg: RunConfig, web: ThreeWeb, m: PlaneMap | None = None) -> int:
    """Run :func:`verify_map` of ``m`` (None: the web's own linearizing map,
    with the line check) on ``web`` with the config's pipeline settings,
    write the outputs, print the summary, and map the verdict to the exit
    code."""
    report = verify_map(
        web,
        m,
        seeds_per_foliation=cfg.seeds,
        tol=cfg.tol_linearity,
        grid=cfg.grid,
        max_arc=cfg.max_arc,
        diffeo_tol=cfg.tol_diffeo,
        line_tol=cfg.tol_line,
    )
    text = report_json(report.to_dict())  # it may raise, so it comes before any output
    out = cfg.out
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(text)
    svg_items = []
    for r in report.foliations:
        rows = [(leaf, image) for pre, post in r.leaves for leaf, image in ((pre, 0), (post, 1))]
        write_leaf_csv(out / f"leaves_f{r.foliation}.csv", rows, with_image=True)
        svg_items += rows
    write_svg(out / "web.svg", web.domain, svg_items)

    dif = report.diffeo
    _print_general_position(report.general_position)
    print(
        f"diffeomorphism ({report.map_name}): {_mark(dif.verdict)} "
        f"(min |det J| {dif.min_abs_det:.6g}, threshold {dif.threshold:.6g})"
    )
    for r in report.foliations:
        flags = f", {len(r.flags)} truncation flags" if r.flags else ""
        print(
            f"foliation F{r.foliation} images: "
            f"{'linear' if r.verdict else 'NOT linear'} "
            f"(max residual {r.max_residual:.6g}, tol {r.tol:.6g}{flags})"
        )
    if report.line_check is not None:
        lc = report.line_check
        print(
            f"line formula: {_mark(lc.verdict)} "
            f"(max deviation {lc.max_deviation:.6g} over {lc.n_leaves} leaves)"
        )
    print(f"overall: {_mark(report.overall_pass)}")
    return EXIT_PASS if report.overall_pass else EXIT_VERDICT_FAIL


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_parse(args) -> int:
    if args.at is not None and not all(map(math.isfinite, args.at)):
        raise ConfigError(f"--at must be finite, got ({args.at[0]:g}, {args.at[1]:g})")
    for text in args.expr:
        e = parse_expr(text)
        print(to_text(e))
        if args.at is not None:
            jet = eval_jet3(e, (args.at[0], args.at[1]))
            for (i, j), v in zip(JET_ORDERS, jet):
                label = "value" if (i, j) == (0, 0) else f"d{'x' * i}{'y' * j}"
                print(f"  {label}: {fmt(v)}")
    return EXIT_PASS


def _cmd_analyze(args) -> int:
    cfg = _config_from_sources(args)
    web = cfg.build_web()
    survey = web.domain.survey(cfg.grid)
    gp = general_position_report(web, survey)
    rep = parallelizability_report(web, survey, tol=cfg.tol_curvature)
    text = report_json({"general_position": gp.to_dict(), "parallelizability": rep.to_dict()})
    cfg.out.mkdir(parents=True, exist_ok=True)
    write_curvature_csv(cfg.out / "curvature.csv", survey.xs, survey.ys, rep.kappa)
    (cfg.out / "report.json").write_text(text)
    _print_general_position(gp)
    verdict = "parallelizable" if rep.parallelizable else "not parallelizable"
    print(
        f"curvature: {verdict} "
        f"(max |K| {rep.max_abs_curvature:.6g}, min |K| {rep.min_abs_curvature:.6g}, "
        f"tol {rep.tol:.6g})"
    )
    return EXIT_PASS


def _cmd_trace(args) -> int:
    cfg = _config_from_sources(args)
    if cfg.seed_point is not None and args.seeds is not None:
        raise ConfigError("--seeds has no effect with --seed, which traces the one leaf through it")
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
    n_flags = sum(len(leaf.flags) for leaf in leaves)
    flags = f", {n_flags} truncation flags" if n_flags else ""
    print(f"traced {len(leaves)} leaves of F{cfg.foliation} ({total} vertices{flags}) -> {path}")
    return EXIT_PASS


def _cmd_hexagon(args) -> int:
    cfg = _config_from_sources(args)
    web = cfg.build_web()
    if cfg.center is None:
        raise ConfigError("hexagon needs --center x y")
    if not cfg.radii:
        raise ConfigError("hexagon needs --radii r1 [r2 ...]")
    figures = []
    for r in cfg.radii:  # every figure before any output, so a failure leaves none
        figures.append(hexagon_defect(web, cfg.center, r))
        print(f"r={r:g}: defect={figures[-1].defect:.6g}")
    cfg.out.mkdir(parents=True, exist_ok=True)
    for idx, figure in enumerate(figures):
        write_hexagon_legs_csv(cfg.out / f"hexagon_legs_{idx}.csv", figure)
    write_defect_table_csv(cfg.out / "hexagon.csv", cfg.radii, [f.defect for f in figures])
    return EXIT_PASS


def _cmd_verify_theorem(args) -> int:
    cfg = _config_from_sources(args)
    if cfg.integrals or cfg.family_a or cfg.family_b:
        raise ConfigError(
            "verify-theorem runs a bundled web; use verify-map or family "
            "for other webs"
        )
    web = replace(cfg, builtin=cfg.builtin or "paper").build_web()
    m = cfg.build_map()
    if m is not None and args.tol_line is not None:  # the line check needs the web's own map
        raise ConfigError("--tol-line has no effect with --map, which runs no line check")
    return _run_pipeline(cfg, web, m)


def _cmd_verify_map(args) -> int:
    cfg = _config_from_sources(args)
    web = cfg.build_web()
    m = cfg.build_map()
    if m is None:
        raise ConfigError("verify-map needs --map (identity or two expressions)")
    return _run_pipeline(cfg, web, m)


def _cmd_family(args) -> int:
    cfg = _config_from_sources(args)
    if not (cfg.family_a and cfg.family_b):
        raise ConfigError("family needs --a and --b coefficient expressions")
    return _run_pipeline(cfg, cfg.build_web())


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    as it is, so every call of :func:`main` shares it."""
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

    for name, func, help in (
        ("analyze", _cmd_analyze, "general position and curvature survey"),
        ("trace", _cmd_trace, "trace leaves and export CSV"),
        ("hexagon", _cmd_hexagon, "closure hexagons around a center"),
        ("verify-theorem", _cmd_verify_theorem, "full linearization pipeline for a bundled web"),
        ("verify-map", _cmd_verify_map, "does a given map linearize a given web?"),
        ("family", _cmd_family, "pipeline for webs x, y, a(x)x+b(x)y"),
    ):
        # no abbreviations: verify-map would read --tol-line as --tol-linearity
        p = sub.add_parser(name, help=help, description=help, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for s in SETTINGS:
            if s.commands is None or name in s.commands:
                p.add_argument(
                    s.flag,
                    dest=s.dest,
                    type=None if s.type is str else s.type,
                    nargs=s.nargs,
                    choices=s.choices,
                    metavar=s.metavar,
                    help=s.help,
                )
        p.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (TraceError, EvalDomainError, NonFiniteError) as exc:  # HexagonError is a TraceError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except TriwebError as exc:  # parse, config and normal-form errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RecursionError:  # only expression trees are walked recursively
        print("error: expression nests too deeply", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
