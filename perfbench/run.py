#!/usr/bin/env python3
"""Benchmark of triweb on the numerical backend present in this interpreter.

    python3 perfbench/run.py --workload {theorem,hexagon,grid} --seed N \\
        --seconds S --trace {0,1}

One process, one thread, closed loop: each op starts when the previous one
returns.  ``--seed`` generates the inputs (see workloads.py); every op is
checked by its workload's oracle.

``--trace 0`` times ops until their summed duration reaches ``--seconds``
and reports the end-to-end metrics.  ``--trace 1`` runs the first input
group of *every* workload untraced and then traced, pass after pass until
``--seconds`` have elapsed, and reports per-layer metrics named
``<workload>.<module>.<function>.<stat>``: counts from the first pass
(later passes must repeat them exactly) and times as medians over passes.
A layer that no longer exists or is never called reads -1 (missing).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exits 2 without a result when the
checkout's ``src/triweb`` is absent.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as W  # noqa: E402  (exits 2 when the sources are absent)
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 7  # fresh-interpreter set-ups per run; setup_s is their median
TAIL_SAMPLES = 10  # the tail percentile must have this many samples beyond it
MISSING = -1

# Per-layer metrics of each workload's traced run: "<target>.<stat>" for a
# traced function, or a derived name handled in _layer_value.
LAYERS = {
    "theorem": [
        "kernels.jet_coeffs.calls", "kernels.jet_coeffs.self_s", "kernels.jet_coeffs.mean_us",
        "kernels.jet_coeffs_many.calls", "kernels.jet_coeffs_many.points",
        "kernels.jet_coeffs_many.self_s", "kernels.jet_coeffs_many.ns_per_point",
        "kernels.compile_expr.calls", "kernels.compile_expr.self_s",
        "web.trace_leaf.calls", "web.trace_leaf.vertices", "web.trace_leaf.self_s",
        "web.trace_leaf.truncated", "web.trace_leaf.ms_per_call", "web.jet_calls_per_vertex",
        "web.Domain.admissible.calls", "web.Domain.admissible.self_s",
        "transform.push_polyline.self_s", "transform.diffeo_report.self_s",
        "verify.collinearity_residual.calls", "verify.collinearity_residual.points",
        "verify.collinearity_residual.self_s",
        "outputs.write_leaf_csv.self_s", "outputs.write_svg.self_s",
        "cli.main.self_s", "trace.overhead_ratio", "trace.coverage",
    ],
    "hexagon": [
        "kernels.jet_coeffs.calls", "kernels.jet_coeffs.self_s", "kernels.jet_coeffs.mean_us",
        "web.Domain.admissible.calls", "web.Domain.admissible.self_s",
        "analysis.hexagon_defect.calls", "analysis.hexagon_defect.self_s",
        "analysis.hexagon_defect.ms_per_call", "analysis.hexagon_defect.ms_at_r0p1",
        "analysis.jet_calls_per_figure", "trace.overhead_ratio", "trace.coverage",
    ],
    "grid": [
        "kernels.jet_coeffs_many.calls", "kernels.jet_coeffs_many.points",
        "kernels.jet_coeffs_many.self_s", "kernels.jet_coeffs_many.ns_per_point",
        "kernels.compile_expr.calls", "kernels.compile_expr.self_s",
        "analysis.curvature_grid.self_s", "web.general_position_report.self_s",
        "outputs.write_curvature_csv.self_s", "outputs.write_curvature_csv.rows",
        "cli.main.self_s", "trace.overhead_ratio", "trace.coverage",
    ],
}
UNITS = {
    "calls": "count", "points": "count", "vertices": "count", "truncated": "count",
    "rows": "count", "self_s": "s", "mean_us": "us", "ns_per_point": "ns",
    "ms_per_call": "ms", "ms_at_r0p1": "ms", "jet_calls_per_vertex": "ratio",
    "jet_calls_per_figure": "ratio", "overhead_ratio": "ratio", "coverage": "ratio",
}
# per-pass timings; every other stat is a count and must repeat exactly
TIMED_STATS = {"self_s", "mean_us", "ns_per_point", "ms_per_call", "ms_at_r0p1",
               "overhead_ratio", "coverage"}


class Ops:
    """Runs ops, checks each with its oracle, and tallies failures."""

    def __init__(self, wl, workdir: Path):
        self.wl = wl
        self.out = workdir / wl.name
        self.attempted = 0
        self.failed = 0

    def run(self, item) -> float:
        """One op; returns the seconds spent in the program."""
        W.fresh_dir(self.out)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self.wl.call(item, self.out)
        except Exception:  # an op that raises is a failed op; keep measuring
            seconds = time.perf_counter() - t0
            self._fail(item, traceback.format_exc())
            return seconds
        seconds = time.perf_counter() - t0
        try:
            reason = self.wl.check(item, result, self.out)
        except Exception:  # output the oracle cannot read is a failed op
            reason = traceback.format_exc()
        if reason is not None:
            self._fail(item, reason)
        return seconds

    def _fail(self, item, reason: str) -> None:
        if self.failed == 0:
            print(f"{self.wl.name}: op {item} failed: {reason}", file=sys.stderr)
        self.failed += 1


def _setup_samples(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall seconds of SETUP_RUNS fresh-interpreter set-ups, and the import
    seconds each reports."""
    walls, imports = [], []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        walls.append(time.perf_counter() - t0)
        imports.append(json.loads(done.stdout.splitlines()[-1])["import_s"])
    return walls, imports


def _tail(times: list[float]) -> tuple[float, str]:
    """The nearest-rank p90, or where fewer than TAIL_SAMPLES samples lie
    beyond it, the highest percentile that has that many.  Below
    2 * TAIL_SAMPLES samples no percentile above the median has, and the
    median is reported.  Returns the value and a note saying which."""
    n = len(times)
    if n < 2 * TAIL_SAMPLES:
        return statistics.median(times), f"the median (n={n}: no higher percentile has {TAIL_SAMPLES} samples beyond)"
    rank = min(math.ceil(0.9 * n), n - TAIL_SAMPLES)
    return sorted(times)[rank - 1], f"p{100 * rank / n:.1f} (nearest rank {rank} of n={n}, {n - rank} beyond)"


def end_to_end(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    walls, _ = _setup_samples(name, seed)
    wl = W.WORKLOADS[name](seed)
    print(f"{name} inputs (seed {seed}): {wl.describe()}")
    wl.prepare()
    ops = Ops(wl, workdir)
    for item in wl.groups[0]:  # warm-up: lazy set-up and file caches
        ops.run(item)
    times: list[float] = []
    started = time.perf_counter()
    group = 0
    # whole groups only; the wall cap stops a run whose oracles dominate
    while sum(times) < seconds and time.perf_counter() - started < 3 * seconds:
        times.extend(ops.run(item) for item in wl.groups[group % len(wl.groups)])
        group += 1
    tail, tail_note = _tail(times)
    n = len(times)
    metrics = {
        "setup_s": (statistics.median(walls), "s"),
        "ops_per_s": (n / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "success_ratio": (1 - ops.failed / ops.attempted, "ratio"),
    }
    print(f"timed ops: n={n}; op_tail_ms is {tail_note}")
    print(f"fail_ratio: {ops.failed / ops.attempted} ({ops.failed} of {ops.attempted} ops, "
          "warm-up included)")
    return _result(ops.attempted, ops.failed, metrics)


def _layer_value(spec: str, stats: dict, walls: dict, r01_ms: float | None):
    """One per-layer metric from a pass's layer stats, or MISSING."""
    if spec == "web.jet_calls_per_vertex":
        return _ratio(_stat(stats, "kernels.jet_coeffs.calls"), _stat(stats, "web.trace_leaf.vertices"))
    if spec == "analysis.jet_calls_per_figure":
        return _ratio(_stat(stats, "kernels.jet_coeffs.calls"), _stat(stats, "analysis.hexagon_defect.calls"))
    if spec == "trace.overhead_ratio":
        return walls["traced"] / walls["untraced"]
    if spec == "trace.coverage":
        return sum(s.self_s for s in stats.values()) / walls["traced"]
    if spec == "analysis.hexagon_defect.ms_at_r0p1":
        return MISSING if r01_ms is None else r01_ms
    return _stat(stats, spec)


def _ratio(a, b):
    return MISSING if MISSING in (a, b) else a / b


def _stat(stats: dict, spec: str):
    target, stat = spec.rsplit(".", 1)
    s = stats.get(target)
    if s is None or s.calls == 0:
        return MISSING
    if stat == "calls":
        return s.calls
    if stat == "self_s":
        return s.self_s
    if stat == "mean_us":
        return s.self_s / s.calls * 1e6
    if stat == "ms_per_call":
        return s.total_s / s.calls * 1e3
    if stat == "ns_per_point":
        points = _stat(stats, f"{target}.points")
        return MISSING if points in (MISSING, 0) else s.self_s / points * 1e9
    if s.unit_errors or stat not in s.units:
        return MISSING
    return s.units[stat]


def traced(seed: int, seconds: float, workdir: Path) -> dict:
    _, imports = _setup_samples("theorem", seed)
    wls = [W.WORKLOADS[name](seed) for name in LAYERS]
    runners = []
    for wl in wls:
        wl.prepare()
        runners.append(Ops(wl, workdir))
        for item in wl.groups[0]:
            runners[-1].run(item)
    tracer = Tracer()
    passes: list[dict] = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        values = {}
        for wl, ops in zip(wls, runners):
            group = wl.groups[0]
            untraced = [ops.run(item) for item in group]
            tracer.install()
            try:
                traced_s = sum(ops.run(item) for item in group)
            finally:
                tracer.uninstall()
            walls = {"untraced": sum(untraced), "traced": traced_s}
            r01_ms = None
            if wl.name == "hexagon":
                r01 = [t for (_, radius), t in zip(group, untraced) if radius == 0.1]
                r01_ms = statistics.median(r01) * 1e3 if r01 else None
            for spec in LAYERS[wl.name]:
                values[f"{wl.name}.{spec}"] = _layer_value(spec, tracer.stats, walls, r01_ms)
        passes.append(values)
    missing = sorted(set(tracer.missing) | {k for k, v in passes[0].items() if v == MISSING})
    repeat = all(
        p[k] == passes[0][k] for p in passes for k in p if k.rsplit(".", 1)[1] not in TIMED_STATS
    )
    print(f"traced passes: {len(passes)}; counts repeat across passes: {repeat}")
    print(f"missing layers: {', '.join(missing) if missing else 'none'}")
    metrics = {"cli.import_s": (statistics.median(imports), "s")}
    for key, first in passes[0].items():
        stat = key.rsplit(".", 1)[1]
        timed = stat in TIMED_STATS and first != MISSING
        value = statistics.median(p[key] for p in passes) if timed else first
        metrics[key] = (value, UNITS[stat])
    attempted = sum(o.attempted for o in runners)
    failed = sum(o.failed for o in runners)
    return _result(attempted, failed, metrics)


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workdir = W.ROOT / ".perfbench_work" / str(os.getpid())
    try:
        if args.trace:
            result = traced(args.seed, args.seconds, workdir)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
