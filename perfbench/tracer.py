"""Spans around triweb's layer functions, recorded from outside the package.

``Tracer.install`` replaces each target function with a timing wrapper at
every attribute that refers to it: the defining module, every ``triweb``
module that imported it by name, and the class for a method.  Spans nest
on one stack, so a layer's self time is its span minus the spans of the
wrapped calls inside it.  A target that no longer exists is reported
missing rather than free.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# "<module>.<function>" or "<module>.<Class>.<method>" under triweb, each
# with the unit counts it adds from its arguments and result.
TARGETS = {
    "kernels.jet_coeffs": None,
    "kernels.jet_coeffs_many": lambda args, result: {"points": int(np.size(args[1]))},
    "kernels.compile_expr": None,
    "web.trace_leaf": lambda args, result: {
        "vertices": len(result),
        "truncated": int(bool(result.flags)),
    },
    "web.Domain.admissible": None,
    "web.general_position_report": None,
    "analysis.hexagon_defect": None,
    "analysis.curvature_grid": None,
    "transform.push_polyline": None,
    "transform.diffeo_report": None,
    "verify.collinearity_residual": lambda args, result: {"points": len(args[0])},
    "outputs.write_leaf_csv": None,
    "outputs.write_svg": None,
    "outputs.write_curvature_csv": lambda args, result: {"rows": len(args[1])},
    "cli.main": None,
}


class LayerStat:
    __slots__ = ("calls", "self_s", "total_s", "units", "unit_errors")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.units: dict[str, int] = {}
        self.unit_errors = 0


def _resolve(target: str):
    """(owner, function) for a target, or None if it no longer exists."""
    module_name, *path = target.split(".")
    try:
        owner = importlib.import_module(f"triweb.{module_name}")
        for name in path[:-1]:
            owner = getattr(owner, name)
        return owner, getattr(owner, path[-1])
    except (ImportError, AttributeError):
        return None


class Tracer:
    def __init__(self):
        self.stats: dict[str, LayerStat] = {}
        self.missing: list[str] = []
        self._stack: list[float] = []  # child-span time of each open span
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = {name: LayerStat() for name in TARGETS if name not in self.missing}

    def install(self) -> None:
        self.missing = []
        found = {}
        for name in TARGETS:
            hit = _resolve(name)
            if hit is None:
                self.missing.append(name)
            else:
                found[name] = hit
        self.reset()
        modules = [m for n, m in sys.modules.items() if n == "triweb" or n.startswith("triweb.")]
        for name, (owner, fn) in found.items():
            wrapper = self._wrap(name, fn, TARGETS[name])
            owners = [owner] if isinstance(owner, type) else modules
            for mod in owners:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._patched):
            setattr(owner, key, fn)
        self._patched = []

    def _wrap(self, name, fn, count_units):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += span
                stat = tracer.stats[name]
                stat.calls += 1
                stat.self_s += span - child
                stat.total_s += span
            if count_units is not None:
                try:
                    for unit, n in count_units(args, result).items():
                        stat.units[unit] = stat.units.get(unit, 0) + n
                except (AttributeError, IndexError, TypeError):
                    stat.unit_errors += 1
            return result

        return traced
