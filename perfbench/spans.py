"""In-memory span tracer for one traced cuspwave job, and the per-layer
metrics derived from its spans.

`Tracer.install` wraps public functions of each cuspwave module.  Callers
bind these names at import (`from .kummer import kummer_m_array`), so every
module attribute that holds the original function is replaced, e.g.
`cuspwave.propagator.kummer_m_array` and `cuspwave.opalg.catalog.span_decompose`.
A target that a later version of the package no longer has is skipped and
its metrics read zero.  No code under src/ changes.
"""

from __future__ import annotations

import builtins
import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _kummer_points(counts, p, z, *args, **kwargs):
    kummer = sys.modules["cuspwave.kummer"]
    az = np.abs(np.asarray(z))
    series = int(np.count_nonzero(az <= kummer.SERIES_RADIUS))
    asym = int(np.count_nonzero(az > kummer.Z_SWITCH))
    counts["kummer.points"] += az.size
    counts["kummer.points_series"] += series
    counts["kummer.points_asym"] += asym
    counts["kummer.points_quad"] += az.size - series - asym


def _table_points(counts, m, t, rho, *args, **kwargs):
    rho = np.asarray(rho)
    counts["propagator.points"] += np.broadcast(np.asarray(t), rho).size
    counts["propagator.rho_points"] += rho.size
    counts["propagator.rho_unique"] += np.unique(rho).size


def _table_bytes(counts, result, *args, **kwargs):
    counts["propagator.table_bytes"] += sum(np.asarray(a).nbytes for a in result)


def _write_bytes(counts, result, path, *args, **kwargs):
    counts["spectral.write_bytes"] += os.path.getsize(path)


def _read_bytes(counts, result, path, *args, **kwargs):
    counts["spectral.read_bytes"] += os.path.getsize(path)


def _ridge_points(counts, result, *args, **kwargs):
    counts["probe.ridge_points"] += len(result)


def _catalog_rows(counts, rows, *args, **kwargs):
    checked = [r for r in rows if r.expected != "asserted"]
    counts["opalg.rows"] += len(checked)
    counts["opalg.rows_failed"] += sum(1 for r in checked if not r.ok)


# (defining module, function, span name, hook before the call, hook after it);
# hooks run outside the span, so their cost shows only in trace.overhead_s
TARGETS = (
    ("cuspwave.cli", "main", "cli.main", None, None),
    ("cuspwave.kummer", "kummer_m_array", "kummer.eval", _kummer_points, None),
    ("cuspwave.linear_solver", "propagator_table", "propagator.table", None, None),
    ("cuspwave.propagator", "sample_arrays", "propagator.sample",
     _table_points, _table_bytes),
    ("cuspwave.spectral", "dft_forward", "spectral.fft", None, None),
    ("cuspwave.spectral", "dft_inverse", "spectral.fft", None, None),
    ("cuspwave.spectral", "sobolev_norm", "spectral.norm", None, None),
    ("cuspwave.spectral", "save_field", "spectral.write", None, _write_bytes),
    ("cuspwave.spectral", "load_field", "spectral.read", None, _read_bytes),
    ("cuspwave.linear_solver", "solve_homogeneous", "linear_solver.homogeneous",
     None, None),
    ("cuspwave.linear_solver", "duhamel", "linear_solver.duhamel", None, None),
    ("cuspwave.linear_solver", "cumulative_simpson", "linear_solver.quad", None, None),
    ("cuspwave.linear_solver", "export_trajectory", "linear_solver.export", None, None),
    ("cuspwave.semilinear", "evaluate_forcing", "semilinear.forcing", None, None),
    ("cuspwave.semilinear", "solve_second_order", "semilinear.solve", None, None),
    ("cuspwave.semilinear", "solve_third_order", "semilinear.solve", None, None),
    ("cuspwave.semilinear", "solve_fourth_order", "semilinear.solve", None, None),
    ("cuspwave.probe", "apply_vector_field", "probe.vf", None, None),
    ("cuspwave.probe", "conormal_scan", "probe.scan", None, None),
    ("cuspwave.probe", "ridge_extract", "probe.ridge", None, _ridge_points),
    ("cuspwave.opalg.catalog", "catalog_verify", "opalg.catalog", None, _catalog_rows),
    ("cuspwave.opalg.diffop", "span_decompose", "opalg.span", None, None),
    ("cuspwave.opalg.diffop", "compose", "opalg.compose", None, None),
)


class Tracer:
    """Spans (id, parent id, name, start, end) and counters, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn, before=None, after=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(counts, *args, **kwargs)
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if after is not None:
                after(counts, result, *args, **kwargs)
            return result
        return traced

    def install(self):
        """Wrap the targets now, and again after every later cuspwave import.

        Nothing is imported here, so a module the CLI loads lazily is
        loaded (and wrapped) exactly when the CLI itself imports it.
        """
        self._wrapped = {}
        self._patch()
        real_import = builtins.__import__

        def importing(name, globals=None, locals=None, fromlist=(), level=0):
            module = real_import(name, globals, locals, fromlist, level)
            if (name.startswith("cuspwave")
                    or (globals or {}).get("__name__", "").startswith("cuspwave")):
                self._patch()
            return module
        builtins.__import__ = importing

    def _patch(self):
        """Rebind every cuspwave module attribute that holds a target."""
        wrappers = {id(traced) for _, traced in self._wrapped.values()}
        for module_name, attr, span, before, after in TARGETS:
            fn = getattr(sys.modules.get(module_name), attr, None)
            if fn is not None and id(fn) not in self._wrapped \
                    and id(fn) not in wrappers:
                self._wrapped[id(fn)] = (fn, self.wrap(span, fn, before, after))
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("cuspwave"):
                for key, value in list(vars(mod).items()):
                    fn, traced = self._wrapped.get(id(value), (None, None))
                    if fn is value:
                        setattr(mod, key, traced)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def layer_metrics(trace):
    """Per-layer metrics of one traced job, from its dumped spans and counts.

    A span's self time is its duration minus that of its direct children;
    calls on one thread never overlap, so the children do not either.
    """
    spans = trace["spans"]
    counts = trace["counts"]
    calls, busy, children = Counter(), Counter(), defaultdict(float)
    child_names = defaultdict(set)
    for sid, parent, name, start, end in spans:
        calls[name] += 1
        busy[name] += end - start
        children[parent] += end - start
        child_names[parent].add(name)

    def self_s(name):
        return sum(end - start - children[sid]
                   for sid, _, n, start, end in spans if n == name)

    table_calls = calls["propagator.table"]
    misses = sum(1 for sid, _, n, _, _ in spans
                 if n == "propagator.table" and "propagator.sample" in child_names[sid])
    rho_points = counts.get("propagator.rho_points", 0)
    return {
        "kummer.calls": calls["kummer.eval"],
        "kummer.points": counts.get("kummer.points", 0),
        "kummer.points_series": counts.get("kummer.points_series", 0),
        "kummer.points_quad": counts.get("kummer.points_quad", 0),
        "kummer.points_asym": counts.get("kummer.points_asym", 0),
        "kummer.s": busy["kummer.eval"],
        "propagator.table_calls": table_calls,
        "propagator.table_misses": misses,
        "propagator.table_hit_ratio":
            (table_calls - misses) / table_calls if table_calls else 0.0,
        "propagator.points": counts.get("propagator.points", 0),
        "propagator.unique_rho_ratio":
            counts.get("propagator.rho_unique", 0) / rho_points if rho_points else 0.0,
        "propagator.table_mb": counts.get("propagator.table_bytes", 0) / 1e6,
        "propagator.s": busy["propagator.table"],
        "spectral.fft_calls": calls["spectral.fft"],
        "spectral.fft_s": busy["spectral.fft"],
        "spectral.norm_calls": calls["spectral.norm"],
        "spectral.norm_s": busy["spectral.norm"],
        "spectral.write_mb": counts.get("spectral.write_bytes", 0) / 1e6,
        "spectral.write_s": busy["spectral.write"],
        "spectral.read_mb": counts.get("spectral.read_bytes", 0) / 1e6,
        "spectral.read_s": busy["spectral.read"],
        "linear_solver.homogeneous_s": busy["linear_solver.homogeneous"],
        "linear_solver.duhamel_calls": calls["linear_solver.duhamel"],
        "linear_solver.duhamel_s": busy["linear_solver.duhamel"],
        "linear_solver.quad_calls": calls["linear_solver.quad"],
        "linear_solver.quad_s": busy["linear_solver.quad"],
        "linear_solver.export_s": busy["linear_solver.export"],
        "semilinear.forcing_calls": calls["semilinear.forcing"],
        "semilinear.forcing_s": busy["semilinear.forcing"],
        "semilinear.self_s": self_s("semilinear.solve"),
        "probe.vf_calls": calls["probe.vf"],
        "probe.vf_s": busy["probe.vf"],
        "probe.scan_s": busy["probe.scan"],
        "probe.ridge_s": busy["probe.ridge"],
        "probe.ridge_points": counts.get("probe.ridge_points", 0),
        "opalg.rows": counts.get("opalg.rows", 0),
        "opalg.rows_failed": counts.get("opalg.rows_failed", 0),
        "opalg.span_calls": calls["opalg.span"],
        "opalg.span_s": busy["opalg.span"],
        "opalg.compose_calls": calls["opalg.compose"],
        "opalg.compose_s": busy["opalg.compose"],
        "opalg.catalog_self_s": self_s("opalg.catalog"),
    }


# cumulative import time of these modules, from `python -X importtime`
IMPORTS = {"cli.import_s": "cuspwave.cli", "cli.import_sympy_s": "sympy",
           "cli.import_scipy_integrate_s": "scipy.integrate"}


def import_metrics(stderr_text):
    """Seconds each module in IMPORTS took to import, 0 if it never was."""
    seen = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            seen.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return {metric: seen.get(module, 0.0) for metric, module in IMPORTS.items()}
