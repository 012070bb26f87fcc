"""Spans for the traced run, recorded from the benchmark's own files.

Each layer's public entry points are wrapped where the calling module looks
the name up (``antisym.inner_solve`` and ``meso.conv_values`` are imported
by name, so those module attributes are the ones replaced).  The wrappers
exist only inside ``installed()``; every name is restored when it exits, so
an untraced pass runs the unpatched program.

A span records its name, start, end, parent span and run identifier (the
traced pass).  Spans stay in memory until ``write_spans``.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np


def _file_bytes(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _with_sidecar(path) -> int:
    return _file_bytes(path) + _file_bytes(os.path.splitext(path)[0]
                                           + ".grid.json")


def _targets():
    """(owner, attribute, span name, work(args, result)) to wrap."""
    from mesostefan import (antisym, asym, cli, instanton, meso, spectral,
                            stefan, thermo)

    points = lambda a, out: np.size(a[1])                  # m_of_x(self, x)
    conv_macs = lambda a, out: a[2].size * a[0].weights.size
    filled_macs = lambda a, out: a[1].size * a[0].weights.size
    written = lambda a, out: _with_sidecar(a[0])
    return [
        (cli, "pressure", "thermo.pressure", None),
        (stefan, "envelope_prime_inverse", "thermo.inverse", None),
        (stefan, "metastable_inverse", "thermo.inverse", None),
        (stefan.MaximalSolution, "m_of_x", "stefan.m_of_x", points),
        (stefan.MetastableMaximal, "m_of_x", "stefan.m_of_x", points),
        (stefan, "solve_maximal", "stefan.maximal", None),
        (stefan, "_metastable_maximal", "stefan.maximal", None),
        (antisym, "solve_maximal", "stefan.maximal", None),
        (antisym, "_metastable_maximal", "stefan.maximal", None),
        (asym, "solve_maximal", "stefan.maximal", None),
        (instanton, "compute_instanton", "instanton.compute", None),
        (antisym, "build_seed", "antisym.seed", None),
        (antisym, "t_map", "antisym.t_map", None),
        (antisym, "hydrodynamic_error", "antisym.hydro_error", None),
        (asym, "build_problem", "asym.problem", None),
        (asym, "projected_iterate", "asym.projected", None),
        (antisym, "inner_solve", "meso.inner", None),
        (asym, "inner_solve", "meso.inner", None),
        (meso, "conv_values", "grids.conv", conv_macs),
        (thermo, "conv_values", "grids.conv", conv_macs),
        (instanton, "conv_values_filled", "grids.conv", filled_macs),
        (spectral, "leading_eigenpair", "spectral.eigenpair",
         lambda a, out: out.iterations),
        (asym, "leading_eigenpair", "spectral.eigenpair",
         lambda a, out: out.iterations),
        (spectral, "second_eigenvalue", "spectral.lambda2", None),
        (cli, "save_profile", "profiles.write", written),
        (cli, "save_state", "profiles.write", written),
        (cli, "dump_json", "profiles.write",
         lambda a, out: _file_bytes(a[0])),
        (cli, "load_state", "profiles.read", written),
    ]


# metric -> (span name, quantity); quantity is "calls", "self_s", "work"
# (the count the wrapper records per call), or "under:<span>" (calls whose
# parent span has that name)
LAYER_METRICS = {
    "thermo.pressure.calls": ("thermo.pressure", "calls"),
    "thermo.pressure.self_s": ("thermo.pressure", "self_s"),
    "thermo.inverse.calls": ("thermo.inverse", "calls"),
    "thermo.inverse.self_s": ("thermo.inverse", "self_s"),
    "stefan.m_of_x.points": ("stefan.m_of_x", "work"),
    "stefan.m_of_x.self_s": ("stefan.m_of_x", "self_s"),
    "stefan.maximal.calls": ("stefan.maximal", "calls"),
    "stefan.maximal.self_s": ("stefan.maximal", "self_s"),
    "instanton.compute.calls": ("instanton.compute", "calls"),
    "instanton.compute.self_s": ("instanton.compute", "self_s"),
    "antisym.seed.self_s": ("antisym.seed", "self_s"),
    "antisym.outer.steps": ("antisym.t_map", "calls"),
    "antisym.t_map.self_s": ("antisym.t_map", "self_s"),
    "antisym.hydro_error.self_s": ("antisym.hydro_error", "self_s"),
    "asym.problem.self_s": ("asym.problem", "self_s"),
    "asym.projected.steps": ("asym.projected", "calls"),
    "asym.projected.self_s": ("asym.projected", "self_s"),
    "meso.inner.calls": ("meso.inner", "calls"),
    "meso.inner.self_s": ("meso.inner", "self_s"),
    # inner_solve returns no iteration count: count the kernel
    # applications made directly under it instead
    "meso.picard.steps": ("grids.conv", "under:meso.inner"),
    "grids.conv.calls": ("grids.conv", "calls"),
    "grids.conv.macs": ("grids.conv", "work"),      # computed: sum n * taps
    "grids.conv.self_s": ("grids.conv", "self_s"),
    "spectral.eigenpair.iters": ("spectral.eigenpair", "work"),
    "spectral.eigenpair.self_s": ("spectral.eigenpair", "self_s"),
    "spectral.lambda2.self_s": ("spectral.lambda2", "self_s"),
    "profiles.write.bytes": ("profiles.write", "work"),
    "profiles.write.self_s": ("profiles.write", "self_s"),
    "profiles.read.bytes": ("profiles.read", "work"),
    "profiles.read.self_s": ("profiles.read", "self_s"),
}


class Tracer:
    """In-memory span table, one row per wrapped call."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.run_id = 0
        self._stack = []

    def name_id(self, name) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self.work.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        i = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(i)

    def _wrap(self, fn, span, work):
        nid = self.name_id(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if work is not None:
                self.work[i] = work(args, out)
            return out
        return traced

    @contextmanager
    def installed(self):
        """Replace every target by its traced wrapper; restore on exit."""
        saved = []
        try:
            for owner, attr, span, work in _targets():
                original = getattr(owner, attr, None)
                if original is None:
                    print(f"trace: {owner.__name__}.{attr} not found",
                          file=sys.stderr)
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, span, work))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_metrics(self) -> dict:
        """Per traced pass values of LAYER_METRICS, medians over passes."""
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        run = np.asarray(self.run, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        work = np.asarray(self.work)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=name.size)
        self_s = dur - child
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        per_run = {metric: [] for metric in LAYER_METRICS}
        for r in np.unique(run):
            in_run = run == r
            for metric, (span, qty) in LAYER_METRICS.items():
                mask = in_run & (name == self._ids.get(span, -1))
                if qty == "calls":
                    value = int(mask.sum())
                elif qty == "self_s":
                    value = float(self_s[mask].sum())
                elif qty == "work":
                    value = float(work[mask].sum())
                else:
                    under = self._ids.get(qty.split(":", 1)[1], -2)
                    value = int((mask & (parent_name == under)).sum())
                per_run[metric].append(value)
        return {m: float(np.median(v)) if v else 0.0
                for m, v in per_run.items()}

    def write_spans(self, path, t0):
        """Write the span table as gzip CSV; times in seconds from ``t0``."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,parent,run,name,start_s,end_s,work\n")
            rows = []
            for i in range(len(self.name)):
                rows.append(f"{i},{self.parent[i]},{self.run[i]},"
                            f"{self.names[self.name[i]]},"
                            f"{self.start[i] - t0:.9f},"
                            f"{self.end[i] - t0:.9f},{self.work[i]:.17g}\n")
                if len(rows) >= 65536:
                    fh.write("".join(rows))
                    rows.clear()
            fh.write("".join(rows))
