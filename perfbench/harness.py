"""Measurement loop: set-up, warm-up, timed passes, checks, report.

Imported by run.py after the timed import of ``mesostefan.cli``.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext

import numpy as np

import checks
from speed import Speed
from tracing import Tracer
from workloads import (DEFAULT_SEED, LADDER_EPS, MODES, WORKLOADS,
                       ladder_points)

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_REPEATS = 3
# the probe measures the speed of its own processor (speed.py)
IMPORT_PROBE = """from speed import Speed
speed = Speed()
with speed.measure() as took:
    import mesostefan.cli
print(took["scaled"])
"""


def import_seconds(src) -> float:
    """Import time of mesostefan.cli in a fresh interpreter, scaled."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, HERE)))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout.split()[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Run:
    """One invocation: a workload at one seed, traced or not."""

    def __init__(self, workload, seed, seconds, trace, root):
        self.wl = WORKLOADS[workload](seed)
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.src = os.path.join(root, "src")
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            self.spec = json.load(fh)
        self.reference = None
        if seed == DEFAULT_SEED and os.path.exists(REFERENCE):
            with open(REFERENCE) as fh:
                self.reference = json.load(fh)["workloads"].get(workload)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setup_good = []       # (op, output) pairs for the self-check
        self.pass_good = []
        self.recorded = {}

    # ------------------------------------------------------------ checks

    def _judge(self, op, raw, error, good):
        """Check one operation's outputs; count it as attempted/failed.

        Outputs that pass are appended to ``good``.
        """
        self.attempted += 1
        probs = [error] if error else []
        out = None
        if not probs:
            try:
                out = op.collect(raw)
                probs = checks.check(op.kind, out, op.expect)
            except (OSError, KeyError, TypeError, ValueError,
                    IndexError) as exc:
                probs = [f"unreadable output: {exc!r}"]
        if out is not None and not probs:
            values = checks.scalars(op.kind, out)
            self.recorded[op.name] = values
            if self.reference is not None:
                probs = checks.compare(self.reference.get(op.name, {}), values)
        if probs:
            self.failed += 1
            self.problems.append(f"{op.name}: " + "; ".join(probs))
        else:
            good.append((op, out))

    # ------------------------------------------------------------ passes

    def one_pass(self, workdir, tracer=None, warmup=False):
        """Run every operation once (the warm-up operations with ``warmup``).

        Returns {op name: seconds} and {op name: seconds at the reference
        speed}, each operation scaled by the speed units run around and
        inside it (speed.py).
        """
        os.makedirs(workdir)
        ops = (self.wl.warmup_ops if warmup else self.wl.pass_ops)(workdir)
        times, scaled, results = {}, {}, []
        speed = Speed()
        with tracer.installed() if tracer else nullcontext():
            for op in ops:
                # no speed samples inside spans: they would count as self time
                with speed.measure(sample=tracer is None) as took:
                    try:
                        if tracer:
                            with tracer.span("op." + op.name):
                                raw = op.call()
                        else:
                            raw = op.call()
                        error = None
                    except Exception:  # an operation that raises has failed
                        raw, error = None, traceback.format_exc(limit=3)
                times[op.name] = took["seconds"]
                scaled[op.name] = took["scaled"]
                results.append((op, raw, error))
        self.pass_good = []
        for op, raw, error in results:
            self._judge(op, raw, error, self.pass_good)
        shutil.rmtree(workdir)
        return times, scaled

    def setup(self, workdir, repeats, speed):
        """Set the workload up ``repeats`` times; returns the scaled times."""
        times = []
        for k in range(repeats):
            d = os.path.join(workdir, f"setup-{k}")
            os.makedirs(d)
            with speed.measure() as took:
                done = self.wl.setup(d)
            times.append(took["scaled"])
        for op, raw in done:
            self._judge(op, raw, None, self.setup_good)
        return times

    # ------------------------------------------------------------ the run

    def execute(self):
        os.makedirs(OUT_DIR, exist_ok=True)
        work = tempfile.mkdtemp(prefix=f"{self.wl.name}-", dir=OUT_DIR)
        try:
            return self._execute(work)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def _execute(self, work):
        repeats = 1 if self.trace else SETUP_REPEATS
        imports = [import_seconds(self.src) for _ in range(repeats)]
        setups = self.setup(work, repeats, Speed())
        n = 0

        def next_dir():
            nonlocal n
            n += 1
            return os.path.join(work, f"pass-{n}")

        self.one_pass(next_dir(), warmup=True)
        plain, traced = [], []
        tracer = Tracer() if self.trace else None
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < self.seconds:
            plain.append(self.one_pass(next_dir()))
            if tracer:
                tracer.run_id += 1
                traced.append(self.one_pass(next_dir(), tracer))
        good = self.setup_good + self.pass_good
        missed = checks.self_check(good)
        lines = [f"workload {self.wl.name}  seed {self.seed}  |j| "
                 + ", ".join(f"{m} {self.wl.j[m]}" for m in MODES)
                 + f"  passes {len(plain)} timed + {len(traced)} traced"
                 + " + warm-up"]
        if tracer:
            metrics = self._layer_report(tracer, plain, traced, t_start, lines)
        else:
            metrics = self._end_to_end(plain, imports, setups, lines)
        lines.append(f"failed_frac {self.failed}/{self.attempted} = "
                     f"{self.failed / max(self.attempted, 1):.4g}")
        for p in self.problems[:20]:
            lines.append(f"FAILED {p}")
        if missed:
            lines.append("self-check: corruptions not detected: "
                         + "; ".join(missed))
        else:
            lines.append(f"self-check: {len(good)} outputs, every "
                         "corruption detected")
        correct = self.failed == 0 and not missed and self.attempted > 0
        return lines, {"correct": correct, "attempted": self.attempted,
                       "failed": self.failed, "metrics": metrics}

    def _metric(self, section, name, value):
        unit = {m["name"]: m["unit"] for m in self.spec[section]}[name]
        return {"value": value, "unit": unit}

    def _end_to_end(self, passes, imports, setups, lines):
        """Timings in seconds at the reference speed (see speed.py)."""
        raw = [sum(p[0].values()) for p in passes]
        walls = [sum(p[1].values()) for p in passes]
        largest = [p[1][self.wl.largest] for p in passes]
        setup_s = statistics.median(imports) + statistics.median(setups)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"wall_norm_s": statistics.median(walls),
                  "largest_item_norm_s": statistics.median(largest),
                  "setup_s": setup_s, "peak_rss_mb": rss_mb}
        for name, samples in (("wall_s", raw), ("wall_norm_s", walls),
                              ("largest_item_norm_s", largest)):
            q1, q3 = _quartiles(samples)
            lines.append(f"{name:<20} median {statistics.median(samples):.4f}"
                         f" s  q1 {q1:.4f}  q3 {q3:.4f}  n {len(samples)}"
                         + (f"  ({self.wl.largest})" if name.startswith(
                             "largest") else ""))
        factor = statistics.median(r / w for r, w in zip(raw, walls))
        lines.append(f"{'speed factor':<20} median {factor:.3f} "
                     "(wall_s / wall_norm_s)")
        lines.append(f"{'setup_s':<20} {setup_s:.4f} s  = import "
                     f"{statistics.median(imports):.4f} (n {len(imports)}) "
                     f"+ set-up {statistics.median(setups):.4f} "
                     f"(n {len(setups)})")
        lines.append(f"{'peak_rss_mb':<20} {rss_mb:.1f} MB")
        self._diagnostics([p[1] for p in passes], lines)
        names = [m["name"] for m in self.spec["end_to_end"]]
        return {n: self._metric("end_to_end", n, values[n]) for n in names}

    def _diagnostics(self, passes, lines):
        """Reported, not gated: cost growth in n and the gap constant."""
        if self.wl.name != "eps-ladder":
            return
        logs = []
        for mode in MODES:
            t = [statistics.median(p[f"{mode}@{e:g}"] for p in passes)
                 for e in LADDER_EPS]
            n = [ladder_points(mode, e) for e in LADDER_EPS]
            slope = np.polyfit(np.log(n), np.log(t), 1)[0]
            logs.append(f"{mode} {slope:.3f}")
        lines.append("diagnostic slope of log(solve time) vs log(n): "
                     + ", ".join(logs))
        gaps = []
        for mode in MODES:
            values = self.recorded.get(f"{mode}@0.001", {})
            ratio = values.get("eps=0.001/lam_gap_ratio", float("nan"))
            c = values.get("eps=0.001/C_instanton", float("nan"))
            gaps.append(f"{mode} {ratio:.6g} vs {c:.6g}")
        lines.append("diagnostic (1 - lambda)/eps vs C_instanton at "
                     "eps 0.001: " + ", ".join(gaps))

    def _layer_report(self, tracer, plain, traced, t_start, lines):
        values = tracer.layer_metrics()
        walls = [sum(p[0].values()) for p in plain]
        traced_walls = [sum(p[0].values()) for p in traced]
        values["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(walls))
        path = os.path.join(OUT_DIR, f"spans-{self.wl.name}-seed{self.seed}"
                            ".csv.gz")
        tracer.write_spans(path, t_start)
        lines.append(f"spans {len(tracer.name)} written to "
                     f"{os.path.relpath(path)}")
        lines.append(f"untraced wall_s median {statistics.median(walls):.4f}"
                     f" s, traced {statistics.median(traced_walls):.4f} s")
        for name, v in values.items():
            lines.append(f"  {name:<28} {v:.6g}")
        names = [m["name"] for m in self.spec["per_layer"]]
        return {n: self._metric("per_layer", n, values[n]) for n in names}

    def record(self):
        """Store this default-seed run's checked outputs in reference.json."""
        doc = {"seed": DEFAULT_SEED, "workloads": {}}
        if os.path.exists(REFERENCE):
            with open(REFERENCE) as fh:
                doc = json.load(fh)
        doc["workloads"][self.wl.name] = self.recorded
        with open(REFERENCE, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")

