"""Workloads: seeded inputs, set-up, and the operations of one pass.

Every operation goes through a public entry point of the suite (``cli.main``
with an argument list, or ``cli.run`` with a config) in this process, with
its outputs in a directory the harness creates and removes.  Operations run
one after another (closed loop, one worker, no process pool).

The seed draws |j| for each mode from ``J_BAND`` and nothing else: grid
sizes, scales and spacings are fixed, so the work per pass depends on the
seed only through the iteration counts the current induces.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from mesostefan import cli
from mesostefan.config import RunConfig
from mesostefan.grids import build_grid

DEFAULT_SEED = 0
J_BAND = (0.015, 0.025)      # all three modes converge across this band
MODES = ("antisym", "metastable", "asym")
BETA = 2.0
ELL = 1.0
X0 = 0.2
SPACING = 0.05
N0 = 2
DESK_EPS = (0.1, 0.05, 0.025)              # the shipped sweep configs
LADDER_EPS = (0.0125, 0.0025, 0.001)
SPECTRUM_GRIDS = tuple((spacing, eps) for spacing in (0.0125, 0.00625)
                       for eps in (0.05, 0.025, 0.0125))
# the shipped config files, by name, with the mode each one runs
SHIPPED_CONFIGS = (("stable", "antisym"), ("metastable", "metastable"),
                   ("offcenter", "asym"))


def draw_currents(seed) -> dict:
    """|j| per mode, uniform on J_BAND, drawn in a fixed order."""
    rng = random.Random(seed)
    return {mode: round(rng.uniform(*J_BAND), 6) for mode in MODES}


def signed_current(mode, j_abs) -> float:
    """The metastable arrangement needs j > 0, the stable ones j < 0."""
    return j_abs if mode == "metastable" else -j_abs


@dataclass
class Op:
    """A timed program call and the untimed read of its outputs."""

    name: str
    kind: str                        # selects the output check
    call: Callable[[], object]
    collect: Callable[[object], dict]
    expect: dict = field(default_factory=dict)   # inputs the check needs


def _cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


def _read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_table(path) -> dict:
    """CSV with a header line; numeric columns become float arrays."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    cols = {}
    for k, name in enumerate(header):
        vals = [r[k] for r in rows]
        try:
            cols[name] = np.array([float(v) for v in vals])
        except ValueError:
            cols[name] = vals
    return cols


def _collect_thermo(out):
    def collect(raw):
        rc, _ = raw
        table = _read_table(os.path.join(out, "pressure.csv"))
        meta = _read_json(os.path.join(out, "thermo.json"))
        return {"rc": rc, "h": table["h"], "pressure": table["pressure"],
                "m_beta": meta["m_beta"], "m_star": meta["m_star"]}
    return collect


def _collect_stefan(out):
    def collect(raw):
        rc, _ = raw
        table = _read_table(os.path.join(out, "stefan.csv"))
        meta = _read_json(os.path.join(out, "stefan.json"))
        return {"rc": rc, "x": table["x"], "h": table["h"], "m": table["m"],
                "feasible": meta["feasible"], "ell_j": meta["ell_j"],
                "branch": meta["branch"]}
    return collect


def _collect_validate(raw):
    rc, text = raw
    return {"rc": rc, "stdout": text}


def _collect_sweep(outdir):
    def collect(raw):
        rc, _ = raw
        table = _read_table(os.path.join(outdir, "sweep.csv"))
        rows = []
        for k, eps in enumerate(table["eps"]):
            row = {key: float(table[key][k])
                   for key in ("eps", "hydro_m", "hydro_h", "lam_gap_ratio",
                               "I_eps", "eps_x_eps")}
            row.update(mode=table["mode"][k], iters=int(table["iters"][k]))
            # sweep.csv is the primary output; row.json adds C_instanton
            meta = _read_json(os.path.join(outdir, f"eps_{eps:g}", "row.json"))
            row["C_instanton"] = meta["C_instanton"]
            rows.append(row)
        return {"rc": rc, "rows": rows}
    return collect


def _collect_report(report) -> dict:
    rows = [{"eps": r.eps, "mode": r.mode, "hydro_m": r.hydro_m,
             "hydro_h": r.hydro_h, "lam_gap_ratio": r.lam_gap_ratio,
             "C_instanton": r.c_instanton, "I_eps": r.i_eps,
             "eps_x_eps": r.eps_x_eps, "iters": r.iters}
            for r in report.rows]
    return {"rc": 0, "rows": rows}


def _collect_solve(out):
    def collect(raw):
        rc, _ = raw
        table = _read_table(os.path.join(out, "state.csv"))
        grid = _read_json(os.path.join(out, "state.grid.json"))
        meta = _read_json(os.path.join(out, "solve.json"))
        return {"rc": rc, "x": table["x"], "h": table["h"], "m": table["m"],
                "epsilon": grid["epsilon"], "spacing": grid["spacing"],
                "residual": meta["residual"],
                "fixed_point_defect": meta["fixed_point_defect"],
                "monotone": meta["monotone"]}
    return collect


def _collect_spectrum(out):
    def collect(raw):
        rc, _ = raw
        d = _read_json(os.path.join(out, "spectrum.json"))
        return {"rc": rc, "lambda": d["lambda"], "lambda2": d["lambda2"],
                "ratio": d["C_check"]["one_minus_lambda_over_eps"],
                "C_instanton": d["C_check"]["C_instanton"]}
    return collect


def config_text(mode, j, outdir) -> str:
    """A shipped sweep config (scripts/configs/) with the drawn current."""
    lines = [f"beta = {BETA}", f"j = {j!r}"]
    lines.append(f"x0 = {X0}" if mode == "asym" else f"ell = {ELL}")
    lines += [f"mode = {mode}",
              "eps_list = " + ", ".join(f"{e:g}" for e in DESK_EPS),
              f"spacing = {SPACING}", f"n0 = {N0}", f"outdir = {outdir}"]
    return "\n".join(lines) + "\n"


class Workload:
    """Base: ``setup`` runs once per set-up, ``pass_ops`` once per pass."""

    name = ""
    largest = ""        # the operation reported as largest_item_s

    def __init__(self, seed):
        self.j = draw_currents(seed)

    def setup(self, workdir) -> list:
        """Prepare shared inputs; returns set-up operations already run."""
        return []

    def pass_ops(self, workdir) -> list:
        raise NotImplementedError

    def warmup_ops(self, workdir) -> list:
        """The untimed first pass; by default a whole pass."""
        return self.pass_ops(workdir)


class Desk(Workload):
    """The CLI session at the shipped settings."""

    name = "desk"
    largest = "thermo"

    def pass_ops(self, d):
        j_asym = signed_current("asym", self.j["asym"])
        j_meta = signed_current("metastable", self.j["metastable"])
        out = {k: os.path.join(d, k)
               for k in ("thermo", "stefan", "stefan-metastable")}
        ops = [
            Op("thermo", "thermo",
               lambda: _cli(["thermo", "--out", out["thermo"]]),
               _collect_thermo(out["thermo"]), {"beta": BETA}),
            Op("stefan", "stefan",
               lambda: _cli(["stefan", "--j", j_asym, "--x0", X0,
                             "--ell", ELL, "--out", out["stefan"]]),
               _collect_stefan(out["stefan"]),
               {"beta": BETA, "j": j_asym, "branch": "stable"}),
            Op("stefan-metastable", "stefan",
               lambda: _cli(["stefan", "--metastable", "--j", j_meta,
                             "--ell", ELL, "--out", out["stefan-metastable"]]),
               _collect_stefan(out["stefan-metastable"]),
               {"beta": BETA, "j": j_meta, "branch": "metastable"}),
        ]
        for cfg_name, mode in SHIPPED_CONFIGS:
            path = os.path.join(d, f"{cfg_name}.txt")
            outdir = os.path.join(d, f"sweep-{cfg_name}")
            with open(path, "w") as fh:
                fh.write(config_text(mode, signed_current(mode, self.j[mode]),
                                     outdir))
            expect = {"mode": mode, "eps_list": DESK_EPS,
                      "x0": X0 if mode == "asym" else 0.0}
            ops.append(Op(f"validate-{cfg_name}", "validate",
                          lambda p=path: _cli(["validate", "--config", p]),
                          _collect_validate))
            ops.append(Op(f"sweep-{cfg_name}", "sweep",
                          lambda p=path: _cli(["sweep", "--config", p]),
                          _collect_sweep(outdir), expect))
        return ops


def ladder_points(mode, eps) -> int:
    """Grid points of the largest grid a ladder solve builds."""
    right = 1.0 + 2.0 * X0 if mode == "asym" else ELL
    return build_grid(eps, ELL, right, SPACING).n


class EpsLadder(Workload):
    """cli.run for each mode at each scale of the ladder."""

    name = "eps-ladder"
    largest = "asym@0.001"

    def pass_ops(self, d):
        ops = []
        for mode in MODES:
            j = signed_current(mode, self.j[mode])
            for eps in LADDER_EPS:
                cfg = RunConfig(beta=BETA, j=j, ell=ELL,
                                x0=X0 if mode == "asym" else 0.0,
                                mode=mode, eps_list=[eps], spacing=SPACING,
                                n0=N0, outdir=d).validate_fields()
                expect = {"mode": mode, "eps_list": (eps,), "x0": cfg.x0}
                ops.append(Op(f"{mode}@{eps:g}", "sweep",
                              lambda c=cfg: cli.run(c), _collect_report,
                              expect))
        return ops

    def warmup_ops(self, d):
        """Each mode at the coarsest scale: it runs every code path of the
        pass in a tenth of its time."""
        coarsest = f"@{LADDER_EPS[0]:g}"
        return [op for op in self.pass_ops(d) if op.name.endswith(coarsest)]


class SpectrumFine(Workload):
    """mesostefan spectrum on stable states stored during set-up."""

    name = "spectrum-fine"
    largest = "spectrum@0.00625/0.0125"

    def setup(self, d):
        j = signed_current("antisym", self.j["antisym"])
        self.states = []
        done = []
        for spacing, eps in SPECTRUM_GRIDS:
            out = os.path.join(d, f"state-{spacing:g}-{eps:g}")
            raw = _cli(["solve", "--eps", eps, "--j", j, "--ell", ELL,
                        "--spacing", spacing, "--n0", N0, "--out", out])
            op = Op(f"solve@{spacing:g}/{eps:g}", "solve", None,
                    _collect_solve(out), {"beta": BETA, "j": j})
            done.append((op, raw))
            self.states.append((spacing, eps,
                                 os.path.join(out, "state.csv")))
        return done

    def pass_ops(self, d):
        j = signed_current("antisym", self.j["antisym"])
        ops = []
        for spacing, eps, state in self.states:
            out = os.path.join(d, f"spectrum-{spacing:g}-{eps:g}")
            ops.append(Op(f"spectrum@{spacing:g}/{eps:g}", "spectrum",
                          lambda s=state, o=out: _cli(
                              ["spectrum", "--state", s, "--j", j,
                               "--out", o]),
                          _collect_spectrum(out), {"eps": eps}))
        return ops


WORKLOADS = {w.name: w for w in (Desk, EpsLadder, SpectrumFine)}
