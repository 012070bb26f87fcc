"""Output checks that hold for any seed in the band and any correct solver.

Each check returns a list of problems; an operation with any problem counts
as failed.  The oracles here are written from the formulas, not from the
package, so a defect in a package routine cannot hide itself.

Tolerances (measured at |j| in [0.015, 0.025], beta = 2):
- state residual sup|m - tanh(beta(J^neum*m + h))| <= 1e-10
  (inner tolerance 1e-12; measured <= 8.4e-13)
- fixed-point defect sup|h + eps j int_0^x 1/chi(m)| <= 1e-9
  (outer tolerance 1e-10; measured <= 5.1e-12)
- | |(1 - lambda)/eps| / C_instanton - 1 | <= 1e-2 (measured <= 5.0e-3)
- |eps_x_eps - x0| <= eps, one interface width (measured <= 7e-14)
- hydro_m, hydro_h <= eps, the O(eps) claim with constant 1
  (measured <= 0.38 eps)
- ell_j against (1/|j|) int_{m_beta}^{1} (1 - beta(1 - m^2)) dm, and the
  metastable breakdown against (1/j) int_{m_*}^{m_beta} of the same
  integrand: relative 1e-4 (the solver stops at m = 1 - 1e-6, which alone
  shortens ell_j by about 3e-5 relative)
- pressure(h) against h m - phi(m) at the branch inverse: absolute 1e-10

Default-seed outputs are also compared with values recorded in
reference.json: relative 1e-4 with an absolute floor of 1e-9.  That admits
a closed-form macroscopic layer (ell_j moves by ~4e-11, ell_break by ~2e-8)
and outer or inner solvers that stop anywhere inside their tolerances
((1 - lambda)/eps moves by ~1e-7/eps), while any change of method error
shows.  Iteration counts and the central-rise length I_eps (a count of grid
cells above a 1e-12 threshold) are not compared.
"""

from __future__ import annotations

import copy
import math

import numpy as np

STATE_RESIDUAL_TOL = 1e-10
DEFECT_TOL = 1e-9
GAP_RATIO_TOL = 1e-2
ELL_RTOL = 1e-4
PRESSURE_ATOL = 1e-10
REF_RTOL = 1e-4
REF_ATOL = 1e-9


# ---------------------------------------------------------------- oracles

def m_beta_of(beta) -> float:
    """Positive root of m = tanh(beta m) by bisection on (m_*, 1)."""
    lo, hi = math.sqrt(1.0 - 1.0 / beta), 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - math.tanh(beta * mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _potential(beta, m):
    up, dn = 0.5 * (1.0 + m), 0.5 * (1.0 - m)
    entropy = -(up * np.log(up) + dn * np.log(dn))
    return -0.5 * m * m - entropy / beta


def pressure_closed_form(beta, h):
    """h m - phi(m) with phi'(m) = |h| on the outer branch m >= m_beta."""
    a = np.abs(np.asarray(h, dtype=float))
    lo = np.full(a.shape, m_beta_of(beta))
    hi = np.full(a.shape, 1.0 - 1e-16)
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        below = -mid + np.arctanh(mid) / beta < a
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    m = 0.5 * (lo + hi)
    return a * m - _potential(beta, m)


def _cubic(beta, m):
    """Antiderivative of the diffusivity 1 - beta (1 - m^2)."""
    return (1.0 - beta) * m + beta * m ** 3 / 3.0


def ell_quadrature(beta, j, branch) -> float:
    mb = m_beta_of(beta)
    if branch == "stable":
        return (_cubic(beta, 1.0) - _cubic(beta, mb)) / abs(j)
    m_star = math.sqrt(1.0 - 1.0 / beta)
    return (_cubic(beta, mb) - _cubic(beta, m_star)) / abs(j)


def _cos2_weights(spacing):
    k = int(math.ceil(1.0 / spacing - 1e-9))
    off = spacing * np.arange(-k, k + 1)
    w = np.where(np.abs(off) < 1.0, np.cos(0.5 * np.pi * off) ** 2, 0.0)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w / w.sum(), k


def state_residual(beta, spacing, h, m) -> float:
    """sup|m - tanh(beta(J^neum*m + h))| with reflected images at both ends."""
    w, k = _cos2_weights(spacing)
    padded = np.concatenate([m[1:k + 1][::-1], m, m[-k - 1:-1][::-1]])
    conv = np.convolve(padded, w, mode="valid")
    return float(np.max(np.abs(m - np.tanh(beta * (conv + h)))))


def transport_defect(beta, spacing, eps, j, x, h, m) -> float:
    """sup|h + eps j int_0^x 1/chi(m)| (trapezoid, odd part)."""
    g = 1.0 / (beta * (1.0 - m * m))
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * spacing)])
    cum -= cum[int(np.argmin(np.abs(x)))]
    rebuilt = -eps * j * cum
    rebuilt = 0.5 * (rebuilt - rebuilt[::-1])
    return float(np.max(np.abs(h - rebuilt)))


# ---------------------------------------------------------------- checks

def _rc(out) -> list:
    return [] if out["rc"] == 0 else [f"exit code {out['rc']}"]


def check_thermo(out, expect) -> list:
    beta = expect["beta"]
    probs = _rc(out)
    if abs(out["m_beta"] - m_beta_of(beta)) > 1e-12:
        probs.append(f"m_beta {out['m_beta']!r} is not the root of "
                     "m = tanh(beta m)")
    if abs(out["m_star"] - math.sqrt(1.0 - 1.0 / beta)) > 1e-15:
        probs.append(f"m_star {out['m_star']!r} != sqrt(1 - 1/beta)")
    p = out["pressure"]
    if p.size != 401:
        probs.append(f"pressure table has {p.size} rows, not 401")
    else:
        err = float(np.max(np.abs(p - pressure_closed_form(beta, out["h"]))))
        if not err <= PRESSURE_ATOL:
            probs.append(f"pressure off h m - phi(m) by {err:.3e}")
    return probs


def check_stefan(out, expect) -> list:
    beta, j, branch = expect["beta"], expect["j"], expect["branch"]
    probs = _rc(out)
    if out["feasible"] is not True or out["branch"] != branch:
        return probs + [f"not a feasible {branch} solution"]
    ell = ell_quadrature(beta, j, branch)
    if not abs(out["ell_j"] - ell) <= ELL_RTOL * ell:
        probs.append(f"ell_j {out['ell_j']!r} vs quadrature {ell!r}")
    x, m = out["x"], out["m"]
    mb = m_beta_of(beta)
    if np.any(np.diff(x) < 0.0):
        probs.append("abscissae not sorted")
    if branch == "stable":
        step = np.diff(m) * (-np.sign(j))
        if np.any(step < 0.0):
            probs.append("stable profile is not monotone")
        if np.any(np.abs(m) < mb - 1e-12):
            probs.append("stable profile enters the plateau")
    else:
        m_star = math.sqrt(1.0 - 1.0 / beta)
        off = x != 0.0
        if np.any(np.sign(m[off]) != np.sign(x[off])):
            probs.append("metastable profile on the wrong side of the jump")
        if np.any((np.abs(m) <= m_star) | (np.abs(m) > mb + 1e-12)):
            probs.append("metastable profile leaves the metastable band")
    return probs


def check_validate(out, expect) -> list:
    probs = _rc(out)
    text = out["stdout"]
    if "configuration is feasible" not in text or "\n- " in "\n" + text:
        probs.append(f"validate reported findings: {text.strip()!r}")
    return probs


def check_row(row, mode, x0) -> list:
    eps = row["eps"]
    tag = f"{mode} eps={eps:g}"
    if row["iters"] <= 0:
        return [f"{tag}: iters {row['iters']}"]
    probs = []
    for key in ("hydro_m", "hydro_h"):
        if not row[key] <= eps:
            probs.append(f"{tag}: {key} {row[key]!r} exceeds eps")
    ratio, c = row["lam_gap_ratio"], row["C_instanton"]
    # stable branch: lambda = 1 - C eps; metastable: lambda = 1 + C eps
    sign = -1.0 if mode == "metastable" else 1.0
    if not (c > 0.0 and sign * ratio > 0.0
            and abs(abs(ratio) / c - 1.0) <= GAP_RATIO_TOL):
        probs.append(f"{tag}: (1 - lambda)/eps {ratio!r} vs C {c!r}")
    if mode == "asym" and not abs(row["eps_x_eps"] - x0) <= eps:
        probs.append(f"{tag}: eps x_eps {row['eps_x_eps']!r} far from x0")
    return probs


def check_sweep(out, expect) -> list:
    probs = _rc(out)
    rows = out["rows"]
    got = [r["eps"] for r in rows]
    if got != list(expect["eps_list"]):
        return probs + [f"rows for eps {got}, expected {expect['eps_list']}"]
    for row in rows:
        if row["mode"] != expect["mode"]:
            probs.append(f"row mode {row['mode']!r}")
        probs += check_row(row, expect["mode"], expect["x0"])
    return probs


def check_solve(out, expect) -> list:
    beta, j = expect["beta"], expect["j"]
    probs = _rc(out)
    x, h, m = out["x"], out["h"], out["m"]
    if not out["residual"] <= STATE_RESIDUAL_TOL:
        probs.append(f"reported residual {out['residual']!r}")
    if not out["fixed_point_defect"] <= DEFECT_TOL:
        probs.append(f"reported defect {out['fixed_point_defect']!r}")
    if np.max(np.abs(m)) >= 1.0:
        return probs + ["state saturates"]
    res = state_residual(beta, out["spacing"], h, m)
    if not res <= STATE_RESIDUAL_TOL:
        probs.append(f"state residual {res:.3e}")
    defect = transport_defect(beta, out["spacing"], out["epsilon"], j, x, h, m)
    if not defect <= DEFECT_TOL:
        probs.append(f"transport-law defect {defect:.3e}")
    if out["monotone"] is not True or np.any(np.diff(m) * -np.sign(j) <= 0.0):
        probs.append("stable state is not strictly monotone")
    return probs


def check_spectrum(out, expect) -> list:
    eps = expect["eps"]
    probs = _rc(out)
    lam, lam2, c = out["lambda"], out["lambda2"], out["C_instanton"]
    if not 0.0 < lam < 1.0 or not 0.0 <= lam2 < lam:
        probs.append(f"eigenvalues lambda {lam!r}, lambda2 {lam2!r}")
    ratio = (1.0 - lam) / eps
    if not abs(out["ratio"] - ratio) <= 1e-9 * abs(ratio):
        probs.append(f"reported (1 - lambda)/eps {out['ratio']!r} "
                     f"!= {ratio!r}")
    if not (c > 0.0 and abs(ratio / c - 1.0) <= GAP_RATIO_TOL):
        probs.append(f"(1 - lambda)/eps {ratio!r} vs C {c!r}")
    return probs


CHECKS = {"thermo": check_thermo, "stefan": check_stefan,
          "validate": check_validate, "sweep": check_sweep,
          "solve": check_solve, "spectrum": check_spectrum}


def check(kind, out, expect) -> list:
    return CHECKS[kind](out, expect)


# ------------------------------------------------------- recorded values

def scalars(kind, out) -> dict:
    """Outputs compared with the values recorded for the default seed."""
    if kind == "thermo":
        return {"m_beta": out["m_beta"]}
    if kind == "stefan":
        return {"ell_j": out["ell_j"]}
    if kind == "sweep":
        vals = {}
        for row in out["rows"]:
            for key in ("hydro_m", "hydro_h", "lam_gap_ratio", "C_instanton",
                        "eps_x_eps"):
                if math.isfinite(row[key]):
                    vals[f"eps={row['eps']:g}/{key}"] = row[key]
        return vals
    if kind == "spectrum":
        return {"ratio": out["ratio"], "lambda2": out["lambda2"],
                "C_instanton": out["C_instanton"]}
    return {}


def compare(recorded: dict, values: dict) -> list:
    probs = []
    for key, ref in recorded.items():
        val = values.get(key)
        if val is None or not abs(val - ref) <= REF_ATOL + REF_RTOL * abs(ref):
            probs.append(f"{key} = {val!r}, recorded {ref!r}")
    return probs


# ------------------------------------------------------------ self-check

def _flip_state_value(out):
    """Sign-flip one magnetization value three quarters along the profile."""
    bad = copy.deepcopy(out)
    k = 3 * bad["m"].size // 4
    bad["m"][k] = -bad["m"][k]
    return bad


def _edit(fn):
    def corrupt(out):
        bad = copy.deepcopy(out)
        fn(bad)
        return bad
    return corrupt


def _shift_pressure(out):
    out["pressure"][200] += 1e-6


def _negative_iters(out):
    out["rows"][-1]["iters"] = -4


def _flip_gap_ratio(out):
    out["rows"][-1]["lam_gap_ratio"] *= -1.0


def _move_interface(out):
    row = out["rows"][-1]
    row["eps_x_eps"] += 2.0 * row["eps"]


def _shift_lambda(out):
    out["lambda"] = 1.0 - 1.05 * (1.0 - out["lambda"])
    out["ratio"] *= 1.05


CORRUPTIONS = {
    "thermo": [("pressure value +1e-6", _edit(_shift_pressure))],
    "stefan": [("one profile value sign-flipped", _flip_state_value)],
    "validate": [("a finding reported",
                  _edit(lambda o: o.update(stdout="- infeasible\n")))],
    "sweep": [("iters negative", _edit(_negative_iters)),
              ("(1 - lambda)/eps sign-flipped", _edit(_flip_gap_ratio))],
    "solve": [("one state value sign-flipped", _flip_state_value)],
    "spectrum": [("1 - lambda scaled by 1.05", _edit(_shift_lambda))],
}


def self_check(outputs) -> list:
    """Corrupt real outputs and confirm the checks reject every corruption.

    ``outputs`` holds (op, output) pairs that passed their checks.  Returns
    the corruptions that went undetected.
    """
    missed = []
    for op, out in outputs:
        corruptions = list(CORRUPTIONS[op.kind])
        if op.kind == "sweep" and op.expect["mode"] == "asym":
            corruptions.append(("eps x_eps moved by 2 eps",
                                _edit(_move_interface)))
        for label, corrupt in corruptions:
            if not check(op.kind, corrupt(out), op.expect):
                missed.append(f"{op.name}: {label}")
    return missed
