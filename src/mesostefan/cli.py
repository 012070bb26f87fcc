"""Command-line harness: single runs, scale sweeps, validation, reports.

Exit codes: 0 success, 2 configuration error, 3 infeasible domain,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import antisym, asym, instanton as instanton_mod, meso, spectral, stefan
from .config import RunConfig, load_config
from .errors import (BranchRangeError, DomainError, GridError,
                     InfeasibleError, MesostefanError)
from .grids import Grid, Profile, build_grid, build_kernel
from .profiles import dump_json, fmt, load_state, save_profile, save_state
from .thermo import (convex_envelope, make_params, potential, pressure)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

SWEEP_HEADER = "eps,mode,hydro_m,hydro_h,lam_gap_ratio,I_eps,eps_x_eps,iters"


@dataclass
class SweepRow:
    eps: float
    mode: str
    hydro_m: float = float("nan")
    hydro_h: float = float("nan")
    lam_gap_ratio: float = float("nan")
    c_instanton: float = float("nan")
    i_eps: float = float("nan")
    eps_x_eps: float = float("nan")
    iters: int = 0
    error: str = ""             # exception class and message of a failed row
    wall_time: float = 0.0      # not serialized: timing is not reproducible

    def csv_line(self) -> str:
        return ",".join([
            fmt(self.eps), self.mode, fmt(self.hydro_m), fmt(self.hydro_h),
            fmt(self.lam_gap_ratio), fmt(self.i_eps), fmt(self.eps_x_eps),
            str(self.iters),
        ])


@dataclass
class SweepReport:
    rows: list = field(default_factory=list)

    def to_csv(self) -> str:
        return "\n".join([SWEEP_HEADER] + [r.csv_line() for r in self.rows]) + "\n"


def _outdir(path):
    os.makedirs(path, exist_ok=True)
    return path


def cmd_thermo(args) -> int:
    params = make_params(args.beta)
    out = _outdir(args.out)
    s = np.linspace(-0.999, 0.999, 1999)
    with open(os.path.join(out, "thermo.csv"), "w") as fh:
        fh.write("s,potential,envelope\n")
        pot = potential(params, s)
        env = convex_envelope(params, s)
        for sv, pv, ev in zip(s, pot, env):
            fh.write(f"{fmt(sv)},{fmt(pv)},{fmt(ev)}\n")
    hs = np.linspace(-1.0, 1.0, 401)
    with open(os.path.join(out, "pressure.csv"), "w") as fh:
        fh.write("h,pressure\n")
        for hv in hs:
            fh.write(f"{fmt(hv)},{fmt(pressure(params, hv))}\n")
    dump_json(os.path.join(out, "thermo.json"),
              {"beta": params.beta, "m_beta": params.m_beta,
               "m_star": params.m_star})
    print(f"m_beta = {fmt(params.m_beta)}  m_star = {fmt(params.m_star)}")
    return EXIT_OK


def cmd_instanton(args) -> int:
    params = make_params(args.beta)
    kernel = build_kernel(args.spacing, args.kernel)
    inst = instanton_mod.compute_instanton(params, kernel,
                                           half_width=args.halfwidth)
    out = _outdir(args.out)
    grid = _line_grid(inst.x, args.spacing)
    save_profile(os.path.join(out, "instanton.csv"),
                 Profile(grid, inst.profile))
    save_profile(os.path.join(out, "instanton_derivative.csv"),
                 Profile(grid, inst.derivative))
    dump_json(os.path.join(out, "instanton.json"), {
        "m_beta": inst.m_beta,
        "decay_rate": inst.decay_rate,
        "mean": inst.mean,
        "norm_sq": inst.norm_sq,
        "residual": inst.residual,
    })
    print(f"decay_rate = {fmt(inst.decay_rate)}  residual = {fmt(inst.residual)}")
    return EXIT_OK


def _line_grid(x: np.ndarray, spacing) -> Grid:
    pts = np.asarray(x, dtype=float)
    pts.setflags(write=False)
    return Grid(0.5, -pts[0] * 0.5, pts[-1] * 0.5, float(spacing), pts)


def cmd_stefan(args) -> int:
    params = make_params(args.beta)
    out = _outdir(args.out)
    try:
        if args.metastable:
            sol = stefan.solve_metastable(params, args.j, args.ell)
        else:
            sol = stefan.solve_fixed_interface(params, args.j, args.x0, args.ell)
    except (InfeasibleError, BranchRangeError) as exc:
        limit = getattr(exc, "ell_j", None) or getattr(exc, "breakdown", None)
        dump_json(os.path.join(out, "stefan.json"),
                  {"feasible": False, "ell_j": limit})
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    with open(os.path.join(out, "stefan.csv"), "w") as fh:
        fh.write(sol.to_csv())
    dump_json(os.path.join(out, "stefan.json"),
              {"feasible": True, "ell_j": sol.ell_j, "j": sol.j,
               "x0": sol.x0, "branch": sol.branch})
    print(f"ell_j = {fmt(sol.ell_j)}")
    return EXIT_OK


def _macro(params, cfg: RunConfig):
    """The macroscopic solution a mode starts from and is compared with."""
    if cfg.mode == "metastable":
        return stefan._metastable_maximal(params, cfg.j)
    if cfg.mode in ("antisym", "asym"):
        return stefan.solve_maximal(params, cfg.j)
    raise DomainError(f"unknown mode {cfg.mode!r}")


def _shared_inputs(cfg: RunConfig) -> dict:
    """The instanton and macroscopic solution, which every scale shares.

    A failure leaves the value out: each scale's own solve then raises it
    again and records it in its row.
    """
    shared = {}
    try:
        params = make_params(cfg.beta)
        kernel = build_kernel(cfg.spacing, cfg.kernel)
        shared["instanton"] = instanton_mod.compute_instanton(
            params, kernel, half_width=cfg.instanton_halfwidth)
        shared["macro"] = _macro(params, cfg)
    except MesostefanError:
        pass
    return shared


def _solve_one(cfg: RunConfig, eps, shared=None):
    """One full mesoscopic solve at a single scale; returns (row, artifacts).

    ``shared`` may carry the "instanton" and "macro" of the config (see
    :func:`_shared_inputs`); missing ones are computed here.
    """
    shared = shared or {}
    params = make_params(cfg.beta)
    kernel = build_kernel(cfg.spacing, cfg.kernel)
    inst = shared.get("instanton") or instanton_mod.compute_instanton(
        params, kernel, half_width=cfg.instanton_halfwidth)
    macro = shared.get("macro") or _macro(params, cfg)
    t0 = time.perf_counter()
    row = SweepRow(eps=eps, mode=cfg.mode)
    row.c_instanton = abs(cfg.j) * inst.mean / inst.norm_sq
    if cfg.mode == "antisym":
        res = antisym.solve_stable(params, kernel, eps, cfg.j, cfg.ell,
                                   tol=cfg.outer_tol, inner_tol=cfg.inner_tol,
                                   n0=cfg.n0, instanton=inst, macro=macro)
        row.hydro_m, row.hydro_h = antisym.hydrodynamic_error(
            res.state, macro.m_of_x, macro.h_of_x, eps, 0.0,
            eps * res.seed.xi_eps)
        sp = spectral.leading_eigenpair(res.state, tol=cfg.spectral_tol)
        row.lam_gap_ratio = (1.0 - sp.lambda_) / eps
        row.iters = len(res.trace.increments)
        artifacts = {"result": res, "spectral": sp}
    elif cfg.mode == "metastable":
        res = antisym.solve_metastable(params, kernel, eps, cfg.j, cfg.ell,
                                       tol=cfg.outer_tol,
                                       inner_tol=cfg.inner_tol,
                                       n0=cfg.n0, instanton=inst, macro=macro)
        row.hydro_m, row.hydro_h = antisym.hydrodynamic_error(
            res.state, macro.m_of_x, macro.h_of_x, eps, 0.0,
            eps * res.seed.xi_eps)
        sp = spectral.leading_eigenpair(res.state, tol=cfg.spectral_tol)
        row.lam_gap_ratio = (1.0 - sp.lambda_) / eps
        row.i_eps = res.increase_interval
        row.iters = len(res.trace.increments)
        artifacts = {"result": res, "spectral": sp}
    else:
        res = asym.solve_off_center(params, kernel, eps, cfg.j, cfg.x0,
                                    tol=cfg.outer_tol,
                                    inner_tol=cfg.inner_tol, n0=cfg.n0,
                                    instanton=inst, macro=macro)
        m_of = lambda xi: macro.m_of_x(np.asarray(xi) - cfg.x0)
        h_of = lambda xi: macro.h_of_x(np.asarray(xi) - cfg.x0)
        row.hydro_m, row.hydro_h = antisym.hydrodynamic_error(
            res.state, m_of, h_of, eps, cfg.x0,
            eps * res.problem.extended.seed.xi_eps)
        sp = spectral.leading_eigenpair(res.state, tol=cfg.spectral_tol)
        row.lam_gap_ratio = (1.0 - sp.lambda_) / eps
        row.eps_x_eps = res.eps_field_zero
        row.iters = res.iterations
        artifacts = {"result": res, "spectral": sp}
    row.wall_time = time.perf_counter() - t0
    return row, artifacts


def cmd_solve(args) -> int:
    cfg = _config_from_args(args, mode=args.mode)
    out = _outdir(args.out)
    row, artifacts = _solve_one(cfg, args.eps)
    res = artifacts["result"]
    st = res.state
    save_state(os.path.join(out, "state.csv"), st.grid, st.h, st.m)
    with open(os.path.join(out, "trace.csv"), "w") as fh:
        fh.write(res.trace.to_csv())
    dump_json(os.path.join(out, "solve.json"), {
        "mode": cfg.mode, "beta": cfg.beta, "eps": args.eps, "j": cfg.j,
        "ell": cfg.ell, "spacing": cfg.spacing, "n0": cfg.n0,
        "monotone": res.monotone,
        "I_eps": res.increase_interval,
        "hydro_error_m": row.hydro_m, "hydro_error_h": row.hydro_h,
        "one_minus_lambda_over_eps": row.lam_gap_ratio,
        "iterations": row.iters,
        "residual": st.residual_norm,
        "fixed_point_defect": antisym.fixed_point_defect(res),
    })
    print(f"iterations = {row.iters}  residual = {fmt(st.residual_norm)}")
    return EXIT_OK


def cmd_solve_asym(args) -> int:
    cfg = _config_from_args(args, mode="asym")
    out = _outdir(args.out)
    row, artifacts = _solve_one(cfg, args.eps)
    res = artifacts["result"]
    st = res.state
    prob = res.problem
    save_state(os.path.join(out, "state.csv"), st.grid, st.h, st.m)
    save_profile(os.path.join(out, "u_star.csv"),
                 Profile(prob.ext_grid, prob.u_star.u))
    save_profile(os.path.join(out, "r_eps.csv"),
                 Profile(prob.res_grid, prob.r_eps))
    dump_json(os.path.join(out, "solve_asym.json"), {
        "beta": cfg.beta, "eps": args.eps, "j": cfg.j, "x0": cfg.x0,
        "x_eps": res.field_zero, "eps_x_eps": res.eps_field_zero,
        "m_zero": res.m_zero,
        "hydro_error_m": row.hydro_m, "hydro_error_h": row.hydro_h,
        "iterations": res.iterations,
        "seed_residual": prob.seed_residual,
        "lambda_star": prob.u_star.lambda_,
        "G_report": asym.admissibility_report(prob, st.h),
    })
    print(f"eps * x_eps = {fmt(res.eps_field_zero)}  (target x0 = {cfg.x0})")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    grid, h, m = load_state(args.state)
    if args.eps is not None and abs(grid.epsilon - args.eps) > 1e-12:
        grid = build_grid(args.eps, -grid.a * args.eps, grid.b * args.eps,
                          grid.spacing)
    params = make_params(args.beta)
    kernel = build_kernel(grid.spacing, args.kernel)
    state = meso.make_state(params, kernel, grid, h, m)
    sp = spectral.leading_eigenpair(state)
    lam2 = spectral.second_eigenvalue(state, sp)
    inst = instanton_mod.compute_instanton(params, kernel)
    c_inst = abs(args.j) * inst.mean / inst.norm_sq if args.j else float("nan")
    payload = {
        "lambda": sp.lambda_,
        "lambda2": lam2,
        "gap": sp.lambda_ - lam2,
        "C_check": {
            "one_minus_lambda_over_eps": (1.0 - sp.lambda_) / grid.epsilon,
            "C_instanton": c_inst,
        },
    }
    dump_json(os.path.join(_outdir(args.out), "spectrum.json"), payload)
    print(f"lambda = {fmt(sp.lambda_)}  lambda2 = {fmt(lam2)}")
    return EXIT_OK


def _sweep_job(cfg_dict, eps, shared=None):
    cfg = RunConfig(**cfg_dict)
    try:
        row, _ = _solve_one(cfg, eps, shared)
        return row
    except (InfeasibleError, BranchRangeError) as exc:
        code, err = EXIT_INFEASIBLE, exc
    except (DomainError, GridError) as exc:
        code, err = EXIT_CONFIG, exc
    except MesostefanError as exc:
        code, err = EXIT_NUMERICAL, exc
    return SweepRow(eps=eps, mode=cfg.mode, iters=-code,
                    error=f"{type(err).__name__}: {err}")


def run(cfg: RunConfig) -> SweepReport:
    """Execute the configured pipeline at every scale in eps_list.

    The instanton and the macroscopic solution are computed once and handed
    to every scale.  Failures become rows with a negative error code in the
    iteration column and the exception in ``error``; the aggregate is
    written once by the coordinator.
    """
    report = SweepReport()
    cfg_dict = cfg.__dict__.copy()
    shared = _shared_inputs(cfg)
    if cfg.workers > 1 and len(cfg.eps_list) > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(_sweep_job, cfg_dict, eps, shared)
                       for eps in cfg.eps_list]
            report.rows = [f.result() for f in futures]
    else:
        report.rows = [_sweep_job(cfg_dict, eps, shared)
                       for eps in cfg.eps_list]
    return report


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    out = _outdir(cfg.outdir)
    report = run(cfg)
    for row in report.rows:
        run_dir = _outdir(os.path.join(out, f"eps_{row.eps:g}"))
        record = {
            "eps": row.eps, "mode": row.mode, "hydro_m": row.hydro_m,
            "hydro_h": row.hydro_h, "lam_gap_ratio": row.lam_gap_ratio,
            "C_instanton": row.c_instanton,
            "I_eps": row.i_eps, "eps_x_eps": row.eps_x_eps,
            "iters": row.iters,
        }
        if row.error:
            record["error"] = row.error
        dump_json(os.path.join(run_dir, "row.json"), record)
    with open(os.path.join(out, "sweep.csv"), "w") as fh:
        fh.write(report.to_csv())
    print(report.to_csv(), end="")
    failed = [r for r in report.rows if r.iters < 0]
    if failed:
        return max(-r.iters for r in failed)
    return EXIT_OK


def validate(cfg: RunConfig) -> list:
    """Feasibility findings for a configuration (reports, never raises)."""
    findings = []
    if cfg.beta <= 1.0:
        findings.append("config error: beta must exceed 1")
        return findings
    params = make_params(cfg.beta)
    if cfg.j == 0.0:
        findings.append(
            "j = 0 is the zero-current critical-point case: solve the "
            "auxiliary fixed point with h = 0 instead of the outer iteration")
        return findings
    if cfg.mode == "metastable":
        if cfg.j < 0:
            findings.append("config error: metastable mode needs j > 0")
            return findings
        mx = stefan._metastable_maximal(params, cfg.j)
        if cfg.ell >= mx.ell_break:
            findings.append(
                f"infeasible: ell = {cfg.ell} reaches the metastable "
                f"breakdown length {mx.ell_break:.6g}")
    else:
        mx = stefan.solve_maximal(params, cfg.j)
        need = cfg.ell if cfg.mode == "antisym" else 1.0 + abs(cfg.x0)
        if need >= mx.ell_j:
            findings.append(
                f"infeasible: required half-length {need} exceeds the "
                f"maximal ell_j = {mx.ell_j:.6g}")
    kernel = build_kernel(cfg.spacing, cfg.kernel)
    inst = instanton_mod.compute_instanton(params, kernel,
                                           half_width=cfg.instanton_halfwidth)
    for eps in cfg.eps_list:
        half = (cfg.ell if cfg.mode != "asym" else 1.0 + abs(cfg.x0)) / eps
        xi = instanton_mod.threshold_abscissa(inst, eps) + 2.0 * cfg.n0
        if xi >= 0.5 * half:
            findings.append(
                f"eps = {eps}: gluing point {xi:.2f} collides with the "
                f"boundary (half-domain {half:.2f}); shrink eps or n0")
        try:
            if cfg.mode == "asym":
                asym.problem_grids(eps, cfg.x0, cfg.spacing)
            else:
                build_grid(eps, cfg.ell, cfg.ell, cfg.spacing)
        except GridError as exc:
            findings.append(f"eps = {eps}: {exc}")
    return findings


def cmd_validate(args) -> int:
    try:
        cfg = load_config(args.config)
    except (DomainError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    findings = validate(cfg)
    if not findings:
        print("configuration is feasible")
    for f in findings:
        print(f"- {f}")
    return EXIT_OK


def _config_from_args(args, mode) -> RunConfig:
    cfg = RunConfig(beta=args.beta, j=args.j, ell=getattr(args, "ell", 1.0),
                    x0=getattr(args, "x0", 0.0), spacing=args.spacing,
                    n0=args.n0, mode=mode, kernel=args.kernel,
                    eps_list=[args.eps])
    return cfg.validate_fields()


def _add_common(p):
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--spacing", type=float, default=0.05)
    p.add_argument("--kernel", default="cos2", choices=("cos2", "quartic"))
    p.add_argument("--out", default="out")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mesostefan",
        description="Stationary nonlocal mean-field profiles with current, "
                    "their free-boundary limits, and spectral diagnostics.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thermo", help="equilibrium constants and tables")
    _add_common(p)
    p.set_defaults(func=cmd_thermo)

    p = sub.add_parser("instanton", help="standing interface profile")
    _add_common(p)
    p.add_argument("--halfwidth", type=float, default=20.0)
    p.set_defaults(func=cmd_instanton)

    p = sub.add_parser("stefan", help="macroscopic free-boundary solution")
    _add_common(p)
    p.add_argument("--j", type=float, required=True)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--metastable", action="store_true")
    p.set_defaults(func=cmd_stefan)

    p = sub.add_parser("solve", help="mesoscopic profile at one scale")
    _add_common(p)
    p.add_argument("--mode", choices=("antisym", "metastable"),
                   default="antisym")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--j", type=float, required=True)
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--n0", type=int, default=10)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("solve-asym", help="off-center interface solve")
    _add_common(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--j", type=float, required=True)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--n0", type=int, default=2)
    p.set_defaults(func=cmd_solve_asym)

    p = sub.add_parser("spectrum", help="spectral report for a stored state")
    _add_common(p)
    p.add_argument("--state", required=True)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--j", type=float, default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sweep", help="scale sweep from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="feasibility report for a config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_validate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InfeasibleError, BranchRangeError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (DomainError, GridError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MesostefanError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
