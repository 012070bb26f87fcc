"""Command-line harness: single runs, scale sweeps, validation, reports.

Exit codes: 0 success, 2 configuration error, 3 infeasible domain,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import antisym, asym, instanton as instanton_mod, meso, spectral, stefan
from .config import RunConfig, load_config
from .errors import (BranchRangeError, DomainError, GridError,
                     InfeasibleError, MesostefanError)
from .grids import build_grid, build_kernel
from .profiles import (dump_json, fmt, grid_from_points, load_state,
                       save_profile, save_state)
from .thermo import (convex_envelope, make_params, potential, pressure)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4
_EXIT_PREFIX = {EXIT_CONFIG: "config error", EXIT_INFEASIBLE: "infeasible",
                EXIT_NUMERICAL: "numerical failure"}

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
    picard_steps: int = 0       # over every auxiliary solve of the row
    projected_solves: int = 0   # auxiliary solves finished by projection
    error: str = ""             # exception class and message of a failed row

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
        for hv, pv in zip(hs, pressure(params, hs)):
            fh.write(f"{fmt(hv)},{fmt(pv)}\n")
    dump_json(os.path.join(out, "thermo.json"),
              {"beta": params.beta, "m_beta": params.m_beta,
               "m_star": params.m_star})
    print(f"m_beta = {fmt(params.m_beta)}  m_star = {fmt(params.m_star)}")
    return EXIT_OK


def cmd_instanton(args) -> int:
    params = make_params(args.beta)
    kernel = build_kernel(args.spacing, args.kernel)
    inst = instanton_mod.compute_instanton(params, kernel)
    out = _outdir(args.out)
    grid = grid_from_points(inst.x, args.spacing)
    save_profile(os.path.join(out, "instanton.csv"), grid, inst.profile)
    save_profile(os.path.join(out, "instanton_derivative.csv"), grid,
                 inst.derivative)
    dump_json(os.path.join(out, "instanton.json"), {
        "m_beta": inst.m_beta,
        "decay_rate": inst.decay_rate,
        "mean": inst.mean,
        "norm_sq": inst.norm_sq,
        "residual": inst.residual,
    })
    print(f"decay_rate = {fmt(inst.decay_rate)}  residual = {fmt(inst.residual)}")
    return EXIT_OK


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


#: errors a sweep row records instead of raising: the package's own, with
#: their exit codes, and numpy's numerical errors, with code 4
_ROW_ERRORS = (MesostefanError, FloatingPointError, np.linalg.LinAlgError,
               ValueError)


def _failure(exc: Exception, where="") -> tuple[int, str]:
    """Exit code of an error and its message with the code's prefix:
    ``main`` exits with the code, a sweep row stores its negative, and
    ``validate`` reports the message.  Anything but a configuration or
    feasibility error is a numerical failure."""
    if isinstance(exc, (InfeasibleError, BranchRangeError)):
        code = EXIT_INFEASIBLE
    elif isinstance(exc, (DomainError, GridError)):
        code = EXIT_CONFIG
    else:
        code = EXIT_NUMERICAL
    return code, f"{_EXIT_PREFIX[code]}: {where}{exc}"


def _mode(cfg: RunConfig):
    """The mode's maximal macroscopic solution, precondition check, solver,
    and the solver's fifth argument (ell, or x0 off center), looked up when
    called."""
    if cfg.mode == "antisym":
        return (stefan.solve_maximal, antisym.check_stable,
                antisym.solve_stable, cfg.ell)
    if cfg.mode == "metastable":
        return (stefan._metastable_maximal, antisym.check_metastable,
                antisym.solve_metastable, cfg.ell)
    if cfg.mode == "asym":
        return (stefan.solve_maximal, asym.check_off_center,
                asym.solve_off_center, cfg.x0)
    raise DomainError(f"unknown mode {cfg.mode!r}")


def _shared_inputs(cfg: RunConfig) -> tuple:
    """(params, kernel, macro, instanton), which every scale of a config
    shares; raises what computing them raises."""
    params = make_params(cfg.beta)
    kernel = build_kernel(cfg.spacing, cfg.kernel)
    macro = _mode(cfg)[0](params, cfg.j)
    inst = instanton_mod.compute_instanton(params, kernel)
    return params, kernel, macro, inst


def _solve_one(cfg: RunConfig, eps, shared: tuple):
    """One mesoscopic solve at a single scale; returns (row, result).

    Every mode runs the same pipeline on the shared inputs: the mode's
    solver, the hydrodynamic error against the Stefan limit shifted to the
    interface (x0 off center, 0 for antisym and metastable), and the
    leading eigenpair.  Only the solver, the shift and the extra column
    (I_eps for metastable, eps_x_eps off center) depend on the mode.
    """
    _, _, solve, arg = _mode(cfg)
    params, kernel, macro, inst = shared
    res = solve(params, kernel, eps, cfg.j, arg, n0=cfg.n0, instanton=inst,
                macro=macro)
    x0 = cfg.x0 if cfg.mode == "asym" else 0.0
    row = SweepRow(eps=eps, mode=cfg.mode, iters=len(res.trace.increments))
    # off center, the extended antisymmetric solve ran auxiliary solves too
    traces = [res.trace] if cfg.mode != "asym" \
        else [res.problem.extended_trace, res.trace]
    row.picard_steps = sum(sum(t.picard_steps) for t in traces)
    row.projected_solves = sum(t.projected_solves for t in traces)
    row.c_instanton = abs(cfg.j) * inst.mean / inst.norm_sq
    row.hydro_m, row.hydro_h = antisym.hydrodynamic_error(
        res.state, lambda xi: macro.m_of_x(np.asarray(xi) - x0),
        lambda xi: macro.h_of_x(np.asarray(xi) - x0), eps, x0,
        eps * res.xi_eps)
    sp = spectral.leading_eigenpair(res.state)
    row.lam_gap_ratio = (1.0 - sp.lambda_) / eps
    if cfg.mode == "metastable":
        row.i_eps = res.increase_interval
    elif cfg.mode == "asym":
        row.eps_x_eps = res.eps_field_zero
    return row, res


def _save_run(out, res):
    """The state and the outer-loop trace of a solve."""
    st = res.state
    save_state(os.path.join(out, "state.csv"), st.grid, st.h, st.m)
    with open(os.path.join(out, "trace.csv"), "w") as fh:
        fh.write(res.trace.to_csv())


def cmd_solve(args) -> int:
    cfg = _config_from_args(args, mode=args.mode)
    out = _outdir(args.out)
    row, res = _solve_one(cfg, args.eps, _shared_inputs(cfg))
    st = res.state
    _save_run(out, res)
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
    row, res = _solve_one(cfg, args.eps, _shared_inputs(cfg))
    prob = res.problem
    _save_run(out, res)
    save_profile(os.path.join(out, "u_star.csv"), prob.ext_grid,
                 prob.u_star.u)
    save_profile(os.path.join(out, "r_eps.csv"), prob.res_grid, prob.r_eps)
    dump_json(os.path.join(out, "solve_asym.json"), {
        "beta": cfg.beta, "eps": args.eps, "j": cfg.j, "x0": cfg.x0,
        "x_eps": res.field_zero, "eps_x_eps": res.eps_field_zero,
        "m_zero": res.m_zero,
        "hydro_error_m": row.hydro_m, "hydro_error_h": row.hydro_h,
        "iterations": row.iters,
        "seed_residual": res.trace.residuals[0],
        "lambda_star": prob.u_star.lambda_,
        "G_report": asym.admissibility_report(prob, res.state.h),
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
    c_inst = abs(args.j) * inst.mean / inst.norm_sq if args.j else None
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


def _error_row(cfg: RunConfig, eps, exc: Exception) -> SweepRow:
    code, _ = _failure(exc)
    return SweepRow(eps=eps, mode=cfg.mode, iters=-code,
                    error=f"{type(exc).__name__}: {exc}")


def run(cfg: RunConfig) -> SweepReport:
    """Execute the configured pipeline at every scale in eps_list.

    The config's fields are checked and the shared inputs computed once and
    handed to every scale; if either fails, every scale gets the same error
    row.  An error in :data:`_ROW_ERRORS` becomes a row with a negative
    error code in the iteration column and the exception in ``error``, so
    one failing scale never stops the others.
    """
    report = SweepReport()
    try:
        shared = _shared_inputs(cfg.validate_fields())
    except _ROW_ERRORS as exc:
        report.rows = [_error_row(cfg, eps, exc) for eps in cfg.eps_list]
        return report
    for eps in cfg.eps_list:
        try:
            row, _ = _solve_one(cfg, eps, shared)
        except _ROW_ERRORS as exc:
            row = _error_row(cfg, eps, exc)
        report.rows.append(row)
    return report


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    out = _outdir(cfg.outdir)
    report = run(cfg)
    for row in report.rows:
        run_dir = _outdir(os.path.join(out, f"eps_{row.eps:g}"))
        # a value that does not apply is nan in sweep.csv and null here
        record = {k: None if v != v else v for k, v in {
            "eps": row.eps, "mode": row.mode, "hydro_m": row.hydro_m,
            "hydro_h": row.hydro_h, "lam_gap_ratio": row.lam_gap_ratio,
            "C_instanton": row.c_instanton, "I_eps": row.i_eps,
            "eps_x_eps": row.eps_x_eps, "iters": row.iters}.items()}
        if row.error:
            record["error"] = row.error
        else:
            record.update(picard_steps=row.picard_steps,
                          projected_solves=row.projected_solves)
        dump_json(os.path.join(run_dir, "row.json"), record)
    with open(os.path.join(out, "sweep.csv"), "w") as fh:
        fh.write(report.to_csv())
    print(report.to_csv(), end="")
    failed = [r for r in report.rows if r.iters < 0]
    if failed:
        return max(-r.iters for r in failed)
    return EXIT_OK


def validate(cfg: RunConfig) -> list:
    """Findings that fail a sweep row before its solve iterates, as
    (exit code, message) pairs.

    Checks the config's fields (``RunConfig.validate_fields``), computes
    the shared inputs, then runs the mode's precondition check at each eps:
    ``antisym.check_stable``, ``antisym.check_metastable`` or
    ``asym.check_off_center``, which the solvers call first.  The code is
    the one the row would carry, and the message starts with the prefix
    ``main`` prints for it ("config error", "infeasible", "numerical
    failure").  The errors a sweep row records are reported, never raised;
    a solve can still fail while iterating (exit code 4).
    """
    try:
        _, kernel, macro, inst = _shared_inputs(cfg.validate_fields())
    except _ROW_ERRORS as exc:
        return [_failure(exc)]
    _, check, _, arg = _mode(cfg)
    findings = []
    for eps in cfg.eps_list:
        try:
            check(kernel, eps, cfg.j, arg, cfg.n0, inst, macro)
        except _ROW_ERRORS as exc:
            findings.append(_failure(exc, f"eps = {eps}: "))
    return findings


def cmd_validate(args) -> int:
    findings = validate(load_config(args.config))
    if not findings:
        print("configuration is feasible")
    for _, message in findings:
        print(f"- {message}")
    return max((code for code, _ in findings), default=EXIT_OK)


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
    p.add_argument("--n0", type=int, default=antisym.DEFAULT_N0)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("solve-asym", help="off-center interface solve")
    _add_common(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--j", type=float, required=True)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--n0", type=int, default=antisym.DEFAULT_N0)
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
    except MesostefanError as exc:
        code, message = _failure(exc)
        print(message, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
