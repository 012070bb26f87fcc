"""Command-line harness: single runs, scale sweeps, validation, reports.

Exit codes: 0 success, 2 configuration error, 3 infeasible domain,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import antisym, asym, instanton as instanton_mod, meso, spectral, stefan
from .config import (RunConfig, check_half_length, check_placement,
                     load_config)
from .errors import DomainError, GridError, InfeasibleError, MesostefanError
from .grids import build_kernel
from .profiles import (dump_json, fmt, grid_from_points, load_state,
                       save_profile, save_state, save_table)
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
    picard_steps: int = 0       # fixed-point updates of m in the row
    picard_extrapolations: int = 0  # of the updates, those that extrapolated
    lambda_steps: int = 0       # Lanczos steps of the leading eigenvalue
    lambda_points: int = 0      # points of the window it ran on
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
    save_table(os.path.join(out, "thermo.csv"), "s,potential,envelope", s,
               potential(params, s), convex_envelope(params, s))
    hs = np.linspace(-1.0, 1.0, 401)
    save_table(os.path.join(out, "pressure.csv"), "h,pressure", hs,
               pressure(params, hs))
    dump_json(os.path.join(out, "thermo.json"),
              {"beta": params.beta, "m_beta": params.m_beta,
               "m_star": params.m_star})
    print(f"m_beta = {fmt(params.m_beta)}  m_star = {fmt(params.m_star)}")
    return EXIT_OK


def cmd_instanton(args) -> int:
    _, kern, inst = _fixed_inputs(args.beta, args.spacing, args.kernel)
    out = _outdir(args.out)
    grid = grid_from_points(inst.x, inst.spacing)
    save_profile(os.path.join(out, "instanton.csv"), grid, inst.profile)
    save_profile(os.path.join(out, "instanton_derivative.csv"), grid,
                 inst.derivative)
    dump_json(os.path.join(out, "instanton.json"), {
        "m_beta": inst.m_beta,
        "decay_rate": inst.decay_rate,
        "mean": inst.mean,
        "norm_sq": inst.norm_sq,
        "residual": inst.residual,
        "iterations": inst.iterations,
        "extrapolations": inst.extrapolations,
        "unit_eigenvalue_defect": instanton_mod.unit_eigenvalue_defect(inst,
                                                                       kern),
    })
    print(f"decay_rate = {fmt(inst.decay_rate)}  residual = {fmt(inst.residual)}")
    return EXIT_OK


def cmd_stefan(args) -> int:
    ell, x0 = args.ell, args.x0
    if args.metastable:
        check_placement("metastable", x0, ell)
    params = make_params(args.beta)
    check_half_length(ell)
    if not -ell < x0 < ell:
        raise DomainError("interface must be interior to the domain")
    macro = (stefan._metastable_maximal if args.metastable
             else stefan.solve_maximal)(params, args.j)
    out = _outdir(args.out)
    try:
        end = macro.reach(ell + abs(x0))
    except InfeasibleError as exc:
        dump_json(os.path.join(out, "stefan.json"),
                  {"feasible": False, "ell_j": exc.ell_j})
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    save_table(os.path.join(out, "stefan.csv"), "x,h,m",
               *stefan._sample_with_jump(macro, x0, ell))
    dump_json(os.path.join(out, "stefan.json"),
              {"feasible": True, "ell_j": end, "j": macro.j, "x0": x0,
               "branch": macro.branch})
    print(f"ell_j = {fmt(end)}")
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
    if isinstance(exc, InfeasibleError):
        code = EXIT_INFEASIBLE
    elif isinstance(exc, (DomainError, GridError)):
        code = EXIT_CONFIG
    else:
        code = EXIT_NUMERICAL
    return code, f"{_EXIT_PREFIX[code]}: {where}{exc}"


def _mode(cfg: RunConfig):
    """The mode's maximal macroscopic solution, precondition check, solver,
    and the fifth argument of both (ell, or x0 off center), looked up when
    called.  ``RunConfig.validate_fields`` has refused any other mode."""
    if cfg.mode in ("antisym", "metastable"):
        maximal = stefan.solve_maximal if cfg.mode == "antisym" \
            else stefan._metastable_maximal
        return maximal, antisym.check_centred, antisym.solve_centred, cfg.ell
    return (stefan.solve_maximal, asym.check_off_center,
            asym.solve_off_center, cfg.x0)


@functools.lru_cache(maxsize=4)
def _params_kernel(beta, spacing, kernel) -> tuple:
    """(params, kernel) of the key; computed once per process."""
    return make_params(beta), build_kernel(spacing, kernel)


@functools.lru_cache(maxsize=4)
def _fixed_inputs(beta, spacing, kernel) -> tuple:
    """(params, kernel, instanton) of the key, which every command at that
    key shares; computed once per process.  Each value is immutable (frozen
    dataclasses holding read-only arrays), and an error is not cached."""
    params, kern = _params_kernel(beta, spacing, kernel)
    return params, kern, instanton_mod.compute_instanton(params, kern)


def _shared_inputs(cfg: RunConfig) -> tuple:
    """(macro, kernel, instanton), the first three arguments of the mode's
    check and solver, which every scale of a config shares; raises what
    computing them raises, the first failing one of params, kernel, macro
    and instanton in that order."""
    params, kernel = _params_kernel(cfg.beta, cfg.spacing, cfg.kernel)
    macro = _mode(cfg)[0](params, cfg.j)
    _, _, inst = _fixed_inputs(cfg.beta, cfg.spacing, cfg.kernel)
    return macro, kernel, inst


def _solve_one(cfg: RunConfig, eps, shared: tuple):
    """One mesoscopic solve at a single scale; returns (row, result).

    Every mode runs one pipeline on the shared inputs: the mode's solver,
    the hydrodynamic error against the Stefan limit shifted to the
    interface x0, and the leading eigenvalue, the top Ritz value of a
    Lanczos recurrence (:func:`spectral.leading_eigenvalue`); the extra
    column is I_eps for metastable, eps_x_eps off center.  A centred result
    is odd about x = 0, and so are the closed forms, so both checks run on
    the half line it holds (:meth:`meso.MesoState.even_half`), lambda from
    the interface slope (:func:`spectral.slope_start`); off center on the
    state, lambda from u* restricted to the grid, on its interface window.
    """
    _, _, solve, arg = _mode(cfg)
    inst = shared[2]
    res = solve(*shared, eps, arg, cfg.n0)
    row = SweepRow(eps=eps, mode=cfg.mode, iters=len(res.trace.increments))
    row.c_instanton = abs(res.macro.j) * inst.mean / inst.norm_sq
    if cfg.mode == "asym":
        prob = res.problem
        checked, center = res.state, prob.interface_index
        start = lambda window, lo: prob.u_star_on(lo, lo + window.grid.n)
        # the extended centred solve made updates too
        x0, traces = prob.x0, [prob.extended_trace, res.trace]
        row.eps_x_eps = res.eps_field_zero
    else:
        checked, x0, traces = res.half.even_half(), 0.0, [res.trace]
        center, start = 0, lambda window, _: spectral.slope_start(window, inst)
    row.picard_steps = sum(len(t.increments) - 1 for t in traces)
    row.picard_extrapolations = sum(len(t.extrapolated) for t in traces)
    row.hydro_m, row.hydro_h = antisym.hydrodynamic_error(
        checked, res.macro, x0, eps * res.xi_eps)
    lam = spectral.leading_eigenvalue(checked, start, center)
    row.lam_gap_ratio = (1.0 - lam) / eps
    row.lambda_steps, row.lambda_points = lam.steps, lam.points
    if cfg.mode == "metastable":
        row.i_eps = res.increase_interval
    return row, res


def _save_run(out, res):
    """The state, and the loop trace of a solve: one row per step k, the
    increment, its ratio to the previous one, the residual of the pair
    step k - 1 measured (the start's at k = 0), and 1 when step k's update
    extrapolated with that ratio, else 0."""
    st, tr = res.state, res.trace
    steps = range(len(tr.increments))
    save_state(os.path.join(out, "state.csv"), st, res.macro.j)
    save_table(os.path.join(out, "trace.csv"),
               "k,increment,ratio,residual,extrapolated", steps,
               tr.increments, [float("nan")] + tr.ratios, tr.residuals[:-1],
               [int(k in tr.extrapolated) for k in steps])


def _row_record(row: SweepRow) -> dict:
    """The row.json record of a sweep row, which solve.json extends: a value
    that does not apply is nan in sweep.csv and null here, and a failed row
    has its error in place of the step counts."""
    record = {k: None if v != v else v for k, v in {
        "eps": row.eps, "mode": row.mode, "hydro_m": row.hydro_m,
        "hydro_h": row.hydro_h, "lam_gap_ratio": row.lam_gap_ratio,
        "C_instanton": row.c_instanton, "I_eps": row.i_eps,
        "eps_x_eps": row.eps_x_eps, "iters": row.iters}.items()}
    if row.error:
        record["error"] = row.error
    else:
        record |= {k: getattr(row, k) for k in (
            "picard_steps", "picard_extrapolations", "lambda_steps",
            "lambda_points")}
    return record


def cmd_solve(args) -> int:
    """One row of any mode: the state and trace, solve.json (the row's
    record, its inputs and the state's residual, plus the mode's checks),
    and off center u* and the boundary correction."""
    cfg = _config_from_args(args)
    out = _outdir(args.out)
    row, res = _solve_one(cfg, args.eps, _shared_inputs(cfg))
    residual = res.state.residual_norm
    _save_run(out, res)
    record = _row_record(row) | {
        "beta": cfg.beta, "j": cfg.j, "ell": cfg.ell, "x0": cfg.x0,
        "spacing": cfg.spacing, "n0": cfg.n0, "residual": residual}
    if cfg.mode == "asym":
        prob = res.problem
        save_profile(os.path.join(out, "u_star.csv"),
                     *asym.extended_u_star(prob))
        save_profile(os.path.join(out, "r_eps.csv"), prob.res_grid,
                     prob.r_eps)
        record |= {"x_eps": res.field_zero, "m_zero": res.m_zero,
                   "lambda_star": prob.u_star.lambda_,
                   "G_report": asym.admissibility_report(prob, res.state.h)}
    else:
        record |= {"monotone": res.monotone,
                   "fixed_point_defect": antisym.fixed_point_defect(res)}
    dump_json(os.path.join(out, "solve.json"), record)
    print(f"iterations = {row.iters}  residual = {fmt(residual)}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    """lambda and lambda2 of a stored state, under its sidecar's beta and
    kernel, and the steps and window points each took.  An exactly odd
    state, as every centred solve writes it, is solved in its two sectors on
    its odd half line: lambda on its even view
    (:meth:`meso.MesoState.even_half`) from p, lambda2 as the odd sector's
    top eigenvalue; any other state about the peak of p, the pair from p,
    lambda2 on its complement; each by a Lanczos recurrence.  --j must be
    the sidecar's j, if it records one."""
    if args.j is not None and not np.isfinite(args.j):
        raise DomainError("--j must be finite")
    grid, h, m, beta, shape, j = load_state(args.state)
    if args.j is not None and j is not None and args.j != j:
        raise DomainError(f"--j {args.j!r} is not the current j = {j!r} the "
                          f"state {args.state} was solved at")
    params, kernel = _params_kernel(beta, grid.spacing, shape)
    odd = grid.left == grid.right and grid.n % 2 == 1 and all(
        np.array_equal(a, -a[::-1]) for a in (h, m))
    c = grid.center_index if odd else 0
    state = meso.make_state(params, kernel, grid.half_line() if odd else grid,
                            h[c:], m[c:])
    if odd:
        lam = spectral.leading_eigenvalue(state.even_half())
        lam2 = spectral.second_eigenvalue(state)
        lambda_steps, lambda_points = lam.steps, lam.points
    else:
        sp = spectral.leading_eigenpair(state)
        lam2 = spectral.second_eigenvalue(state, sp)
        lam, lambda_steps, lambda_points = sp.lambda_, sp.iterations, sp.u.size
    c_inst = None       # only C_instanton reads the instanton
    if args.j is not None:
        _, _, inst = _fixed_inputs(beta, grid.spacing, shape)
        c_inst = abs(args.j) * inst.mean / inst.norm_sq
    payload = {
        "lambda": lam,
        "lambda2": lam2,
        "gap": lam - lam2,
        "odd_sectors": odd,
        "lambda_steps": lambda_steps,
        "lambda2_steps": lam2.steps,
        "lambda_points": lambda_points,
        "lambda2_points": lam2.points,
        "C_check": {
            "one_minus_lambda_over_eps": (1.0 - lam) / grid.epsilon,
            "C_instanton": c_inst,
        },
    }
    dump_json(os.path.join(_outdir(args.out), "spectrum.json"), payload)
    print(f"lambda = {fmt(lam)}  lambda2 = {fmt(lam2)}")
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
        dump_json(os.path.join(run_dir, "row.json"), _row_record(row))
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

    Checks the config's fields, computes the shared inputs, then runs the
    mode's precondition check (``antisym.check_centred`` or
    ``asym.check_off_center``, which the solvers call first) at each eps
    with its solver's arguments.  The code is the one the row would carry,
    the message starts with ``main``'s prefix for it, and nothing is
    raised; a solve can still fail while iterating (exit code 4).
    """
    try:
        shared = _shared_inputs(cfg.validate_fields())
    except _ROW_ERRORS as exc:
        return [_failure(exc)]
    _, check, _, arg = _mode(cfg)
    findings = []
    for eps in cfg.eps_list:
        try:
            check(*shared, eps, arg, cfg.n0)
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


def _config_from_args(args) -> RunConfig:
    """The config of solve's flags, checked as a config file's is."""
    cfg = RunConfig(beta=args.beta, j=args.j, ell=args.ell, x0=args.x0,
                    spacing=args.spacing, n0=args.n0, mode=args.mode,
                    kernel=args.kernel, eps_list=[args.eps])
    return cfg.validate_fields()


def _add_common(p, discrete=False):
    """--beta and --out, and --spacing and --kernel for the commands that
    discretise J: a command takes only the flags it reads."""
    p.add_argument("--beta", type=float, default=2.0)
    if discrete:
        p.add_argument("--spacing", type=float, default=0.05)
        p.add_argument("--kernel", default="cos2",
                       choices=("cos2", "quartic"))
    p.add_argument("--out", default="out")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    keeps no state between calls."""
    ap = argparse.ArgumentParser(
        prog="mesostefan",
        description="Stationary nonlocal mean-field profiles with current, "
                    "their free-boundary limits, and spectral diagnostics.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thermo", help="equilibrium constants and tables")
    _add_common(p)
    p.set_defaults(func=cmd_thermo)

    p = sub.add_parser("instanton", help="standing interface profile")
    _add_common(p, discrete=True)
    p.set_defaults(func=cmd_instanton)

    p = sub.add_parser("stefan", help="macroscopic free-boundary solution")
    _add_common(p)
    p.add_argument("--j", type=float, required=True)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--metastable", action="store_true")
    p.set_defaults(func=cmd_stefan)

    p = sub.add_parser("solve", help="mesoscopic profile at one scale")
    _add_common(p, discrete=True)
    p.add_argument("--mode", choices=("antisym", "metastable", "asym"),
                   default="antisym")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--j", type=float, required=True)
    p.add_argument("--ell", type=float, default=1.0)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--n0", type=int, default=antisym.DEFAULT_N0)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("spectrum", help="spectral report for a stored state")
    p.add_argument("--state", required=True)
    p.add_argument("--j", type=float, default=None)
    p.add_argument("--out", default="out")
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
