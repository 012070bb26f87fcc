"""Antisymmetric profile solvers: stable and metastable branches at x0 = 0.

The outer map takes a field h to the current integral of the auxiliary
magnetization: solve m = tanh(beta J^neum*m + beta h), then set
h_next(x) = -eps j * int_0^x 1/chi(m).  The iteration starts from a
composite seed (interface profile near the origin, scaled macroscopic
solution beyond, for either sign of j), whose exact state's convolution
the first auxiliary solve restarts from, and contracts geometrically.
Every field, magnetization and convolution of the loop is odd, so it runs
on the half line x >= 0 (:meth:`grids.Grid.half_line`), where they vanish
at x = 0, and returns their odd extension to the check's grid.

The auxiliary solves are inexact: each one stops at the sup-norm residual
max(INNER_TOL, FORCING * inc), where inc = sup|h_next - h| is the outer
increment that produced its field (a forcing term in the sense of Eisenstat
and Walker).  While the field is still far from its fixed point a looser
magnetization costs the outer map nothing it can resolve, and Picard steps
fall by more than half on the eps ladder.  Two rules keep the returned pair
as accurate as with exact solves: a step whose increment is already below
OUTER_TOL solves at INNER_TOL, and the loop stops only on an increment
measured from a pair that was itself solved at INNER_TOL.

check_stable and check_metastable hold every check a solve makes before its
first outer step (current sign, eps <= 0.2, ell against ell_j or ell_break,
grid, gluing point, instanton window) and return the seed layout they
built, the grid and the gluing index.  The solvers call them first and
iterate on that layout, and ``mesostefan validate`` runs them at each scale,
so the two cannot disagree; n0 reaches nothing below the checks.
IterationTrace is the record of both this outer loop and the off-center one.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConvergenceError, DomainError, GridError,
                     InfeasibleError, SaturationError)
from .grids import Grid, Kernel, build_grid, trapezoid_antiderivative
from .instanton import Instanton, threshold_abscissa
from .meso import MesoState, Workspace, exact_state, inner_solve, make_state
from .stefan import (
    MaximalSolution,
    MetastableMaximal,
    _metastable_maximal,
    solve_maximal,
)
from .thermo import ThermoParams, mobility

MOBILITY_FLOOR = 1e-6
DEFAULT_N0 = 2        # seed gluing point xi = x_eps + 2 n0
MONOTONE_FLOOR = 1e-14
INCREASE_THRESHOLD = 1e-12
OUTER_TOL = 1e-10     # sup-norm outer increment that stops the loop
INNER_TOL = 1e-12     # auxiliary residual of the returned pair
FORCING = 0.01        # inner tolerance per unit of outer increment
MAX_OUTER = 80        # outer steps before ConvergenceError
HYDRO_BLOCK = 4096    # points per block of the hydrodynamic comparison


@dataclass
class IterationTrace:
    """What an outer loop did, one entry per outer step.

    ``residuals`` has one more entry than ``increments``: the residual of the
    starting pair, then that of each step's auxiliary solve.  The solve
    records (tolerance, Picard steps, path) have one entry per step.
    """

    increments: list = field(default_factory=list)   # outer increment of step k
    residuals: list = field(default_factory=list)
    inner_tols: list = field(default_factory=list)   # tolerance of step k's solve
    picard_steps: list = field(default_factory=list)  # its fixed-point updates
    inner_paths: list = field(default_factory=list)  # "picard" or "projected"

    def add_solve(self, state: MesoState, inner_tol) -> None:
        """Record step k's auxiliary solve, run to ``inner_tol``."""
        self.residuals.append(state.residual_norm)
        self.inner_tols.append(inner_tol)
        self.picard_steps.append(state.record.picard_steps)
        self.inner_paths.append(state.record.path)

    @property
    def projected_solves(self) -> int:
        """Auxiliary solves that stalled and were finished by recursive
        projection."""
        return self.inner_paths.count("projected")

    @property
    def ratios(self) -> list:
        """ratios[k - 1] = increments[k] / increments[k - 1]; NaN after a
        zero increment."""
        inc = self.increments
        return [b / a if a > 0 else float("nan") for a, b in zip(inc, inc[1:])]

    def to_csv(self) -> str:
        """One row per outer step k: the increment, its ratio to the previous
        one, the residual of the pair it was measured from, and the
        tolerance, Picard steps and finishing path of step k's auxiliary
        solve."""
        buf = io.StringIO()
        buf.write("k,increment,ratio,residual,inner_tol,picard_steps,"
                  "inner_path\n")
        rows = zip(self.increments, [float("nan")] + self.ratios,
                   self.residuals, self.inner_tols, self.picard_steps,
                   self.inner_paths)
        for k, (inc, rat, res, itol, steps, path) in enumerate(rows):
            buf.write(f"{k},{inc:.17g},{rat:.17g},{res:.17g},{itol:.17g},"
                      f"{steps},{path}\n")
        return buf.getvalue()


@dataclass(frozen=True)
class AntisymResult:
    state: MesoState
    trace: IterationTrace
    xi_eps: float      # gluing point of the seed, snapped to the grid
    eps: float
    j: float
    monotone: bool
    increase_interval: float | None    # meso length of the central rise (metastable)


def _seed_layout(spacing, instanton: Instanton, eps, ell, n0):
    """Grid and gluing index of the composite seed.

    GridError when eps^-1 [-ell, ell] has no grid at the spacing or none
    with x = 0 among its points (the seed is odd about it), the instanton
    has another spacing, n0 < 0 (the gluing point xi = x_eps + 2 n0 would
    sit left of the interface), or xi passes half the half-domain or the
    end of the instanton window.
    """
    grid = build_grid(eps, ell, ell, spacing)
    grid.index_of(0.0)
    if abs(instanton.spacing - grid.spacing) > 1e-12:
        raise GridError("instanton spacing must match the solver spacing")
    x_eps = threshold_abscissa(instanton, eps)
    xi = x_eps + 2.0 * n0
    if n0 < 0:
        raise GridError(f"n0 = {n0} < 0 puts the gluing point x_eps + 2 n0 "
                        f"= {xi:.2f} left of the interface abscissa "
                        f"x_eps = {x_eps:.2f}")
    half = ell / eps
    if xi >= 0.5 * half:
        raise GridError(
            f"gluing point {xi:.2f} collides with the boundary "
            f"(eps^-1 ell / 2 = {0.5 * half:.2f}); shrink eps or n0"
        )
    xi_index = int(np.ceil(xi / grid.spacing - 1e-12))
    if xi_index > instanton.center_index:
        raise GridError("instanton window too small for the gluing point")
    return grid, xi_index


def build_seed(params: ThermoParams, kernel: Kernel, instanton: Instanton,
               macro, eps, grid: Grid, xi_index: int) -> MesoState:
    """Exact state of the composite odd seed on its layout's half line.

    The interface profile, signed like the macroscopic solution it is glued
    to, fills [0, xi] with xi = xi_index * spacing; the macroscopic
    solution, evaluated at eps(x - xi) > 0, fills the rest.  The layout's
    check has matched the instanton's spacing to the grid's, so the splice
    introduces no interpolation error.
    """
    half = grid.half_line()
    ic = instanton.center_index
    m0 = np.empty(half.n)
    x = half.spacing * np.arange(xi_index + 1, half.n)  # exact offsets from 0
    m0[xi_index + 1:] = macro.m_of_x(eps * (x - xi_index * half.spacing))
    m0[:xi_index + 1] = np.copysign(1.0, m0[xi_index + 1]) \
        * instanton.profile[ic:ic + xi_index + 1]
    m0[0] = 0.0       # +0 whatever the sign
    return exact_state(params, kernel, half, m0)


def current_integral(params: ThermoParams, grid: Grid, m: np.ndarray, eps, j,
                     origin, out=None, scratch=None) -> np.ndarray:
    """-eps j int_{x_origin}^x 1/chi(m); SaturationError below the floor.

    Formed in ``out`` with 1/chi in ``scratch`` when they are given."""
    chi = mobility(params, m, scratch)
    if np.min(chi) < MOBILITY_FLOOR:
        raise SaturationError("mobility below floor: profile saturating")
    c = trapezoid_antiderivative(grid, np.divide(1.0, chi, out=chi), origin,
                                 out)
    c *= -eps * j
    return c


def t_map(params: ThermoParams, grid: Grid, m: np.ndarray, eps, j,
          out=None, scratch=None) -> np.ndarray:
    """Current integral h(x) = -eps j int_0^x 1/chi(m) on the half line
    x >= 0 of an odd m, with h = +0 at x = 0.

    Formed in ``out`` with ``scratch`` for 1/chi when they are given.
    """
    h = current_integral(params, grid, m, eps, j, 0, out, scratch)
    h[0] = 0.0
    return h


def check_stable(kernel: Kernel, eps, j, ell, n0, instanton: Instanton,
                 macro: MaximalSolution) -> tuple[Grid, int]:
    """Raise what :func:`solve_stable` raises before iterating; return the
    seed layout (grid, gluing index) it iterates on."""
    if j == 0.0:
        raise DomainError("j = 0 is the zero-current critical-point case: "
                          "solve the auxiliary fixed point with h = 0 instead")
    return _check_length(kernel, eps, ell, n0, instanton, "the maximal ell_j",
                         macro.ell_j)


def check_metastable(kernel: Kernel, eps, j, ell, n0, instanton: Instanton,
                     macro: MetastableMaximal) -> tuple[Grid, int]:
    """Raise what :func:`solve_metastable` raises before iterating; return
    the seed layout (grid, gluing index) it iterates on."""
    if j <= 0.0:
        raise DomainError("metastable arrangement needs j > 0")
    return _check_length(kernel, eps, ell, n0, instanton,
                         "the metastable breakdown", macro.ell_break)


def _check_length(kernel, eps, ell, n0, instanton, what, limit):
    """eps <= 0.2, ell below the macroscopic limit, and a seed that fits."""
    if eps > 0.2:
        raise DomainError("scale parameter must satisfy eps <= 0.2")
    if ell >= limit:
        raise InfeasibleError(f"half-length {ell} must stay below {what} "
                              f"= {limit:.6g}", ell_j=limit)
    return _seed_layout(kernel.spacing, instanton, eps, ell, n0)


def solve_stable(params: ThermoParams, kernel: Kernel, eps, j, ell,
                 n0=DEFAULT_N0,
                 instanton: Instanton | None = None,
                 macro: MaximalSolution | None = None) -> AntisymResult:
    """Stable-branch antisymmetric solve: strictly monotone m for j != 0."""
    from .instanton import compute_instanton

    macro = macro or solve_maximal(params, j)
    instanton = instanton or compute_instanton(params, kernel)
    grid, xi_index = check_stable(kernel, eps, j, ell, n0, instanton, macro)
    return _iterate(params, kernel, instanton, macro, eps, j, grid, xi_index,
                    "stable")


def solve_metastable(params: ThermoParams, kernel: Kernel, eps, j, ell,
                     n0=DEFAULT_N0,
                     instanton: Instanton | None = None,
                     macro: MetastableMaximal | None = None) -> AntisymResult:
    """Metastable antisymmetric solve for j > 0 (x0 = 0 only).

    The field decreases while m decreases, rises across the interface, and
    decreases again; the central rise has vanishing macroscopic length.
    """
    from .instanton import compute_instanton

    macro = macro or _metastable_maximal(params, j)
    instanton = instanton or compute_instanton(params, kernel)
    grid, xi_index = check_metastable(kernel, eps, j, ell, n0, instanton,
                                      macro)
    return _iterate(params, kernel, instanton, macro, eps, j, grid, xi_index,
                    "metastable")


def _iterate(params, kernel, instanton, macro, eps, j, grid, xi_index,
             branch):
    """Outer iteration h -> T(m(h)) with inexact auxiliary solves.

    Step k measures inc = sup|T(m) - h| from the current pair (h, m) and
    solves the auxiliary problem at h_next = T(m) to max(INNER_TOL,
    FORCING * inc), or to INNER_TOL once inc < OUTER_TOL.  It returns the
    new pair when inc < OUTER_TOL and (h, m) was solved to INNER_TOL (the
    seed is an exact pair): an inexact solve that left m unchanged would
    otherwise yield inc = 0 and stop on an unconverged field.  Everything
    runs on the half line of the check's grid.  The first solve restarts
    from the seed's state, then dropped, every later one from the previous
    solve's m and convolution, which stay in the solves' workspace; each
    field goes into the row of ``fields`` that the last one left free, so
    no step allocates an n-point array.  The returned state is the odd
    extension of the last pair and its convolution to the check's grid.
    """
    tol, inner_tol = OUTER_TOL, INNER_TOL
    start = build_seed(params, kernel, instanton, macro, eps, grid, xi_index)
    half = start.grid
    trace = IterationTrace(residuals=[start.residual_norm])
    h, m, conv = start.h, start.m, start.conv
    del start
    fields, work = np.empty((2, half.n)), Workspace(kernel, half.n)
    scratch = work.scratch
    exact = True
    bad_ratio_run = 0
    for k in range(MAX_OUTER):
        h_next = t_map(params, half, m, eps, j, fields[k % 2], scratch)
        inc = float(np.abs(np.subtract(h_next, h, out=scratch),
                           out=scratch).max())
        trace.increments.append(inc)
        if len(trace.increments) >= 2 and trace.increments[-2] > 0:
            bad_ratio_run = bad_ratio_run + 1 \
                if inc >= trace.increments[-2] else 0
            if bad_ratio_run >= 10:
                raise ConvergenceError(
                    "outer iteration stopped contracting", last=trace)
        step_tol = inner_tol if inc < tol else max(inner_tol, FORCING * inc)
        state = inner_solve(params, kernel, half, h_next, m, tol=step_tol,
                            conv_init=conv, work=work)
        trace.add_solve(state, step_tol)
        converged = inc < tol and exact
        h, exact = h_next, step_tol == inner_tol
        m, conv = state.m, state.conv     # the workspace's
        if converged:
            full = [np.empty(grid.n) for _ in range(3)]  # odd h, m, conv
            for row, a in zip(full, (h, m, conv)):
                np.negative(a[:0:-1], out=row[:half.n - 1])
                row[half.n - 1:] = a
            final = make_state(params, kernel, grid, *full)
            mono = _is_monotone(m, increasing=(j < 0))
            rise = _central_increase_length(half, m) \
                if branch == "metastable" else None
            return AntisymResult(final, trace, float(xi_index * grid.spacing),
                                 float(eps), float(j), mono, rise)
    raise ConvergenceError(
        f"outer iteration did not reach {tol} in {MAX_OUTER} steps",
        last=trace,
    )


def _is_monotone(m: np.ndarray, increasing: bool) -> bool:
    d = np.diff(m)
    return bool(np.all(d > MONOTONE_FLOOR)) if increasing \
        else bool(np.all(d < -MONOTONE_FLOOR))


def _central_increase_length(half: Grid, m: np.ndarray) -> float:
    """Length of the odd profile's central rise: twice its rise from 0 in m."""
    rising = np.diff(m) > INCREASE_THRESHOLD
    run = rising.size if rising.all() else int(np.argmin(rising))
    return float(2 * run * half.spacing)


def fixed_point_defect(result: AntisymResult) -> float:
    """sup |h(x) + eps j int_0^x 1/chi(m)| for the returned pair, read on
    x >= 0: both are odd."""
    st, c = result.state, result.state.grid.center_index
    h_rebuilt = t_map(st.params, st.grid.half_line(), st.m[c:], result.eps,
                      result.j)
    return float(np.max(np.abs(st.h[c:] - h_rebuilt)))


def flux_defect(state: MesoState, eps, j) -> tuple[float, float]:
    """Pointwise transport-law defect chi(m) dh/dx + eps j and its estimate.

    Returns (sup defect, sup quadrature-error estimate) over the interior
    points.  The estimate is the exact discrepancy of differentiating the
    trapezoid antiderivative: |eps j| chi |second difference of 1/chi| / 4.
    A constant shift of h (the off-center projection) changes neither.
    """
    chi = np.asarray(mobility(state.params, state.m))
    dh = np.gradient(state.h, state.grid.spacing, edge_order=2)
    defect = np.abs(chi * dh + eps * j)
    g = 1.0 / chi
    d2g = np.zeros_like(g)
    d2g[1:-1] = np.abs(g[2:] - 2.0 * g[1:-1] + g[:-2])
    est = np.abs(eps * j) * chi * d2g / 4.0
    interior = slice(1, -1)
    return (float(np.max(defect[interior])),
            float(np.max(est[interior])))


def hydrodynamic_error(state: MesoState, m_of_x, h_of_x, eps, x0=0.0,
                       exclude_halfwidth=0.0) -> tuple[float, float]:
    """Sup-norm distance to a macroscopic pair at matching arguments.

    The m comparison excludes |eps x - x0| <= exclude_halfwidth (the window
    where the smooth interface lives); the field comparison has no
    exclusion.  The closed forms are evaluated HYDRO_BLOCK points at a
    time, so that their many temporaries stay small.
    """
    err_m, err_h = [], []
    for lo in range(0, state.grid.n, HYDRO_BLOCK):
        part = slice(lo, lo + HYDRO_BLOCK)
        xi = eps * state.grid.points[part]
        m_mac = np.asarray(m_of_x(xi), dtype=float)
        h_mac = np.asarray(h_of_x(xi), dtype=float)
        keep = np.abs(xi - x0) > exclude_halfwidth
        if keep.any():
            err_m.append(np.max(np.abs(state.m[part][keep] - m_mac[keep])))
        err_h.append(np.max(np.abs(state.h[part] - h_mac)))
    return float(np.max(err_m)), float(np.max(err_h))
