"""Off-center interface solver (x0 != 0) via the eigenvector-projected map.

The antisymmetric solver run on the enlarged interval eps^-1[-1, ell*],
ell* = 1 + 2 x0, provides an exact solution whose restriction to
eps^-1[-1, 1] is a quasi-solution once the right-boundary correction from
the changed reflection is added.  Without odd symmetry the linearized map
has an eigenvalue 1 - O(eps) whose inversion would blow up the iteration,
so each new field is projected against the extended problem's maximal
eigenvector; convergence is then geometric with ratio O(eps) in a
boundary-anchored exponentially weighted norm.

check_off_center holds every check build_problem makes before the extended
solve; ``mesostefan validate`` runs it at each scale.  The projected loop
records into the same IterationTrace as the antisymmetric one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, DomainError, GridError
from .grids import Grid, Kernel, build_grid, conv_values
from .instanton import Instanton
from .meso import MesoState, inner_solve, residual
from .spectral import SpectralResult, leading_eigenpair
from .stefan import MaximalSolution, solve_maximal
from .antisym import (AntisymResult, CompositeSeed, IterationTrace,
                      check_stable, solve_stable)
from .thermo import ThermoParams, mobility

#: cap on a_plus * (1 - x0) / eps so the boundary weight stays well inside
#: float range and rounding at the interface cannot dominate the norm
WEIGHT_EXPONENT_CAP = 12.0


@dataclass(frozen=True)
class ExponentialWeight:
    """Boundary-anchored weight E(x) defining N(f) = sup E |f|."""

    a_plus: float
    a_minus: float
    center: float      # interface abscissa (mesoscopic)
    left_end: float
    right_end: float
    values: np.ndarray

    def norm(self, f) -> float:
        return float(np.max(self.values * np.abs(f)))


def build_weight(grid: Grid, x0, a_plus) -> ExponentialWeight:
    """Piecewise exponential anchored at the two boundaries.

    The left rate is tied to the right one by a_minus (x0 + 1) =
    a_plus (1 - x0), so both exponentials reach equal height at their
    respective boundary-to-interface spans.
    """
    eps = grid.epsilon
    center = x0 / eps
    a_minus = a_plus * (1.0 - x0) / (1.0 + x0)
    x = grid.points
    # assembled from pieces anchored at the interface so no intermediate
    # exponential overflows; the product below restores the defining form
    # E = exp(a_plus (b - x)) right / exp(a_minus (x - a)) left, which is 1
    # at the boundaries and largest at the interface
    vals = np.where(
        x >= center,
        np.exp(a_plus * (grid.b - x) - a_plus * (grid.b - center)),
        np.exp(a_minus * (x - grid.a) - a_minus * (center - grid.a)),
    )
    vals = vals * np.exp(a_plus * (grid.b - center))
    vals.setflags(write=False)
    return ExponentialWeight(float(a_plus), float(a_minus), float(center),
                             grid.a, grid.b, vals)


def default_a_plus(instanton: Instanton, eps, x0) -> float:
    """Fraction of the interface decay rate, capped for float safety.

    The analysis wants the weight rate below every decay constant in play;
    a quarter of the measured interface rate honors that with margin.  The
    cap keeps exp(a_plus (1-x0)/eps) <= exp(WEIGHT_EXPONENT_CAP): beyond it
    the weighted norm would amplify interface rounding noise above the
    O(eps) signals being tracked.
    """
    raw = 0.25 * instanton.decay_rate * min(1.0 - x0, (1.0 + x0) / (1.0 - x0))
    cap = WEIGHT_EXPONENT_CAP * eps / (1.0 - x0)
    return float(min(raw, cap))


@dataclass(frozen=True)
class OffCenterProblem:
    params: ThermoParams
    kernel: Kernel
    eps: float
    j: float
    x0: float
    ell_star: float
    extended: AntisymResult          # solve on eps^-1[-1, ell*] (true coords)
    ext_grid: Grid
    res_grid: Grid
    h_star: np.ndarray               # on ext_grid
    m_star: np.ndarray
    u_star: SpectralResult           # of the extended state
    r_eps: np.ndarray                # boundary correction on res_grid
    h_eps: np.ndarray                # quasi-solution field on res_grid
    m_eps: np.ndarray
    weight: ExponentialWeight
    interface_index: int             # index of eps^-1 x0 in res_grid
    seed_residual: float

    @property
    def u_star_restricted(self) -> np.ndarray:
        return self.u_star.u[: self.res_grid.n]


def _require_aligned(value, spacing, what):
    ratio = value / spacing
    if abs(ratio - round(ratio)) > 1e-9:
        raise GridError(f"{what} must be a grid multiple of the spacing")


def boundary_correction(kernel: Kernel, ext_grid: Grid, res_grid: Grid,
                        m_star: np.ndarray) -> np.ndarray:
    """Reflection-mismatch field near the right end of the restricted domain.

    The extended minus the restricted reflected convolution of m*, so that
    h* + R is an exact fixed-point field for the restricted kernel.  The two
    agree exactly more than one kernel range left of eps^-1.
    """
    n_res = res_grid.n
    return (conv_values(kernel, ext_grid, m_star, "neumann")[:n_res]
            - conv_values(kernel, res_grid, m_star[:n_res], "neumann"))


def check_off_center(kernel: Kernel, eps, j, x0, n0, instanton: Instanton,
                     macro: MaximalSolution) -> tuple[Grid, Grid]:
    """Raise what :func:`build_problem` raises before the extended solve;
    return the extended grid eps^-1[-1, 1 + 2 x0] and the restricted one.

    Needs 0 < x0 < 1, an extended run on eps^-1[-(1 + x0), 1 + x0] that
    passes :func:`antisym.check_stable`, eps^-1 and eps^-1 x0 on the grid
    (so the restricted right end and the interface are points of both
    grids), and an extension of at least one kernel range past eps^-1.
    """
    if not 0.0 < x0 < 1.0:
        raise DomainError("interface offset must lie in (0, 1); for x0 < 0 "
                          "flip the signs of x and j (mirror symmetry)")
    check_stable(kernel, eps, j, 1.0 + x0, n0, instanton, macro)
    _require_aligned(1.0 / eps, kernel.spacing, "eps^-1")
    _require_aligned(x0 / eps, kernel.spacing, "eps^-1 x0")
    ext_grid = build_grid(eps, 1.0, 1.0 + 2.0 * x0, kernel.spacing)
    res_grid = build_grid(eps, 1.0, 1.0, kernel.spacing)
    if res_grid.n - 1 + kernel.half_points >= ext_grid.n:
        raise GridError("extended domain too short for the boundary correction")
    return ext_grid, res_grid


def build_problem(params: ThermoParams, kernel: Kernel, eps, j, x0,
                  tol=1e-10, inner_tol=1e-12, n0=2,
                  instanton: Instanton | None = None,
                  macro: MaximalSolution | None = None) -> OffCenterProblem:
    """Assemble the extended solution, its eigenpair, and the quasi-solution."""
    from .instanton import compute_instanton

    macro = macro or solve_maximal(params, j)
    instanton = instanton or compute_instanton(params, kernel)
    ext_grid, res_grid = check_off_center(kernel, eps, j, x0, n0, instanton,
                                          macro)
    ell_half = 1.0 + x0                       # half-length of the extended run
    ell_star = 1.0 + 2.0 * x0

    extended = solve_stable(params, kernel, eps, j, ell_half, tol=tol,
                            inner_tol=inner_tol, n0=n0,
                            instanton=instanton, macro=macro)
    if ext_grid.n != extended.state.grid.n:
        raise GridError("extended grid relabeling mismatch")
    n_res = res_grid.n
    h_star = extended.state.h
    m_star = extended.state.m

    # conv_values reads only the spacing and the width, which both grids
    # share, so the extended state needs no second convolution
    u_star = leading_eigenpair(replace(extended.state, grid=ext_grid))

    r_eps = boundary_correction(kernel, ext_grid, res_grid, m_star)
    h_eps = h_star[:n_res] + r_eps
    m_eps = m_star[:n_res]
    seed_res = residual(params, kernel, res_grid, h_eps, m_eps)
    if seed_res > 1e-9:
        raise ConvergenceError(
            f"quasi-solution residual {seed_res:.3e} exceeds 1e-9")

    weight = build_weight(res_grid, x0, default_a_plus(instanton, eps, x0))
    interface_index = res_grid.index_of(round(x0 / eps / res_grid.spacing)
                                        * res_grid.spacing)
    r_eps.setflags(write=False)
    return OffCenterProblem(params, kernel, float(eps), float(j), float(x0),
                            float(ell_star), extended, ext_grid, res_grid,
                            h_star, m_star, u_star, r_eps, h_eps, m_eps,
                            weight, interface_index, seed_res)


def projected_iterate(problem: OffCenterProblem, m_n: np.ndarray,
                      inner_tol=1e-12):
    """One step of the projected map.

    Integrates the current law from the interface, then removes the
    component along the extended maximal eigenvector (plain integrals), and
    solves the auxiliary fixed point from the previous magnetization.
    """
    from scipy.integrate import cumulative_trapezoid

    grid = problem.res_grid
    chi = np.asarray(mobility(problem.params, m_n))
    cum = cumulative_trapezoid(1.0 / chi, dx=grid.spacing, initial=0.0)
    h_hat = -problem.eps * problem.j * (cum - cum[problem.interface_index])
    u = problem.u_star_restricted
    du = grid.spacing
    proj = np.trapezoid(h_hat * u, dx=du) / np.trapezoid(u, dx=du)
    h_next = h_hat - proj
    state = inner_solve(problem.params, problem.kernel, grid, h_next, m_n,
                        tol=inner_tol)
    return h_next, state


@dataclass(frozen=True)
class OffCenterResult:
    problem: OffCenterProblem
    state: MesoState
    trace: IterationTrace      # weighted increments N(h_{k+1} - h_k)
    field_zero: float          # x with h(x) = 0 (mesoscopic)
    m_zero: float              # x with m(x) = 0
    eps_field_zero: float      # eps * field_zero

    @property
    def seed(self) -> CompositeSeed:
        """The extended run's seed, whose gluing point bounds the interface."""
        return self.problem.extended.seed


def solve_off_center(params: ThermoParams, kernel: Kernel, eps, j, x0,
                     tol=1e-9, inner_tol=1e-12, max_outer=60, n0=2,
                     instanton: Instanton | None = None,
                     macro: MaximalSolution | None = None) -> OffCenterResult:
    """Iterate the projected map from the quasi-solution to convergence.

    Convergence is measured in the weighted norm, and the trace records
    those increments with the same fields as the antisymmetric loop (the
    first residual is the quasi-solution's; every solve runs at inner_tol).
    ``tol`` is also the outer tolerance of the extended antisymmetric solve
    that :func:`build_problem` runs.  The final field's zero is located near
    the interface by bracketing plus linear interpolation, and the
    magnetization zero is reported separately (the two need not coincide).
    """
    problem = build_problem(params, kernel, eps, j, x0, tol=tol,
                            inner_tol=inner_tol, n0=n0, instanton=instanton,
                            macro=macro)
    trace = IterationTrace(residuals=[problem.seed_residual])
    h, m = problem.h_eps, problem.m_eps
    for _ in range(max_outer):
        h_next, state = projected_iterate(problem, m, inner_tol)
        inc = problem.weight.norm(h_next - h)
        trace.increments.append(inc)
        trace.add_solve(state, inner_tol)
        h, m = h_next, state.m
        if inc < tol:
            break
    else:
        raise ConvergenceError(
            f"projected iteration did not reach {tol} in {max_outer} steps",
            last=trace)

    field_zero = _zero_near(problem, state.h)
    m_zero = _zero_near(problem, state.m)
    return OffCenterResult(problem, state, trace, field_zero, m_zero,
                           problem.eps * field_zero)


def _zero_near(problem: OffCenterProblem, values: np.ndarray,
               halfwidth=2.0) -> float:
    """Bracketed sign change + linear interpolation near the interface."""
    grid = problem.res_grid
    c = problem.interface_index
    k = int(round(halfwidth / grid.spacing))
    lo = max(0, c - k)
    hi = min(grid.n - 1, c + k)
    seg = values[lo:hi + 1]
    sign = np.sign(seg)
    idx = np.where(sign[:-1] * sign[1:] <= 0)[0]
    if idx.size == 0:
        raise ConvergenceError(
            f"no zero within {halfwidth} of the interface")
    i = lo + int(idx[0])
    v0, v1 = values[i], values[i + 1]
    x0p, x1p = grid.points[i], grid.points[i + 1]
    if v1 == v0:
        return float(x0p)
    return float(x0p - v0 * (x1p - x0p) / (v1 - v0))


def admissibility_report(problem: OffCenterProblem, h: np.ndarray,
                         b=0.1) -> dict:
    """Diagnostics against the four admissible-region conditions.

    Conditions: weighted distance to the quasi-solution below b, plain
    orthogonality to the extended eigenvector, derivative of the difference
    below eps everywhere, and below eps^2 inside the interface window of
    half-width log(1/eps)^2.
    """
    grid = problem.res_grid
    eps = problem.eps
    dh = h - problem.h_eps
    n_val = problem.weight.norm(dh)
    u = problem.u_star_restricted
    ortho = float(np.trapezoid(h * u, dx=grid.spacing))
    d_diff = np.gradient(dh, grid.spacing, edge_order=2)
    d_sup = float(np.max(np.abs(d_diff)))
    win = np.abs(grid.points - problem.weight.center) <= np.log(1.0 / eps) ** 2
    d_win = float(np.max(np.abs(d_diff[win])))
    return {
        "weighted_distance": n_val,
        "weighted_bound": float(b),
        "weighted_ok": bool(n_val <= b),
        "orthogonality": ortho,
        "derivative_sup": d_sup,
        "derivative_bound": eps,
        "derivative_ok": bool(d_sup <= eps),
        "window_derivative_sup": d_win,
        "window_derivative_bound": eps * eps,
        "window_derivative_ok": bool(d_win <= eps * eps),
    }
