"""Off-center interface solver (x0 != 0) via the eigenvector-projected map.

The antisymmetric solver run on the enlarged interval eps^-1[-1, ell*],
ell* = 1 + 2 x0, provides an exact solution whose restriction to
eps^-1[-1, 1] is a quasi-solution once the right-boundary correction from
the changed reflection is added; one restricted convolution gives both the
correction and the state the projected loop starts from.  Without odd
symmetry the linearized map
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
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DomainError, GridError
from .grids import Grid, Kernel, build_grid, conv_values
from .instanton import Instanton
from .meso import MesoState, Workspace, inner_solve, make_state
from .spectral import SpectralResult, leading_eigenpair
from .stefan import MaximalSolution, solve_maximal
from . import antisym
from .thermo import ThermoParams

#: cap on a_plus * (1 - x0) / eps so the boundary weight stays well inside
#: float range and rounding at the interface cannot dominate the norm
WEIGHT_EXPONENT_CAP = 12.0
MAX_OUTER = 60          # projected steps before ConvergenceError
ZERO_HALFWIDTH = 2.0    # meso distance from the interface searched for zeros
WEIGHTED_BOUND = 0.1    # admissible weighted distance to the quasi-solution


@dataclass(frozen=True)
class ExponentialWeight:
    """Boundary-anchored weight E(x) defining N(f) = sup E |f|."""

    a_plus: float
    a_minus: float
    center: float      # interface abscissa (mesoscopic)
    values: np.ndarray

    def norm(self, f, out=None) -> float:
        """N(f), formed in ``out`` when given (it may be f)."""
        return float(np.multiply(self.values, np.abs(f, out=out),
                                 out=out).max())


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
                             vals)


def default_a_plus(instanton: Instanton, eps, x0) -> float:
    """Fraction of the interface decay rate, capped for float safety.

    The analysis wants the weight rate below every decay constant in play;
    a quarter of the interface decay rate honors that with margin.  The
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
    extended_trace: antisym.IterationTrace  # of the solve on eps^-1[-1, ell*]
    xi_eps: float                    # gluing point of the extended seed
    ext_grid: Grid
    res_grid: Grid
    u_star: SpectralResult           # of the extended state
    r_eps: np.ndarray                # boundary correction on res_grid
    h_eps: np.ndarray                # quasi-solution field on res_grid
    weight: ExponentialWeight
    interface_index: int             # index of eps^-1 x0 in res_grid

    @property
    def u_star_restricted(self) -> np.ndarray:
        return self.u_star.u[: self.res_grid.n]

    @cached_property
    def u_star_integral(self) -> float:
        """Plain integral of the restricted eigenvector (trapezoid rule)."""
        return float(np.trapezoid(self.u_star_restricted,
                                  dx=self.res_grid.spacing))


def check_off_center(kernel: Kernel, eps, j, x0, n0, instanton: Instanton,
                     macro: MaximalSolution) -> tuple[Grid, int, Grid, Grid]:
    """Raise what :func:`build_problem` raises before the extended solve;
    return the extended solve's seed layout (its centred grid on
    eps^-1[-(1 + x0), 1 + x0] and gluing index), the same points relabeled
    as eps^-1[-1, 1 + 2 x0], and the restricted grid.

    Needs 0 < x0 < 1, an extended run that passes
    :func:`antisym.check_stable`, a restricted grid on eps^-1[-1, 1] with
    eps^-1 x0 among its points (the relabeled and restricted grids then
    share their left end, the restricted right end and the interface), and
    an extension of at least one kernel range past eps^-1.
    """
    if not 0.0 < x0 < 1.0:
        raise DomainError("interface offset must lie in (0, 1); for x0 < 0 "
                          "flip the signs of x and j (mirror symmetry)")
    grid, xi_index = antisym.check_stable(kernel, eps, j, 1.0 + x0, n0,
                                          instanton, macro)
    res_grid = build_grid(eps, 1.0, 1.0, kernel.spacing)
    res_grid.index_of(x0 / eps)
    ext_grid = build_grid(eps, 1.0, 1.0 + 2.0 * x0, kernel.spacing)
    if ext_grid.n != grid.n:
        raise GridError("extended grid relabeling mismatch")
    if res_grid.n - 1 + kernel.half_points >= ext_grid.n:
        raise GridError("extended domain too short for the boundary correction")
    return grid, xi_index, ext_grid, res_grid


def build_problem(params: ThermoParams, kernel: Kernel, eps, j, x0,
                  n0=antisym.DEFAULT_N0,
                  instanton: Instanton | None = None,
                  macro: MaximalSolution | None = None
                  ) -> tuple[OffCenterProblem, MesoState]:
    """The extended solution's trace and eigenpair, the quasi-solution, and
    the quasi-solution's state.

    The extended centred loop runs on the layout check_off_center built.
    r_eps is the extended minus the restricted reflected convolution of m*
    (exactly 0 more than one kernel range left of eps^-1), so h* + r_eps
    is an exact fixed-point field for the restricted kernel.  Of the
    extended state only the eigenvector outlives the projected loop's start.
    """
    from .instanton import compute_instanton

    macro = macro or solve_maximal(params, j)
    instanton = instanton or compute_instanton(params, kernel)
    grid, xi_index, ext_grid, res_grid = check_off_center(
        kernel, eps, j, x0, n0, instanton, macro)
    extended = antisym._iterate(params, kernel, instanton, macro, eps, j,
                                grid, xi_index, "stable")
    n_res = res_grid.n
    m_star = extended.state.m

    # conv_values reads only the spacing and the width, which both grids
    # share, so the extended state needs no second convolution
    u_star = leading_eigenpair(replace(extended.state, grid=ext_grid))

    m_eps = m_star[:n_res]
    conv_eps = conv_values(kernel, res_grid, m_eps)
    r_eps = conv_values(kernel, ext_grid, m_star)[:n_res] - conv_eps
    start = make_state(params, kernel, res_grid,
                       extended.state.h[:n_res] + r_eps, m_eps, conv_eps)
    if start.residual_norm > 1e-9:
        raise ConvergenceError(f"quasi-solution residual "
                               f"{start.residual_norm:.3e} exceeds 1e-9")

    weight = build_weight(res_grid, x0, default_a_plus(instanton, eps, x0))
    interface_index = res_grid.index_of(x0 / eps)
    r_eps.setflags(write=False)
    return OffCenterProblem(params, kernel, float(eps), float(j), float(x0),
                            extended.trace, extended.xi_eps, ext_grid,
                            res_grid, u_star, r_eps, start.h, weight,
                            interface_index), start


def projected_iterate(problem: OffCenterProblem, m_n: np.ndarray,
                      conv_n: np.ndarray, work: Workspace | None = None,
                      out=None):
    """One step of the projected map.

    Integrates the current law from the interface, then removes the
    component along the extended maximal eigenvector (plain integrals), and
    solves the auxiliary fixed point from the previous magnetization and its
    convolution J^neum*m_n, ``conv_n``.  With a workspace the new field
    goes into ``out`` and everything else into ``work``, where m_n and
    conv_n may lie: the step allocates no n-point array.
    """
    grid = problem.res_grid
    work = work or Workspace(problem.kernel, grid.n)
    h_hat = antisym.current_integral(problem.params, grid, m_n, problem.eps,
                                     problem.j, problem.interface_index, out,
                                     work.scratch)
    product = np.multiply(h_hat, problem.u_star_restricted, out=work.scratch)
    proj = _trapezoid(product, grid.spacing) / problem.u_star_integral
    h_next = np.subtract(h_hat, proj, out=h_hat)
    state = inner_solve(problem.params, problem.kernel, grid, h_next, m_n,
                        tol=antisym.INNER_TOL, conv_init=conv_n, work=work)
    return h_next, state


def _trapezoid(values: np.ndarray, dx) -> float:
    """np.trapezoid(values, dx=dx), its terms formed in place in ``values``
    (term k overwrites values[k] once both its ends are read)."""
    terms = np.add(values[1:], values[:-1], out=values[:-1])
    terms *= dx
    terms /= 2.0
    return terms.sum()


@dataclass(frozen=True)
class OffCenterResult:
    problem: OffCenterProblem
    state: MesoState
    trace: antisym.IterationTrace  # weighted increments N(h_{k+1} - h_k)
    field_zero: float          # x with h(x) = 0 (mesoscopic)
    m_zero: float              # x with m(x) = 0
    eps_field_zero: float      # eps * field_zero

    @property
    def xi_eps(self) -> float:
        """The extended run's gluing point, which bounds the interface."""
        return self.problem.xi_eps


def solve_off_center(params: ThermoParams, kernel: Kernel, eps, j, x0,
                     n0=antisym.DEFAULT_N0,
                     instanton: Instanton | None = None,
                     macro: MaximalSolution | None = None) -> OffCenterResult:
    """Iterate the projected map from the quasi-solution to convergence.

    It stops on a weighted increment below ``antisym.OUTER_TOL``, the outer
    tolerance of the extended solve that :func:`build_problem` runs too.
    The first solve restarts from the quasi-solution's state, then dropped,
    each later one from its predecessor's.  The trace records the increments
    with the same fields as the antisymmetric loop (the first residual is the
    quasi-solution's; every solve runs at INNER_TOL).  The final field's
    zero is located near the interface by bracketing plus linear
    interpolation, and the
    magnetization zero is reported separately (the two need not coincide).
    """
    problem, start = build_problem(params, kernel, eps, j, x0, n0=n0,
                                   instanton=instanton, macro=macro)
    tol = antisym.OUTER_TOL
    trace = antisym.IterationTrace(residuals=[start.residual_norm])
    h, m, conv = start.h, start.m, start.conv
    del start
    # each field goes into the row the last one left free; m and J^neum*m
    # stay in the workspace from one solve to the next
    n = problem.res_grid.n
    fields, work = np.empty((2, n)), Workspace(kernel, n)
    for k in range(MAX_OUTER):
        h_next, state = projected_iterate(problem, m, conv, work,
                                          fields[k % 2])
        diff = np.subtract(h_next, h, out=work.scratch)
        inc = problem.weight.norm(diff, out=diff)
        trace.increments.append(inc)
        trace.add_solve(state, antisym.INNER_TOL)
        h, m, conv = h_next, state.m, state.conv
        if inc < tol:
            break
    else:
        raise ConvergenceError(
            f"projected iteration did not reach {tol} in {MAX_OUTER} steps",
            last=trace)

    state = state.copy()
    field_zero = _zero_near(problem, state.h)
    m_zero = _zero_near(problem, state.m)
    return OffCenterResult(problem, state, trace, field_zero, m_zero,
                           problem.eps * field_zero)


def _zero_near(problem: OffCenterProblem, values: np.ndarray) -> float:
    """Bracketed sign change + linear interpolation within ZERO_HALFWIDTH
    of the interface."""
    grid = problem.res_grid
    c = problem.interface_index
    k = int(round(ZERO_HALFWIDTH / grid.spacing))
    lo = max(0, c - k)
    hi = min(grid.n - 1, c + k)
    seg = values[lo:hi + 1]
    sign = np.sign(seg)
    idx = np.where(sign[:-1] * sign[1:] <= 0)[0]
    if idx.size == 0:
        raise ConvergenceError(
            f"no zero within {ZERO_HALFWIDTH} of the interface")
    i = lo + int(idx[0])
    v0, v1 = values[i], values[i + 1]
    x0p, x1p = grid.points[i], grid.points[i + 1]
    if v1 == v0:
        return float(x0p)
    return float(x0p - v0 * (x1p - x0p) / (v1 - v0))


def admissibility_report(problem: OffCenterProblem, h: np.ndarray) -> dict:
    """Diagnostics against the four admissible-region conditions.

    Conditions: weighted distance to the quasi-solution below
    WEIGHTED_BOUND, plain orthogonality to the extended eigenvector,
    derivative of the difference below eps everywhere, and below eps^2
    inside the interface window of half-width log(1/eps)^2.
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
        "weighted_bound": WEIGHTED_BOUND,
        "weighted_ok": bool(n_val <= WEIGHTED_BOUND),
        "orthogonality": ortho,
        "derivative_sup": d_sup,
        "derivative_bound": eps,
        "derivative_ok": bool(d_sup <= eps),
        "window_derivative_sup": d_win,
        "window_derivative_bound": eps * eps,
        "window_derivative_ok": bool(d_win <= eps * eps),
    }
