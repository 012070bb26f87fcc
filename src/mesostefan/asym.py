"""Off-center interface solver (x0 != 0) via the eigenvector-projected map.

The antisymmetric solver run on the enlarged interval eps^-1[-1, ell*],
ell* = 1 + 2 x0, provides an exact solution whose restriction to
eps^-1[-1, 1] is a quasi-solution once the right-boundary correction from
the changed reflection is added; one restricted convolution gives both the
correction and the state the off-center loop starts from.  Without odd
symmetry the linearized map has an eigenvalue 1 - O(eps) whose inversion
would blow up the iteration, so each field, the current integral from the
interface, is projected against the extended problem's maximal
eigenvector u* (:func:`projected_field`).  The paper's projected map then
solves the auxiliary fixed point at that field and contracts with ratio
O(eps) in a boundary-anchored exponentially weighted norm.  The solver
iterates the coupled fixed point of the two instead, in the loop every
solver shares (:func:`meso.iterate`), with a Newton step along u* at its
eigenvalue lambda*, which turns the slow 1 - O(eps) mode into a fast one.

The solve takes the maximal solution (holding beta and j) and the
instanton; check_off_center, with the same arguments, holds every check
build_problem makes before the extended solve, and ``mesostefan validate``
runs it at each scale.  The problem holds the solution and the grids, and
the projected field, the admissibility report and the result read beta and
j from the one and eps from the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DomainError, GridError
from .grids import Grid, Kernel, build_grid
from .instanton import Instanton
from .meso import IterationTrace, MesoState, iterate, make_state
from .spectral import SpectralResult, leading_eigenpair, slope_start
from .stefan import MaximalSolution
from . import antisym, grids

#: cap on a_plus * (1 - x0) / eps so the boundary weight stays well inside
#: float range and rounding at the interface cannot dominate the norm
WEIGHT_EXPONENT_CAP = 12.0
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
    macro: MaximalSolution           # holds beta and j
    x0: float
    extended_trace: IterationTrace   # of the solve on eps^-1[-1, ell*]
    xi_eps: float                    # gluing point of the extended seed
    ext_grid: Grid
    res_grid: Grid
    u_star: SpectralResult           # of the extended state
    r_tail: np.ndarray               # r_eps on the last k + 1 res_grid points
    h_eps: np.ndarray                # quasi-solution field on res_grid
    projector: np.ndarray            # u* (trapezoid weights) / int u*
    a_plus: float                    # right rate of the boundary weight
    interface_index: int             # index of eps^-1 x0 in res_grid

    @cached_property
    def weight(self) -> ExponentialWeight:
        """Built on first use: only the admissibility report reads it."""
        return build_weight(self.res_grid, self.x0, self.a_plus)

    @property
    def u_star_restricted(self) -> np.ndarray:
        return self.u_star.u[: self.res_grid.n]

    @property
    def r_eps(self) -> np.ndarray:
        """The boundary correction on res_grid, 0 left of its last k + 1
        points, built on each read."""
        r = np.zeros(self.res_grid.n)
        r[r.size - self.r_tail.size:] = self.r_tail
        return r


def check_off_center(macro: MaximalSolution, kernel: Kernel,
                     instanton: Instanton, eps, x0, n0
                     ) -> tuple[Grid, int, Grid, Grid, int]:
    """Raise what :func:`build_problem` raises before the extended solve;
    return the extended solve's seed layout (its centred grid on
    eps^-1[-(1 + x0), 1 + x0] and gluing index), the same points relabeled
    as eps^-1[-1, 1 + 2 x0], the restricted grid and the index of the
    interface eps^-1 x0 in it.

    Needs 0 < x0 < 1, an extended run that passes
    :func:`antisym.check_centred`, a restricted grid on eps^-1[-1, 1] with
    eps^-1 x0 among its points (the relabeled and restricted grids then
    share their left end, the restricted right end and the interface), and
    an extension of at least one kernel range past eps^-1.
    """
    if not 0.0 < x0 < 1.0:
        raise DomainError("interface offset must lie in (0, 1); for x0 < 0 "
                          "flip the signs of x and j (mirror symmetry)")
    grid, xi_index = antisym.check_centred(macro, kernel, instanton, eps,
                                           1.0 + x0, n0)
    res_grid = build_grid(eps, 1.0, 1.0, kernel.spacing)
    interface_index = res_grid.index_of(x0 / eps)
    ext_grid = build_grid(eps, 1.0, 1.0 + 2.0 * x0, kernel.spacing)
    if ext_grid.n != grid.n:
        raise GridError("extended grid relabeling mismatch")
    if res_grid.n - 1 + kernel.half_points >= ext_grid.n:
        raise GridError("extended domain too short for the boundary correction")
    return grid, xi_index, ext_grid, res_grid, interface_index


def build_problem(macro: MaximalSolution, kernel: Kernel,
                  instanton: Instanton, eps, x0, n0
                  ) -> tuple[OffCenterProblem, MesoState]:
    """The extended solution's trace and eigenpair, the quasi-solution, and
    the quasi-solution's state.

    The extended centred loop runs on the half line of the layout
    check_off_center built (:func:`antisym.solve_half_line`).  Its state
    is odd, so its leading pair is found on the even half line
    (:meth:`meso.MesoState.even_half`), by power iteration from the
    instanton's slope there (:func:`spectral.slope_start`); the half line's
    weights count the mirror image, so u*, its even extension to ext_grid,
    is normalised there.  Of the rest, only the restriction to res_grid is
    odd-extended: h and J^neum*m, and m* one kernel range further.
    r_eps is the extended minus the restricted reflected convolution of m*,
    exactly 0 more than one kernel range left of eps^-1, so both are formed
    on the last k + 1 points alone, from the 3k + 1 values of m* around
    them; elsewhere the restricted convolution is the loop's.  So h* +
    r_eps is an exact fixed-point field for the restricted kernel.  Of the
    extended state only the eigenvector outlives the off-center loop's
    start.
    """
    grid, xi_index, ext_grid, res_grid, interface_index = check_off_center(
        macro, kernel, instanton, eps, x0, n0)
    last, trace = antisym.solve_half_line(macro, kernel, instanton, grid,
                                          xi_index)
    half = last.even_half()
    pair = leading_eigenpair(half, start=slope_start(half, instanton))
    c = grid.center_index
    u = np.empty(ext_grid.n)
    u[c:], u[:c] = pair.u, pair.u[:0:-1]
    u.setflags(write=False)
    u_star = SpectralResult(pair.lambda_, u, pair.iterations, pair.residual,
                            pair.extrapolations)
    del half, pair

    n_res, k = res_grid.n, kernel.half_points
    m_star = antisym.odd_extension(last.m, c, n_res + k)
    h_eps = antisym.odd_extension(last.h, c, n_res)
    conv_eps = antisym.odd_extension(last.conv, c, n_res)
    del last
    # the last k + 1 points and their k neighbours on the left, and on the
    # right the extended grid's or the mirror image about eps^-1
    t0 = n_res - 1 - k
    tail, left = m_star[t0:n_res], m_star[t0 - k:t0]
    extended_tail = grids._blocked_convolution(kernel, tail, left,
                                               m_star[n_res:], None)
    conv_eps[t0:] = grids._blocked_convolution(kernel, tail, left,
                                               tail[-2::-1], None)
    r_tail = extended_tail - conv_eps[t0:]
    h_eps[t0:] += r_tail
    start = make_state(macro.params, kernel, res_grid, h_eps,
                       m_star[:n_res], conv_eps)
    if start.residual_norm > 1e-9:
        raise ConvergenceError(f"quasi-solution residual "
                               f"{start.residual_norm:.3e} exceeds 1e-9")

    u_res = u[:n_res]
    projector = u_res * (res_grid.spacing / np.trapezoid(
        u_res, dx=res_grid.spacing))
    projector[[0, -1]] *= 0.5
    projector.setflags(write=False)
    a_plus = default_a_plus(instanton, res_grid.epsilon, x0)
    r_tail.setflags(write=False)
    return OffCenterProblem(macro, float(x0), trace,
                            float(xi_index * grid.spacing), ext_grid,
                            res_grid, u_star, r_tail, start.h, projector,
                            a_plus, interface_index), start


def projected_field(problem: OffCenterProblem, m: np.ndarray, out=None,
                    scratch=None) -> np.ndarray:
    """The projected current integral of m: the current law integrated from
    the interface, less its component along the extended maximal
    eigenvector (plain trapezoid integrals, in one product against the
    problem's projector).  Formed in ``out`` with ``scratch`` for 1/chi
    when they are given."""
    h_hat = antisym.current_integral(problem.macro, problem.res_grid, m,
                                     problem.interface_index, out, scratch)
    h_hat -= float(np.einsum("i,i->", h_hat, problem.projector))
    return h_hat


@dataclass(frozen=True)
class OffCenterResult:
    problem: OffCenterProblem
    state: MesoState
    trace: IterationTrace      # of the off-center loop
    field_zero: float          # x with h(x) = 0 (mesoscopic)
    m_zero: float              # x with m(x) = 0

    @property
    def macro(self) -> MaximalSolution:
        return self.problem.macro

    @property
    def xi_eps(self) -> float:
        """The extended run's gluing point, which bounds the interface."""
        return self.problem.xi_eps

    @property
    def eps_field_zero(self) -> float:
        return self.problem.res_grid.epsilon * self.field_zero


def solve_off_center(macro: MaximalSolution, kernel: Kernel,
                     instanton: Instanton, eps, x0, n0) -> OffCenterResult:
    """The fixed point of m = tanh(beta (J^neum*m + projected_field(m))).

    :func:`meso.iterate` runs from the quasi-solution's state with the
    projected field and the Newton direction (u*, lambda*) restricted to the
    grid, weighted once for the whole loop by the quasi-solution's 1/p, so
    the returned field is the projected current integral of the returned m
    exactly.  The final
    field's zero is located near the interface by bracketing plus linear
    interpolation, and the magnetization zero is reported separately (the
    two need not coincide).
    """
    problem, start = build_problem(macro, kernel, instanton, eps, x0, n0)
    u = problem.u_star_restricted
    newton = (u, problem.u_star.lambda_, start.quadrature * u)
    # handed over with no name left here, the start is freed after the
    # loop's first step; of it only the weighted direction stays alive
    held = [start]
    del start
    state, trace = iterate(held.pop(), lambda m, out, scratch: projected_field(
        problem, m, out, scratch), newton)
    state = state.copy()
    field_zero = _zero_near(problem, state.h)
    m_zero = _zero_near(problem, state.m)
    return OffCenterResult(problem, state, trace, field_zero, m_zero)


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
    eps = grid.epsilon
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
