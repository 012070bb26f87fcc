"""Mesoscopic building blocks shared by every profile solver.

A state is a pair (h, m) on a grid together with the linearization weight
p = beta / cosh^2(beta J^neum*m + beta h).  At exact fixed points of
m = tanh(beta J^neum*m + beta h) the weight coincides with the mobility
chi(m), which the solvers exploit throughout.

The auxiliary solve :func:`inner_solve` runs plain, undamped fixed-point
(Picard) iteration and, when that stalls on the slow interface mode,
Newton's method with each step solved by GMRES on the matrix-free Jacobian
I - diag(p) J^neum.
Its :class:`InnerRecord` says how many Picard steps it took and which path
finished it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import ConvergenceError, DomainError, SaturationError
from .grids import Grid, Kernel, conv_values
from .thermo import ThermoParams

SATURATION_LIMIT = 1.0 - 1e-8
_MAX_ITER = 20_000        # fixed-point steps
_STALL_RATIO = 0.999      # residual ratio counted as a stalled step
_STALL_STEPS = 50         # consecutive stalled steps before Newton takes over
_NEWTON_STEPS = 30
_GMRES_RTOL = 1e-10
_GMRES_RESTART = 100
_GMRES_CYCLES = 10


@dataclass(frozen=True)
class InnerRecord:
    """What an auxiliary solve did: its fixed-point updates of m and the path
    that finished it, "picard" or "newton" (Newton-GMRES after a stall)."""

    picard_steps: int
    path: str


@dataclass(frozen=True)
class MesoState:
    """Immutable (h, m) pair with its linearization weight and residual."""

    params: ThermoParams
    kernel: Kernel
    grid: Grid
    h: np.ndarray
    m: np.ndarray
    p: np.ndarray
    residual_norm: float
    record: InnerRecord | None = None    # set by inner_solve

    def weighted_dot(self, f, g) -> float:
        """Inner product with weight 1/p (trapezoid quadrature)."""
        w = f * g / self.p
        return float(np.trapezoid(w, dx=self.grid.spacing))


def _field_argument(params, kernel, grid, h, m):
    return params.beta * (conv_values(kernel, grid, m, "neumann") + h)


def make_state(params: ThermoParams, kernel: Kernel, grid: Grid,
               h: np.ndarray, m: np.ndarray) -> MesoState:
    h = np.asarray(h, dtype=float)
    m = np.asarray(m, dtype=float)
    return _state_at(params, kernel, grid, h, m,
                     _field_argument(params, kernel, grid, h, m))


def _state_at(params, kernel, grid, h, m, arg, record=None) -> MesoState:
    """The state of (h, m) given arg = beta (J^neum*m + h) at that m."""
    p = params.beta / np.cosh(arg) ** 2
    res = float(np.max(np.abs(m - np.tanh(arg))))
    h.setflags(write=False)
    m.setflags(write=False)
    p.setflags(write=False)
    return MesoState(params, kernel, grid, h, m, p, res, record)


def effective_field(params: ThermoParams, kernel: Kernel, grid: Grid,
                    m: np.ndarray) -> np.ndarray:
    """The field h making m an exact fixed point: artanh(m)/beta - J^neum*m."""
    m = np.asarray(m, dtype=float)
    if np.max(np.abs(m)) >= 1.0:
        raise DomainError("magnetization saturates; no finite field")
    return np.arctanh(m) / params.beta - conv_values(kernel, grid, m, "neumann")


def residual(params: ThermoParams, kernel: Kernel, grid: Grid,
             h: np.ndarray, m: np.ndarray) -> float:
    """Sup-norm of m - tanh(beta J^neum*m + beta h)."""
    arg = _field_argument(params, kernel, grid, np.asarray(h, float),
                          np.asarray(m, float))
    return float(np.max(np.abs(m - np.tanh(arg))))


def apply_linearized(state: MesoState, psi: np.ndarray) -> np.ndarray:
    """One application of the linearized fixed-point map p * (J^neum * psi)."""
    return state.p * conv_values(state.kernel, state.grid,
                                 np.asarray(psi, float), "neumann")


def _jacobian(kernel, grid, p):
    """Matrix-free I - diag(p) J^neum: the Jacobian of the residual map."""
    return LinearOperator(
        (grid.n, grid.n), dtype=float,
        matvec=lambda v: v - p * conv_values(kernel, grid, v, "neumann"))


def _newton_krylov(params, kernel, grid, h, m, tol):
    """Newton on F(m) = m - tanh(beta(J^neum*m + h)), each step by GMRES.

    The Jacobian is applied through :func:`conv_values`, so a step costs one
    blocked convolution, O(n * BLOCK * Q), per Krylov vector and no matrix
    is formed.  Returns the converged m and beta (J^neum*m + h) there.
    """
    beta = params.beta
    res = np.inf
    for _ in range(_NEWTON_STEPS):
        arg = beta * (conv_values(kernel, grid, m, "neumann") + h)
        f = m - np.tanh(arg)
        res = float(np.max(np.abs(f)))
        if res < tol:
            return m, arg
        p = beta / np.cosh(arg) ** 2
        delta, _ = gmres(_jacobian(kernel, grid, p), -f,
                         rtol=_GMRES_RTOL, restart=_GMRES_RESTART,
                         maxiter=_GMRES_CYCLES)
        m = m + delta
        if np.max(np.abs(m)) >= SATURATION_LIMIT:
            raise SaturationError("Newton iterate saturated: |m| -> 1")
    raise ConvergenceError(
        f"Newton-GMRES stuck at residual {res:.3e} after {_NEWTON_STEPS} "
        f"steps (tol {tol})", last=m)


def _picard(params, kernel, grid, h, m, tol):
    """Fixed-point iteration; hands a stall to Newton-GMRES.

    Returns the converged m, beta (J^neum*m + h) there and the solve's
    :class:`InnerRecord`.
    """
    beta = params.beta
    res_prev = np.inf
    stall = 0
    for step in range(_MAX_ITER):
        arg = beta * (conv_values(kernel, grid, m, "neumann") + h)
        target = np.tanh(arg)
        res = float(np.max(np.abs(m - target)))
        if res < tol:
            return m, arg, InnerRecord(step, "picard")
        stall = stall + 1 if res > _STALL_RATIO * res_prev else 0
        if stall >= _STALL_STEPS:
            m, arg = _newton_krylov(params, kernel, grid, h, m, tol)
            return m, arg, InnerRecord(step, "newton")
        res_prev = res
        m = target
        if np.max(np.abs(m)) >= SATURATION_LIMIT:
            raise SaturationError("iterate saturated: |m| -> 1")
    raise ConvergenceError(
        f"fixed-point iteration stuck at residual {res_prev:.3e} (tol {tol})",
        last=m,
    )


def inner_solve(params: ThermoParams, kernel: Kernel, grid: Grid,
                h: np.ndarray, m_init: np.ndarray, tol=1e-12) -> MesoState:
    """Find m with m = tanh(beta J^neum*m + beta h) near the seed.

    Plain fixed-point iteration: each step sets m <- tanh(beta (J^neum*m +
    h)), with no damping.  On odd data its error decays at the sub-dominant
    eigenvalue of p J^neum (about 0.31 at beta = 2).  Along the leading
    eigenvector, which sits at 1 - C eps near an interface, it decays only
    like 1 - C eps, so when the residual stops falling for 50 steps the
    iterate is handed to Newton's method, each step solved by GMRES on the
    matrix-free Jacobian I - diag(p) J^neum.  Both stages stop at the
    sup-norm residual ``tol``, raise :class:`SaturationError` when an
    iterate leaves |m| < SATURATION_LIMIT and :class:`ConvergenceError`
    when their step budget runs out.  The state's ``record`` counts the
    fixed-point updates and names the path that finished the solve.  The
    result is seed-dependent: only closeness to the seed is guaranteed, not
    global uniqueness.
    """
    h = np.asarray(h, dtype=float)
    m = np.asarray(m_init, dtype=float).copy()
    if np.max(np.abs(m)) >= SATURATION_LIMIT:
        raise SaturationError("seed already saturated")
    m, arg, record = _picard(params, kernel, grid, h, m, tol)
    return _state_at(params, kernel, grid, h, m, arg, record)
