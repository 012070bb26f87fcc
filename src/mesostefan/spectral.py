"""Positive-operator spectral analysis of the linearized fixed-point map.

The operator A psi = p (J^neum * psi) is self-adjoint under the weight 1/p,
has a positive maximal eigenvalue with a positive eigenvector, and a
spectral gap that stays open as the scale parameter shrinks.  Everything
here is matrix-free: power iteration for the leading pair, a Lanczos
recurrence on its weighted complement for the gap, and every inner product
a sum against the state's cached quadrature weights.  Each loop keeps its
vectors and its convolution's workspace for its whole run: no step
allocates an n-point array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConvergenceError, DomainError
from .grids import conv_workspace
from .instanton import Instanton

if TYPE_CHECKING:       # meso imports this module for its inner solve
    from .meso import MesoState

_POWER_STEPS = 100_000    # power iteration steps for the leading pair
_LAMBDA2_TOL = 1e-10      # relative Ritz residual bound that stops lambda2
_LAMBDA2_STEPS = 300      # Lanczos steps: 17 at beta = 2, 36 at beta = 1.2


@dataclass(frozen=True)
class SpectralResult:
    lambda_: float
    u: np.ndarray            # positive, normalized <u^2>_{1/p} = 1
    iterations: int
    residual: float          # sup |A u - lambda u|


def _normalize(state: MesoState, u: np.ndarray, out=None) -> np.ndarray:
    return np.divide(u, np.sqrt(state.weighted_dot(u, u)), out=out)


def leading_eigenpair(state: MesoState, tol=1e-12) -> SpectralResult:
    """Power iteration with weighted normalization.

    Stops when both the Rayleigh quotient is stationary to ``tol`` and the
    operator residual sup|A u - rq u| drops below ``tol`` (the eigenvector
    itself must be converged, not just the eigenvalue, because downstream
    deflations inherit its error).  The residual is formed only on steps
    where the quotient is already stationary: the rule is an AND, so the
    stopping step is the same as with a residual on every step.  On a state
    symmetric about an interior interface the iterate stays symmetric to
    rounding: the start p is symmetric, and rounding along the antisymmetric
    modes decays because their eigenvalues sit far below the leading one.
    """
    if np.any(state.p <= 0.0):
        raise DomainError("linearization weight must be positive")
    n = state.grid.n
    work = conv_workspace(state.kernel, n)
    # the iterate alternates between u and u_prev, which holds the residual
    # until the next iterate overwrites it
    u, u_prev = _normalize(state, state.p, np.empty(n)), np.empty(n)
    rq_prev = np.inf
    for it in range(1, _POWER_STEPS + 1):
        au = state.apply_linearized(u, work)
        rq = state.weighted_dot(u, au)
        if abs(rq - rq_prev) < tol and _sup_residual(
                au, rq, u, u_prev) < tol * max(1.0, abs(rq)):
            u, u_prev = _normalize(state, au, u_prev), u
            break
        rq_prev = rq
        u, u_prev = _normalize(state, au, u_prev), u
    else:
        raise ConvergenceError(
            f"power iteration stagnated (last Rayleigh {rq:.12g}, residual "
            f"{_sup_residual(au, rq, u_prev, np.empty(n)):.3e})", last=u)
    if np.mean(u) < 0:
        np.negative(u, out=u)
    res = _sup_residual(state.apply_linearized(u, work), rq, u, u_prev)
    u.setflags(write=False)
    return SpectralResult(float(rq), u, it, res)


def _sup_residual(au, rq, u, scratch) -> float:
    """sup |au - rq u|, formed in ``scratch``."""
    np.multiply(rq, u, out=scratch)
    np.subtract(au, scratch, out=scratch)
    return float(np.abs(scratch, out=scratch).max())


def second_eigenvalue(state: MesoState, result: SpectralResult) -> float:
    """Dominant growth rate on the complement of the maximal eigenvector.

    Lanczos recurrence for p J^neum (self-adjoint in <.,.>_{1/p}) on the
    weighted complement of ``result.u``, from p (1 + x/max|x|), which has both
    parities, keeping two vectors: each new one is orthogonalized again
    against u and the current one.  Stops at the Ritz residual bound
    |beta_k s_k| <= 1e-10 max(1, |theta|), theta the largest-magnitude Ritz
    value; raises :class:`ConvergenceError` when the step budget runs out.
    """
    u, dot, x = result.u, state.weighted_dot, state.grid.points
    n = state.grid.n
    work, scratch = conv_workspace(state.kernel, n), np.empty(n)
    v = state.p * (1.0 + x / np.max(np.abs(x)))
    v -= np.multiply(dot(v, u), u, out=scratch)
    # v_prev starts at 0: beta * 0 leaves the first image as it is
    v, v_prev = _normalize(state, v, v), np.zeros(n)
    beta, alphas, betas = 0.0, [], []
    for _ in range(_LAMBDA2_STEPS):
        w = state.apply_linearized(v, work)
        w -= np.multiply(beta, v_prev, out=scratch)
        alphas.append(dot(v, w))
        w -= np.multiply(alphas[-1], v, out=scratch)
        w -= np.multiply(dot(w, u), u, out=scratch)
        w -= np.multiply(dot(w, v), v, out=scratch)
        beta = np.sqrt(dot(w, w))
        ritz, s = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1)
                                 + np.diag(betas, -1))
        k = int(np.argmax(np.abs(ritz)))
        bound = abs(beta * s[-1, k])
        if bound <= _LAMBDA2_TOL * max(1.0, abs(ritz[k])):
            return float(abs(ritz[k]))
        betas.append(beta)
        v, v_prev = np.divide(w, beta, out=v_prev), v
    raise ConvergenceError(f"Lanczos recurrence for lambda2: residual bound "
                           f"{bound:.3e} after {_LAMBDA2_STEPS} steps")


def eigenvector_shape_report(state: MesoState, result: SpectralResult,
                             instanton: Instanton) -> dict:
    """Compare the maximal eigenvector of a centered state with the
    normalized interface slope.

    Reports the sup difference over an interface window of
    max(1, 2 log(1/eps) / a) mesoscopic units, a the instanton decay rate,
    and the largest relative deviation from a of the eigenvector's local
    log-slope on the right tail beyond it, where u > 1e-10 max u.
    """
    grid = state.grid
    window = max(1.0, 2.0 * np.log(1.0 / grid.epsilon) / instanton.decay_rate)
    x, u = grid.points, result.u
    md_unit = np.interp(x, instanton.x, instanton.unit_derivative(),
                        left=0.0, right=0.0)
    inside = np.abs(x) <= window
    sup_diff = float(np.max(np.abs(u[inside] - md_unit[inside])))

    tail = u[(x > window) & (u > 1e-10 * np.max(u))]
    slope_ratio = -np.diff(np.log(tail)) / (grid.spacing * instanton.decay_rate)
    return {"window": float(window), "sup_window_diff": sup_diff,
            "tail_slope_deviation": float(np.max(np.abs(slope_ratio - 1.0)))}
