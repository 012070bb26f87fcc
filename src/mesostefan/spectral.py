"""Positive-operator spectral analysis of the linearized fixed-point map.

The operator A psi = p (J^neum * psi) is self-adjoint under the weight 1/p,
has a positive maximal eigenvalue with a positive eigenvector, and a
spectral gap that stays open as the scale parameter shrinks.  Everything
here is matrix-free power/deflation iteration with weighted trapezoid inner
products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import linregress

from .errors import ConvergenceError, DomainError
from .instanton import Instanton
from .meso import MesoState, apply_linearized


@dataclass(frozen=True)
class SpectralResult:
    lambda_: float
    u: np.ndarray            # positive, normalized <u^2>_{1/p} = 1
    lambda2: float | None
    iterations: int
    residual: float          # sup |A u - lambda u|


def _normalize(state: MesoState, u: np.ndarray) -> np.ndarray:
    return u / np.sqrt(state.weighted_dot(u, u))


def leading_eigenpair(state: MesoState, tol=1e-12,
                      max_iter=100_000) -> SpectralResult:
    """Power iteration with weighted normalization.

    Stops when both the Rayleigh quotient is stationary to ``tol`` and the
    operator residual sup|A u - rq u| drops below ``tol`` (the eigenvector
    itself must be converged, not just the eigenvalue, because downstream
    deflations inherit its error).  On a state symmetric about an interior
    interface the iterate stays symmetric to rounding: the start p is
    symmetric, and rounding along the antisymmetric modes decays because
    their eigenvalues sit far below the leading one.
    """
    if np.any(state.p <= 0.0):
        raise DomainError("linearization weight must be positive")
    u = _normalize(state, state.p.copy())
    rq_prev = np.inf
    rq = 0.0
    res = np.inf
    for it in range(1, max_iter + 1):
        au = apply_linearized(state, u)
        rq = state.weighted_dot(u, au)
        res = float(np.max(np.abs(au - rq * u)))
        u_next = _normalize(state, au)
        if res < tol * max(1.0, abs(rq)) and abs(rq - rq_prev) < tol:
            u = u_next
            break
        rq_prev = rq
        u = u_next
    else:
        raise ConvergenceError(
            f"power iteration stagnated (last Rayleigh {rq:.12g}, "
            f"residual {res:.3e})", last=u)
    if np.mean(u) < 0:
        u = -u
    res = float(np.max(np.abs(apply_linearized(state, u) - rq * u)))
    u.setflags(write=False)
    return SpectralResult(float(rq), u, None, it, res)


def deflate(state: MesoState, result: SpectralResult,
            psi: np.ndarray) -> np.ndarray:
    """Remove the maximal-eigenvector component in the weighted product."""
    u = result.u
    coeff = state.weighted_dot(psi, u) / state.weighted_dot(u, u)
    return psi - coeff * u


def second_eigenvalue(state: MesoState, result: SpectralResult,
                      tol=1e-10, max_iter=5000) -> float:
    """Dominant growth rate on the complement of the maximal eigenvector."""
    rng_free = np.cos(1.7 * np.arange(state.grid.n))  # fixed deterministic seed
    psi = deflate(state, result, rng_free)
    psi = psi / np.max(np.abs(psi))
    rq_prev = np.inf
    rq = 0.0
    for _ in range(max_iter):
        ap = apply_linearized(state, psi)
        ap = deflate(state, result, ap)
        rq = state.weighted_dot(psi, ap) / state.weighted_dot(psi, psi)
        nrm = np.max(np.abs(ap))
        if nrm == 0.0:
            return 0.0
        psi = ap / nrm
        if abs(rq - rq_prev) < tol * max(1.0, abs(rq)):
            break
        rq_prev = rq
    return float(abs(rq))


def resolvent_solve(state: MesoState, result: SpectralResult,
                    f: np.ndarray, tol=1e-9, max_terms=100_000) -> np.ndarray:
    """Solve (A - 1) x = f_perp with x orthogonal to the maximal eigenvector.

    Uses the geometric series -(sum A^n) f_perp, re-deflating each term; on
    the complement the series contracts at the sub-dominant rate.
    """
    f_perp = deflate(state, result, np.asarray(f, dtype=float))
    term = f_perp.copy()
    x = -term.copy()
    for _ in range(max_terms):
        term = deflate(state, result, apply_linearized(state, term))
        x -= term
        if np.max(np.abs(term)) < 0.05 * tol:
            lhs = apply_linearized(state, x) - x
            if np.max(np.abs(lhs - f_perp)) < tol:
                return x
    raise ConvergenceError("geometric resolvent series did not converge "
                           "(spectral gap too small?)", last=x)


def eigenvector_shape_report(state: MesoState, result: SpectralResult,
                             instanton: Instanton, x0_meso=0.0,
                             window=None) -> dict:
    """Compare the maximal eigenvector with the normalized interface slope.

    Reports the sup difference over an interface window scaling like
    log(1/eps) and a log-linear fit of the eigenvector tail beyond it.
    """
    grid = state.grid
    eps = grid.epsilon
    if window is None:
        window = max(1.0, 2.0 * np.log(1.0 / eps) / instanton.decay_rate)
    x_rel = grid.points - x0_meso
    md_unit = np.interp(x_rel, instanton.x, instanton.unit_derivative(),
                        left=0.0, right=0.0)
    inside = np.abs(x_rel) <= window
    sup_diff = float(np.max(np.abs(result.u[inside] - md_unit[inside])))

    u_max = float(np.max(result.u))
    tail = (np.abs(x_rel) > window) & (result.u > 1e-10 * u_max)
    if tail.sum() >= 8:
        fit = linregress(np.abs(x_rel[tail]), np.log(result.u[tail]))
        tail_rate = float(-fit.slope)
        tail_r2 = float(fit.rvalue ** 2)
    else:
        tail_rate, tail_r2 = float("nan"), float("nan")
    return {
        "window": float(window),
        "sup_window_diff": sup_diff,
        "tail_rate": tail_rate,
        "tail_r2": tail_r2,
    }
