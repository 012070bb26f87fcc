"""Positive-operator spectral analysis of the linearized fixed-point map.

The operator A psi = p (J^neum * psi) is self-adjoint under the weight 1/p,
has a positive maximal eigenvalue with a positive eigenvector, and a
spectral gap that stays open as the scale parameter shrinks.  Everything
here is matrix-free, every inner product a sum against the state's
quadrature weights.  Where only an eigenvalue is read it is the top Ritz
value of one Lanczos recurrence, stopped once that value is exact to
rounding: lambda of every sweep row, from the row's start (the interface
slope on a centred state's even half line, u* off center), lambda2 on the
weighted complement of the leading eigenvector, and ``mesostefan
spectrum`` on an exactly odd state, solved in its two reflection sectors
on the half line (lambda on the even one, lambda2 as the odd one's top
eigenvalue).  Where a caller reads the vector, power iteration gives the
leading pair, extrapolating as the fixed-point loop does: the deflation on
a full grid, and the extended centred state's pair, the off-center Newton
direction u* (:func:`asym.build_problem`).  Each loop keeps its vectors
and its convolution's workspace for its whole run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .grids import conv_workspace
from .instanton import Instanton
from .meso import MesoState, extrapolate, settled_ratio

_POWER_STEPS = 100_000    # power iteration steps for the leading pair
_ROUNDING = 1e-16         # |theta - lambda| <= _ROUNDING |theta| stops Lanczos
_LANCZOS_STEPS = 300      # Lanczos steps: 7-14 at beta = 2, up to 47 at 1.05
_START_FLOOR = 1e-12      # multiple of p under the slope start, below any tol


@dataclass(frozen=True)
class SpectralResult:
    lambda_: float
    u: np.ndarray            # positive, normalized <u^2>_{1/p} = 1
    iterations: int
    residual: float          # sup |A u - lambda u|
    extrapolations: int


def _normalize(state: MesoState, u: np.ndarray, out=None) -> np.ndarray:
    return np.divide(u, np.sqrt(state.weighted_dot(u, u)), out=out)


def leading_eigenpair(state: MesoState, tol=1e-12,
                      start=None) -> SpectralResult:
    """Power iteration with weighted normalization from ``start``, a vector
    positive at every point of the state's grid (p when None).

    Stops when both the Rayleigh quotient is stationary to ``tol`` and the
    residual sup|A u - rq u| drops below ``tol`` (downstream deflations
    inherit the eigenvector's error).  The residual is formed only once
    the quotient is stationary: the rule is an AND, so the stopping step is
    the same.  It extrapolates as :func:`meso.iterate` does, over rho^2 from
    the quotient's changes while they reach ``tol``, then over rho from the
    residuals, clamping the iterate at or above _START_FLOOR times the plain
    one.  The off-center set-up starts it from the interface slope
    (:func:`slope_start`) on the extended centred state's even half line, as
    p's bulk part shrinks only by the bulk value of p per step; ``mesostefan
    spectrum`` from p on the full grid of a state that is not exactly odd,
    where it deflates the vector for lambda2.  Every iterate stays
    nonnegative, as the start, p, the kernel and the clamp are, so u needs
    no sign fix; not positive: clamps compounding over extrapolated steps
    underflow tail entries to 0 (269 of u*'s 1 921 at beta = 1.01, x0 = 0.2,
    eps = 0.0125).
    """
    _check_weight(state)
    if start is None:
        start = state.p
    elif np.any(start <= 0.0):
        raise DomainError("power iteration start must be positive")
    n = state.grid.n
    work = conv_workspace(state.kernel, n)
    # the iterate alternates between u and u_prev, which holds the residual
    # until the next iterate overwrites it; a start handed over unnamed is
    # freed once u is formed
    u = _normalize(state, start, np.empty(n))
    del start
    u_prev = np.empty(n)
    rq_prev, older, old, stationary = np.inf, 0.0, 0.0, False
    jumps, last_jump = 0, 0
    for it in range(1, _POWER_STEPS + 1):
        au = state.apply_linearized(u, work)
        rq = state.weighted_dot(u, au)
        change = abs(rq - rq_prev)
        was, stationary = stationary, change < tol
        if stationary != was:
            older = old = 0.0
        if stationary:
            res = _sup_residual(au, rq, u, u_prev)
            if res < tol * max(1.0, abs(rq)):
                u, u_prev = _normalize(state, au, u_prev), u
                break
        rq_prev = rq
        u, u_prev = _normalize(state, au, u_prev), u
        signal = res if stationary else change
        ratio = settled_ratio(older, old, signal) if last_jump < it - 1 \
            else 0.0
        older, old = old, signal
        if ratio:
            floor = np.multiply(u, _START_FLOOR, out=au)   # au is free
            extrapolate(u, u_prev, ratio if stationary else np.sqrt(ratio),
                        u_prev)
            _normalize(state, np.maximum(u, floor, out=u), u)
            jumps, last_jump = jumps + 1, it
    else:
        raise ConvergenceError(
            f"power iteration stagnated (last Rayleigh {rq:.12g}, residual "
            f"{_sup_residual(au, rq, u_prev, np.empty(n)):.3e})", last=u)
    res = _sup_residual(state.apply_linearized(u, work), rq, u, u_prev)
    u.setflags(write=False)
    return SpectralResult(float(rq), u, it, res, jumps)


def slope_start(state: MesoState, instanton: Instanton) -> np.ndarray:
    """Start on a centred state's even half line
    (:meth:`meso.MesoState.even_half`): the instanton's slope from x = 0 on,
    zero where it is not positive and past its window, plus
    _START_FLOOR * p, which keeps it positive at every point: a centred
    row's lambda and u* (:func:`asym.build_problem`) start from it.

    The maximal eigenvector is the normalised interface slope to O(eps).
    The layout check matched the instanton's spacing to the grid's, so the
    slope is an exact slice.  It dips below 0 only by rounding, in the
    tail: the instanton's window ends where the profile is m_beta to
    rounding, so its slope has no kink there.
    """
    ic = instanton.center_index
    k = min(state.grid.n, instanton.x.size - ic)
    u = _START_FLOOR * state.p
    u[:k] += np.maximum(instanton.derivative[ic:ic + k], 0.0)
    return u


def _sup_residual(au, rq, u, scratch) -> float:
    """sup |au - rq u|, formed in ``scratch``."""
    np.multiply(rq, u, out=scratch)
    np.subtract(au, scratch, out=scratch)
    return float(np.abs(scratch, out=scratch).max())


def _check_weight(state: MesoState) -> None:
    if np.any(state.p <= 0.0):
        raise DomainError("linearization weight must be positive")


class RitzValue(float):
    """A top Ritz value, exact to rounding, that records ``steps``, the
    operator applications its Lanczos recurrence took."""

    def __new__(cls, value: float, steps: int):
        ritz = super().__new__(cls, value)
        ritz.steps = steps
        return ritz


def leading_eigenvalue(state: MesoState, start=None) -> RitzValue:
    """The maximal eigenvalue alone, as the top Ritz value of the Lanczos
    recurrence from ``start`` (p when None; :func:`_top_ritz`), which it
    overwrites: a sweep row from its start, ``mesostefan spectrum`` from p
    on an exactly odd state's even view; no caller reads the vector."""
    return _top_ritz(state, state.p.copy() if start is None else start)


def second_eigenvalue(state: MesoState, result: SpectralResult | None = None
                      ) -> RitzValue:
    """Dominant growth rate on the complement of the maximal eigenvector.

    The top Ritz value (:func:`_top_ritz`) on the weighted complement of
    ``result.u``, from p (1 + x/max|x|).  With ``result`` None it runs on
    the whole space from p x/max|x|, 0 at x = 0 as an odd grid requires: on
    a centred state's odd half line (``mesostefan spectrum``) that is the
    odd sector, whose top is the full grid's lambda2 (to 3.3e-15 relative
    on perfbench's spectrum-fine states).
    """
    x = state.grid.points
    ramp = x / np.max(np.abs(x))
    v = state.p * (ramp if result is None else 1.0 + ramp)
    return _top_ritz(state, v, () if result is None else (result.u,))


def _top_ritz(state: MesoState, v: np.ndarray, against=()) -> RitzValue:
    """Largest-magnitude eigenvalue of p J^neum (self-adjoint in
    <.,.>_{1/p}) on the weighted complement of the unit vectors
    ``against``: a Lanczos recurrence from ``v``, which it overwrites,
    keeping two vectors, each new one orthogonalized again against
    ``against`` and the current one.  It stops at step k once T_k's top Ritz
    value theta has |beta_k s_k|^2 <= _ROUNDING |theta| min(delta, 1), delta
    the distance to the nearest other Ritz value, so that the Kato-Temple
    bound |theta - lambda| <= |beta_k s_k|^2 / delta puts theta within
    rounding; :class:`ConvergenceError` when the step budget runs out."""
    _check_weight(state)
    dot, n = state.weighted_dot, state.grid.n
    for u in against:
        v -= dot(v, u) * u
    # v_prev starts at 0: beta * 0 leaves the first image as it is; once
    # subtracted it is free, and holds each product until the next vector
    # overwrites it
    v, v_prev = _normalize(state, v, v), np.zeros(n)
    work = conv_workspace(state.kernel, n)
    beta, alphas, betas = 0.0, [], []
    for k in range(1, _LANCZOS_STEPS + 1):
        w = state.apply_linearized(v, work)
        w -= np.multiply(beta, v_prev, out=v_prev)
        alphas.append(dot(v, w))
        w -= np.multiply(alphas[-1], v, out=v_prev)
        for u in (*against, v):
            w -= np.multiply(dot(w, u), u, out=v_prev)
        beta = np.sqrt(dot(w, w))
        # eigh reads T_k's lower triangle and sorts the Ritz values, so the
        # top one is at an end and its nearest neighbour next to it
        t = np.zeros((k, k))
        t.flat[::k + 1], t.flat[k::k + 1] = alphas, betas
        ritz, s = np.linalg.eigh(t)
        top = 0 if -ritz[0] > ritz[-1] else -1
        residual = abs(beta * s[-1, top])
        near = ritz[1:2] if top == 0 else ritz[-2:-1]     # none at k = 1
        delta = np.min(np.abs(near - ritz[top]), initial=1.0)
        if residual ** 2 <= _ROUNDING * abs(ritz[top]) * delta:
            return RitzValue(abs(ritz[top]), k)
        betas.append(beta)
        v, v_prev = np.divide(w, beta, out=v_prev), v
    raise ConvergenceError(f"Lanczos recurrence: Ritz residual "
                           f"{residual:.3e} after {_LANCZOS_STEPS} steps")


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
