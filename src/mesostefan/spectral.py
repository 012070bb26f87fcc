"""Positive-operator spectral analysis of the linearized fixed-point map.

The operator A psi = p (J^neum * psi) is self-adjoint under the weight 1/p,
has a positive maximal eigenvalue with a positive eigenvector, and a
spectral gap that stays open as the scale parameter shrinks.  Everything
here is matrix-free, every inner product a sum against the state's
quadrature weights, and every eigen job one Lanczos recurrence
(:func:`_top_ritz`) on an interface window (:func:`_windowed`), stopped
once its top Ritz value, or the Ritz vector where a caller reads one, is
exact to rounding: lambda of every sweep row, from the row's start (the
interface slope on a centred state's even half line, u* off center); the
leading pair, u* (:func:`asym.build_problem`) and ``mesostefan spectrum``'s
deflation on a state that is not exactly odd; lambda2 on the weighted
complement of the leading eigenvector, or on an exactly odd state as its
odd half line's top eigenvalue, lambda there from its even view.  Each
recurrence keeps its vectors and its convolution's workspace for its whole
run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .grids import conv_workspace
from .instanton import TAIL_DECAYS, Instanton, decay_root
from .meso import MesoState
from .thermo import mobility

_ROUNDING = 1e-16         # |theta - lambda| <= _ROUNDING |theta| stops Lanczos
_PAIR_ROUNDING = 1e-15    # |beta_k s_k| <= this theta stops it for a pair
_PAIR_CUT = 1e-24         # share of a pair's weighted norm allowed at a cut
_LANCZOS_STEPS = 300      # Lanczos steps: 1-13 at beta = 2, up to 60 at 1.01
_START_FLOOR = 1e-12      # multiple of p under the slope start
_SCAN_POINTS = 8_192      # points per pass of the scan of p off a window
# _windowed's first half-width by (params, kernel spacing, shape), which
# fixes the kernel (grids.build_kernel): one decay_root per key and process
_FIRST_HALF = {}


@dataclass(frozen=True)
class SpectralResult:
    lambda_: float
    u: np.ndarray            # <u^2>_{1/p} = 1, sum u > 0
    iterations: int          # Lanczos steps
    residual: float          # Ritz residual |beta_k s_k| at the stop
    lo: int                  # u is on the points lo .. lo + u.size - 1


def _windowed(state: MesoState, center, solve, within=None):
    """``solve(window, lo, rows)``'s result on the first window
    (:meth:`meso.MesoState.window`) where its eigenvalue theta exceeds p at
    every point outside (an eigenvector peaks where p is at least its
    eigenvalue) and its second output holds: its vector is small on
    ``rows``, a kernel range at each cut.  Windows reach TAIL_DECAYS / a
    from ``center`` (0 on a half line, else the peak of p), a the leading
    eigenvector's decay rate (:func:`instanton.decay_root`), rounded up to
    the spacing and over two kernel ranges, then twice as far, up to the
    whole state; past a refused one, those with p >= its theta outside or
    not holding ``within`` are skipped."""
    grid, kernel = state.grid, state.kernel
    k = kernel.half_points
    if center is None:
        center = 0 if grid.left == 0.0 else int(
            np.argmin(np.abs(state.conv + state.h)))
    key = (state.params, kernel.spacing, kernel.shape)
    if key not in _FIRST_HALF:
        rate = decay_root(mobility(state.params, state.params.m_beta), kernel)
        _FIRST_HALF[key] = max(2 * k + 1, int(np.ceil(TAIL_DECAYS / rate
                                                      / kernel.spacing)))
    half, theta = _FIRST_HALF[key], np.inf
    while True:
        lo, hi = max(center - half, 0), min(center + half + 1, grid.n)
        half *= 2
        if hi - lo == grid.n:
            return solve(state, 0, np.arange(0))[0]
        peak = _peak_weight(state, lo, hi)
        if peak >= theta or within and not lo <= within[0] <= within[1] <= hi:
            continue
        n = hi - lo     # the last k + 1 points, then the first, at cuts
        rows = np.arange(n - k - 1 if hi < grid.n else n,
                         n + k + 1 if lo else n) % n
        result, tail = solve(state.window(lo, hi), lo, rows)
        theta = getattr(result, "lambda_", result)
        if tail and peak < theta:
            return result


def _peak_weight(state: MesoState, lo: int, hi: int) -> float:
    """max p off the points lo .. hi - 1, 4 beta e / (1 + e)^2 with e =
    exp(-2 beta z) at the least z = |J^neum*m + h| there."""
    z, buf = np.inf, np.empty(_SCAN_POINTS)
    for first, end in ((0, lo), (hi, state.grid.n)):
        for a in range(first, end, _SCAN_POINTS):
            b = min(a + _SCAN_POINTS, end)
            part = np.add(state.conv[a:b], state.h[a:b], out=buf[:b - a])
            z = min(z, float(np.abs(part, out=part).min()))
    e = np.exp(-2.0 * state.params.beta * z)
    return 4.0 * state.params.beta * e / (1.0 + e) ** 2


def _tail_share(state: MesoState, u: np.ndarray, rows) -> float:
    """<u^2>_{1/p} of u's values on the points ``rows``."""
    return float(np.einsum("i,i,i->", u, state.quadrature[rows], u))


def leading_eigenpair(state: MesoState, start=None) -> SpectralResult:
    """The maximal eigenpair, as the top Ritz pair of the Lanczos
    recurrence from ``start(window, lo)`` (p when None; :func:`_top_ritz`)
    on the interface window about the peak of p (:func:`_windowed`): u*
    from the interface slope (:func:`slope_start`), ``mesostefan spectrum``
    from p, for lambda2's deflation on a state that is not exactly odd."""
    return _windowed(state, None, lambda win, lo, rows: _top_ritz(
        win, win.p.copy() if start is None else start(win, lo), (), rows,
        lo))


def slope_start(state: MesoState, instanton: Instanton) -> np.ndarray:
    """Start on a centred state's even half line
    (:meth:`meso.MesoState.even_half`), or a window from x = 0: the
    instanton's slope from x = 0 on, zero where it is not positive and past
    its window, plus _START_FLOOR * p, which keeps it positive at every
    point: a centred row's lambda and u* (:func:`asym.build_problem`) start
    from it.

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


def _check_weight(state: MesoState) -> None:
    if np.any(state.p <= 0.0):
        raise DomainError("linearization weight must be positive")


class RitzValue(float):
    """A top Ritz value, exact to rounding, that records ``steps``, the
    operator applications its Lanczos recurrence took, and its window's
    ``points``."""

    def __new__(cls, value: float, steps: int, points: int):
        ritz = super().__new__(cls, value)
        ritz.steps, ritz.points = steps, points
        return ritz


def leading_eigenvalue(state: MesoState, start=None, center=None
                       ) -> RitzValue:
    """The maximal eigenvalue alone, as the top Ritz value of the Lanczos
    recurrence from ``start(window, lo)`` (p when None; :func:`_top_ritz`)
    on the window about ``center`` (:func:`_windowed`): a sweep row from its
    start, ``mesostefan spectrum`` from p on an exactly odd state's even
    view; no caller reads the vector."""
    return _windowed(state, center, lambda win, lo, rows: _top_ritz(
        win, win.p.copy() if start is None else start(win, lo), (), rows))


def second_eigenvalue(state: MesoState, result: SpectralResult | None = None
                      ) -> RitzValue:
    """Dominant growth rate on the complement of the maximal eigenvector.

    The top Ritz value (:func:`_top_ritz`) on the weighted complement of
    ``result.u``, from p (1 + x/max|x|), on the interface windows
    (:func:`_windowed`) from the first that holds u's, u 0 past it.  With
    ``result`` None it runs on the whole space from p x/max|x|, 0 at x = 0
    as an odd grid requires: on a centred state's odd half line
    (``mesostefan spectrum``) that is the odd sector, whose top is the full
    grid's lambda2 (to 3.3e-15 relative on perfbench's spectrum-fine
    states).
    """
    def solve(win, lo, rows):
        x = win.grid.points
        ramp = x / np.max(np.abs(x))
        if result is None:
            return _top_ritz(win, win.p * ramp, (), rows)
        u = np.zeros(win.grid.n)
        u[result.lo - lo:result.lo - lo + result.u.size] = result.u
        return _top_ritz(win, win.p * (1.0 + ramp), (u,), rows)
    return _windowed(state, None, solve, result and (
        result.lo, result.lo + result.u.size))


def _top_ritz(state: MesoState, v: np.ndarray, against=(), rows=(),
              lo=None):
    """Largest-magnitude eigenvalue of p J^neum (self-adjoint in
    <.,.>_{1/p}) on the weighted complement of the unit vectors
    ``against``: a Lanczos recurrence from ``v``, which it overwrites,
    keeping two vectors, each new one orthogonalized again against
    ``against`` and the current one, and the earlier ones on ``rows``.  It
    stops at step k once T_k's top Ritz value theta has |beta_k s_k|^2 <=
    _ROUNDING |theta| min(delta, 1), delta the distance to the nearest other
    Ritz value, so that the Kato-Temple bound |theta - lambda| <= |beta_k
    s_k|^2 / delta puts theta within rounding; :class:`ConvergenceError`
    when the step budget runs out.  Returns theta as a :class:`RitzValue`
    and whether its Ritz vector has at most _ROUNDING of its weighted norm
    on ``rows``.

    With ``lo``, the window's first point, it returns the top Ritz pair as
    a :class:`SpectralResult` instead, and whether at most _PAIR_CUT of the
    vector's weighted norm is on ``rows``.  It then keeps every vector, a
    row per step, orthogonalizes each new one again against them all, and
    stops once |beta_k s_k| <= _PAIR_ROUNDING theta, which bounds the
    vector's error as well.  On an odd grid v is 0 at x = 0, as every
    profile there is (:func:`grids.conv_values`)."""
    _check_weight(state)
    dot, n = state.weighted_dot, state.grid.n
    if state.grid.odd:
        v[0] = 0.0
    for u in against:
        v -= dot(v, u) * u
    # v_prev starts at 0: beta * 0 leaves the first image as it is; once
    # subtracted it is free, and holds each product until the next vector
    # overwrites it
    v, v_prev = np.divide(v, np.sqrt(dot(v, v)), out=v), np.zeros(n)
    work = conv_workspace(state.kernel, n)
    basis = None if lo is None else np.empty((_LANCZOS_STEPS, n))
    beta, alphas, betas, tails = 0.0, [], [], []
    for k in range(1, _LANCZOS_STEPS + 1):
        if basis is None:
            tails.append(v[rows])
        w = state.apply_linearized(v, work)
        w -= np.multiply(beta, v_prev, out=v_prev)
        alphas.append(dot(v, w))
        w -= np.multiply(alphas[-1], v, out=v_prev)
        if basis is None:
            for u in (*against, v):
                w -= np.multiply(dot(w, u), u, out=v_prev)
        else:
            basis[k - 1] = v
            kept = basis[:k]
            w -= (kept @ np.multiply(state.quadrature, w, out=v_prev)) @ kept
        beta = np.sqrt(dot(w, w))
        # eigh reads T_k's lower triangle and sorts the Ritz values, so the
        # top one is at an end and its nearest neighbour next to it
        t = np.zeros((k, k))
        t.flat[::k + 1], t.flat[k::k + 1] = alphas, betas
        ritz, s = np.linalg.eigh(t)
        top = 0 if -ritz[0] > ritz[-1] else -1
        theta, residual = abs(ritz[top]), abs(beta * s[-1, top])
        if basis is None:
            near = ritz[1:2] if top == 0 else ritz[-2:-1]   # none at k = 1
            delta = np.min(np.abs(near - ritz[top]), initial=1.0)
            if residual ** 2 <= _ROUNDING * theta * delta:
                share = _tail_share(state, s[:, top] @ np.array(tails), rows)
                return RitzValue(theta, k, n), share <= _ROUNDING
        elif residual <= _PAIR_ROUNDING * theta:
            u = s[:, top] @ kept
            if u.sum() < 0.0:
                np.negative(u, out=u)
            u.setflags(write=False)
            return SpectralResult(theta, u, k, residual, lo), \
                _tail_share(state, u[rows], rows) <= _PAIR_CUT
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
    log-slope on the right tail beyond it, where u > 1e-10 max u, both on
    u's window.
    """
    grid = state.grid
    window = max(1.0, 2.0 * np.log(1.0 / grid.epsilon) / instanton.decay_rate)
    x, u = grid.points[result.lo:result.lo + result.u.size], result.u
    md_unit = np.interp(x, instanton.x, instanton.unit_derivative(),
                        left=0.0, right=0.0)
    inside = np.abs(x) <= window
    sup_diff = float(np.max(np.abs(u[inside] - md_unit[inside])))

    tail = u[(x > window) & (u > 1e-10 * np.max(u))]
    slope_ratio = -np.diff(np.log(tail)) / (grid.spacing * instanton.decay_rate)
    return {"window": float(window), "sup_window_diff": sup_diff,
            "tail_slope_deviation": float(np.max(np.abs(slope_ratio - 1.0)))}
