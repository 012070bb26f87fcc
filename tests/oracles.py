"""Dense reference operators that the solvers only apply matrix-free, the
direct padded convolution that the blocked product replaces, the power
iteration that forms its residual on every step, and the interface profile
reached from a second start."""

import numpy as np

from mesostefan import meso
from mesostefan.errors import ConvergenceError
from mesostefan.grids import KERNEL_SHAPES, Grid
from mesostefan.meso import settled_ratio


def neumann_matrix(kernel, grid):
    """Dense W with (W f)_i = trapezoid quadrature of J^neum(x_i, y) f(y).

    Built from the kernel shape with the images about both endpoints written
    out, so it checks :func:`mesostefan.grids.conv_values` (``"neumann"``)
    independently of its padding.  O(n^2) memory: small grids only.
    """
    assert abs(kernel.spacing - grid.spacing) <= 1e-12 * max(1.0, grid.spacing)
    x = grid.points
    a2, b2 = 2.0 * grid.a, 2.0 * grid.b
    shape_fn = KERNEL_SHAPES[kernel.shape]
    diff = x[:, None] - x[None, :]
    w = shape_fn(diff) + shape_fn(x[:, None] + x[None, :] - b2) \
        + shape_fn(x[:, None] + x[None, :] - a2)
    trap = np.full(grid.n, grid.spacing)
    trap[0] *= 0.5
    trap[-1] *= 0.5
    # renormalize exactly as the sampled kernel does
    norm = kernel.weights.sum() / (kernel.samples * _trap_weights(kernel)).sum()
    return w * trap[None, :] * norm


def _trap_weights(kernel):
    t = np.full(kernel.samples.size, kernel.spacing)
    t[0] *= 0.5
    t[-1] *= 0.5
    return t


def convolve_reference(kernel, values, mode, fills=(0.0, 0.0)):
    """Convolution by ``np.convolve`` on the explicitly padded values.

    ``mode`` is ``"neumann"`` (mirror images about both end points, as in
    :func:`mesostefan.grids.conv_values`), ``"free"`` (zeros, as in
    :func:`mesostefan.grids.conv_values_filled`) or ``"filled"`` (the
    constants ``fills``).
    """
    k = kernel.half_points
    values = np.asarray(values, dtype=float)
    if mode == "neumann":
        left, right = values[1:k + 1][::-1], values[-k - 1:-1][::-1]
    else:
        fill = fills if mode == "filled" else (0.0, 0.0)
        left, right = np.full(k, fill[0]), np.full(k, fill[1])
    padded = np.concatenate([left, values, right])
    return np.convolve(padded, kernel.weights, mode="valid")


def leading_eigenpair_every_step(state, tol=1e-12, steps=100_000,
                                 start=None):
    """(lambda, u, iterations, residual) of the power iteration from
    ``start`` (p when None) that forms the sup residual sup|A u - rq u| on
    every step, stopping when both it and the change of the Rayleigh
    quotient are below ``tol``; raises ConvergenceError with the last
    quotient and residual after ``steps``.

    It extrapolates as the package's does: over the ratio
    (:func:`mesostefan.meso.settled_ratio`) of the last three quotient
    changes, square-rooted, while the quotient moves by ``tol`` or more,
    and of the last three residuals once it moves by less, never on two
    steps in a row, with the result kept above 1e-12 times the plain
    iterate and normalised again."""
    u = (state.p if start is None else start).copy()
    u = u / np.sqrt(state.weighted_dot(u, u))
    rq_prev, signals, last_jump = np.inf, [], 0
    for it in range(1, steps + 1):
        au = state.apply_linearized(u)
        rq = state.weighted_dot(u, au)
        res = float(np.max(np.abs(au - rq * u)))
        change = abs(rq - rq_prev)
        u_next = au / np.sqrt(state.weighted_dot(au, au))
        if res < tol * max(1.0, abs(rq)) and change < tol:
            u = u_next
            break
        stationary = change < tol
        if signals and signals[-1][1] != stationary:
            signals = []
        signals.append((res if stationary else change, stationary))
        ratio = 0.0
        if len(signals) >= 3 and last_jump < it - 1:
            ratio = settled_ratio(*(value for value, _ in signals[-3:]))
        if ratio:
            rho = ratio if stationary else np.sqrt(ratio)
            floor = u_next * 1e-12
            u_next = u_next + (u_next - u) * (rho / (1.0 - rho))
            u_next = np.maximum(u_next, floor)
            u_next = u_next / np.sqrt(state.weighted_dot(u_next, u_next))
            last_jump = it
        rq_prev = rq
        u = u_next
    else:
        raise ConvergenceError(
            f"power iteration stagnated (last Rayleigh {rq:.12g}, "
            f"residual {res:.3e})", last=u)
    res = float(np.max(np.abs(state.apply_linearized(u) - rq * u)))
    return float(rq), u, it, res


def tanh_start_profile(params, kernel, inst):
    """The profile that the instanton's loop (:func:`meso.iterate` at zero
    field) reaches from m_beta tanh(x) instead of m_beta sign(x), on the
    instanton's own odd half line over [0, X], extended oddly to [-X, X]."""
    c = inst.center_index
    half = Grid(1.0, 0.0, inst.half_width, inst.spacing, inst.x[c:], odd=True)
    zero = np.zeros(half.n)
    start = meso.make_state(params, kernel, half, zero,
                            params.m_beta * np.tanh(half.points))
    state, _ = meso.iterate(start, lambda m, out, scratch: zero)
    return np.concatenate([-state.m[:0:-1], state.m])
