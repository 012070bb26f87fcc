"""Dense reference operators that the solvers only apply matrix-free, the
direct padded convolution that the blocked product replaces, and the power
iteration that forms its residual on every step."""

import numpy as np

from mesostefan.errors import ConvergenceError
from mesostefan.grids import KERNEL_SHAPES


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
    :func:`mesostefan.grids.conv_values`), ``"free"`` (zeros) or
    ``"filled"`` (the constants ``fills``, as in
    :func:`mesostefan.grids.conv_values_filled`).
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


def leading_eigenpair_every_step(state, tol=1e-12, steps=100_000):
    """(lambda, u, iterations, residual) of the power iteration that forms
    the sup residual sup|A u - rq u| on every step, stopping when both it
    and the change of the Rayleigh quotient are below ``tol``; raises
    ConvergenceError with the last quotient and residual after ``steps``."""
    u = state.p.copy()
    u = u / np.sqrt(state.weighted_dot(u, u))
    rq_prev = np.inf
    for it in range(1, steps + 1):
        au = state.apply_linearized(u)
        rq = state.weighted_dot(u, au)
        res = float(np.max(np.abs(au - rq * u)))
        u_next = au / np.sqrt(state.weighted_dot(au, au))
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
    res = float(np.max(np.abs(state.apply_linearized(u) - rq * u)))
    return float(rq), u, it, res
