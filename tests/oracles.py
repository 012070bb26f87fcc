"""Dense reference operators that the solvers only apply matrix-free, and
the direct padded convolution that the blocked product replaces."""

import numpy as np

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
