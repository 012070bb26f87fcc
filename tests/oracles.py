"""Dense reference operators that the solvers only apply matrix-free, the
direct padded convolution that the blocked product replaces, the leading
pair of a dense eigensolve, the Lanczos recurrence on the whole grid that
the interface window replaces, and the interface profile reached from a
second start."""

import numpy as np

from mesostefan import meso
from mesostefan.errors import ConvergenceError
from mesostefan.grids import KERNEL_SHAPES, Grid


def neumann_matrix(kernel, grid):
    """Dense W with (W f)_i = trapezoid quadrature of J^neum(x_i, y) f(y).

    Built from the kernel shape with the images about both endpoints written
    out, the one about x = 0 negated on an odd grid, so it checks
    :func:`mesostefan.grids.conv_values` (``"neumann"``) independently of
    its padding.  The distances x_i - x_j and x_i + x_j - 2a (or - 2b) are
    index offsets times the spacing, each rounded once, however far the
    points are from 0.  O(n^2) memory: small grids only.
    """
    assert abs(kernel.spacing - grid.spacing) <= 1e-12 * max(1.0, grid.spacing)
    h, i = grid.spacing, np.arange(grid.n)
    assert np.max(np.abs(grid.points - (grid.a + i * h))) <= 1e-9
    shape_fn = KERNEL_SHAPES[kernel.shape]
    w = shape_fn((i[:, None] - i[None, :]) * h) \
        + shape_fn((i[:, None] + i[None, :] - 2 * (grid.n - 1)) * h) \
        + (-1.0 if grid.odd else 1.0) * shape_fn((i[:, None] + i[None, :]) * h)
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


def dense_leading_pair(state):
    """(lambda, u) of p W on the whole of ``state``'s grid, W the
    :func:`neumann_matrix`, from ``numpy.linalg.eigh`` of the symmetric
    Q^(1/2) diag(p) W Q^(-1/2), Q the state's quadrature weights: the
    largest-magnitude eigenvalue and its eigenvector, scaled to
    <u^2>_{1/p} = 1 with sum u > 0.  O(n^2) memory: up to about 2 000
    points."""
    root = np.sqrt(state.quadrature)
    s = state.p[:, None] * neumann_matrix(state.kernel, state.grid)
    s *= root[:, None]
    s /= root[None, :]
    values, vectors = np.linalg.eigh(0.5 * (s + s.T))
    top = int(np.argmax(np.abs(values)))
    u = vectors[:, top] / root
    return float(abs(values[top])), u if u.sum() > 0.0 else -u


def full_grid_ritz(state, start=None, against=(), steps=300):
    """(theta, steps) of the Lanczos recurrence on the whole of ``state``'s
    grid: the top Ritz value of p J^neum on the weighted complement of the
    unit vectors ``against``, from ``start`` (p when None), each new vector
    orthogonalized again against ``against`` and the current one, stopped
    at step k once |beta_k s_k|^2 <= 1e-16 |theta| min(delta, 1), delta
    the distance to the nearest other Ritz value."""
    dot = state.weighted_dot
    v = (state.p if start is None else start).copy()
    for u in against:
        v = v - dot(v, u) * u
    v = v / np.sqrt(dot(v, v))
    v_prev, beta, alphas, betas = np.zeros(v.size), 0.0, [], []
    for k in range(1, steps + 1):
        w = state.apply_linearized(v) - beta * v_prev
        alphas.append(dot(v, w))
        w = w - alphas[-1] * v
        for u in (*against, v):
            w = w - dot(w, u) * u
        beta = np.sqrt(dot(w, w))
        t = np.diag(alphas) + np.diag(betas, -1) + np.diag(betas, 1)
        ritz, s = np.linalg.eigh(t)
        top = 0 if -ritz[0] > ritz[-1] else -1
        near = np.delete(ritz, top if top == 0 else k - 1)
        delta = np.min(np.abs(near - ritz[top]), initial=1.0)
        if (beta * s[-1, top]) ** 2 <= 1e-16 * abs(ritz[top]) * delta:
            return float(abs(ritz[top])), k
        betas.append(beta)
        v, v_prev = w / beta, v
    raise ConvergenceError(f"Lanczos recurrence: no stop in {steps} steps")


def full_grid_second(state, u=None):
    """(lambda2, steps) on the whole grid: on the complement of the unit
    vector u from p (1 + x/max|x|), or with u None from p x/max|x| (an odd
    half line's top)."""
    x = state.grid.points
    ramp = x / np.max(np.abs(x))
    if u is None:
        return full_grid_ritz(state, state.p * ramp)
    return full_grid_ritz(state, state.p * (1.0 + ramp), (u,))


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
