"""Uniform 1-D mesoscopic grids, the interaction kernel, and convolutions.

The mesoscopic domain is eps^-1 * [-left, right] in kernel-range units.  The
kernel J is an even probability density supported on [-1, 1]; convolution is
trapezoid quadrature, with reflected images about both endpoints
(:func:`conv_values`, J^neum) or on the zero-extended line
(:func:`conv_values_filled`).  A grid's width must be a whole number of
cells.  An ``odd`` grid (:func:`build_half_line`, :meth:`Grid.half_line`)
holds odd profiles by their values on x >= 0, which :func:`conv_values`
reflects about x = 0 with a sign; the plain half line holds even ones.

Every convolution runs as a blocked Toeplitz matrix product.  The padded
values are written into one zero-tailed buffer and viewed as rows of B
points, B = :func:`block_size` of the kernel's taps.  Output block b is
sum_q P[b + q] @ T[q], where the Q = ceil((B + taps - 1) / B) slabs T[q]
are B x B Toeplitz pieces of the kernel built once per :class:`Kernel`:
n * B * Q multiply-adds, 80 n at 41 taps (B = 40, Q = 2), where B = 64
would take 128 n.  The padded buffer and the output share one array, which
a loop passes again on every step (:func:`conv_workspace`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridError

KERNEL_RANGE = 1.0
BLOCK = 64        # most points per row of the blocked Toeplitz product
CHUNK_ROWS = 128  # rows per matrix product: <= 64 KB operands stay in cache
POINT_CAP = 10_000_000   # grid points, and instanton points
TAP_CAP = 20_001         # kernel taps: the Toeplitz slabs take 512 B per tap
MAX_SPACING = 0.1  # at least 10 samples per unit kernel range


def block_size(taps: int) -> int:
    """Points per row block for a kernel of ``taps`` taps.

    The slabs then cover the taps - 1 off-diagonals in Q = 2 products
    whenever taps - 1 <= BLOCK; multiples of 8 keep the rows aligned for
    BLAS.  21 taps give 24, 41 give 40, and 58 or more give BLOCK.
    """
    return min(BLOCK, 8 * -(-(taps - 1) // 8))


def _toeplitz_slabs(weights: np.ndarray) -> np.ndarray:
    """Read-only (Q, B, B) slabs with T[q][s, r] = w[taps-1-(qB+s-r)],
    B = block_size(taps).

    Entries whose tap index falls outside [0, taps) are zero, so a row
    block P[b] of the padded values times T[0] + ... + P[b+Q-1] T[Q-1] is
    the convolution on output block b.
    """
    taps = weights.size
    block = block_size(taps)
    n_slabs = -(-(block + taps - 1) // block)
    q = np.arange(n_slabs)[:, None, None]
    s = np.arange(block)[None, :, None]
    r = np.arange(block)[None, None, :]
    t = q * block + s - r
    inside = (t >= 0) & (t < taps)
    slabs = np.where(inside, weights[::-1][np.clip(t, 0, taps - 1)], 0.0)
    slabs.setflags(write=False)
    return slabs


def _cos2_kernel(r):
    # strict inequality pins J(+-1) to exactly 0 (cos(pi/2) rounds to ~1e-17)
    return np.where(np.abs(r) < 1.0, np.cos(0.5 * np.pi * r) ** 2, 0.0)


def _quartic_kernel(r):
    return np.where(np.abs(r) <= 1.0, (15.0 / 16.0) * (1.0 - r * r) ** 2, 0.0)


#: Available kernel shapes.  Both are even, C^1, supported on [-1, 1] and
#: integrate to 1 before discrete renormalization.
KERNEL_SHAPES = {"cos2": _cos2_kernel, "quartic": _quartic_kernel}


@dataclass(frozen=True)
class Grid:
    """Uniform grid on eps^-1 * [-left, right]; both endpoints are points."""

    epsilon: float
    left: float
    right: float
    spacing: float
    points: np.ndarray
    odd: bool = False     # left = 0 is the centre of odd profiles

    @property
    def n(self) -> int:
        return self.points.size

    @property
    def a(self) -> float:
        """Left endpoint (mesoscopic units)."""
        return float(self.points[0])

    @property
    def b(self) -> float:
        """Right endpoint (mesoscopic units)."""
        return float(self.points[-1])

    @cached_property
    def center_index(self) -> int:
        """Index of the point closest to x = 0."""
        return int(np.argmin(np.abs(self.points)))

    def half_line(self, odd: bool = True) -> Grid:
        """The points x >= 0 of a grid centred on x = 0: an odd grid, or
        with ``odd`` false a plain one, whose mirror at x = 0 is the even
        reflection."""
        return Grid(self.epsilon, 0.0, self.right, self.spacing,
                    self.points[self.center_index:], odd)

    def index_of(self, x: float) -> int:
        i = int(round((x - self.a) / self.spacing))
        if i < 0 or i >= self.n or abs(self.points[i] - x) > 1e-9 * max(1.0, abs(x)):
            raise GridError(f"x = {x:.10g} is not a point of the grid from "
                            f"{self.a:.10g} at spacing {self.spacing:.6g}")
        return i

    def descriptor(self, **extra) -> str:
        return json.dumps({"epsilon": self.epsilon, "left": self.left,
                           "right": self.right, "spacing": self.spacing,
                           "n": self.n, **extra})


@dataclass(frozen=True)
class Kernel:
    """Discretely renormalized samples of J on [-1, 1] at the grid spacing."""

    spacing: float
    shape: str
    samples: np.ndarray   # raw J values at offsets k*spacing, k=-K..K
    weights: np.ndarray   # quadrature weights, sum(weights) == 1 exactly
    # read-only (Q, B, B) Toeplitz slabs of the weights, B = block_size
    slabs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "slabs", _toeplitz_slabs(self.weights))

    @property
    def half_points(self) -> int:
        return (self.samples.size - 1) // 2


def build_grid(epsilon, half_length_left, half_length_right, spacing) -> Grid:
    """Grid covering eps^-1 * [-left, right] with endpoints included.

    The width eps^-1 (left + right) must be a whole number of cells of the
    spacing, to a relative 1e-9; the grid is then exact at that spacing.
    """
    a, step, cells = _cells(epsilon, half_length_left, half_length_right,
                            spacing)
    return Grid(float(epsilon), float(half_length_left),
                float(half_length_right), step, _points(a, step, 0, cells + 1))


def build_half_line(epsilon, half_length, spacing) -> Grid:
    """The odd half line x >= 0 of build_grid(epsilon, half_length,
    half_length, spacing), its points that grid's to the bit, built alone;
    GridError too when x = 0 is not one of them."""
    a, step, cells = _cells(epsilon, half_length, half_length, spacing)
    c = int(round(-a / step))
    points = _points(a, step, c, cells + 1)
    if abs(points[0]) > 1e-9:
        raise GridError(f"x = 0 is not a point of the grid from {a:.10g} at "
                        f"spacing {step:.6g}")
    return Grid(float(epsilon), 0.0, float(half_length), step, points, True)


def _cells(epsilon, half_length_left, half_length_right, spacing):
    """(left end, spacing, cells) of build_grid's checked grid."""
    if not all(np.isfinite(v) for v in (epsilon, half_length_left,
                                        half_length_right, spacing)):
        raise GridError("grid parameters must be finite")
    if not 0.0 < epsilon < 1.0:
        raise GridError(f"epsilon must be in (0, 1), got {epsilon}")
    if half_length_left <= 0.0 or half_length_right <= 0.0:
        raise GridError("half-lengths must be positive")
    if not 0.0 < spacing <= MAX_SPACING:
        raise GridError(f"spacing must be in (0, {MAX_SPACING}], got {spacing}")

    a = -half_length_left / epsilon
    b = half_length_right / epsilon
    width = b - a
    cells = width / spacing
    if not cells < POINT_CAP:
        raise GridError(f"grid would need {cells + 1:.6g} points "
                        f"(cap {POINT_CAP})")
    n_cells = round(cells)
    if abs(cells - n_cells) > 1e-9 * max(1.0, cells):
        raise GridError(
            f"ell/eps = ({half_length_left:.6g} + {half_length_right:.6g})"
            f"/{epsilon:.6g} = {width:.10g} is not a whole number of cells "
            f"of spacing {spacing:.6g}")
    if n_cells + 1 < 3:
        raise GridError("grid needs at least 3 points")
    return a, float(width / n_cells), n_cells


def _points(a, step, start, stop) -> np.ndarray:
    """Read-only a + step i, i = start .. stop - 1, formed in place."""
    points = np.arange(start, stop, dtype=float)
    points *= step
    points += a
    points.setflags(write=False)
    return points


def build_kernel(grid_spacing, shape="cos2") -> Kernel:
    """Sample a kernel shape at the grid spacing and renormalize discretely."""
    if shape not in KERNEL_SHAPES:
        raise GridError(f"unknown kernel shape {shape!r}")
    if not np.isfinite(grid_spacing) or grid_spacing <= 0:
        raise GridError("spacing must be positive and finite")
    half = KERNEL_RANGE / grid_spacing - 1e-9
    if not half <= TAP_CAP // 2:
        raise GridError(f"spacing {grid_spacing} needs more than {TAP_CAP} "
                        f"kernel taps")
    n_half = math.ceil(half)
    if n_half < 10:
        raise GridError("need at least 10 kernel samples per unit range")
    offsets = grid_spacing * np.arange(-n_half, n_half + 1)
    samples = KERNEL_SHAPES[shape](offsets)
    trap = np.ones_like(samples)
    trap[0] = trap[-1] = 0.5
    weights = samples * trap * grid_spacing
    weights = weights / weights.sum()
    samples.setflags(write=False)
    weights.setflags(write=False)
    return Kernel(float(grid_spacing), shape, samples, weights)


def _check_match(kernel: Kernel, grid: Grid):
    if abs(kernel.spacing - grid.spacing) > 1e-12 * max(1.0, grid.spacing):
        raise GridError(
            f"kernel spacing {kernel.spacing} != grid spacing {grid.spacing}"
        )


def conv_workspace(kernel: Kernel, n: int) -> np.ndarray:
    """The padded rows and products of an n-point convolution with
    ``kernel``, for the ``work`` argument of :func:`conv_values` and
    :func:`conv_values_filled`: n + B (Q - 1) padded points and n output
    points, each rounded up to whole B-point rows."""
    block = kernel.slabs.shape[1]
    n_out = -(-n // block)
    return np.empty((2 * n_out + kernel.slabs.shape[0] - 1) * block)


def conv_values(kernel: Kernel, grid: Grid, values: np.ndarray,
                work: np.ndarray | None = None) -> np.ndarray:
    """Reflected-kernel convolution J^neum * values of raw sample values.

    The profile is extended by its mirror images about both endpoints,
    negated at x = 0 on an odd grid (where values[0] and the result are 0).
    With trapezoid weights and a kernel vanishing at +-1 this equals the
    quadrature of the reflected-kernel integral exactly.  GridError when
    the values are not the grid's n.  With ``work`` (:func:`conv_workspace`
    of the kernel and grid.n) the result is a view of it, overwritten by the
    next convolution into it.
    """
    _check_match(kernel, grid)
    values = np.asarray(values, dtype=float)
    if values.size != grid.n:
        raise GridError(f"{values.size} values on a grid of {grid.n} points")
    # a half line (left = 0, which build_grid never gives) is half a grid
    if grid.b - grid.a < (1.0 if grid.left == 0.0 else 2.0) * KERNEL_RANGE:
        raise GridError("neumann convolution needs half-widths >= kernel range")
    k = kernel.half_points
    left = values[k:0:-1]
    out = _blocked_convolution(kernel, values, -left if grid.odd else left,
                               values[-k - 1:-1][::-1], work)
    if grid.odd:
        out[0] = 0.0    # the mirrored products cancel only to rounding
    return out


def conv_values_filled(kernel: Kernel, values: np.ndarray,
                       work: np.ndarray | None = None) -> np.ndarray:
    """Free-line convolution of the values filled out by zeros on both
    sides.  ``work`` as for :func:`conv_values`."""
    return _blocked_convolution(kernel, np.asarray(values, dtype=float),
                                0.0, 0.0, work)


def _blocked_convolution(kernel: Kernel, values: np.ndarray,
                         left_pad, right_pad, work) -> np.ndarray:
    """Convolution of ``values`` extended by k pad values on each side.

    Each pad is k values or one constant.  The padded values go into a
    zero-tailed buffer of whole B-point rows P, B the kernel's block size,
    and output block b is sum_q P[b + q] @ T[q] over the kernel's slabs,
    formed CHUNK_ROWS blocks at a time so that the products and their sum
    run in cache.  P and the output are the two parts of ``work``, or of
    one fresh array of its size when it is None.
    """
    k = kernel.half_points
    n = values.size
    slabs = kernel.slabs
    block = slabs.shape[1]
    n_out = -(-n // block)
    n_buf = (n_out + slabs.shape[0] - 1) * block
    size = n_buf + n_out * block
    if work is None:
        work = np.empty(size)
    elif work.size != size:
        raise GridError(f"convolution workspace of {work.size} points for "
                        f"{n} values at {kernel.weights.size} taps, which "
                        f"take {size}")
    buf = work[:n_buf]
    buf[:k] = left_pad
    buf[k:k + n] = values
    buf[k + n:n + 2 * k] = right_pad
    buf[n + 2 * k:] = 0.0
    rows = buf.reshape(-1, block)
    out = work[n_buf:].reshape(n_out, block)
    for c0 in range(0, n_out, CHUNK_ROWS):
        c1 = min(c0 + CHUNK_ROWS, n_out)
        part = out[c0:c1]
        np.matmul(rows[c0:c1], slabs[0], out=part)
        for q in range(1, slabs.shape[0]):
            part += rows[c0 + q:c1 + q] @ slabs[q]
    return out.reshape(-1)[:n]


def trapezoid_antiderivative(grid: Grid, values: np.ndarray, anchor: int,
                             out: np.ndarray | None = None) -> np.ndarray:
    """Trapezoid antiderivative vanishing at the grid point ``anchor``:
    scipy's cumulative_trapezoid(values, dx=spacing, initial=0) minus its
    value there, summed in place in ``out`` (not ``values``) when given.
    Its one product by spacing/2 is scipy's (spacing s)/2 to the bit."""
    c = np.empty(values.size) if out is None else out
    c[0] = 0.0
    steps = np.add(values[1:], values[:-1], out=c[1:])
    steps *= 0.5 * grid.spacing
    np.cumsum(steps, out=steps)
    if anchor:
        c -= c[anchor]
    return c
