"""Mesoscopic building blocks shared by every profile solver.

A state is a pair (h, m) on a grid together with the convolution J^neum*m
that its residual was measured from.  The linearization weight
p = beta / cosh^2(beta J^neum*m + beta h) and the quadrature weights over p
are derived from it on first use, so a state that only feeds the next
solve never forms them, and every solve restarts from a state's
convolution (an outer loop's first from its start's).  At exact fixed
points of m = tanh(beta J^neum*m + beta h) the weight coincides with the
mobility chi(m), which the solvers exploit throughout.

The auxiliary solve :func:`inner_solve` runs plain, undamped fixed-point
(Picard) iteration and, when that stalls on the slow interface mode,
recursive projection (Shroff and Keller 1993): Picard on the complement of
the leading eigenvector of p J^neum, one Newton step along it.
Its :class:`InnerRecord` says how many fixed-point steps it took and which
path finished it.  A loop of such solves hands each one the same
:class:`Workspace`, so that no fixed-point step allocates an n-point array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import spectral
from .errors import ConvergenceError, DomainError, SaturationError
from .grids import Grid, Kernel, conv_values, conv_workspace
from .thermo import ThermoParams

SATURATION_LIMIT = 1.0 - 1e-8
_MAX_ITER = 20_000        # fixed-point steps
_STALL_RATIO = 0.9        # residual ratio counted as a stalled step
_STALL_STEPS = 5          # consecutive stalled steps before the projection
_PAIR_TOL = 1e-8          # pair's tolerance; 1e-12 takes the same steps
_NO_GAP = 1e-14           # |1 - lambda| below this is 1 to rounding


@dataclass(frozen=True)
class InnerRecord:
    """What an auxiliary solve did: its fixed-point updates of m and the path
    that finished it, "picard" or "projected" (recursive projection after a
    stall)."""

    picard_steps: int
    path: str


class Workspace:
    """The n-point buffers that every auxiliary solve of one loop reuses.

    ``iterates`` holds a solve's two alternating magnetizations, ``conv``
    the padded rows and products of its convolutions
    (:func:`grids.conv_workspace`) and ``scratch`` every other n-point
    value; between solves the loop around them may use ``scratch`` too.
    The state a solve returns holds views of ``iterates`` and ``conv``: it
    is valid until the next solve in the workspace.
    """

    def __init__(self, kernel: Kernel, n: int):
        self.iterates = np.empty((2, n))
        self.scratch = np.empty(n)
        self.conv = conv_workspace(kernel, n)


@dataclass(frozen=True)
class MesoState:
    """Immutable (h, m) pair with J^neum*m and its residual."""

    params: ThermoParams
    kernel: Kernel
    grid: Grid
    h: np.ndarray
    m: np.ndarray
    conv: np.ndarray                     # J^neum * m
    residual_norm: float
    record: InnerRecord | None = None    # set by inner_solve

    @cached_property
    def p(self) -> np.ndarray:
        """Linearization weight beta / cosh^2(beta (J^neum*m + h)), built on
        first use from the arithmetic of the solve's own field argument."""
        p = self.params.beta / np.cosh(self.params.beta
                                       * (self.conv + self.h)) ** 2
        p.setflags(write=False)
        return p

    @cached_property
    def quadrature(self) -> np.ndarray:
        """Trapezoid weights over p, built on first use.  Products against
        them run in einsum: a BLAS dot's sum depends on its thread count."""
        q = self.grid.spacing / self.p
        q[[0, -1]] *= 0.5
        q.setflags(write=False)
        return q

    def copy(self) -> MesoState:
        """The state with its own copies of h, m and conv: it outlives the
        workspace it was solved in."""
        return _state_at(self.params, self.kernel, self.grid, self.h.copy(),
                         self.m.copy(), self.conv.copy(), self.residual_norm,
                         self.record)

    def weighted_dot(self, f, g) -> float:
        """Inner product with weight 1/p (trapezoid quadrature)."""
        return float(np.einsum("i,i,i->", f, self.quadrature, g))

    def apply_linearized(self, psi, work=None) -> np.ndarray:
        """One application of the linearized fixed-point map p (J^neum psi);
        with ``work`` (:func:`grids.conv_workspace`) the result is a view of
        it, overwritten by the next convolution into it."""
        image = conv_values(self.kernel, self.grid, np.asarray(psi, float),
                            work)
        return np.multiply(self.p, image, out=image)


def make_state(params: ThermoParams, kernel: Kernel, grid: Grid,
               h: np.ndarray, m: np.ndarray, conv=None) -> MesoState:
    """The state of (h, m); ``conv`` is J^neum*m when the caller has it."""
    h = np.asarray(h, dtype=float)
    m = np.asarray(m, dtype=float)
    if conv is None:
        conv = conv_values(kernel, grid, m)
    work = np.add(conv, h)      # m - tanh(beta (conv + h)) in one buffer
    work *= params.beta
    np.subtract(m, np.tanh(work, out=work), out=work)
    return _state_at(params, kernel, grid, h, m, conv,
                     float(np.abs(work, out=work).max()))


def _state_at(params, kernel, grid, h, m, conv, res,
              record=None) -> MesoState:
    """The state of (h, m) from conv = J^neum*m and its residual."""
    for a in (h, m, conv):
        a.setflags(write=False)
    return MesoState(params, kernel, grid, h, m, conv, res, record)


def exact_state(params: ThermoParams, kernel: Kernel, grid: Grid,
                m: np.ndarray) -> MesoState:
    """The state of m at the field that makes it an exact fixed point,
    h = artanh(m)/beta - J^neum*m, with its measured residual."""
    m = np.asarray(m, dtype=float)
    if np.max(np.abs(m)) >= 1.0:
        raise DomainError("magnetization saturates; no finite field")
    conv = conv_values(kernel, grid, m)
    return make_state(params, kernel, grid, np.arctanh(m) / params.beta - conv,
                      m, conv)


def _picard(params, kernel, grid, h, m, spare, scratch, conv, conv_work,
            tol):
    """Fixed-point iteration, projected along the slow mode after a stall.

    ``conv`` is J^neum*m of the start.  The updates alternate between the
    arrays m and spare, every other n-point value lives in scratch, and the
    convolutions go into ``conv_work``.  Returns the converged m, J^neum*m
    there, its residual and the solve's :class:`InnerRecord`.
    """
    beta = params.beta
    res_prev = np.inf
    stall = 0
    slow = None           # (state at the switch, u, lambda/(1 - lambda))
    for step in range(_MAX_ITER):
        if step:
            conv = conv_values(kernel, grid, m, conv_work)
        target = spare
        np.add(conv, h, out=scratch)
        scratch *= beta
        np.tanh(scratch, out=target)
        np.subtract(m, target, out=scratch)
        res = float(np.abs(scratch, out=scratch).max())
        if res < tol:
            return m, conv, res, InnerRecord(step, "picard" if slow is None
                                             else "projected")
        stall = stall + 1 if res > _STALL_RATIO * res_prev else 0
        res_prev = res
        if slow is None and stall >= _STALL_STEPS:
            at = _state_at(params, kernel, grid, h, m.copy(), conv.copy(), res)
            pair = spectral.leading_eigenpair(at, _PAIR_TOL)
            if abs(1.0 - pair.lambda_) < _NO_GAP:
                raise ConvergenceError(
                    f"slow-mode eigenvalue {pair.lambda_!r} is 1 to "
                    "rounding: no projected step", last=m.copy())
            slow = at, pair.u, pair.lambda_ / (1.0 - pair.lambda_)
        if slow is not None:
            # a Newton step along u, Picard on its weighted complement
            at, u, gain = slow
            np.subtract(target, m, out=scratch)
            np.multiply(gain * at.weighted_dot(scratch, u), u, out=scratch)
            target += scratch
        m, spare = target, m
        if np.abs(m, out=scratch).max() >= SATURATION_LIMIT:
            raise SaturationError("iterate saturated: |m| -> 1")
    raise ConvergenceError(
        f"fixed-point iteration stuck at residual {res_prev:.3e} (tol {tol})",
        last=m.copy(),
    )


def inner_solve(params: ThermoParams, kernel: Kernel, grid: Grid,
                h: np.ndarray, m_init: np.ndarray, conv_init: np.ndarray,
                tol=1e-12, work: Workspace | None = None) -> MesoState:
    """Find m with m = tanh(beta J^neum*m + beta h) near the seed.

    Plain fixed-point iteration: each step sets m <- F(m) = tanh(beta
    (J^neum*m + h)), with no damping.  On odd data its error decays at the
    sub-dominant eigenvalue of p J^neum (about 0.31 at beta = 2).  Along the
    leading eigenvector u, which sits at lambda = 1 -+ C eps near an
    interface, it decays only like lambda (and grows on the metastable
    branch, lambda > 1).  So once the residual ratio has stayed above 0.9
    for 5 steps, the leading pair is computed once at that iterate and every
    later step is m <- F(m) + lambda/(1 - lambda) P(F(m) - m), P the
    projection onto u in <.,.>_{1/p}: a Newton step along u, Picard on the
    rest.  The solve stops at the sup-norm residual ``tol``, raises
    :class:`SaturationError` when an iterate leaves |m| < SATURATION_LIMIT
    and :class:`ConvergenceError` when its step budget runs out or lambda is
    1 to rounding.  ``conv_init`` is J^neum*m_init, the ``conv`` of the
    state the solve restarts from, so each fixed-point update costs exactly
    one convolution.  The state's ``record`` counts the fixed-point updates
    and names the path that finished the solve, and its ``conv`` is the last
    convolution.  The solve runs in the :class:`Workspace` ``work``, a fresh
    one when it is None: no step allocates an n-point array, m_init and
    conv_init may be views of it, and the state holds views of it.  The
    result is seed-dependent: only closeness to the seed is guaranteed, not
    global uniqueness.
    """
    h = np.asarray(h, dtype=float)
    m_init = np.asarray(m_init, dtype=float)
    work = work or Workspace(kernel, grid.n)
    (m, spare), scratch = work.iterates, work.scratch
    if np.may_share_memory(m_init, m):
        m, spare = spare, m
    if np.abs(m_init, out=scratch).max() >= SATURATION_LIMIT:
        raise SaturationError("seed already saturated")
    np.copyto(m, m_init)
    m, conv, res, record = _picard(params, kernel, grid, h, m, spare, scratch,
                                   conv_init, work.conv, tol)
    return _state_at(params, kernel, grid, h, m, conv, res, record)
