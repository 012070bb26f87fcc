"""Mesoscopic building blocks shared by every profile solver.

A state is a pair (h, m) on a grid together with the convolution J^neum*m
that its residual was measured from.  The linearization weight
p = beta / cosh^2(beta J^neum*m + beta h) and the quadrature weights over p
are derived from it on first use, so a state that only feeds the next
solve never forms them.  At exact fixed points the weight coincides with
the mobility chi(m).

One fixed-point loop, :func:`iterate`, serves every solver and the
instanton.  Each step forms a field h from m, F = tanh(beta (J^neum*m + h))
and the residual sup|F - m|, and sets m <- F, with an optional fixed Newton
direction (u, lambda) that adds lambda/(1 - lambda) <F - m, u>_{1/p} u.
The centred solvers pass the current integral as the field, the
off-center solver its projected current integral with the extended
problem's leading pair, the instanton zero.  The loop records each
residual in an :class:`IterationTrace`, runs in one :class:`Workspace`,
and once two increment ratios agree extrapolates over that ratio
(:func:`settled_ratio`, :func:`extrapolate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DomainError
from .grids import Grid, Kernel, conv_values, conv_workspace
from .thermo import ThermoParams

INNER_TOL = 1e-12     # sup-norm residual of the returned pair
STALL_STEPS = 10      # residuals in a row that do not fall: no contraction
MAX_ITER = 20_000     # fixed-point steps of a loop
RATIO_AGREEMENT = 0.1   # last two ratios agree to this fraction of the last
RATIO_LIMIT = 0.99      # largest ratio a step extrapolates over


@dataclass
class IterationTrace:
    """What a loop did: the residual of its start, then one increment per
    step, the residual sup|F(m) - m| of the pair (h, m) the step measured.
    Every step but the last updated m once; ``extrapolated`` maps each
    step k that extrapolated to its rho, ratios[k - 1]."""

    start_residual: float
    increments: list = field(default_factory=list)
    extrapolated: dict = field(default_factory=dict)

    @property
    def residuals(self) -> list:
        """The start's residual, then the increments."""
        return [self.start_residual, *self.increments]

    @property
    def ratios(self) -> list:
        """ratios[k - 1] = increments[k] / increments[k - 1]; NaN after a
        zero increment."""
        inc = self.increments
        return [b / a if a > 0 else float("nan") for a, b in zip(inc, inc[1:])]


class Workspace:
    """The n-point buffers that every fixed-point step of one loop reuses.

    ``iterates`` holds the two alternating magnetizations, ``conv`` the
    padded rows and products of the convolutions
    (:func:`grids.conv_workspace`) and ``scratch`` every other n-point
    value.
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

    @cached_property
    def p(self) -> np.ndarray:
        """Linearization weight beta / cosh^2(beta (J^neum*m + h)), built on
        first use from the arithmetic of the solve's own field argument."""
        p = np.add(self.conv, self.h)
        p *= self.params.beta
        np.cosh(p, out=p)
        np.square(p, out=p)
        np.divide(self.params.beta, p, out=p)
        p.setflags(write=False)
        return p

    @cached_property
    def quadrature(self) -> np.ndarray:
        """Trapezoid weights over p, built on first use; twice those on a
        half line (left = 0), which counts its mirror image, so that a
        product of two functions of one parity sums as on the full grid.
        Products against them run in einsum: a BLAS dot's sum depends on
        its thread count."""
        q = np.divide(self.grid.spacing, self.p)
        q[[0, -1]] *= 0.5
        if self.grid.left == 0.0:
            q *= 2.0
        q.setflags(write=False)
        return q

    def copy(self) -> MesoState:
        """The state with its own copies of h, m and conv: it outlives the
        workspace it was solved in."""
        return _state_at(self.params, self.kernel, self.grid, self.h.copy(),
                         self.m.copy(), self.conv.copy(), self.residual_norm)

    def even_half(self) -> MesoState:
        """The points x >= 0 of a state odd about x = 0, or an odd half
        line's state, on the plain half line (``Grid.half_line(odd=False)``).

        Its h, m, J^neum*m and p are the state's own there, and p is even,
        so its p J^neum is the full operator's even sector, where the
        leading pair lives, and its weights (:attr:`quadrature`) give the
        full grid's inner products of even functions.
        """
        c = self.grid.center_index
        return replace(self, grid=self.grid.half_line(odd=False),
                       h=self.h[c:], m=self.m[c:], conv=self.conv[c:])

    def window(self, lo: int, hi: int) -> MesoState:
        """The state on the points lo .. hi - 1: its h, m and J^neum*m there,
        so p is its own to the bit, under J^neum reflected at the window's
        ends.  Only a window from a half line's first point is a half line:
        one from x = 0 of a full grid keeps its left (left = 0 marks half
        lines)."""
        g = self.grid
        x = g.points[lo:hi]
        left = -x[0] * g.epsilon if lo and x[0] else g.left
        grid = Grid(g.epsilon, left, x[-1] * g.epsilon, g.spacing, x,
                    g.odd and lo == 0)
        return MesoState(self.params, self.kernel, grid, self.h[lo:hi],
                         self.m[lo:hi], self.conv[lo:hi], self.residual_norm)

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
    work = np.empty(m.size)     # F(m) and m - F(m) in one buffer
    conv, res = fixed_point_map(params, kernel, grid, h, m, work, work,
                                conv=conv)
    return _state_at(params, kernel, grid, h, m, conv, res)


def fixed_point_map(params: ThermoParams, kernel: Kernel, grid: Grid,
                    h: np.ndarray, m: np.ndarray, out: np.ndarray,
                    scratch: np.ndarray, conv_work=None, conv=None):
    """F(m) = tanh(beta (J^neum*m + h)) in ``out``; returns J^neum*m and the
    residual sup|F(m) - m|.

    ``conv`` is J^neum*m when the caller has it; otherwise the one
    convolution goes into ``conv_work`` (:func:`grids.conv_workspace`).
    ``scratch`` takes the argument of tanh and m - F(m); it may be ``out``.
    """
    if conv is None:
        conv = conv_values(kernel, grid, m, conv_work)
    np.add(conv, h, out=scratch)
    scratch *= params.beta
    np.tanh(scratch, out=out)
    np.subtract(m, out, out=scratch)
    return conv, float(np.abs(scratch, out=scratch).max())


def settled_ratio(older: float, old: float, new: float) -> float:
    """rho = new / old of three successive changes when 0 < rho <
    RATIO_LIMIT and old / older agrees to RATIO_AGREEMENT * rho, else 0."""
    if not (older > 0.0 and old > 0.0):
        return 0.0
    rho = new / old
    if 0.0 < rho < RATIO_LIMIT \
            and abs(rho - old / older) <= RATIO_AGREEMENT * rho:
        return rho
    return 0.0


def extrapolate(new: np.ndarray, old: np.ndarray, rho: float,
                scratch: np.ndarray) -> np.ndarray:
    """new += rho/(1 - rho) (new - old) in ``scratch`` (may be ``old``): the
    limit when the error shrinks by rho per step (Aitken, Lyusternik)."""
    step = np.subtract(new, old, out=scratch)
    step *= rho / (1.0 - rho)
    new += step
    return new


def _state_at(params, kernel, grid, h, m, conv, res) -> MesoState:
    """The state of (h, m) from conv = J^neum*m and its residual."""
    for a in (h, m, conv):
        a.setflags(write=False)
    return MesoState(params, kernel, grid, h, m, conv, res)


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


def iterate(start: MesoState, field_of, newton=None
            ) -> tuple[MesoState, IterationTrace]:
    """Fixed-point iteration of m = tanh(beta (J^neum*m + h(m))) from the
    state ``start``.

    Step k forms h = field_of(m, out, scratch) (in ``out``, with
    ``scratch`` free to use, or any array), F = tanh(beta (J^neum*m + h))
    and the residual r = sup|F - m| of the pair (h, m), which it returns
    once r < INNER_TOL (so h is the field of the returned m exactly).
    Otherwise m <- F; with ``newton`` = (u, lambda, wu, lo), u a direction
    on the points lo .. lo + u.size - 1 (0 past them) and wu u times the
    weights w of the 1/p inner product there, m <- F + lambda/(1 - lambda)
    <F - m, u>_w u instead: a Newton step along u, Picard on the rest, on
    u's points only.  When two
    increment ratios agree (:func:`settled_ratio`) and the step before did
    not extrapolate, the update m' becomes m' + rho/(1 - rho) (m' - m), rho
    the last ratio.  The first step reuses the start's convolution.
    STALL_STEPS residuals in a row that do not fall, or MAX_ITER steps,
    raise :class:`ConvergenceError` with the trace.  The loop owns ``out``
    and a :class:`Workspace`, so no step allocates an n-point array; the
    returned state holds views of them.  It keeps no reference to
    ``start``, and none to its m and conv after the first step: a start
    handed over with no name left in the caller is freed then (on CPython
    from 3.11, which moves a call's arguments into the callee's frame).
    """
    params, kernel, grid = start.params, start.kernel, start.grid
    trace = IterationTrace(start.residual_norm)
    m, conv = start.m, start.conv
    del start
    out, work = np.empty(grid.n), Workspace(kernel, grid.n)
    if newton is not None:
        u, lam, weighted, lo = newton
        on_u = slice(lo, lo + u.size)
        if lam == 1.0:
            raise DomainError("leading eigenvalue 1: no Newton step along u")
        gain = lam / (1.0 - lam)
    rising = 0
    for k in range(MAX_ITER):
        h = field_of(m, out, work.scratch)
        target = work.iterates[k % 2]
        conv, res = fixed_point_map(params, kernel, grid, h, m, target,
                                    work.scratch, work.conv,
                                    None if k else conv)
        trace.increments.append(res)
        if res < INNER_TOL:
            return _state_at(params, kernel, grid, h, m, conv, res), trace
        rising = rising + 1 if k and res >= trace.increments[-2] else 0
        if rising >= STALL_STEPS:
            raise ConvergenceError("fixed-point iteration stopped contracting",
                                   last=trace)
        if newton is not None:
            step = np.subtract(target[on_u], m[on_u],
                               out=work.scratch[:u.size])
            along = gain * float(np.einsum("i,i->", step, weighted))
            target[on_u] += np.multiply(along, u, out=step)
        rho = settled_ratio(*trace.increments[-3:]) \
            if k >= 2 and k - 1 not in trace.extrapolated else 0.0
        if rho:
            extrapolate(target, m, rho, work.scratch)
            trace.extrapolated[k] = rho
        m = target
    raise ConvergenceError(
        f"fixed-point iteration did not reach {INNER_TOL} in {MAX_ITER} "
        "steps", last=trace)
