"""Pointwise mean-field thermodynamics for inverse temperature beta > 1.

Potential, entropy, convex envelope, Legendre-dual pressure, mobility and
diffusion coefficients, plus the scalar branch inverses of potential_prime.
m_beta, the mean-field root, the pressure's maximizer and both branch
inverses are all the largest root of m = tanh(beta (m + h)), found by one
vectorised Newton iteration from m = 1; the pressure is closed form at that
root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BranchRangeError, ConvergenceError, DomainError
from .grids import Kernel, Profile, conv_values, trapezoid


@dataclass(frozen=True)
class ThermoParams:
    """beta together with its derived equilibrium and spinodal magnetizations."""

    beta: float
    m_beta: float   # positive root of m = tanh(beta m)
    m_star: float   # spinodal value sqrt(1 - 1/beta)


_TOP = 1.0 - 1e-16      # largest root returned where tanh saturates
_MAX_NEWTON = 100


def _largest_root(beta, h):
    """Largest root of m = tanh(beta (m + h)), element-wise over ``h``.

    Newton's method on f(m) = m - tanh(beta (m + h)) from m = 1 - 1e-16.
    Where m + h > 0, f is convex, so the iterates fall monotonically onto
    the largest root; that covers every h > -metastable_branch_limit.  Each
    entry stops when a step no longer lowers it.  Where tanh has saturated
    (f(1 - 1e-16) <= 0) the root is 1 to rounding and 1 - 1e-16 is returned.
    """
    h = np.asarray(h, dtype=float)
    m = np.full(h.shape, _TOP)
    for _ in range(_MAX_NEWTON):
        t = np.tanh(beta * (m + h))
        m_next = m - (m - t) / (1.0 - beta * (1.0 - t * t))
        lower = m_next < m
        if not lower.any():
            return m
        m = np.where(lower, m_next, m)
    raise ConvergenceError(
        f"Newton iteration for the mean-field root did not settle in "
        f"{_MAX_NEWTON} steps (beta {beta})", last=m)


def solve_m_beta(beta) -> float:
    """Unique positive root of m = tanh(beta m); requires beta > 1."""
    if not np.isfinite(beta) or beta <= 1.0:
        raise DomainError(f"beta must exceed 1, got {beta}")
    return float(_largest_root(beta, 0.0))


def make_params(beta) -> ThermoParams:
    beta = float(beta)
    return ThermoParams(beta, solve_m_beta(beta), math.sqrt(1.0 - 1.0 / beta))


def _check_open_unit(m):
    if np.any(np.abs(m) >= 1.0):
        raise DomainError("magnetization must lie strictly inside (-1, 1)")


def entropy(m):
    """Binary mixing entropy S(m); S(0) = log 2."""
    m = np.asarray(m, dtype=float)
    _check_open_unit(m)
    up = 0.5 * (1.0 + m)
    dn = 0.5 * (1.0 - m)
    return -(up * np.log(up) + dn * np.log(dn))


def potential(params: ThermoParams, m):
    """Mean-field potential -m^2/2 - S(m)/beta; even in m."""
    m = np.asarray(m, dtype=float)
    return -0.5 * m * m - entropy(m) / params.beta


def potential_prime(params: ThermoParams, m):
    m = np.asarray(m, dtype=float)
    _check_open_unit(m)
    return -m + np.arctanh(m) / params.beta


def potential_double_prime(params: ThermoParams, m):
    m = np.asarray(m, dtype=float)
    _check_open_unit(m)
    return -1.0 + 1.0 / (params.beta * (1.0 - m * m))


class MeanFieldRoot(NamedTuple):
    value: float
    degenerate: bool


def mean_field_root(params: ThermoParams, h) -> MeanFieldRoot:
    """Root of m = tanh(beta(m+h)) minimizing potential(m) - h m.

    At h = 0 both +-m_beta minimize; the positive one is returned with the
    degeneracy flag set.
    """
    if h == 0.0:
        return MeanFieldRoot(params.m_beta, True)
    sign = 1.0 if h > 0 else -1.0
    return MeanFieldRoot(sign * float(_largest_root(params.beta, abs(h))),
                         False)


def convex_envelope(params: ThermoParams, s):
    """Convex envelope of the potential: flat at potential(m_beta) on the
    plateau [-m_beta, m_beta], equal to the potential outside."""
    s = np.asarray(s, dtype=float)
    _check_open_unit(s)
    flat = potential(params, params.m_beta)
    out = np.where(np.abs(s) >= params.m_beta, potential(params, s), flat)
    return out if out.ndim else float(out)


def convex_envelope_prime(params: ThermoParams, s):
    """Derivative of the envelope: 0 on the plateau, potential_prime outside."""
    s = np.asarray(s, dtype=float)
    _check_open_unit(s)
    out = np.where(np.abs(s) >= params.m_beta, potential_prime(params, s), 0.0)
    return out if out.ndim else float(out)


def pressure(params: ThermoParams, h):
    """Legendre transform sup_s { h s - envelope(s) } in closed form.

    The supremum sits where the envelope's slope equals h; the envelope is
    even, so the pressure is |h| m - potential(m) with m >= m_beta solving
    potential_prime(m) = |h|, i.e. the mean-field root m = tanh(beta(m + |h|))
    (m_beta at h = 0).  That form stays defined when m rounds to 1.  Accepts
    arrays of fields; a scalar field gives a float.
    """
    h = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(h)):
        raise DomainError("field must be finite")
    ha = np.abs(h)
    m = _largest_root(params.beta, ha)
    out = ha * m - potential(params, m)
    return out if out.ndim else float(out)


def envelope_prime_inverse(params: ThermoParams, h, side=None) -> float:
    """The magnetization with |m| > m_beta solving potential_prime(m) = h.

    For h = 0 the inverse is the whole plateau; ``side`` (+1 or -1) selects
    which edge to return in that case.
    """
    if h == 0.0:
        if side is None:
            raise DomainError("h = 0 needs an explicit side (+1 or -1)")
        return float(side) * params.m_beta
    if not np.isfinite(h):
        raise DomainError("field must be finite")
    if h < 0.0:
        return -envelope_prime_inverse(params, -h, side)
    # potential_prime(m) = h is m = tanh(beta (m + h)); for tiny h > 0 the
    # root can round below the plateau edge, which is clamped
    return max(float(_largest_root(params.beta, h)), params.m_beta)


def metastable_branch_limit(params: ThermoParams) -> float:
    """|potential_prime(m_star)|: half-width of the metastable field range."""
    return float(-potential_prime(params, params.m_star))


def metastable_inverse(params: ThermoParams, h, branch_sign) -> float:
    """Root of potential_prime(m) = h on one convexity branch.

    branch_sign +1 selects (m_star, 1), -1 selects (-1, -m_star).  Raises
    :class:`BranchRangeError` when h leaves the branch image; this breakdown
    is what bounds the solvable metastable domain.
    """
    if branch_sign not in (1, -1, 1.0, -1.0, "+", "-"):
        raise DomainError("branch_sign must be +1 or -1")
    sign = 1.0 if branch_sign in (1, 1.0, "+") else -1.0
    if sign < 0:
        return -metastable_inverse(params, -h, +1)
    if not np.isfinite(h):
        raise DomainError("field must be finite")
    beta = params.beta
    lo = params.m_star * (1.0 + 1e-14)
    h_lo = -lo + math.atanh(lo) / beta
    if h <= h_lo:
        raise BranchRangeError(
            f"field {h} below the branch image (limit {h_lo:.6g})",
            breakdown=h_lo,
        )
    return float(_largest_root(beta, h))


def mobility(params: ThermoParams, m):
    """Transport coefficient beta (1 - m^2); positive on (-1, 1)."""
    m = np.asarray(m, dtype=float)
    out = params.beta * (1.0 - m * m)
    return out if out.ndim else float(out)


class Diffusivity(NamedTuple):
    value: float
    on_plateau: bool


def diffusivity(params: ThermoParams, m) -> Diffusivity:
    """mobility * envelope curvature; exactly 0 (flagged) on the plateau."""
    ma = abs(float(m))
    if ma >= 1.0:
        raise DomainError("m must lie inside (-1, 1)")
    if ma <= params.m_beta:
        return Diffusivity(0.0, True)
    val = float(mobility(params, m)) * float(potential_double_prime(params, m))
    return Diffusivity(val, False)


def metastable_diffusivity(params: ThermoParams, m):
    """1 - beta (1 - m^2); equals mobility * potential curvature pointwise."""
    m = np.asarray(m, dtype=float)
    out = 1.0 - params.beta * (1.0 - m * m)
    return out if out.ndim else float(out)


def free_energy(params: ThermoParams, kernel: Kernel, profile: Profile) -> float:
    """Bulk potential plus the nonlocal quadratic interaction energy.

    Uses the algebraic identity
    (1/4) iint J^neum (m(x)-m(y))^2 = (1/2) [ int m^2 - int m (J^neum * m) ],
    valid because the reflected kernel preserves constants.
    """
    m = profile.values
    _check_open_unit(m)
    grid = profile.grid
    bulk = trapezoid(grid, potential(params, m))
    conv = conv_values(kernel, grid, m, boundary="neumann")
    interaction = 0.5 * (trapezoid(grid, m * m) - trapezoid(grid, m * conv))
    return float(bulk + interaction)
