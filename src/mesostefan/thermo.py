"""Pointwise mean-field thermodynamics for inverse temperature beta > 1.

Potential, entropy, convex envelope, Legendre-dual pressure and mobility.
m_beta, the pressure's maximizer and the inverse of potential_prime on the
outer branch (h > 0) and the metastable one (-|potential_prime(m_star)| <
h <= 0) are all bulk_root(beta, h), the largest root of
m = tanh(beta (m + h)); the pressure is closed form at that root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchRangeError, ConvergenceError, DomainError


@dataclass(frozen=True)
class ThermoParams:
    """beta together with its derived equilibrium and spinodal magnetizations."""

    beta: float
    m_beta: float   # positive root of m = tanh(beta m)
    m_star: float   # spinodal value sqrt(1 - 1/beta)


SATURATED_ROOT = 1.0 - 1e-16   # largest root returned where tanh saturates
_MAX_NEWTON = 100


def bulk_root(beta, h):
    """Largest (outer-branch) root of m = tanh(beta (m + h)), element-wise
    over ``h``.

    Newton's method on f(m) = m - tanh(beta (m + h)) from m = 1 - 1e-16.
    Where m + h > 0, f is convex, so the iterates fall monotonically onto
    the largest root; that covers every h > -|potential_prime(m_star)|, and
    a field at or below it raises :class:`BranchRangeError`.  Each entry
    stops when a step no longer lowers it.  Where tanh has saturated
    (f(1 - 1e-16) <= 0) the root is 1 to rounding and 1 - 1e-16 is returned.
    """
    h = np.asarray(h, dtype=float)
    if np.any(h < 0.0):
        lo = math.sqrt(1.0 - 1.0 / beta) * (1.0 + 1e-14)
        h_lo = -lo + math.atanh(lo) / beta
        if np.any(h <= h_lo):
            raise BranchRangeError(f"field {np.min(h)} below the branch image "
                                   f"(limit {h_lo:.6g})", breakdown=h_lo)
    m = np.full(h.shape, SATURATED_ROOT)
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
    return float(bulk_root(beta, 0.0))


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


def convex_envelope(params: ThermoParams, s):
    """Convex envelope of the potential: flat at potential(m_beta) on the
    plateau [-m_beta, m_beta], equal to the potential outside."""
    s = np.asarray(s, dtype=float)
    _check_open_unit(s)
    flat = potential(params, params.m_beta)
    out = np.where(np.abs(s) >= params.m_beta, potential(params, s), flat)
    return out if out.ndim else float(out)


def pressure(params: ThermoParams, h):
    """Legendre transform sup_s { h s - envelope(s) } in closed form.

    The supremum sits where the envelope's slope equals h; the envelope is
    even, so the pressure is |h| m - potential(m) with m >= m_beta solving
    potential_prime(m) = |h|, i.e. m = bulk_root(beta, |h|) (m_beta at
    h = 0).  That form stays defined when m rounds to 1.  Accepts
    arrays of fields; a scalar field gives a float.
    """
    h = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(h)):
        raise DomainError("field must be finite")
    ha = np.abs(h)
    m = bulk_root(params.beta, ha)
    out = ha * m - potential(params, m)
    return out if out.ndim else float(out)


def mobility(params: ThermoParams, m, out=None):
    """Transport coefficient beta (1 - m^2); positive on (-1, 1).  An array
    m may have it formed in ``out``."""
    m = np.asarray(m, dtype=float)
    chi = np.multiply(params.beta,
                      np.subtract(1.0, np.multiply(m, m, out=out), out=out),
                      out=out)
    return chi if chi.ndim else float(chi)
