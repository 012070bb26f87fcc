"""Macroscopic stationary free-boundary solutions.

On the outer branch h = potential_prime(m) and mobility(m) dh/dx = |j|, so
dx/dm = D(m)/|j| with the outer diffusivity D(m) = 1 - beta (1 - m^2).  The
profile is therefore the cubic x(m) = [X(m) - X(m_beta)]/|j| with
X(m) = (1 - beta) m + beta m^3 / 3, and m(x) is its largest real root.  The
metastable branch follows the same cubic from m_beta down to the spinodal
m_star.  Every stable solution is a translated restriction of the maximal
one, which saturates m -> +-1 linearly at +-ell_j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BranchRangeError, DomainError, InfeasibleError
from .thermo import ThermoParams, potential_prime

SATURATION_GAP = 1e-6   # stop the maximal solution at m = 1 - SATURATION_GAP
N_SAMPLES = 801         # uniform samples of a sampled solution on [-ell, ell]


def _cubic(params: ThermoParams, m):
    """X(m) = (1 - beta) m + beta m^3 / 3; X' is the outer diffusivity."""
    return (1.0 - params.beta) * m + params.beta * m ** 3 / 3.0


def _largest_root(params: ThermoParams, level):
    """Largest real m with X(m) = level, by the trigonometric Cardano formula.

    X(m) = level reads m^3 - 3 m_star^2 m = 3 level / beta.  With
    c = 3 level / (2 beta m_star^3) the largest root is
    2 m_star cos(arccos(c) / 3) for c <= 1 and 2 m_star cosh(arccosh(c) / 3)
    beyond.  Levels of both branches have c >= -1 (X(m) >= X(m_star) for
    m >= m_star); rounding below -1 is clipped.  Only levels near beta = 1
    (beta below about 1.5) reach c > 1, so the hyperbolic branch is
    evaluated only when some level needs it.
    """
    ms = params.m_star
    c = np.maximum(1.5 * level / (params.beta * ms ** 3), -1.0)
    root = np.cos(np.arccos(np.minimum(c, 1.0)) / 3.0)
    hyp = c > 1.0
    if np.any(hyp):
        root = np.where(hyp, np.cosh(np.arccosh(np.maximum(c, 1.0)) / 3.0),
                        root)
    return 2.0 * ms * root


def _branch_magnitude(params: ThermoParams, dist, slope):
    """|m| at distance ``dist`` >= 0 from the interface, where
    X(|m|) = X(m_beta) + slope * dist; exactly m_beta at the interface."""
    root = _largest_root(params, _cubic(params, params.m_beta) + slope * dist)
    return np.where(dist > 0.0, root, params.m_beta)


class _Maximal:
    """The closed forms of a maximal solution from |m|(x) (``_magnitude``):
    m = sgn sign(x) |m|, with +|m| at the interface x = 0, and
    h = sgn sign(x) clip(V'(|m|), 0), V' = potential_prime, where sgn is
    the sign of m right of the interface and clip is max on the stable
    branch, min on the metastable one."""

    def fields_of_x(self, x):
        """(m(x), h(x)) from one evaluation of |m|(x)."""
        x = np.asarray(x, dtype=float)
        mag = self._magnitude(x)
        return _value(self._m(x, mag)), _value(self._h(x, mag))

    def m_of_x(self, x):
        x = np.asarray(x, dtype=float)
        return _value(self._m(x, self._magnitude(x)))

    def h_of_x(self, x):
        x = np.asarray(x, dtype=float)
        return _value(self._h(x, self._magnitude(x)))

    def _m(self, x, mag):
        return np.where(x == 0.0, 1.0, self._sgn * np.sign(x)) * mag

    def _h(self, x, mag):
        return self._sgn * np.sign(x) * self._clip(
            potential_prime(self.params, mag), 0.0)


def _value(out):
    """A float for a scalar argument, the array otherwise."""
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class MaximalSolution(_Maximal):
    """Maximal stable solution centered at its own interface (x0 = 0)."""

    params: ThermoParams
    j: float
    ell_j: float            # abscissa where m reaches 1 - SATURATION_GAP

    _clip = staticmethod(np.maximum)

    @property
    def _sgn(self) -> float:
        return 1.0 if self.j < 0 else -1.0

    def _magnitude(self, x):
        if np.any(np.abs(x) > self.ell_j * (1 + 1e-12)):
            raise InfeasibleError("abscissa beyond the maximal interval",
                                  ell_j=self.ell_j)
        dist = np.minimum(np.abs(x), self.ell_j)
        return _branch_magnitude(self.params, dist, abs(self.j))


@dataclass(frozen=True)
class MetastableMaximal(_Maximal):
    """Metastable solution from the interface out to the branch breakdown."""

    params: ThermoParams
    j: float                # > 0
    ell_break: float        # abscissa where m reaches the spinodal m_star

    _clip = staticmethod(np.minimum)
    _sgn = 1.0

    def _magnitude(self, x):
        if np.any(np.abs(x) > self.ell_break * (1 + 1e-12)):
            raise BranchRangeError("abscissa beyond the metastable range",
                                   breakdown=self.ell_break)
        dist = np.minimum(np.abs(x), self.ell_break)
        return _branch_magnitude(self.params, dist, -self.j)


@dataclass(frozen=True)
class StefanSolution:
    """Sampled macroscopic pair with the jump row duplicated at x0."""

    params: ThermoParams
    j: float
    x0: float
    ell: float
    ell_j: float
    branch: str             # "stable" | "metastable"
    x: np.ndarray
    h: np.ndarray
    m: np.ndarray


def _check_m_beta(params: ThermoParams) -> None:
    """DomainError when m_beta is past the saturation cutoff (beta > 7.25).

    Tested on m_beta itself: past beta ~ 1e10 the cubic's differences no
    longer resolve 1 - SATURATION_GAP - m_beta or m_beta - m_star, and the
    widths come out positive or 0.
    """
    if params.m_beta >= 1.0 - SATURATION_GAP:
        raise DomainError(f"m_beta = {params.m_beta!r} is already past the "
                          f"saturation cutoff 1 - {SATURATION_GAP:g}")


def solve_maximal(params: ThermoParams, j) -> MaximalSolution:
    """Maximal stable solution for the current j.

    Right of the interface (for j < 0) the profile is
    x(m) = [X(m) - X(m_beta)]/|j|; it stops where m reaches 1 - 1e-6, at
    ell_j = [X(1 - SATURATION_GAP) - X(m_beta)]/|j|.
    """
    if j == 0.0 or not np.isfinite(j):
        raise DomainError("zero-current or non-finite j: no maximal solution")
    _check_m_beta(params)
    width = _cubic(params, 1.0 - SATURATION_GAP) - _cubic(params, params.m_beta)
    return MaximalSolution(params, float(j), float(width / abs(j)))


def _metastable_maximal(params: ThermoParams, j) -> MetastableMaximal:
    """Metastable solution x(m) = [X(m_beta) - X(m)]/j for j > 0, from m_beta
    down to m_star, reached at ell_break = [X(m_beta) - X(m_star)]/j."""
    if j <= 0.0 or not np.isfinite(j):
        raise DomainError("metastable arrangement needs a positive current")
    _check_m_beta(params)
    width = _cubic(params, params.m_beta) - _cubic(params, params.m_star)
    return MetastableMaximal(params, float(j), float(width / j))


def _check_half_length(ell) -> None:
    """DomainError unless the sampled half-length is positive and finite."""
    if not (np.isfinite(ell) and ell > 0.0):
        raise DomainError(f"half-length must be positive and finite: {ell}")


def _sample_with_jump(maximal, x0, ell, upper_sign):
    """N_SAMPLES uniform samples on [-ell, ell] of the maximal solution
    translated to x0, with x0 duplicated: m jumps there from
    -upper_sign m_beta to +upper_sign m_beta."""
    base = np.linspace(-ell, ell, N_SAMPLES)
    lower = np.concatenate([base[base < x0], [x0]])
    x = np.concatenate([lower, [x0], base[base > x0]])
    h = maximal.h_of_x(x - x0)
    m = maximal.m_of_x(x - x0)
    m_beta = maximal.params.m_beta
    m[lower.size - 1], m[lower.size] = -upper_sign * m_beta, upper_sign * m_beta
    return x, h, m


def solve_fixed_interface(params: ThermoParams, j, x0,
                          ell) -> StefanSolution:
    """Restriction/translation of the maximal solution to (-ell, ell).

    m jumps across the plateau at x0 (from -m_beta to +m_beta for j < 0);
    the CSV output carries the duplicated abscissa.
    """
    _check_half_length(ell)
    if not -ell < x0 < ell:
        raise DomainError("interface must be interior to the domain")
    maximal = solve_maximal(params, j)
    if ell + abs(x0) > maximal.ell_j:
        raise InfeasibleError(
            f"domain half-length {ell} with interface {x0} exceeds the "
            f"maximal interval (ell_j = {maximal.ell_j:.6g})",
            ell_j=maximal.ell_j,
        )
    sgn = 1.0 if j < 0 else -1.0
    x, h, m = _sample_with_jump(maximal, x0, ell, sgn)
    return StefanSolution(params, float(j), float(x0), float(ell),
                          maximal.ell_j, "stable", x, h, m)


def solve_metastable(params: ThermoParams, j, ell) -> StefanSolution:
    """Metastable arrangement for j > 0: the field decreases through 0 and m
    jumps upward across the plateau at the origin, staying in the metastable
    bands on both sides."""
    _check_half_length(ell)
    maximal = _metastable_maximal(params, j)
    if ell >= maximal.ell_break:
        raise BranchRangeError(
            f"half-length {ell} reaches the branch breakdown "
            f"(at {maximal.ell_break:.6g})",
            breakdown=maximal.ell_break,
        )
    x, h, m = _sample_with_jump(maximal, 0.0, ell, +1.0)
    return StefanSolution(params, float(j), 0.0, float(ell),
                          maximal.ell_break, "metastable", x, h, m)
