"""The standing interface profile of the zero-current problem.

The odd fixed point of m -> tanh(beta J*m) on a truncated line [-X, X]:
:func:`meso.iterate`'s at zero field on the odd grid over [0, X]
(:meth:`grids.Grid.half_line`), whose Neumann reflection at X reads only
the window's last kernel range, where the profile is m_beta to rounding.
On odd functions the map contracts at the sub-dominant eigenvalue of its
linearization (about 0.31 per step at beta = 2), and the loop extrapolates
over that ratio once it settles.  The profile, its derivative, the weighted
normalization constants and the tail decay rate (the root of its
characteristic equation, no fit) feed the composite seeds, the sweeps' C
column and the spectral checks.  A saturated m_beta (1 to rounding, from
beta ~ 18.5 on) is refused before the first step: the mobility
beta (1 - m^2) of the profile would vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, GridError
from .grids import POINT_CAP, Grid, Kernel, conv_values_filled
from .meso import iterate, make_state
from .thermo import SATURATED_ROOT, ThermoParams, mobility

HALF_WIDTH = 20.0     # least X of the truncated line [-X, X]
TAIL_DECAYS = 37.0    # a X at least: exp(-37) is below rounding
MAX_SPACING = 0.05
_MAX_NEWTON = 100     # Newton steps for the decay rate


@dataclass(frozen=True)
class Instanton:
    """Converged interface profile on [-X, X] and its derived quantities."""

    beta: float
    kernel_shape: str
    x: np.ndarray
    spacing: float
    profile: np.ndarray      # odd, strictly increasing, -> +-m_beta
    derivative: np.ndarray   # 4th-order centered differences
    p_bar: np.ndarray        # beta (1 - profile^2)
    decay_rate: float        # a in m_beta - profile ~ c exp(-a x)
    norm_sq: float           # int derivative^2 / p_bar
    mean: float              # int derivative / p_bar = 2 artanh(m_beta)/beta
    residual: float          # sup|F(m) - m| of the returned half line
    m_beta: float
    iterations: int          # loop steps; the last one updates nothing
    extrapolations: int      # of the steps, those whose update extrapolated

    @property
    def half_width(self) -> float:
        return float(self.x[-1])

    @property
    def center_index(self) -> int:
        return (self.x.size - 1) // 2

    def unit_derivative(self) -> np.ndarray:
        """Derivative normalized to unit weighted square integral."""
        return self.derivative / np.sqrt(self.norm_sq)


def _derivative_4th(values: np.ndarray, spacing: float,
                    left_fill: float, right_fill: float) -> np.ndarray:
    v = np.concatenate([[left_fill] * 2, values, [right_fill] * 2])
    return (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * spacing)


def compute_instanton(params: ThermoParams, kernel: Kernel) -> Instanton:
    """Solve the odd fixed point m = tanh(beta J*m) on [-X, X], X the larger
    of HALF_WIDTH and TAIL_DECAYS / a for the decay rate a, so that the
    profile is m_beta to rounding where the window ends.

    The fixed point is :func:`meso.iterate`'s at zero field on the odd grid
    over [0, X], from m_beta sign(x): J*m mirrors m about 0 with a sign and
    about X without one, and the profile is extended to [-X, X] once at the
    end.  Iterating on odd functions pins the translation freedom of the
    infinite-line problem, whose derivative mode (eigenvalue 1) is even and
    so never enters.
    """
    if params.beta <= 1.0:
        raise DomainError("interface profile needs beta > 1")
    if params.m_beta >= SATURATED_ROOT:
        raise DomainError(f"m_beta is 1 to rounding at beta = {params.beta:g}: "
                          "the profile's mobility would vanish")
    if kernel.spacing > MAX_SPACING + 1e-12:
        raise GridError(f"spacing must be <= {MAX_SPACING}")

    spacing = kernel.spacing
    mb = params.m_beta
    rate = decay_root(mobility(params, mb), kernel)
    width = float(max(HALF_WIDTH,
                      spacing * np.ceil(TAIL_DECAYS / rate / spacing)))
    if not 2.0 * width / spacing < POINT_CAP:
        raise GridError(f"half width {width:g} needs more than {POINT_CAP} "
                        f"points at spacing {spacing}")
    n_half = int(round(width / spacing))
    x = spacing * np.arange(-n_half, n_half + 1)

    half = Grid(1.0, 0.0, width, spacing, x[n_half:], odd=True)
    zero = np.zeros(half.n)
    state, trace = iterate(
        make_state(params, kernel, half, zero, mb * np.sign(half.points)),
        lambda m, out, scratch: zero)

    m = np.concatenate([-state.m[:0:-1], state.m])
    deriv = _derivative_4th(m, spacing, -mb, mb)
    p_bar = mobility(params, m)
    norm_sq = float(np.trapezoid(deriv * deriv / p_bar, dx=spacing))
    mean = 2.0 * mb     # the window's integral, exactly: m(+-X) = +-m_beta

    for arr in (x, m, deriv, p_bar):
        arr.setflags(write=False)
    return Instanton(params.beta, kernel.shape, x, spacing, m, deriv,
                     p_bar, rate, norm_sq, mean, state.residual_norm, mb,
                     len(trace.increments), len(trace.extrapolated))


def decay_root(p_beta, kernel: Kernel) -> float:
    """Rate a of the tail gap v = m_beta - profile ~ exp(-a x), from the
    linearized tail v = p_beta J*v, p_beta = beta (1 - m_beta^2) < 1: the
    root of g(a) = log(p_beta sum_k w_k cosh(a k d)), w the kernel weights.

    g is convex (a log-sum-exp) with its root in [acosh(1/p_beta),
    acosh(1/p_beta)/mu], mu = sum_k w_k |k d|: cosh(a k d) <= cosh(a) below,
    Jensen's inequality above.  So Newton's method from the upper end falls
    monotonically onto the root; it stops when a step no longer lowers a.
    """
    offsets = kernel.spacing * np.arange(-kernel.half_points,
                                         kernel.half_points + 1)
    w = kernel.weights
    a = float(np.arccosh(1.0 / p_beta) / np.sum(w * np.abs(offsets)))
    for _ in range(_MAX_NEWTON):
        total = float(np.sum(w * np.cosh(a * offsets)))
        slope = float(np.sum(w * offsets * np.sinh(a * offsets)))
        a_next = a - float(np.log(p_beta * total)) * total / slope
        if not a_next < a:
            return a
        a = a_next
    raise ConvergenceError(f"Newton iteration for the decay rate did not "
                           f"settle in {_MAX_NEWTON} steps (p_beta {p_beta})")


def threshold_abscissa(instanton: Instanton, eps) -> float:
    """x with profile(x) = m_beta - eps, by linear interpolation."""
    if not 0.0 < eps < instanton.m_beta:
        raise DomainError("threshold must be in (0, m_beta)")
    if eps < 10.0 * max(instanton.residual, 1e-14):
        # the gap m_beta - profile underflows before such thresholds
        raise DomainError("threshold below the numerical resolution "
                          "of the truncated profile")
    c = instanton.center_index
    v = instanton.m_beta - instanton.profile[c:]
    if v[-1] > eps:
        raise DomainError("threshold beyond the truncation window")
    k = int(np.argmax(v <= eps))
    if k == 0:
        return 0.0
    x0, x1 = instanton.x[c + k - 1], instanton.x[c + k]
    v0, v1 = v[k - 1], v[k]
    t = (v0 - eps) / (v0 - v1)
    return float(x0 + t * (x1 - x0))


def unit_eigenvalue_defect(instanton: Instanton, kernel: Kernel) -> float:
    """sup|p_bar (J * u') - u'| over |x| <= X - 2, u' the profile's slope:
    the free-line linearized map has u' as eigenvector of eigenvalue 1."""
    slope = instanton.derivative
    defect = np.abs(instanton.p_bar * conv_values_filled(kernel, slope)
                    - slope)
    return float(defect[np.abs(instanton.x)
                        <= instanton.half_width - 2.0].max())
