"""Antisymmetric profile solvers: stable and metastable branches at x0 = 0.

A centred profile is a fixed point of m = tanh(beta (J^neum*m + T(m))),
where T(m)(x) = -eps j int_0^x 1/chi(m) is the current integral.  The
solvers find it by plain Picard iteration on that map, one convolution per
step, in the loop every solver shares (:func:`meso.iterate`, with T as
its field), from a composite seed (interface profile near the origin, scaled
macroscopic solution beyond, for either sign of j) whose exact state's
convolution the first step reuses; the error contracts at the
sub-dominant eigenvalue of the linearized map.  Every field, magnetization
and convolution of the loop is odd, so it runs on the half line x >= 0
(:meth:`grids.Grid.half_line`), where they vanish at x = 0, and returns
their odd extension to the check's grid.

A solve takes the macroscopic solution it converges to, which holds beta
and j, and the instanton; the solution's type picks the branch, stable
(:class:`stefan.MaximalSolution`) or metastable.  check_centred holds
every check the solve makes before its first step (eps <= 0.2, ell below
the branch's end, an instanton of the solve's beta, kernel shape and
spacing, grid, gluing point, instanton window) and returns the seed layout
it built, the grid and the gluing index.  solve_centred calls it first and
iterates on that layout, and ``mesostefan validate`` runs it at each scale
with the same arguments, so the two cannot disagree.  Below the check n0
reaches nothing and eps only the grid: the seed, the current integral, the
result and its diagnostics read beta and j from the solution, which the
result carries, and eps from the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridError, SaturationError
from .grids import Grid, Kernel, build_grid, trapezoid_antiderivative
from .instanton import Instanton, threshold_abscissa
from .meso import IterationTrace, MesoState, _state_at, exact_state, iterate
from .stefan import MaximalSolution, MetastableMaximal
from .thermo import mobility

MOBILITY_FLOOR = 1e-6
DEFAULT_N0 = 2        # seed gluing point xi = x_eps + 2 n0
MONOTONE_FLOOR = 1e-14
INCREASE_THRESHOLD = 1e-12
HYDRO_BLOCK = 4096    # points per block of the hydrodynamic comparison


@dataclass(frozen=True)
class AntisymResult:
    state: MesoState
    trace: IterationTrace
    macro: MaximalSolution | MetastableMaximal    # holds beta and j
    xi_eps: float      # gluing point of the seed, snapped to the grid
    monotone: bool
    increase_interval: float | None    # meso length of the central rise (metastable)


def _seed_layout(macro, kernel: Kernel, instanton: Instanton, eps, ell, n0):
    """Grid and gluing index of the composite seed.

    GridError when eps^-1 [-ell, ell] has no grid at the spacing or none
    with x = 0 among its points (the seed is odd about it), the instanton
    has another beta, kernel shape or spacing, n0 < 0 (the gluing point
    xi = x_eps + 2 n0 would sit left of the interface), or xi passes half
    the half-domain or the end of the instanton window.
    """
    grid = build_grid(eps, ell, ell, kernel.spacing)
    grid.index_of(0.0)
    if (instanton.beta != macro.params.beta
            or instanton.kernel_shape != kernel.shape
            or abs(instanton.spacing - grid.spacing) > 1e-12):
        raise GridError(
            f"instanton at beta {instanton.beta:g}, {instanton.kernel_shape} "
            f"kernel, spacing {instanton.spacing:g} does not match the solve "
            f"at beta {macro.params.beta:g}, {kernel.shape} kernel, spacing "
            f"{grid.spacing:g}")
    x_eps = threshold_abscissa(instanton, eps)
    xi = x_eps + 2.0 * n0
    if n0 < 0:
        raise GridError(f"n0 = {n0} < 0 puts the gluing point x_eps + 2 n0 "
                        f"= {xi:.2f} left of the interface abscissa "
                        f"x_eps = {x_eps:.2f}")
    half = ell / eps
    if xi >= 0.5 * half:
        raise GridError(
            f"gluing point {xi:.2f} collides with the boundary "
            f"(eps^-1 ell / 2 = {0.5 * half:.2f}); shrink eps or n0"
        )
    xi_index = int(np.ceil(xi / grid.spacing - 1e-12))
    if xi_index > instanton.center_index:
        raise GridError("instanton window too small for the gluing point")
    return grid, xi_index


def build_seed(macro, kernel: Kernel, instanton: Instanton, grid: Grid,
               xi_index: int) -> MesoState:
    """Exact state of the composite odd seed on its layout's half line.

    The interface profile, signed like the macroscopic solution it is glued
    to, fills [0, xi] with xi = xi_index * spacing; the macroscopic
    solution, evaluated at eps(x - xi) > 0, fills the rest.  The layout's
    check has matched the instanton's spacing to the grid's, so the splice
    introduces no interpolation error.
    """
    half = grid.half_line()
    ic = instanton.center_index
    m0 = np.empty(half.n)
    x = half.spacing * np.arange(xi_index + 1, half.n)  # exact offsets from 0
    m0[xi_index + 1:] = macro.m_of_x(grid.epsilon
                                     * (x - xi_index * half.spacing))
    m0[:xi_index + 1] = np.copysign(1.0, m0[xi_index + 1]) \
        * instanton.profile[ic:ic + xi_index + 1]
    m0[0] = 0.0       # +0 whatever the sign
    return exact_state(macro.params, kernel, half, m0)


def current_integral(macro, grid: Grid, m: np.ndarray, origin, out=None,
                     scratch=None) -> np.ndarray:
    """-eps j int_{x_origin}^x 1/chi(m), with beta and j of ``macro`` and
    eps of the grid; SaturationError below the floor.

    Formed in ``out`` with 1/chi in ``scratch`` when they are given."""
    chi = mobility(macro.params, m, scratch)
    if np.min(chi) < MOBILITY_FLOOR:
        raise SaturationError("mobility below floor: profile saturating")
    c = trapezoid_antiderivative(grid, np.divide(1.0, chi, out=chi), origin,
                                 out)
    c *= -grid.epsilon * macro.j
    return c


def t_map(macro, grid: Grid, m: np.ndarray, out=None, scratch=None
          ) -> np.ndarray:
    """Current integral h(x) = -eps j int_0^x 1/chi(m) on the half line
    x >= 0 of an odd m, with h = +0 at x = 0.

    Formed in ``out`` with ``scratch`` for 1/chi when they are given.
    """
    h = current_integral(macro, grid, m, 0, out, scratch)
    h[0] = 0.0
    return h


def check_centred(macro: MaximalSolution | MetastableMaximal, kernel: Kernel,
                  instanton: Instanton, eps, ell, n0) -> tuple[Grid, int]:
    """Raise what :func:`solve_centred` raises before iterating (eps <= 0.2,
    ell below the macroscopic limit, a seed that fits); return the seed
    layout (grid, gluing index) it iterates on."""
    if eps > 0.2:
        raise DomainError("scale parameter must satisfy eps <= 0.2")
    macro.reach(ell)
    return _seed_layout(macro, kernel, instanton, eps, ell, n0)


def solve_centred(macro: MaximalSolution | MetastableMaximal, kernel: Kernel,
                  instanton: Instanton, eps, ell, n0) -> AntisymResult:
    """Antisymmetric solve converging to ``macro``: on the stable branch a
    strictly monotone m; on the metastable one (j > 0) the field decreases
    while m decreases, rises across the interface, and decreases again, and
    the central rise, of vanishing macroscopic length, is measured."""
    grid, xi_index = check_centred(macro, kernel, instanton, eps, ell, n0)
    return _iterate(macro, kernel, instanton, grid, xi_index)


def _iterate(macro, kernel, instanton, grid, xi_index):
    """The odd extension of :func:`solve_half_line`'s last pair,
    convolution and residual (tanh is odd to the bit) to the grid."""
    half = grid.half_line()
    last, trace = solve_half_line(macro, kernel, instanton, grid, xi_index)
    full = [odd_extension(a, half.n - 1, grid.n)
            for a in (last.h, last.m, last.conv)]
    final = _state_at(macro.params, kernel, grid, *full, last.residual_norm)
    # strictly monotone: increasing for j < 0, decreasing for j > 0
    mono = bool(np.all(np.sign(-macro.j) * np.diff(last.m) > MONOTONE_FLOOR))
    rise = _central_increase_length(half, last.m) \
        if isinstance(macro, MetastableMaximal) else None
    return AntisymResult(final, trace, macro, float(xi_index * grid.spacing),
                         mono, rise)


def solve_half_line(macro, kernel, instanton, grid, xi_index
                    ) -> tuple[MesoState, IterationTrace]:
    """The fixed point of m = tanh(beta (J^neum*m + T(m))) on the grid's
    half line, by :func:`meso.iterate` from the seed with the current
    integral T as the field, and its trace.  The seed is handed over
    unnamed, so the loop frees it after its first step; the returned state
    holds views of the loop's buffers."""
    half = grid.half_line()
    return iterate(
        build_seed(macro, kernel, instanton, grid, xi_index),
        lambda m, out, scratch: t_map(macro, half, m, out, scratch))


def odd_extension(values: np.ndarray, center: int, size: int) -> np.ndarray:
    """The first ``size`` points of the odd extension of a half line's
    ``values`` about index ``center``: -values[center - i] left of it,
    values[i - center] from it on."""
    out = np.empty(size)
    np.negative(values[center:0:-1], out=out[:center])
    out[center:] = values[:size - center]
    return out


def _central_increase_length(half: Grid, m: np.ndarray) -> float:
    """Length of the odd profile's central rise: twice its rise from 0 in m."""
    rising = np.diff(m) > INCREASE_THRESHOLD
    run = rising.size if rising.all() else int(np.argmin(rising))
    return float(2 * run * half.spacing)


def fixed_point_defect(result: AntisymResult) -> float:
    """sup |h(x) + eps j int_0^x 1/chi(m)| for the returned pair, read on
    x >= 0: both are odd."""
    st, c = result.state, result.state.grid.center_index
    h_rebuilt = t_map(result.macro, st.grid.half_line(), st.m[c:])
    return float(np.max(np.abs(st.h[c:] - h_rebuilt)))


def flux_defect(result) -> tuple[float, float]:
    """Pointwise transport-law defect chi(m) dh/dx + eps j of a centred or
    off-center result's state, and its estimate, with j of the result's
    macroscopic solution and eps of the state's grid.

    Returns (sup defect, sup quadrature-error estimate) over the interior
    points.  The estimate is the exact discrepancy of differentiating the
    trapezoid antiderivative: |eps j| chi |second difference of 1/chi| / 4.
    A constant shift of h (the off-center projection) changes neither.
    """
    state, eps_j = result.state, result.state.grid.epsilon * result.macro.j
    chi = np.asarray(mobility(state.params, state.m))
    dh = np.gradient(state.h, state.grid.spacing, edge_order=2)
    defect = np.abs(chi * dh + eps_j)[1:-1]
    g = 1.0 / chi
    d2g = np.abs(g[2:] - 2.0 * g[1:-1] + g[:-2])
    est = np.abs(eps_j) * chi[1:-1] * d2g / 4.0
    return float(np.max(defect)), float(np.max(est))


def hydrodynamic_error(state: MesoState,
                       macro: MaximalSolution | MetastableMaximal,
                       x0=0.0, exclude_halfwidth=0.0) -> tuple[float, float]:
    """Sup-norm distance to a macroscopic pair, ``macro``'s m and h
    shifted to the interface x0, at eps x with eps of the state's grid.

    The m comparison excludes |eps x - x0| <= exclude_halfwidth (the window
    where the smooth interface lives); the field comparison has no
    exclusion.  It reads the state's own grid, which must hold eps^-1 x0
    among its points: a centred state's half line
    (:meth:`meso.MesoState.even_half`) gives the full grid's errors, the
    state and the closed forms being odd in x and the window symmetric.
    The closed forms are odd about the interface: on a grid longer on one
    side of it (all of a half line) they are evaluated once per distance
    from it, at the abscissae eps x - x0 of that long side, and the short
    side reads their negatives by mirrored index, and its window by its own
    abscissae; a grid of two equal sides is read at every point's own.
    They are evaluated HYDRO_BLOCK points at a time, so that their many
    temporaries stay small, m and h from one evaluation of |m|
    (``macro.fields_of_x``).
    """
    grid, eps = state.grid, state.grid.epsilon
    c = grid.index_of(x0 / eps)
    right = grid.n - 1 - c          # points right of the interface
    if right != c:      # from the interface along the long side
        origin, step = c, 1 if right > c else -1
        count, short = max(c, right) + 1, min(c, right)
    else:               # two equal sides: every point at its own abscissa
        origin, step, count, short = 0, 1, grid.n, 0
    err_m, err_h = [], []
    for lo in range(0, count, HYDRO_BLOCK):
        hi = min(lo + HYDRO_BLOCK, count)
        near = _run(origin, lo, hi, step)
        x = eps * grid.points[near] - x0
        m_mac, h_mac = macro.fields_of_x(x)
        parts = [(near, x, m_mac, h_mac)]
        a, b = max(lo, 1), min(hi, short + 1)     # distances read mirrored
        if a < b:
            far = _run(c, a, b, -step)
            parts.append((far, eps * grid.points[far] - x0,
                          -m_mac[a - lo:b - lo], -h_mac[a - lo:b - lo]))
        for at, x_at, m_at, h_at in parts:
            keep = np.abs(x_at) > exclude_halfwidth
            if keep.any():
                err_m.append(np.max(np.abs(state.m[at][keep] - m_at[keep])))
            err_h.append(np.max(np.abs(state.h[at] - h_at)))
    return float(np.max(err_m)), float(np.max(err_h))


def _run(origin: int, lo: int, hi: int, step: int) -> slice:
    """The indices origin + step d, d = lo .. hi - 1, as a slice."""
    if step > 0:
        return slice(origin + lo, origin + hi)
    end = origin - hi
    return slice(origin - lo, end if end >= 0 else None, -1)
