"""Standing interface profile: certification, decay, transfer diagnostics."""

import dataclasses

import numpy as np
import pytest
from scipy.stats import linregress

from mesostefan import instanton, meso
from mesostefan.errors import ConvergenceError, DomainError, GridError
from mesostefan.grids import build_kernel
from mesostefan.instanton import (compute_instanton, threshold_abscissa,
                                  unit_eigenvalue_defect)
from mesostefan.thermo import make_params, mobility
from oracles import convolve_reference, tanh_start_profile


def test_profile_basics(inst05, params2):
    inst = inst05
    c = inst.center_index
    assert inst.profile[c] == 0.0
    assert np.max(np.abs(inst.profile + inst.profile[::-1])) < 1e-10
    # strictly increasing until the gap to m_beta underflows (the tail
    # saturates to m_beta exactly in float64), nondecreasing everywhere
    d = np.diff(inst.profile)
    assert np.all(d >= 0.0)
    unsat = np.abs(inst.profile[:-1]) < params2.m_beta - 1e-13
    assert np.all(d[unsat] > 0.0)
    assert inst.residual < 1e-10


def test_profile_is_bitwise_odd(inst05, inst_fine, params2, kernel05):
    """The profile is the exact odd extension of its half line, +0 at the
    centre, with an even mobility, and a fixed point of the full-line map."""
    for inst in (inst05, inst_fine):
        c = inst.center_index
        assert np.array_equal(inst.profile, -inst.profile[::-1])
        assert inst.profile[c] == 0.0 and not np.signbit(inst.profile[c])
        assert np.array_equal(inst.p_bar, inst.p_bar[::-1])
    mb = params2.m_beta
    image = np.tanh(params2.beta * convolve_reference(
        kernel05, inst05.profile, "filled", (-mb, mb)))
    inside = np.abs(inst05.x) <= inst05.half_width - 1.0
    assert np.max(np.abs(image - inst05.profile)[inside]) < 1e-11


def test_iterates_on_the_half_line(params2, kernel05, monkeypatch):
    """Every convolution of the profile's iteration runs on the odd grid
    over [0, X]: the start state's one, then the loop's, into one
    workspace."""
    calls = []
    real = meso.conv_values

    def recorded(kernel, grid, values, work=None):
        calls.append((values.size, grid.n, grid.odd, grid.b, work))
        return real(kernel, grid, values, work)

    monkeypatch.setattr(meso, "conv_values", recorded)
    inst = compute_instanton(params2, kernel05)
    n = inst.center_index + 1
    assert {c[:4] for c in calls} == {(n, n, True, inst.half_width)}
    assert calls[0][4] is None
    assert len({id(c[4]) for c in calls[1:]}) == 1


def test_profile_reaches_equilibrium_value(inst05, params2):
    x = inst05.x
    idx = np.argmin(np.abs(x - (x[-1] - 1.0)))
    assert abs(inst05.profile[idx] - params2.m_beta) < 1e-6


def test_two_seed_agreement(params2, kernel05, inst05):
    other = tanh_start_profile(params2, kernel05, inst05)
    assert np.max(np.abs(other - inst05.profile)) < 1e-8


@pytest.mark.parametrize("beta", [19.0, 1e300])
def test_saturated_m_beta_refused_before_iterating(beta, monkeypatch):
    """m_beta = 1 - 1e-16 (1 to rounding, from beta ~ 18.5) is refused
    before the first convolution: at beta = 19 the profile's mobility
    reached 0 and mean and norm_sq came out NaN, and at 1e300 the
    iteration ran its whole step budget."""
    calls = []
    monkeypatch.setattr(meso, "conv_values", lambda *args: calls.append(1))
    with pytest.raises(DomainError, match="m_beta is 1 to rounding"):
        compute_instanton(make_params(beta), build_kernel(0.05))
    assert calls == []


@pytest.mark.parametrize("beta", [2.0, 4.0, 8.0, 12.0])
def test_unsaturated_betas_converge(beta):
    """Below the refusal threshold the iteration runs to its tolerance."""
    inst = compute_instanton(make_params(beta), build_kernel(0.05))
    assert inst.residual < 1e-12
    assert np.isfinite(inst.mean) and np.isfinite(inst.norm_sq)


def test_preconditions():
    p = make_params(2.0)
    with pytest.raises(GridError, match="spacing must be <="):
        compute_instanton(p, build_kernel(0.08))
    # at beta = 1 + 1e-12 the tail decays at rate 5.5e-6: a window of 37
    # decays needs 2.7e8 points, refused before any array is formed
    with pytest.raises(GridError, match="needs more than"):
        compute_instanton(make_params(1.0 + 1e-12), build_kernel(0.05))


def test_decay_root_refuses_a_newton_budget_it_exhausts(monkeypatch,
                                                        params2, kernel05):
    """From the bracket's upper end at beta = 2, Newton's method lowers the
    rate five times and stops at the sixth step; a budget of 2 is a
    ConvergenceError, not the unsettled rate."""
    p_beta = mobility(params2, params2.m_beta)
    monkeypatch.setattr(instanton, "_MAX_NEWTON", 2)
    with pytest.raises(ConvergenceError, match="did not settle in 2 steps"):
        instanton.decay_root(p_beta, kernel05)


def test_threshold_abscissa_edges(inst05, params2):
    # eps = m_beta gives the center: profile(0) = m_beta - m_beta
    assert threshold_abscissa(inst05, params2.m_beta - 1e-12) < 1e-6
    vals = [threshold_abscissa(inst05, e) for e in (0.1, 0.05, 0.025, 1e-3)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError, match="must be in"):
        threshold_abscissa(inst05, 2.0)
    # 1e-30 < 10 max(residual, 1e-14): the gap underflows before it
    with pytest.raises(DomainError, match="below the numerical resolution"):
        threshold_abscissa(inst05, 1e-30)
    # the full window's last gap is below that floor, so only a profile
    # cut short, here to |x| <= 2, ends before a resolved threshold
    c = inst05.center_index
    short = dataclasses.replace(inst05, x=inst05.x[c - 40:c + 41],
                                profile=inst05.profile[c - 40:c + 41])
    assert short.half_width == pytest.approx(2.0)
    end_gap = params2.m_beta - short.profile[-1]
    assert threshold_abscissa(short, 2.0 * end_gap) < 2.0
    with pytest.raises(DomainError, match="beyond the truncation window"):
        threshold_abscissa(short, 0.5 * end_gap)


def test_threshold_scales_like_log(inst05):
    """Slope of x_eps against log(1/eps) matches 1/decay_rate within 15%."""
    eps_vals = np.array([1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    xs = np.array([threshold_abscissa(inst05, e) for e in eps_vals])
    fit = linregress(np.log(1.0 / eps_vals), xs)
    assert abs(fit.slope - 1.0 / inst05.decay_rate) < 0.15 / inst05.decay_rate


def test_decay_rate_is_characteristic_root():
    """decay_rate solves p_beta sum_k w_k cosh(a k d) = 1 and lies in its
    bracket [acosh(1/p_beta), acosh(1/p_beta)/mu], mu = sum_k w_k |k d|."""
    for shape in ("cos2", "quartic"):
        for spacing in (0.05, 0.025):
            kernel = build_kernel(spacing, shape)
            offsets = spacing * np.arange(-kernel.half_points,
                                          kernel.half_points + 1)
            mu = np.sum(kernel.weights * np.abs(offsets))
            for beta in (1.2, 2.0, 12.0):
                params = make_params(beta)
                p_beta = mobility(params, params.m_beta)
                a = instanton.decay_root(p_beta, kernel)
                sums = np.sum(kernel.weights * np.cosh(a * offsets))
                assert abs(p_beta * sums - 1.0) <= 1e-14
                lo = np.arccosh(1.0 / p_beta)
                assert lo <= a <= lo / mu


def test_instanton_carries_its_decay_root(inst05, params2, kernel05):
    assert inst05.decay_rate == instanton.decay_root(
        mobility(params2, params2.m_beta), kernel05)


def test_window_ends_where_the_tail_is_rounding(inst05, kernel05):
    """The window reaches TAIL_DECAYS decay lengths, at the first point past
    them, and is never below HALF_WIDTH: at beta = 1.01 the profile ends at
    m_beta to rounding and its slope over the last kernel range, which the
    reflection at X reads, is rounding-level, and the beta = 2 window keeps
    its 801 points."""
    inst = compute_instanton(make_params(1.01), kernel05)
    reach = inst.decay_rate * inst.half_width
    assert instanton.TAIL_DECAYS <= reach \
        < instanton.TAIL_DECAYS + inst.decay_rate * inst.spacing
    last_range = np.abs(inst.x) >= inst.half_width - 1.0 - 1e-9
    assert np.max(np.abs(inst.derivative[last_range])) < 1e-14
    assert abs(inst.m_beta - inst.profile[-1]) < 1e-15
    assert inst05.half_width == instanton.HALF_WIDTH
    assert inst05.x.size == 801


def test_normalization_constants_stable_under_refinement(inst05, inst025):
    assert abs(inst025.mean - inst05.mean) / inst025.mean < 0.005
    assert abs(inst025.norm_sq - inst05.norm_sq) / inst025.norm_sq < 0.005


def test_mean_closed_form():
    """int (dm/dx) / (beta (1 - m^2)) = 2 artanh(m_beta)/beta = 2 m_beta over
    the window, whose ends are +-m_beta to rounding.  A quadrature of the
    differenced profile over p_bar is off by 4.3e-2 relative at beta = 7:
    the tails amplify its error."""
    for beta in (2.0, 4.0, 7.0):
        params = make_params(beta)
        inst = compute_instanton(params, build_kernel(0.05))
        assert inst.mean == 2.0 * params.m_beta


def test_eigenrelation_fine(inst_fine):
    assert unit_eigenvalue_defect(inst_fine,
                                  build_kernel(inst_fine.spacing)) < 1e-6


def test_unit_eigenvalue_defect_matches_a_reference_convolution(inst05,
                                                               kernel05):
    """The defect is sup|p_bar (J * u') - u'| over |x| <= X - 2, the
    convolution on the zero-filled line (a reference quadrature here)."""
    u = inst05.derivative
    image = inst05.p_bar * convolve_reference(kernel05, u, "free")
    inside = np.abs(inst05.x) <= inst05.half_width - 2.0
    assert unit_eigenvalue_defect(inst05, kernel05) == pytest.approx(
        np.max(np.abs(image - u)[inside]), rel=1e-9)


def test_nonconvergence_raises(params2, kernel05, monkeypatch):
    monkeypatch.setattr(meso, "MAX_ITER", 3)
    with pytest.raises(ConvergenceError):
        compute_instanton(params2, kernel05)


@pytest.mark.parametrize("max_iter", [1, 3, 10])
def test_one_convolution_per_step(params2, kernel05, monkeypatch, max_iter):
    """The start state's convolution serves the loop's first step, and each
    later step makes one: k steps convolve k times."""
    calls = []
    real = meso.conv_values

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(meso, "conv_values", counted)
    monkeypatch.setattr(meso, "MAX_ITER", max_iter)
    with pytest.raises(ConvergenceError):
        compute_instanton(params2, kernel05)
    assert len(calls) == max_iter


def test_plain_picard_convolution_budget(params2, kernel05, monkeypatch):
    """At beta = 2 and spacing 0.05 the undamped map contracts at about 0.31
    per step and the loop extrapolates over that ratio: 14 convolutions to
    tol 1e-12, one per step.  The instanton records the steps and the
    extrapolated ones."""
    calls = []
    real = meso.conv_values

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(meso, "conv_values", counted)
    inst = compute_instanton(params2, kernel05)
    assert inst.residual < 1e-12
    assert len(calls) == inst.iterations == 14
    assert inst.extrapolations == 3


@pytest.mark.parametrize("beta, steps, extrapolated",
                         [(1.01, 379, 125), (1.02, 208, 68), (1.05, 82, 26)])
def test_near_critical_steps(kernel05, beta, steps, extrapolated):
    """Near the critical temperature the map contracts at a ratio near 1 and
    about a third of the steps extrapolate (cos2, spacing 0.05)."""
    inst = compute_instanton(make_params(beta), kernel05)
    assert (inst.iterations, inst.extrapolations) == (steps, extrapolated)
    assert inst.residual < 1e-12
