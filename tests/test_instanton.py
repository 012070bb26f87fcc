"""Standing interface profile: certification, decay, transfer diagnostics."""

import numpy as np
import pytest
from scipy.stats import linregress

from mesostefan import instanton
from mesostefan.errors import ConvergenceError, DomainError, GridError
from mesostefan.grids import build_kernel, conv_values_filled
from mesostefan.instanton import (apply_transfer, compute_instanton,
                                  threshold_abscissa)
from mesostefan.thermo import make_params, mobility


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
    image = np.tanh(params2.beta * conv_values_filled(kernel05, inst05.profile,
                                                      -mb, mb))
    inside = np.abs(inst05.x) <= inst05.half_width - 1.0
    assert np.max(np.abs(image - inst05.profile)[inside]) < 1e-11


def test_iterates_on_the_half_line(params2, kernel05, monkeypatch):
    """Every convolution of the profile's iteration runs on [0, X]."""
    sizes = []
    real = instanton.conv_values_filled

    def recorded(kernel, values, *args):
        sizes.append(values.size)
        return real(kernel, values, *args)

    monkeypatch.setattr(instanton, "conv_values_filled", recorded)
    inst = compute_instanton(params2, kernel05)
    assert set(sizes) == {inst.center_index + 1}


def test_profile_reaches_equilibrium_value(inst05, params2):
    x = inst05.x
    idx = np.argmin(np.abs(x - (x[-1] - 1.0)))
    assert abs(inst05.profile[idx] - params2.m_beta) < 1e-6


def test_two_seed_agreement(params2, kernel05, inst05):
    other = compute_instanton(params2, kernel05, seed="tanh")
    assert np.max(np.abs(other.profile - inst05.profile)) < 1e-8


@pytest.mark.parametrize("beta", [19.0, 1e300])
def test_saturated_m_beta_refused_before_iterating(beta, monkeypatch):
    """m_beta = 1 - 1e-16 (1 to rounding, from beta ~ 18.5) is refused
    before the first convolution: at beta = 19 the profile's mobility
    reached 0 and mean and norm_sq came out NaN, and at 1e300 the
    iteration ran its whole step budget."""
    calls = []
    monkeypatch.setattr(instanton, "conv_values_filled",
                        lambda *args: calls.append(1))
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
    with pytest.raises(GridError):
        compute_instanton(p, build_kernel(0.08))
    with pytest.raises(DomainError):
        compute_instanton(make_params(1.2), build_kernel(0.05), seed="bogus")


def test_threshold_abscissa_edges(inst05, params2):
    # eps = m_beta gives the center: profile(0) = m_beta - m_beta
    assert threshold_abscissa(inst05, params2.m_beta - 1e-12) < 1e-6
    vals = [threshold_abscissa(inst05, e) for e in (0.1, 0.05, 0.025, 1e-3)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        threshold_abscissa(inst05, 2.0)
    with pytest.raises(DomainError):
        threshold_abscissa(inst05, 1e-30)   # beyond the truncation window


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


def test_normalization_constants_stable_under_refinement(inst05, inst025):
    assert abs(inst025.mean - inst05.mean) / inst025.mean < 0.005
    assert abs(inst025.norm_sq - inst05.norm_sq) / inst025.norm_sq < 0.005


def test_mean_closed_form():
    """int (dm/dx) / (beta (1 - m^2)) = 2 artanh(m_beta)/beta = 2 m_beta over
    the clamped window.  A quadrature of the differenced profile over p_bar
    is off by 4.3e-2 relative at beta = 7: the tails amplify its error."""
    for beta in (2.0, 4.0, 7.0):
        params = make_params(beta)
        inst = compute_instanton(params, build_kernel(0.05))
        assert inst.mean == 2.0 * params.m_beta


def test_eigenrelation_fine(inst_fine):
    kern = build_kernel(inst_fine.spacing)
    md = inst_fine.derivative
    err = apply_transfer(inst_fine, kern, md) - md
    interior = np.abs(inst_fine.x) <= inst_fine.half_width - 2.0
    assert np.max(np.abs(err[interior])) < 1e-6


def test_nonconvergence_raises(params2, kernel05, monkeypatch):
    monkeypatch.setattr(instanton, "_MAX_ITER", 3)
    with pytest.raises(ConvergenceError):
        compute_instanton(params2, kernel05)


@pytest.mark.parametrize("max_iter", [1, 3, 10])
def test_one_convolution_per_step(params2, kernel05, monkeypatch, max_iter):
    """The residual's image of each iterate is the next step's target, so k
    steps convolve k + 1 times (the seed's target plus one per step)."""
    calls = []
    real = instanton.conv_values_filled

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(instanton, "conv_values_filled", counted)
    monkeypatch.setattr(instanton, "_MAX_ITER", max_iter)
    with pytest.raises(ConvergenceError):
        compute_instanton(params2, kernel05)
    assert len(calls) == max_iter + 1


def test_plain_picard_convolution_budget(params2, kernel05, monkeypatch):
    """At beta = 2 and spacing 0.05 the undamped map contracts at about 0.31
    per step: at most 25 convolutions to tol 1e-12 (the damped iteration with
    factor 0.5 took 62)."""
    calls = []
    real = instanton.conv_values_filled

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(instanton, "conv_values_filled", counted)
    inst = compute_instanton(params2, kernel05)
    assert inst.residual < 1e-12
    assert len(calls) <= 25
