"""Macroscopic free-boundary solutions against quadrature oracles."""

import numpy as np
import pytest
from scipy.integrate import quad

from mesostefan.cli import EXIT_CONFIG, EXIT_OK, main
from mesostefan.errors import DomainError, InfeasibleError
from mesostefan.stefan import (SATURATION_GAP, _metastable_maximal,
                               _sample_with_jump, solve_maximal)
from mesostefan.thermo import make_params, mobility, potential_prime


def ell_oracle(params, j, m_hi):
    """Independent quadrature: x(m) = (1/|j|) int_{m_beta}^{m} of the outer
    diffusivity 1 - beta (1 - m^2)."""
    val, _ = quad(lambda m: 1.0 - params.beta * (1.0 - m * m),
                  params.m_beta, m_hi, epsabs=1e-13, epsrel=1e-13)
    return val / abs(j)


@pytest.mark.parametrize("j", [-0.2, -0.02, -0.04])
def test_maximal_half_length_oracle(params2, j):
    mx = solve_maximal(params2, j)
    oracle = ell_oracle(params2, j, 1.0 - SATURATION_GAP)
    assert mx.end == pytest.approx(oracle, abs=1e-7)


def test_maximal_abscissa_oracle(params2, maximal_stable):
    """x(m) from the dense field inversion matches direct quadrature."""
    for m_target in (0.96, 0.97, 0.99):
        x_oracle = ell_oracle(params2, maximal_stable.j, m_target)
        h_target = float(potential_prime(params2, m_target))
        xs = np.linspace(0.0, maximal_stable.end, 20001)
        hs = maximal_stable.fields_of_x(xs)[1]
        x_found = np.interp(h_target, hs, xs)
        assert x_found == pytest.approx(x_oracle, abs=1e-5)
        assert maximal_stable.m_of_x(x_oracle) == pytest.approx(m_target,
                                                                abs=1e-7)


@pytest.mark.parametrize("beta", [1.2, 4.0])
def test_maximal_abscissa_oracle_other_beta(beta):
    """Near beta = 1 the profile passes m = 2 m_star, where the cubic root
    formula switches from the trigonometric to the hyperbolic form."""
    p = make_params(beta)
    mx = solve_maximal(p, -0.1)
    for m_target in p.m_beta + (1.0 - p.m_beta) * np.array([0.2, 0.6, 0.99]):
        x_oracle = ell_oracle(p, -0.1, m_target)
        assert mx.m_of_x(x_oracle) == pytest.approx(m_target, abs=1e-9)
        assert mx.m_of_x(-x_oracle) == pytest.approx(-m_target, abs=1e-9)


def test_maximal_rejects_saturated_m_beta():
    """From beta ~ 7.25 on, m_beta itself exceeds 1 - SATURATION_GAP."""
    with pytest.raises(DomainError):
        solve_maximal(make_params(10.0), -0.02)


@pytest.mark.parametrize("beta", [10.0, 1e10, 1e300])
def test_metastable_maximal_rejects_saturated_m_beta(beta):
    """The metastable solution makes the stable one's m_beta test: at
    beta = 1e10 its width used to round to ell_break = 0 ("infeasible")."""
    with pytest.raises(DomainError, match="past the saturation cutoff"):
        _metastable_maximal(make_params(beta), 0.02)


def test_edge_slope_is_current(params2):
    mx = solve_maximal(params2, -0.2)
    xs = mx.end - np.array([2e-4, 1e-4])
    slope = np.diff(mx.m_of_x(xs))[0] / 1e-4
    assert slope == pytest.approx(0.2, rel=5e-3)


def test_half_length_decreasing_in_current(params2):
    ells = [solve_maximal(params2, -j).end for j in (0.02, 0.04, 0.08)]
    assert ells[0] > ells[1] > ells[2]
    assert ells[0] == pytest.approx(2 * ells[1], rel=1e-6)


def test_zero_current_rejected(params2):
    with pytest.raises(DomainError):
        solve_maximal(params2, 0.0)


def test_maximal_oddness(params2, maximal_stable):
    xs = np.linspace(0.05, 1.5, 9)
    assert np.max(np.abs(maximal_stable.fields_of_x(xs)[1]
                         + maximal_stable.fields_of_x(-xs)[1])) == 0.0
    assert np.max(np.abs(maximal_stable.m_of_x(xs)
                         + maximal_stable.m_of_x(-xs))) == 0.0


def test_fixed_interface_symmetric(params2, maximal_stable):
    x, h, m = _sample_with_jump(maximal_stable, 0.0, 1.0)
    n = x.size
    assert np.max(np.abs(h + h[::-1])) < 1e-12
    assert np.max(np.abs(m + m[::-1])) < 1e-12
    assert n % 2 == 0   # duplicated interface row
    jump = np.where(x == 0.0)[0]
    assert jump.size == 2
    assert m[jump[0]] == pytest.approx(-params2.m_beta, abs=1e-9)
    assert m[jump[1]] == pytest.approx(+params2.m_beta, abs=1e-9)


def test_fixed_interface_straddles_plateau(params2, maximal_stable):
    x, h, m = _sample_with_jump(maximal_stable, 0.2, 1.0)
    assert m[0] < -params2.m_beta < params2.m_beta < m[-1]
    assert np.all(np.abs(m) >= params2.m_beta - 1e-12)
    # field strictly monotone and vanishing at the interface
    assert np.all(np.diff(h) >= 0.0)
    assert abs(h[np.where(x == 0.2)[0][0]]) < 1e-12


def test_fixed_interface_restriction_property(maximal_stable):
    """Samples coincide with the translated maximal solution pointwise."""
    x, h, m = _sample_with_jump(maximal_stable, 0.2, 1.0)
    keep = x != 0.2
    m_ref, h_ref = maximal_stable.fields_of_x(x[keep] - 0.2)
    assert np.max(np.abs(h[keep] - h_ref)) < 1e-8
    assert np.max(np.abs(m[keep] - m_ref)) < 1e-8


def test_fixed_interface_flux_constancy(params2, maximal_stable):
    """chi(m) dh/dx = -j at interior samples (centered differences)."""
    j = -0.02
    dx = 1e-5
    xs = np.linspace(-0.9, 0.9, 37)
    xs = xs[np.abs(xs - 0.2) > 0.05] + 0.2  # avoid the jump at x0 = 0.2
    xs = xs[np.abs(xs) < maximal_stable.end - 0.3]
    dh = (maximal_stable.fields_of_x(xs + dx)[1]
          - maximal_stable.fields_of_x(xs - dx)[1]) / (2 * dx)
    chi = mobility(params2, maximal_stable.m_of_x(xs))
    assert np.max(np.abs(chi * dh + j)) < 1e-7


def test_fixed_interface_infeasible(maximal_stable, tmp_path):
    """ell + |x0| = 2.1 reaches past ell_j; an interface outside the
    domain is a config error."""
    with pytest.raises(InfeasibleError) as exc:
        maximal_stable.reach(1.9 + 0.2)
    assert exc.value.ell_j == pytest.approx(maximal_stable.end)
    assert main(["stefan", "--j", "-0.02", "--x0", "1.5", "--ell", "1",
                 "--out", str(tmp_path)]) == EXIT_CONFIG


def test_metastable_structure(params2, maximal_meta):
    x, h, m = _sample_with_jump(maximal_meta, 0.0, 1.0)
    assert np.all(np.diff(h) <= 1e-15)
    jump = np.where(x == 0.0)[0]
    assert m[jump[0]] == pytest.approx(-params2.m_beta, abs=1e-9)
    assert m[jump[1]] == pytest.approx(+params2.m_beta, abs=1e-9)
    inner = np.abs(m)
    assert np.all(inner > params2.m_star)
    assert np.all(inner <= params2.m_beta + 1e-12)
    # negative phase on the left, positive on the right (upward jump)
    assert m[0] < 0.0 < m[-1]


def test_metastable_breakdown_oracle(params2, maximal_meta):
    val, _ = quad(lambda m: 1.0 - params2.beta * (1.0 - m * m),
                  params2.m_star, params2.m_beta, epsabs=1e-13, epsrel=1e-13)
    assert maximal_meta.end == pytest.approx(val / 0.02, abs=1e-6)


def test_metastable_abscissa_oracle(params2, maximal_meta):
    """x(m) = (1/j) int_m^{m_beta} D on the metastable branch, both sides."""
    for m_target in (0.75, 0.85, 0.95):
        x_oracle = -ell_oracle(params2, maximal_meta.j, m_target)
        assert maximal_meta.m_of_x(x_oracle) == pytest.approx(m_target,
                                                              abs=1e-9)
        assert maximal_meta.m_of_x(-x_oracle) == pytest.approx(-m_target,
                                                               abs=1e-9)


def test_metastable_flux_constancy(params2, maximal_meta):
    """chi(m) dh/dx = -j at samples on both sides (centered differences)."""
    dx = 1e-5
    xs = np.linspace(-4.5, 4.5, 37)
    xs = xs[np.abs(xs) > 0.05]
    dh = (maximal_meta.fields_of_x(xs + dx)[1]
          - maximal_meta.fields_of_x(xs - dx)[1]) / (2 * dx)
    chi = mobility(params2, maximal_meta.m_of_x(xs))
    assert np.max(np.abs(chi * dh + maximal_meta.j)) < 1e-7


def test_metastable_breakdown_error(maximal_meta):
    with pytest.raises(InfeasibleError) as exc:
        maximal_meta.reach(maximal_meta.end + 0.1)
    assert exc.value.ell_j == pytest.approx(maximal_meta.end)


@pytest.mark.parametrize("branch", ["stable", "metastable"])
def test_sampling_past_the_end_is_infeasible(maximal_stable, maximal_meta,
                                             branch):
    """An abscissa past the branch's end, on either side, is an
    InfeasibleError carrying the end, not a value clamped to it."""
    mx = {"stable": maximal_stable, "metastable": maximal_meta}[branch]
    for x in (1.01 * mx.end, np.array([0.0, -1.01 * mx.end])):
        with pytest.raises(InfeasibleError, match="beyond") as exc:
            mx.m_of_x(x)
        assert exc.value.ell_j == mx.end


def test_metastable_needs_positive_current(params2):
    with pytest.raises(DomainError):
        _metastable_maximal(params2, -0.02)


def test_metastable_field_within_branch_limit(params2, maximal_meta):
    _, h, _ = _sample_with_jump(maximal_meta, 0.0, 1.0)
    assert np.max(np.abs(h)) < -potential_prime(params2, params2.m_star)


@pytest.mark.parametrize("branch", ["stable", "stable_j_pos", "metastable"])
def test_sampling_scalar_and_array_shapes(params2, maximal_stable,
                                          maximal_meta, branch):
    mx = {"stable": maximal_stable,
          "stable_j_pos": solve_maximal(params2, 0.02),
          "metastable": maximal_meta}[branch]
    for f in (lambda x: mx.fields_of_x(x)[1], mx.m_of_x):
        assert type(f(0.3)) is float
        assert type(f(np.float64(-0.3))) is float
        assert f(np.array([0.3])).shape == (1,)
        assert f(np.zeros((2, 3))).shape == (2, 3)
        assert f(np.empty(0)).shape == (0,)
        assert f(np.array([-0.3, 0.3]))[1] == f(0.3)
    assert mx.m_of_x(0.0) == params2.m_beta
    assert mx.fields_of_x(0.0) == (params2.m_beta, 0.0)


def test_csv_round_trip(maximal_stable, tmp_path):
    """stefan.csv holds the samples of the solution, to the last bit."""
    x, h, m = _sample_with_jump(maximal_stable, 0.2, 1.0)
    assert main(["stefan", "--j", "-0.02", "--x0", "0.2", "--ell", "1",
                 "--out", str(tmp_path)]) == EXIT_OK
    rows = (tmp_path / "stefan.csv").read_text().strip().splitlines()
    assert rows[0] == "x,h,m"
    data = np.array([[float(t) for t in r.split(",")] for r in rows[1:]])
    assert np.array_equal(data[:, 0], x)
    assert np.array_equal(data[:, 1], h)
    assert np.array_equal(data[:, 2], m)
