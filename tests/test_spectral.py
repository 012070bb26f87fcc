"""Spectral analysis of the linearized map: eigenpair, gap, eigenvector shape."""

import numpy as np
import pytest

from mesostefan.grids import build_grid
from mesostefan.meso import effective_field, inner_solve, make_state
from mesostefan.spectral import (deflate, eigenvector_shape_report,
                                 leading_eigenpair, second_eigenvalue)
from mesostefan.thermo import mobility


@pytest.fixture(scope="module")
def fine_instanton_state(params2, kernel025, inst025):
    grid = build_grid(0.1, 2.0, 2.0, 0.025)
    m = np.interp(grid.points, inst025.x, inst025.profile)
    return inner_solve(params2, kernel025, grid, np.zeros(grid.n), m)


@pytest.fixture(scope="module")
def fine_pair(fine_instanton_state):
    return leading_eigenpair(fine_instanton_state)


def test_constant_weight_state(params2, kernel05):
    """Constant magnetization: the map is c * (reflected convolution)."""
    grid = build_grid(0.1, 1.0, 1.0, 0.05)
    t = 0.3
    m = np.full(grid.n, t)
    h = effective_field(params2, kernel05, grid, m)
    st = make_state(params2, kernel05, grid, h, m)
    c = float(mobility(params2, t))
    assert np.max(np.abs(st.p - c)) < 1e-14
    res = leading_eigenpair(st)
    assert res.lambda_ == pytest.approx(c, abs=1e-12)
    u = res.u / np.mean(res.u)
    assert np.max(np.abs(u - 1.0)) < 1e-10


def test_interface_eigenvalue_one(fine_instanton_state, fine_pair, inst025):
    res = fine_pair
    assert abs(res.lambda_ - 1.0) < 1e-4
    md = np.interp(fine_instanton_state.grid.points, inst025.x,
                   inst025.unit_derivative())
    assert np.max(np.abs(res.u - md)) < 1e-3


def test_eigenpair_contract(fine_instanton_state, fine_pair):
    st, res = fine_instanton_state, fine_pair
    assert np.all(res.u > 0.0)
    assert abs(st.weighted_dot(res.u, res.u) - 1.0) < 1e-10
    assert res.residual < 1e-8 * max(1.0, float(np.max(res.u)))


def test_second_eigenvalue_below_leading(fine_instanton_state, fine_pair):
    lam2 = second_eigenvalue(fine_instanton_state, fine_pair)
    assert lam2 < fine_pair.lambda_
    assert lam2 < 0.75
    assert lam2 > 0.0


def test_deflation_annihilates_eigenvector(fine_instanton_state, fine_pair):
    out = deflate(fine_instanton_state, fine_pair, fine_pair.u.copy())
    assert np.max(np.abs(out)) < 1e-10


def test_rayleigh_lower_bound(fine_instanton_state, fine_pair, inst025):
    """Any trial function bounds the top eigenvalue from below."""
    st = fine_instanton_state
    md = np.interp(st.grid.points, inst025.x, inst025.unit_derivative())
    rq = st.weighted_dot(md, st.apply_linearized(md)) / st.weighted_dot(md, md)
    assert fine_pair.lambda_ >= rq - 1e-12


def test_positive_seed_stays_positive(fine_instanton_state):
    st = fine_instanton_state
    psi = st.p.copy()
    for _ in range(30):
        psi = st.apply_linearized(psi)
        assert np.all(psi > 0.0)
        psi = psi / np.max(psi)


def test_shape_report_on_interface_state(fine_instanton_state, fine_pair,
                                         inst025):
    rep = eigenvector_shape_report(fine_instanton_state, fine_pair, inst025)
    assert rep["sup_window_diff"] < 1e-3
    assert rep["tail_rate"] > 1.0
    assert rep["tail_r2"] > 0.99
    # the tail fit is scipy.stats.linregress bit for bit
    from scipy.stats import linregress

    x_rel = np.abs(fine_instanton_state.grid.points)
    u = fine_pair.u
    tail = (x_rel > rep["window"]) & (u > 1e-10 * np.max(u))
    fit = linregress(x_rel[tail], np.log(u[tail]))
    assert (rep["tail_rate"], rep["tail_r2"]) == (-fit.slope, fit.rvalue ** 2)


def test_sweep_gap_stays_open(spectral_sweep):
    """The sub-dominant eigenvalue stays far below 1 while the top tends to 1."""
    lams = [spectral_sweep[e]["pair"].lambda_ for e in (0.1, 0.05, 0.025)]
    lam2s = [spectral_sweep[e]["lambda2"] for e in (0.1, 0.05, 0.025)]
    assert lams[0] < lams[1] < lams[2] < 1.0
    assert max(lam2s) < 0.75
