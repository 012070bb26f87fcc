"""Spectral analysis of the linearized map: eigenpair, gap, eigenvector shape."""

import numpy as np
import pytest

from mesostefan import antisym, asym, spectral, stefan
from mesostefan.errors import ConvergenceError
from mesostefan.grids import build_grid, build_kernel, conv_values
from mesostefan.instanton import compute_instanton
from mesostefan.meso import exact_state, inner_solve, make_state
from mesostefan.spectral import (eigenvector_shape_report, leading_eigenpair,
                                 second_eigenvalue)
from mesostefan.thermo import make_params, mobility
from oracles import leading_eigenpair_every_step, neumann_matrix

from conftest import ELL, J_META, J_STABLE, N0, X0


@pytest.fixture(scope="module")
def fine_instanton_state(params2, kernel025, inst025):
    grid = build_grid(0.1, 2.0, 2.0, 0.025)
    m = np.interp(grid.points, inst025.x, inst025.profile)
    return inner_solve(params2, kernel025, grid, np.zeros(grid.n), m,
                       conv_values(kernel025, grid, m))


@pytest.fixture(scope="module")
def fine_pair(fine_instanton_state):
    return leading_eigenpair(fine_instanton_state)


def test_constant_weight_state(params2, kernel05):
    """Constant magnetization: the map is c * (reflected convolution)."""
    grid = build_grid(0.1, 1.0, 1.0, 0.05)
    t = 0.3
    m = np.full(grid.n, t)
    st = exact_state(params2, kernel05, grid, m)
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
    # the local log-slope of the tail is the interface rate to 1.3e-2
    assert rep["tail_slope_deviation"] < 0.02


def test_half_line_leading_pair_is_the_odd_one(spectral_sweep):
    """On the odd half line of a centred state the leading pair is the
    leading odd pair of the full grid's operator: its eigenvalue is the full
    lambda2 (the full leading eigenvector is even) and its eigenvector
    vanishes exactly at x = 0."""
    for eps in (0.1, 0.05):
        entry = spectral_sweep[eps]
        st = entry["result"].state
        c = st.grid.center_index
        half = make_state(st.params, st.kernel, st.grid.half_line(),
                          st.h[c:], st.m[c:], st.conv[c:])
        pair = leading_eigenpair(half)
        assert abs(pair.lambda_ - entry["lambda2"]) < 1e-12
        assert pair.u[0] == 0.0
        assert pair.residual < 1e-11


def test_sweep_gap_stays_open(spectral_sweep):
    """The sub-dominant eigenvalue stays far below 1 while the top tends to 1."""
    lams = [spectral_sweep[e]["pair"].lambda_ for e in (0.1, 0.05, 0.025)]
    lam2s = [spectral_sweep[e]["lambda2"] for e in (0.1, 0.05, 0.025)]
    assert lams[0] < lams[1] < lams[2] < 1.0
    assert max(lam2s) < 0.75


def _symmetrized(state):
    """Dense D^(1/2) A D^(-1/2) of A = p J^neum, D = trapezoid weights / p:
    symmetric exactly when A is self-adjoint in <.,.>_{1/p}."""
    grid = state.grid
    trap = np.full(grid.n, grid.spacing)
    trap[[0, -1]] *= 0.5
    root_d = np.sqrt(trap / state.p)
    a = state.p[:, None] * neumann_matrix(state.kernel, grid)
    return root_d[:, None] * a / root_d[None, :]


def _solve(beta, shape, mode, eps):
    """Solved state at spacing 0.05, |j| = 0.02, ell = 1, x0 = 0.2."""
    params, kernel = make_params(beta), build_kernel(0.05, shape)
    inst = compute_instanton(params, kernel)
    if mode == "metastable":
        return antisym.solve_metastable(
            params, kernel, eps, J_META, ELL, n0=N0, instanton=inst,
            macro=stefan._metastable_maximal(params, J_META)).state
    macro = stefan.solve_maximal(params, J_STABLE)
    if mode == "asym":
        return asym.solve_off_center(params, kernel, eps, J_STABLE, X0, n0=N0,
                                     instanton=inst, macro=macro).state
    return antisym.solve_stable(params, kernel, eps, J_STABLE, ELL, n0=N0,
                                instanton=inst, macro=macro).state


@pytest.mark.parametrize("shape", ["cos2", "quartic"])
@pytest.mark.parametrize("mode", ["antisym", "metastable", "asym"])
def test_linearization_self_adjoint_in_weighted_product(shape, mode):
    """The reflected trapezoid convolution keeps p J^neum self-adjoint in
    <.,.>_{1/p}, rows at the ends included: the Lanczos recurrence for
    lambda2 relies on it."""
    s = _symmetrized(_solve(2.0, shape, mode, 0.05))
    assert np.max(np.abs(s - s.T)) <= 1e-15 * np.max(np.abs(s))


@pytest.mark.parametrize("beta, mode", [(2.0, "antisym"), (1.2, "antisym"),
                                        (2.0, "metastable")])
def test_second_eigenvalue_matches_dense(beta, mode):
    """lambda2 is the largest-magnitude eigenvalue after the leading one, at
    eps = 0.025 (n = 1601), to 1e-12 relative."""
    state = _solve(beta, "cos2", mode, 0.025)
    assert state.grid.n == 1601
    s = _symmetrized(state)
    dense = np.linalg.eigvalsh(0.5 * (s + s.T))
    dense = dense[np.argsort(-np.abs(dense))]
    pair = leading_eigenpair(state)
    assert pair.lambda_ == pytest.approx(dense[0], rel=1e-12)
    assert second_eigenvalue(state, pair) == pytest.approx(abs(dense[1]),
                                                           rel=1e-12)


def test_second_eigenvalue_budget_raises(fine_instanton_state, fine_pair,
                                         monkeypatch):
    monkeypatch.setattr(spectral, "_LAMBDA2_STEPS", 3)
    with pytest.raises(ConvergenceError, match="Lanczos"):
        second_eigenvalue(fine_instanton_state, fine_pair)


@pytest.mark.parametrize("tol", [1e-12, 1e-8], ids=["default", "pair-tol"])
@pytest.mark.parametrize("mode", ["antisym", "metastable", "asym"])
def test_leading_pair_matches_residual_every_step(mode, tol, stable_sweep,
                                                  metastable_sweep,
                                                  asym_sweep):
    """Forming the residual only once the quotient is stationary keeps the
    stopping step and every returned bit of the residual-every-step rule."""
    sweep = {"antisym": stable_sweep, "metastable": metastable_sweep,
             "asym": asym_sweep}[mode]
    state = sweep[0.05].state
    pair = leading_eigenpair(state, tol)
    lam, u, iterations, res = leading_eigenpair_every_step(state, tol)
    assert pair.lambda_ == lam
    assert np.array_equal(pair.u, u)
    assert pair.iterations == iterations
    assert pair.residual == res


def test_leading_pair_budget_message_matches_residual_every_step(
        stable_sweep, monkeypatch):
    """On an exhausted budget the message reports the residual of the last
    iterate, as the residual-every-step rule does."""
    state = stable_sweep[0.05].state
    monkeypatch.setattr(spectral, "_POWER_STEPS", 3)
    with pytest.raises(ConvergenceError) as mine:
        leading_eigenpair(state)
    with pytest.raises(ConvergenceError) as ref:
        leading_eigenpair_every_step(state, steps=3)
    assert str(mine.value) == str(ref.value)
    assert "residual" in str(mine.value)
