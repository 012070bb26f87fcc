"""Spectral analysis of the linearized map: eigenpair, gap, eigenvector shape."""

import numpy as np
import pytest

from mesostefan import antisym, asym, cli, spectral, stefan
from mesostefan.config import RunConfig
from mesostefan.errors import ConvergenceError
from mesostefan.grids import build_grid, build_kernel, conv_values
from mesostefan.instanton import compute_instanton
from mesostefan.meso import exact_state, iterate, make_state
from mesostefan.errors import DomainError
from mesostefan.spectral import (eigenvector_shape_report, leading_eigenpair,
                                 leading_eigenvalue, second_eigenvalue,
                                 slope_start)
from mesostefan.thermo import make_params, mobility
from oracles import leading_eigenpair_every_step, neumann_matrix

from conftest import ELL, J_META, J_STABLE, N0, X0


@pytest.fixture(scope="module")
def fine_instanton_state(params2, kernel025, inst025):
    grid = build_grid(0.1, 2.0, 2.0, 0.025)
    m = np.interp(grid.points, inst025.x, inst025.profile)
    start = make_state(params2, kernel025, grid, np.zeros(grid.n), m,
                       conv_values(kernel025, grid, m))
    return iterate(start, lambda m, out, scratch: start.h)[0]


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
    if mode == "asym":
        return asym.solve_off_center(stefan.solve_maximal(params, J_STABLE),
                                     kernel, inst, eps, X0, N0).state
    macro = stefan._metastable_maximal(params, J_META) \
        if mode == "metastable" else stefan.solve_maximal(params, J_STABLE)
    return antisym.solve_centred(macro, kernel, inst, eps, ELL, N0).state


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
    eps = 0.025 (n = 1601), to 1e-12 relative.  So are the two sectors'
    numbers of the centred state, which ``mesostefan spectrum`` takes: the
    leading eigenvalue on the even view of its odd half line from p, and
    lambda2 as the odd half line's top eigenvalue, with no pair to
    deflate."""
    state = _solve(beta, "cos2", mode, 0.025)
    assert state.grid.n == 1601
    s = _symmetrized(state)
    dense = np.linalg.eigvalsh(0.5 * (s + s.T))
    dense = dense[np.argsort(-np.abs(dense))]
    pair = leading_eigenpair(state)
    assert pair.lambda_ == pytest.approx(dense[0], rel=1e-12)
    assert second_eigenvalue(state, pair) == pytest.approx(abs(dense[1]),
                                                           rel=1e-12)
    c = state.grid.center_index
    odd = make_state(state.params, state.kernel, state.grid.half_line(),
                     state.h[c:], state.m[c:])
    assert odd.grid.n == 801
    assert leading_eigenvalue(odd.even_half()) \
        == pytest.approx(dense[0], rel=1e-12)
    assert second_eigenvalue(odd) == pytest.approx(abs(dense[1]), rel=1e-12)


def test_second_eigenvalue_budget_raises(fine_instanton_state, fine_pair,
                                         monkeypatch):
    monkeypatch.setattr(spectral, "_LANCZOS_STEPS", 3)
    with pytest.raises(ConvergenceError, match="Lanczos"):
        second_eigenvalue(fine_instanton_state, fine_pair)


def test_leading_eigenvalue_budget_raises(fine_instanton_state, monkeypatch):
    monkeypatch.setattr(spectral, "_LANCZOS_STEPS", 3)
    with pytest.raises(ConvergenceError, match="Lanczos"):
        leading_eigenvalue(fine_instanton_state.even_half())


def _centred(beta, j, eps, spacing=0.05, n0=N0):
    """A centred solve at ell = 1 under the cos2 kernel, metastable for
    j > 0."""
    params, kernel = make_params(beta), build_kernel(spacing)
    macro = stefan._metastable_maximal(params, j) if j > 0 \
        else stefan.solve_maximal(params, j)
    return antisym.solve_centred(macro, kernel,
                                 compute_instanton(params, kernel), eps, ELL,
                                 n0)


def _even_sector_top(state):
    """Top eigenvalue of the dense even-sector matrix of a state odd about
    x = 0: p W on the full grid (W from the kernel shape), each column at
    -x folded onto x, symmetrized by the even view's weights."""
    c = state.grid.center_index
    a = state.p[:, None] * neumann_matrix(state.kernel, state.grid)
    even = a[c:, c:].copy()
    even[:, 1:] += a[c:, c - 1::-1]
    root_q = np.sqrt(state.even_half().quadrature)
    s = root_q[:, None] * even / root_q[None, :]
    assert np.max(np.abs(s - s.T)) <= 1e-14 * np.max(np.abs(s))
    return np.linalg.eigvalsh(0.5 * (s + s.T))[-1]


@pytest.mark.parametrize("beta, j, n0", [(2.0, J_STABLE, N0),
                                         (2.0, 0.09, N0), (1.05, J_STABLE, 1)],
                         ids=["stable", "metastable-0.09", "beta-1.05"])
def test_leading_eigenvalue_matches_the_dense_even_sector(beta, j, n0):
    """lambda from p on the even view of an odd state's half line is the
    dense even-sector matrix's top eigenvalue at n = 401, 1 - lambda to
    1e-11 relative."""
    res = _centred(beta, j, 0.1, n0=n0)
    assert res.state.grid.n == 401
    lam = leading_eigenvalue(res.half.even_half())
    dense = _even_sector_top(res.state)
    assert abs((1.0 - lam) - (1.0 - dense)) <= 1e-11 * abs(1.0 - dense)


#: Lanczos steps of lambda (even view, from p) and lambda2 (odd half line)
#: at j = -0.02, by (beta, spacing, eps): the spectrum-fine grids, and beta =
#: 1.05, where power iteration from p takes 72 steps
SECTOR_STEPS = {(2.0, 0.0125, 0.05): (7, 13), (2.0, 0.0125, 0.025): (7, 14),
                (2.0, 0.0125, 0.0125): (7, 14), (2.0, 0.00625, 0.05): (7, 13),
                (2.0, 0.00625, 0.025): (7, 14), (2.0, 0.00625, 0.0125): (7, 14),
                (1.05, 0.05, 0.05): (21, 33)}


@pytest.mark.parametrize("beta, spacing, eps", list(SECTOR_STEPS),
                         ids=[f"{b:g}-{h:g}/{e:g}" for b, h, e in SECTOR_STEPS])
def test_sector_step_counts(beta, spacing, eps):
    res = _centred(beta, J_STABLE, eps, spacing)
    steps = (leading_eigenvalue(res.half.even_half()).steps,
             second_eigenvalue(res.half).steps)
    assert steps == SECTOR_STEPS[beta, spacing, eps]


def test_a_field_that_overflows_cosh_is_refused(params2, kernel05):
    """A field past cosh's range gives p = 0, where the weight 1/p the
    spectral products need does not exist: both entries refuse it."""
    grid = build_grid(0.1, 1.0, 1.0, 0.05)
    m = np.full(grid.n, 0.5)
    with np.errstate(over="ignore"):
        state = make_state(params2, kernel05, grid, np.full(grid.n, 1e3), m)
        assert np.all(state.p == 0.0)
    with pytest.raises(DomainError, match="weight must be positive"):
        leading_eigenpair(state)
    with pytest.raises(DomainError, match="weight must be positive"):
        leading_eigenvalue(state)


def _row_start(mode, res, instanton):
    """The state a sweep row's pair runs on and the start it takes there:
    a centred state's even half line and the interface slope, off center
    the state and u* restricted to its grid."""
    if mode == "asym":
        return res.state, res.problem.u_star_restricted
    half = res.state.even_half()
    return half, slope_start(half, instanton)


@pytest.mark.parametrize("tol", [1e-12, 1e-8], ids=["default", "pair-tol"])
@pytest.mark.parametrize("mode", ["antisym", "metastable", "asym"])
def test_leading_pair_matches_residual_every_step(mode, tol, stable_sweep,
                                                  metastable_sweep,
                                                  asym_sweep, inst05):
    """Forming the residual only once the quotient is stationary keeps the
    stopping step and every returned bit of the residual-every-step rule,
    extrapolations included, from p on the full grid and from the sweep
    row's start."""
    sweep = {"antisym": stable_sweep, "metastable": metastable_sweep,
             "asym": asym_sweep}[mode]
    jumps = []
    for state, u0 in ((sweep[0.05].state, None),
                      _row_start(mode, sweep[0.05], inst05)):
        pair = leading_eigenpair(state, tol, start=u0)
        jumps.append(pair.extrapolations)
        lam, u, iterations, res = leading_eigenpair_every_step(state, tol,
                                                               start=u0)
        assert pair.lambda_ == lam
        assert np.array_equal(pair.u, u)
        assert pair.iterations == iterations
        assert pair.residual == res
    assert jumps[0] > 0, jumps


#: power steps of the sweep rows' pairs at the benchmark's eps ladder, in
#: the order 0.0125, 0.0025, 0.001, from their starts and from p
LADDER_POWER_STEPS = {"antisym": ((9, 9, 9), (13, 13, 13)),
                      "metastable": ((10, 8, 9), (16, 16, 16)),
                      "asym": ((2, 2, 2), (13, 13, 13))}
LADDER_EPS = (0.0125, 0.0025, 0.001)


@pytest.mark.parametrize("k", range(len(LADDER_EPS)),
                         ids=[str(e) for e in LADDER_EPS])
@pytest.mark.parametrize("mode", list(LADDER_POWER_STEPS))
def test_row_start_gives_the_p_start_pair(mode, k, params2):
    """A sweep row's pair, from the interface slope (centred) or from u*
    (off center), is the pair from p: lambda to 1e-14, (1 - lambda)/eps to
    1e-10 relative, u to 1e-12, in fewer power steps."""
    eps = LADDER_EPS[k]
    cfg = RunConfig(beta=params2.beta, j=J_META if mode == "metastable"
                    else J_STABLE, ell=ELL, x0=X0 if mode == "asym" else 0.0,
                    mode=mode, eps_list=[eps], n0=N0).validate_fields()
    shared = cli._shared_inputs(cfg)
    row, res = cli._solve_one(cfg, eps, shared)
    state, u0 = _row_start(mode, res, shared[2])
    warm = leading_eigenpair(state, start=u0)
    cold = leading_eigenpair(state)
    assert (warm.iterations, cold.iterations) == tuple(
        steps[k] for steps in LADDER_POWER_STEPS[mode])
    assert row.power_steps == warm.iterations
    assert row.lam_gap_ratio == (1.0 - warm.lambda_) / eps
    assert abs(warm.lambda_ - cold.lambda_) <= 1e-14
    gap = (1.0 - cold.lambda_) / eps
    assert abs(row.lam_gap_ratio - gap) <= 1e-10 * abs(gap)
    assert np.max(np.abs(warm.u - cold.u)) <= 1e-12


def test_slope_start_is_positive_past_the_instanton(stable_sweep, inst05):
    """On a half line longer than the instanton's window the slope is zero
    past it, and the floor keeps the start positive there."""
    half = stable_sweep[0.025].state.even_half()
    assert half.grid.points[-1] > inst05.half_width
    u0 = slope_start(half, inst05)
    assert np.all(u0 > 0.0)
    past = half.grid.points > inst05.half_width
    assert np.array_equal(u0[past], 1e-12 * half.p[past])


def test_leading_pair_refuses_a_start_that_is_not_positive(stable_sweep):
    state = stable_sweep[0.1].state.even_half()
    u0 = state.p.copy()
    u0[-1] = 0.0
    with pytest.raises(DomainError, match="start must be positive"):
        leading_eigenpair(state, start=u0)


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
