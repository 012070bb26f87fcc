"""Spectral analysis of the linearized map: eigenpair, gap, eigenvector shape."""

import numpy as np
import pytest

from mesostefan import antisym, asym, cli, spectral, stefan
from mesostefan.config import RunConfig
from mesostefan.errors import ConvergenceError
from mesostefan.grids import build_grid, build_kernel, conv_values
from mesostefan.instanton import TAIL_DECAYS, compute_instanton
from mesostefan.meso import exact_state, iterate, make_state
from mesostefan.errors import DomainError
from mesostefan.spectral import (eigenvector_shape_report, leading_eigenpair,
                                 leading_eigenvalue, second_eigenvalue,
                                 slope_start)
from mesostefan.thermo import make_params, mobility
from oracles import (dense_leading_pair, full_grid_ritz, full_grid_second,
                     neumann_matrix)

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


def _on_window(state, pair):
    """The state on the window its pair ran on."""
    return state.window(pair.lo, pair.lo + pair.u.size)


def test_interface_eigenvalue_one(fine_instanton_state, fine_pair, inst025):
    res = fine_pair
    assert abs(res.lambda_ - 1.0) < 1e-4
    md = np.interp(_on_window(fine_instanton_state, res).grid.points,
                   inst025.x, inst025.unit_derivative())
    assert np.max(np.abs(res.u - md)) < 1e-3


def test_eigenpair_contract(fine_instanton_state, fine_pair):
    """The pair runs on the interface window about the peak of p, where its
    vector is positive and of unit weighted norm."""
    st, res = _on_window(fine_instanton_state, fine_pair), fine_pair
    assert res.u.size < fine_instanton_state.grid.n
    assert np.argmax(fine_instanton_state.p) == res.lo + res.u.size // 2
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
    lambda2 (the full leading eigenvector is even), and its eigenvector
    vanishes exactly at x = 0 and is the dense odd sector's to 1e-14 in
    the sup norm."""
    for eps in (0.1, 0.05):
        entry = spectral_sweep[eps]
        st = entry["result"].state
        c = st.grid.center_index
        half = make_state(st.params, st.kernel, st.grid.half_line(),
                          st.h[c:], st.m[c:], st.conv[c:])
        pair = leading_eigenpair(half)
        assert abs(pair.lambda_ - entry["lambda2"]) < 1e-12
        assert pair.lo == 0 and pair.u[0] == 0.0
        assert pair.residual <= 1e-15 * pair.lambda_
        lam, u = dense_leading_pair(half.window(0, pair.u.size))
        assert abs(pair.lambda_ - lam) <= 1e-15
        assert np.max(np.abs(pair.u - u)) <= 1e-14


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
#: on their windows at j = -0.02, by (beta, spacing, eps): the spectrum-fine
#: grids (lambda2 took 13-14 on the whole half line), and beta = 1.05
SECTOR_STEPS = {(2.0, 0.0125, 0.05): (7, 13), (2.0, 0.0125, 0.025): (7, 13),
                (2.0, 0.0125, 0.0125): (7, 13), (2.0, 0.00625, 0.05): (7, 13),
                (2.0, 0.00625, 0.025): (7, 13),
                (2.0, 0.00625, 0.0125): (7, 13), (1.05, 0.05, 0.05): (21, 33)}


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
    """The state a sweep row's leading eigenvalue is taken on, the start it
    takes on a window of it and the window's centre: a centred state's even
    half line, the interface slope and x = 0, off center the state, u*
    restricted to its grid and the interface."""
    if mode == "asym":
        prob = res.problem
        return (res.state, lambda window, lo: prob.u_star_on(
            lo, lo + window.grid.n), prob.interface_index)
    return (res.state.even_half(),
            lambda window, lo: slope_start(window, instanton), 0)


#: bound on a sweep row's lambda against another correct routine's, in
#: ulps of lambda (numpy.spacing, 1.1e-16 below 1): the ladder and parity
#: rows measured at most 5, the one-step Rayleigh quotient from u* of the
#: off-center row at beta = 2, x0 = 0.2, eps = 0.1 against the whole
#: grid's recurrence from the dense u*
ROW_LAMBDA_ULPS = 6

#: steps of the sweep rows' leading eigenvalues at the benchmark's eps
#: ladder, in the order 0.0125, 0.0025, 0.001: the row's Lanczos steps from
#: its start, and those of the pair from p on its window
LADDER_STEPS = {"antisym": ((5, 5, 5), (12, 12, 12)),
                "metastable": ((5, 5, 4), (12, 12, 12)),
                "asym": ((1, 1, 1), (12, 12, 12))}
LADDER_EPS = (0.0125, 0.0025, 0.001)


@pytest.mark.parametrize("k", range(len(LADDER_EPS)),
                         ids=[str(e) for e in LADDER_EPS])
@pytest.mark.parametrize("mode", list(LADDER_STEPS))
def test_row_start_gives_the_p_start_pair(mode, k, params2):
    """A sweep row's lambda, the top Ritz value of the Lanczos recurrence
    from the interface slope (centred) or from u* (off center) on its
    window, is the pair's from p on its own window, and the whole grid's
    recurrence from the row's start, to ROW_LAMBDA_ULPS ulps."""
    eps = LADDER_EPS[k]
    cfg = RunConfig(beta=params2.beta, j=J_META if mode == "metastable"
                    else J_STABLE, ell=ELL, x0=X0 if mode == "asym" else 0.0,
                    mode=mode, eps_list=[eps], n0=N0).validate_fields()
    shared = cli._shared_inputs(cfg)
    row, res = cli._solve_one(cfg, eps, shared)
    state, start, center = _row_start(mode, res, shared[2])
    lam = leading_eigenvalue(state, start, center)
    cold = leading_eigenpair(state)
    assert (lam.steps, cold.iterations) == tuple(
        steps[k] for steps in LADDER_STEPS[mode])
    assert (row.lambda_steps, row.lambda_points) == (lam.steps, lam.points)
    assert row.lam_gap_ratio == (1.0 - lam) / eps
    full, _ = full_grid_ritz(state, start(state, 0))
    for other in (cold.lambda_, full):
        assert abs(lam - other) <= ROW_LAMBDA_ULPS * np.spacing(lam)


def test_one_step_stop_holds_at_a_small_gap():
    """The Lanczos stop at k = 1 takes the distance to the next Ritz value
    as 1, as there is none.  Where the true gap lambda - lambda2 is about
    0.05 (an off-center row at beta = 1.01, ell_j = 2, eps = 0.0125), the
    Kato-Temple bound |theta - lambda| <= _ROUNDING lambda / gap is 20
    times looser than the stop assumes, and the row's one step from u* and
    the 27 from p give values within twice that bound of each other."""
    eps = 0.0125
    cfg = RunConfig(beta=1.01, j=-0.16334, x0=X0, mode="asym",
                    eps_list=[eps], n0=N0).validate_fields()
    row, res = cli._solve_one(cfg, eps, cli._shared_inputs(cfg))
    lam_p = leading_eigenvalue(res.state)
    gap = lam_p - second_eigenvalue(res.state, leading_eigenpair(res.state))
    assert 0.04 < gap < 0.06
    assert (row.lambda_steps, lam_p.steps) == (1, 27)
    lam = 1.0 - eps * row.lam_gap_ratio
    assert abs(lam - lam_p) <= 2.0 * spectral._ROUNDING * lam_p / gap


def test_slope_start_is_positive_past_the_instanton(stable_sweep, inst05):
    """On a half line longer than the instanton's window the slope is zero
    past it, and the floor keeps the start positive there."""
    half = stable_sweep[0.025].state.even_half()
    assert half.grid.points[-1] > inst05.half_width
    u0 = slope_start(half, inst05)
    assert np.all(u0 > 0.0)
    past = half.grid.points > inst05.half_width
    assert np.array_equal(u0[past], 1e-12 * half.p[past])


def test_leading_pair_budget_raises(stable_sweep, monkeypatch):
    """The pair's recurrence has the Lanczos step budget of the others."""
    monkeypatch.setattr(spectral, "_LANCZOS_STEPS", 3)
    with pytest.raises(ConvergenceError, match="Lanczos"):
        leading_eigenpair(stable_sweep[0.05].state.even_half())


#: rows checked against the whole grid: (mode, beta, j, x0), each at the
#: scales of PARITY_EPS that validate feasible (the near-critical rows at
#: ell_j = 2 are infeasible at eps = 0.1), and at eps = 1e-4 those marked
PARITY_ROWS = [("antisym", 2.0, J_STABLE, 0.0),
               ("antisym", 1.5, J_STABLE, 0.0),
               ("antisym", 1.2, J_STABLE, 0.0),
               ("antisym", 1.05, -0.15035, 0.0),
               ("antisym", 1.01, -0.16334, 0.0),
               ("metastable", 2.0, J_META, 0.0),
               ("metastable", 2.0, 0.09, 0.0),
               ("metastable", 1.2, J_META, 0.0),
               ("asym", 2.0, J_STABLE, 0.2), ("asym", 2.0, J_STABLE, 0.5),
               ("asym", 1.2, J_STABLE, 0.2), ("asym", 1.2, J_STABLE, 0.5)]
PARITY_EPS = (0.1, 0.05, 0.001)
PARITY_FINEST = {("antisym", 2.0), ("metastable", 2.0), ("asym", 2.0)}
PARITY = [(row, eps) for row in PARITY_ROWS for eps in PARITY_EPS
          if not (row[1] < 1.1 and eps == 0.1)] \
    + [(row, 1e-4) for row in PARITY_ROWS
       if row[:2] in PARITY_FINEST and row[3] != 0.5]


def _parity_row(mode, beta, j, x0, eps):
    cfg = RunConfig(beta=beta, j=j, ell=ELL, x0=x0, mode=mode,
                    eps_list=[eps], n0=N0).validate_fields()
    assert cli.validate(cfg) == []
    shared = cli._shared_inputs(cfg)
    row, res = cli._solve_one(cfg, eps, shared)
    return shared, row, res


#: the most points the dense oracle runs on (oracles.dense_leading_pair)
DENSE_POINTS = 2_001
#: bound on a leading pair's vector against the dense one, sup norm: the
#: parity rows measured at most 5.6e-15 for u* and 2.9e-15 for the pair
PAIR_SUP = 1e-14


def _dense_pair(state, pair):
    """The dense leading pair (oracles.py) on the whole of ``state``'s grid
    where it has at most DENSE_POINTS points, else on ``pair``'s window,
    with ``pair``'s vector and the dense one on the whole grid, 0 past the
    points each holds."""
    n, size = state.grid.n, pair.u.size
    lo, hi = (0, n) if n <= DENSE_POINTS else (pair.lo, pair.lo + size)
    lam, dense = dense_leading_pair(state.window(lo, hi))
    u, v = np.zeros(n), np.zeros(n)
    u[pair.lo:pair.lo + size], v[lo:hi] = pair.u, dense
    return lam, u, v


@pytest.mark.parametrize("case, eps", PARITY,
                         ids=[f"{c[0]}-{c[1]:g}-{c[2]:g}-{c[3]:g}-{e:g}"
                              for c, e in PARITY])
def test_windowed_spectra_are_the_whole_grid_ones(case, eps):
    """A row's lambda and the spectrum of its state, on interface windows,
    against the whole-grid and dense routines of oracles.py from the same
    starts: the row's lambda to ROW_LAMBDA_ULPS ulps, lambda from p to
    1e-14 and lambda2 to 1e-14, and off center u* and the pair from p to
    PAIR_SUP in the sup norm and lambda* to 1e-15.  On an odd state
    spectrum's sectors run on the half line, on the off-center state about
    the peak of p."""
    mode = case[0]
    shared, row, res = _parity_row(*case, eps)
    inst = shared[2]
    if mode == "asym":
        prob = res.problem
        half, xi_index = asym.check_off_center(*shared, eps, case[3], N0)[:2]
        even = antisym.solve_half_line(*shared, half, xi_index)[0].even_half()
        _, u, u_full = _dense_pair(even, prob.u_star)
        assert np.max(np.abs(u - u_full)) <= PAIR_SUP
        lam_star, _ = full_grid_ritz(even, slope_start(even, inst))
        assert abs(prob.u_star.lambda_ - lam_star) <= 1e-15
        state = res.state
        full = antisym.extension(u_full, prob.interface_index, state.grid.n)
        lam, _ = full_grid_ritz(state, np.abs(full))
        pair = leading_eigenpair(state)
        _, u, u_p = _dense_pair(state, pair)
        assert np.max(np.abs(u - u_p)) <= PAIR_SUP
        lam_p, _ = full_grid_ritz(state)
        lam2, lam2_full = second_eigenvalue(state, pair), \
            full_grid_second(state, u_p)[0]
        sector = pair.lambda_
    else:
        state = res.half.even_half()
        lam, _ = full_grid_ritz(state, slope_start(state, inst))
        sector = leading_eigenvalue(state)
        lam_p, _ = full_grid_ritz(state)
        lam2, lam2_full = second_eigenvalue(res.half), \
            full_grid_second(res.half)[0]
    row_lambda = leading_eigenvalue(*_row_start(mode, res, inst))
    assert row.lam_gap_ratio == (1.0 - row_lambda) / eps
    assert abs(row_lambda - lam) <= ROW_LAMBDA_ULPS * np.spacing(lam)
    assert abs(sector - lam_p) <= 1e-14
    assert abs(lam2 - lam2_full) <= 1e-14


#: rows whose first window is the whole grid (half line) the spectral
#: routines run on: (mode, beta, j, x0, eps)
WHOLE_GRID_ROWS = [("antisym", 1.05, -0.15035, 0.0, 0.05),
                   ("antisym", 1.01, -0.16334, 0.0, 0.05),
                   ("asym", 1.05, -0.15035, 0.2, 0.05)]


@pytest.mark.parametrize("case", WHOLE_GRID_ROWS,
                         ids=[f"{c[0]}-{c[1]:g}" for c in WHOLE_GRID_ROWS])
def test_a_window_that_reaches_the_grid_is_the_whole_grid_run(case):
    """Where the first window is the whole grid, every number is the
    whole-grid run's to the bit, its step counts included: the row's lambda
    and spectrum's sectors against the oracle's (oracles.py), u* and lambda*
    off center against the package's recurrence on the whole half line."""
    mode, eps = case[0], case[4]
    shared, row, res = _parity_row(*case[:4], eps)
    if mode == "asym":
        prob = res.problem
        half, xi_index = asym.check_off_center(*shared, eps, case[3], N0)[:2]
        even = antisym.solve_half_line(*shared, half, xi_index)[0].even_half()
        whole, _ = spectral._top_ritz(even, slope_start(even, shared[2]),
                                      lo=0)
        assert prob.u_star.u.size == even.grid.n
        assert np.array_equal(prob.u_star.u, whole.u)
        assert (prob.u_star.lambda_, prob.u_star.iterations,
                prob.u_star.residual) \
            == (whole.lambda_, whole.iterations, whole.residual)
        state, start = res.state, prob.u_star_restricted
    else:
        state = res.half.even_half()
        start = slope_start(state, shared[2])
        lam2 = second_eigenvalue(res.half)
        assert (lam2, lam2.steps) == full_grid_second(res.half)
        assert lam2.points == res.half.grid.n
    lam, steps = full_grid_ritz(state, start)
    assert (row.lambda_points, row.lambda_steps) == (state.grid.n, steps)
    assert row.lam_gap_ratio == (1.0 - lam) / eps


def test_a_window_whose_vector_reaches_a_cut_is_refused():
    """At beta = 1.2, metastable j = 0.0115, eps = 0.05, lambda2 on the
    first window (TAIL_DECAYS / a from x = 0) is off by 1.7e-14, though p
    outside it, 0.738, is below lambda2 = 0.757: only the weighted share of
    its Ritz vector at the cut refuses it, and the next window is the whole
    half line, where lambda2 is the whole grid's to the bit."""
    shared, _, res = _parity_row("metastable", 1.2, 0.0115, 0.0, 0.05)
    half = res.half
    first = int(np.ceil(TAIL_DECAYS / shared[2].decay_rate
                        / half.grid.spacing))
    window = half.window(0, first + 1)
    x = window.grid.points
    rows = np.arange(first - half.kernel.half_points, first + 1)
    lam2_first, tail = spectral._top_ritz(window, window.p * x / x[-1], (),
                                          rows)
    lam2, steps = full_grid_second(half)
    outside = float(np.max(half.p[first + 1:]))
    assert (window.grid.n, half.grid.n) == (300, 401)
    assert 1.5e-14 < lam2_first - lam2 < 2e-14 and not tail
    assert outside < lam2
    assert (round(outside, 3), round(lam2, 3)) == (0.738, 0.757)
    windowed = second_eigenvalue(half)
    assert (windowed, windowed.steps, windowed.points) == (lam2, steps, 401)
