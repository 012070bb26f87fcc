"""Mesoscopic state machinery: start state, auxiliary solve, linearization."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import linregress

from mesostefan import antisym, asym, meso, spectral
from mesostefan.errors import ConvergenceError, SaturationError
from mesostefan.grids import build_grid, conv_values
from mesostefan.meso import InnerRecord, exact_state, inner_solve, make_state
from mesostefan.thermo import mobility

from conftest import ELL, J_META, J_STABLE, X0


@pytest.fixture(scope="module")
def wide_grid():
    return build_grid(0.1, 2.0, 2.0, 0.05)


@pytest.fixture(scope="module")
def instanton_state(params2, kernel05, inst05, wide_grid):
    """Zero-field critical point: interface profile on a reflecting domain."""
    m = np.interp(wide_grid.points, inst05.x, inst05.profile)
    st = inner_solve(params2, kernel05, wide_grid, np.zeros(wide_grid.n), m,
                     conv_values(kernel05, wide_grid, m))
    return st


def test_effective_field_constant(params2, kernel05, wide_grid):
    m = np.full(wide_grid.n, params2.m_beta)
    h = exact_state(params2, kernel05, wide_grid, m).h
    assert np.max(np.abs(h)) < 1e-14


def test_effective_field_round_trip(params2, kernel05, wide_grid):
    m = 0.7 * np.tanh(wide_grid.points / 2.5) + 0.1 * np.cos(wide_grid.points)
    h = exact_state(params2, kernel05, wide_grid, m).h
    assert make_state(params2, kernel05, wide_grid, h, m).residual_norm < 1e-14


def test_effective_field_instanton_bulk(params2, kernel05, wide_grid, inst05):
    m = np.interp(wide_grid.points, inst05.x, inst05.profile)
    h = exact_state(params2, kernel05, wide_grid, m).h
    bulk = np.abs(wide_grid.points) < 10.0
    assert np.max(np.abs(h[bulk])) < 1e-6


def test_residual_examples(params2, kernel05, wide_grid):
    z = np.zeros(wide_grid.n)
    assert make_state(params2, kernel05, wide_grid, z, z).residual_norm == 0.0
    c = params2.m_beta / 2.0
    m = np.full(wide_grid.n, c)
    expected = abs(c - np.tanh(params2.beta * c))
    assert make_state(params2, kernel05, wide_grid, z, m).residual_norm \
        == pytest.approx(expected, abs=1e-14)
    assert expected > 0.05


def test_residual_is_the_plain_expression_bitwise(params2, kernel05,
                                                  wide_grid, inst05):
    """make_state's one-buffer residual equals m - tanh(beta (conv + h))
    formed with temporaries, bit for bit."""
    rng = np.random.default_rng(3)
    m = np.interp(wide_grid.points, inst05.x, inst05.profile)
    h = 1e-3 * rng.standard_normal(wide_grid.n)
    st = make_state(params2, kernel05, wide_grid, h, m)
    assert st.residual_norm == float(np.max(np.abs(
        m - np.tanh(params2.beta * (st.conv + h)))))


def test_state_weight_matches_mobility_at_fixed_point(instanton_state):
    st = instanton_state
    assert st.residual_norm < 1e-9
    assert np.max(np.abs(st.p - mobility(st.params, st.m))) < 1e-8
    assert np.all(st.p > 0.0) and np.all(st.p <= st.params.beta)


def test_apply_linearized_zero(instanton_state):
    st = instanton_state
    out = st.apply_linearized(np.zeros(st.grid.n))
    assert np.max(np.abs(out)) == 0.0


def test_apply_linearized_derivative_eigenrelation(instanton_state, inst05):
    """The interface slope is fixed by the linearized map on the interior."""
    st = instanton_state
    md = np.interp(st.grid.points, inst05.x, inst05.derivative)
    out = st.apply_linearized(md)
    interior = np.abs(st.grid.points) < st.grid.b - 2.0
    assert np.max(np.abs((out - md)[interior])) < 5e-3


def test_weighted_self_adjointness(instanton_state):
    st = instanton_state
    x = st.grid.points
    f = np.exp(-((x - 1.0) / 2.0) ** 2)
    g = np.sin(0.7 * x) * np.exp(-(x / 6.0) ** 2)
    lhs = st.weighted_dot(f, st.apply_linearized(g))
    rhs = st.weighted_dot(g, st.apply_linearized(f))
    scale = np.max(np.abs(f)) * np.max(np.abs(g))
    assert abs(lhs - rhs) < 1e-10 * scale
    # both equal the plain reflected-kernel bilinear form
    direct = np.trapezoid(f * conv_values(st.kernel, st.grid, g),
                          dx=st.grid.spacing)
    assert lhs == pytest.approx(direct, abs=1e-12)


def test_inner_solve_fixed_point_seed(params2, kernel05, wide_grid):
    m0 = 0.6 * np.tanh(wide_grid.points / 3.0)
    start = exact_state(params2, kernel05, wide_grid, m0)
    st = inner_solve(params2, kernel05, wide_grid, start.h, m0, start.conv)
    assert np.array_equal(st.m, m0)   # already below tolerance: unchanged
    assert st.record == InnerRecord(0, "picard")


def test_inner_solve_reuses_last_convolution(params2, kernel05, wide_grid,
                                             monkeypatch):
    """Seeded at an exact fixed point, the start and the solve convolve once
    between them: the state's weight and residual come from the Picard
    step's own field argument."""
    m0 = 0.6 * np.tanh(wide_grid.points / 3.0)
    calls = []
    real = meso.conv_values

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(meso, "conv_values", counted)
    start = exact_state(params2, kernel05, wide_grid, m0)
    h = start.h
    st = inner_solve(params2, kernel05, wide_grid, h, m0, start.conv)
    assert len(calls) == 1
    monkeypatch.undo()
    ref = meso.make_state(params2, kernel05, wide_grid, h, m0)
    assert np.array_equal(st.p, ref.p)
    assert st.residual_norm == ref.residual_norm


def test_inner_solve_zero_field(instanton_state, inst05):
    st = instanton_state
    m_ref = np.interp(st.grid.points, inst05.x, inst05.profile)
    assert np.max(np.abs(st.m - m_ref)) < 1e-8


def test_inner_solve_perturbed_field_lipschitz(params2, kernel05, wide_grid,
                                               instanton_state):
    st = instanton_state
    bump = 0.01 * np.sin(np.pi * wide_grid.points / wide_grid.b) \
        * np.exp(-(wide_grid.points / 8.0) ** 2)
    bump = 0.5 * (bump - bump[::-1])
    st2 = inner_solve(params2, kernel05, wide_grid, st.h + bump, st.m,
                      st.conv)
    dev = np.max(np.abs(st2.m - st.m))
    assert dev > 0.0
    assert dev / 0.01 < 10.0     # finite measured Lipschitz constant


def test_inner_solve_antisymmetry_preserved(params2, kernel05, wide_grid):
    x = wide_grid.points
    m0 = 0.8 * np.tanh(x / 2.0)
    h = 0.005 * np.sin(np.pi * x / wide_grid.b)
    st = inner_solve(params2, kernel05, wide_grid, h, m0,
                     conv_values(kernel05, wide_grid, m0))
    assert np.max(np.abs(st.m + st.m[::-1])) < 1e-10


def test_inner_solve_exponential_locality(params2, kernel05, inst05):
    """A compact field bump perturbs the solution exponentially locally."""
    grid = build_grid(0.1, 3.0, 3.0, 0.05)
    m0 = np.interp(grid.points, inst05.x, inst05.profile)
    start = exact_state(params2, kernel05, grid, m0)
    h0 = start.h
    bump = 0.01 * np.exp(-((grid.points - 10.0) / 0.5) ** 2)
    st1 = inner_solve(params2, kernel05, grid, h0, m0, start.conv)
    st2 = inner_solve(params2, kernel05, grid, h0 + bump, m0, start.conv)
    diff = np.abs(st2.m - st1.m)
    dist = np.abs(grid.points - 10.0)
    sel = (dist > 2.0) & (dist < 12.0) & (diff > 1e-14)
    fit = linregress(dist[sel], np.log(diff[sel]))
    assert -fit.slope > 0.5
    assert fit.rvalue ** 2 > 0.9


def test_inner_solve_saturation(params2, kernel05, wide_grid):
    z = np.zeros(wide_grid.n)
    with pytest.raises(SaturationError):
        inner_solve(params2, kernel05, wide_grid, np.full(wide_grid.n, 30.0),
                    z, z)


@pytest.fixture
def switches(monkeypatch):
    """Grid sizes of the leading pairs computed by the package, one per
    switch from plain Picard iteration to recursive projection."""
    calls = []
    pair = spectral.leading_eigenpair

    def counted(state, *args):
        calls.append(state.grid.n)
        return pair(state, *args)

    monkeypatch.setattr(spectral, "leading_eigenpair", counted)
    return calls


@pytest.fixture
def convolutions(monkeypatch):
    """Counts the kernel applications of the mesoscopic layer."""
    calls = []
    real = meso.conv_values

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(meso, "conv_values", counted)
    return calls


def _pushed_along_slow_mode(res):
    """The converged state and its solution pushed by 1e-3 u (sup norm)."""
    st = res.state
    pair = spectral.leading_eigenpair(st)
    return st, pair, st.m + 1e-3 * pair.u / np.max(np.abs(pair.u))


@pytest.mark.parametrize("eps,n", [(0.025, 1601), (0.0025, 16001)],
                         ids=["n1601", "n16001"])
def test_inner_solve_stall_converges(params2, kernel05, inst05, maximal_stable,
                                     switches, convolutions, eps, n):
    """A push along the 1 - C eps interface mode stalls the Picard iteration;
    recursive projection finishes the solve at any size, in at most 35
    convolutions, the start's and the leading pair's included."""
    res = antisym.solve_stable(params2, kernel05, eps, -0.02, 1.0, n0=2,
                               instanton=inst05, macro=maximal_stable)
    st, _, m0 = _pushed_along_slow_mode(res)
    switches.clear()
    convolutions.clear()
    st2 = inner_solve(params2, kernel05, st.grid, st.h, m0,
                      meso.conv_values(kernel05, st.grid, m0))
    assert st.grid.n == n
    assert switches == [n]
    assert st2.record.path == "projected"
    assert len(convolutions) <= 35
    assert st2.residual_norm < 1e-12
    assert make_state(params2, kernel05, st.grid, st.h,
                      st2.m).residual_norm < 1e-12
    assert np.max(np.abs(st2.m - st.m)) <= 1e-8


def test_inner_solve_metastable_push_converges(params2, kernel05,
                                               metastable_sweep, switches):
    """On the metastable branch the interface mode grows under Picard
    iteration (lambda > 1); the projection turns it back to the fixed
    point."""
    st, pair, m0 = _pushed_along_slow_mode(metastable_sweep[0.025])
    assert pair.lambda_ > 1.0
    switches.clear()
    st2 = inner_solve(params2, kernel05, st.grid, st.h, m0,
                      conv_values(kernel05, st.grid, m0))
    assert switches == [st.grid.n]
    assert st2.record.path == "projected"
    assert st2.residual_norm < 1e-12
    assert np.max(np.abs(st2.m - st.m)) <= 1e-8


@pytest.mark.parametrize("eps,half,n", [(0.05, 1.0, 801), (0.01, 3.0, 12001)],
                         ids=["n801", "n12001"])
def test_inner_solve_without_fixed_point_saturates(params2, kernel05, inst05,
                                                   switches, eps, half, n):
    """A constant field drives the interface out of the domain: there is no
    fixed point near the seed, and the stall ends in SaturationError after
    one switch to the projection."""
    grid = build_grid(eps, half, half, 0.05)
    assert grid.n == n
    m0 = np.interp(grid.points, inst05.x, inst05.profile)
    with pytest.raises(SaturationError):
        inner_solve(params2, kernel05, grid, np.full(grid.n, 0.002), m0,
                    conv_values(kernel05, grid, m0))
    assert switches == [n]


def test_inner_solve_without_gap_raises(params2, kernel05, stable_sweep,
                                        monkeypatch):
    """A leading eigenvalue equal to 1 leaves no projected step: the solve
    raises ConvergenceError carrying the iterate it stopped at."""
    st, pair, m0 = _pushed_along_slow_mode(stable_sweep[0.025])
    monkeypatch.setattr(spectral, "leading_eigenpair",
                        lambda state, tol: replace(pair, lambda_=1.0))
    with pytest.raises(ConvergenceError, match="1 to rounding") as info:
        inner_solve(params2, kernel05, st.grid, st.h, m0,
                    conv_values(kernel05, st.grid, m0))
    last = info.value.last
    assert last.shape == m0.shape
    assert 0 < np.max(np.abs(last - st.m)) < np.max(np.abs(m0 - st.m))


def test_inner_solve_budget_carries_last_iterate(params2, kernel05,
                                                 stable_sweep, monkeypatch):
    """An exhausted step budget raises ConvergenceError carrying the last
    iterate, which the steps taken have moved toward the fixed point."""
    st, _, m0 = _pushed_along_slow_mode(stable_sweep[0.025])
    monkeypatch.setattr(meso, "MAX_ITER", 8)
    with pytest.raises(ConvergenceError, match="stuck") as info:
        inner_solve(params2, kernel05, st.grid, st.h, m0,
                    conv_values(kernel05, st.grid, m0))
    r0 = make_state(params2, kernel05, st.grid, st.h, m0).residual_norm
    r8 = make_state(params2, kernel05, st.grid, st.h,
                    info.value.last).residual_norm
    assert r8 < 0.1 * r0


def test_continuation_path(params2, kernel05, wide_grid, instanton_state):
    """The solve reaches a distant target field from the seed."""
    st = instanton_state
    target = st.h + 0.05 * np.tanh(wide_grid.points / 5.0)
    m = inner_solve(params2, kernel05, wide_grid, target, st.m, st.conv).m
    assert make_state(params2, kernel05, wide_grid, target,
                      m).residual_norm < 1e-12
    assert np.max(np.abs(m - st.m)) < 0.5


def test_picard_record_counts_updates(params2, kernel05, wide_grid,
                                      instanton_state, convolutions):
    """The record counts the fixed-point updates: one convolution each, plus
    the start's, from which the first residual is measured."""
    st = instanton_state
    bump = 0.01 * np.sin(np.pi * wide_grid.points / wide_grid.b)
    convolutions.clear()
    st2 = inner_solve(params2, kernel05, wide_grid, st.h + bump, st.m,
                      meso.conv_values(kernel05, wide_grid, st.m))
    assert st2.record.path == "picard"
    assert st2.record.picard_steps == len(convolutions) - 1 > 0


def test_inner_solve_from_given_convolution(params2, kernel05, wide_grid,
                                            instanton_state, convolutions):
    """Given the start state's J^neum*m_init, the solve makes one convolution
    per update and returns the same state as from a fresh convolution of
    m_init, whose conv is its last convolution."""
    st = instanton_state
    bump = 0.01 * np.sin(np.pi * wide_grid.points / wide_grid.b)
    ref = inner_solve(params2, kernel05, wide_grid, st.h + bump, st.m,
                      conv_values(kernel05, wide_grid, st.m))
    convolutions.clear()
    st2 = inner_solve(params2, kernel05, wide_grid, st.h + bump, st.m,
                      conv_init=st.conv)
    assert st2.record == ref.record
    assert st2.record.picard_steps == len(convolutions) > 0
    for name in ("m", "conv", "p"):
        assert np.array_equal(getattr(st2, name), getattr(ref, name))
    assert st2.residual_norm == ref.residual_norm
    assert np.array_equal(st2.conv, conv_values(kernel05, wide_grid, st2.m))


def _outer_solve(mode, params2, kernel05, inst05, maximal_stable,
                 maximal_meta):
    """A solve at eps = 0.05 and its outer traces, in the order they ran."""
    if mode == "metastable":
        res = antisym.solve_metastable(params2, kernel05, 0.05, J_META, ELL,
                                       instanton=inst05, macro=maximal_meta)
    elif mode == "off-center":
        res = asym.solve_off_center(params2, kernel05, 0.05, J_STABLE, X0,
                                    instanton=inst05, macro=maximal_stable)
        return res, [res.problem.extended_trace, res.trace]
    else:   # j > 0 is the mirrored arrangement, solved directly
        j = J_STABLE if mode == "stable" else -J_STABLE
        res = antisym.solve_stable(params2, kernel05, 0.05, j, ELL,
                                   instanton=inst05)
    return res, [res.trace]


@pytest.mark.parametrize("mode", ["stable", "stable-flipped", "metastable",
                                  "off-center"])
def test_outer_loops_restart_from_the_last_convolution(
        mode, params2, kernel05, inst05, maximal_stable, maximal_meta,
        convolutions, monkeypatch):
    """The centred loop makes no auxiliary solve and one convolution per
    fixed-point update, plus its seed's; its first update restarts from the
    seed's convolution.  Each solve of the projected loop, the first included
    (it restarts from the convolution its set-up formed), makes exactly one
    convolution per Picard update, and the returned states make none."""
    solves = []           # (convolutions made, record) of each solve
    marks = []            # convolutions counted when each solve returned

    def counted(*args, **kwargs):
        before = len(convolutions)
        state = meso.inner_solve(*args, **kwargs)
        solves.append((len(convolutions) - before, state.record))
        marks.append(len(convolutions))
        return state

    monkeypatch.setattr(asym, "inner_solve", counted)
    res, traces = _outer_solve(mode, params2, kernel05, inst05,
                               maximal_stable, maximal_meta)
    centred, projected = traces[0], traces[1:]
    assert centred.picard_steps == [1] * (len(centred.increments) - 1) + [0]
    if not projected:
        assert solves == []
        assert len(convolutions) == 1 + sum(centred.picard_steps)
    else:
        trace, = projected
        assert len(solves) == len(trace.picard_steps) > 4
        assert [rec.picard_steps for _, rec in solves] == trace.picard_steps
        assert all(rec.path == "picard" for _, rec in solves)
        assert [n for n, _ in solves] == trace.picard_steps
        assert len(convolutions) == marks[-1]
    assert res.state.residual_norm < 1e-12


def test_picard_contracts_at_the_subdominant_rate(params2, kernel05,
                                                  instanton_state,
                                                  monkeypatch):
    """On odd data plain Picard contracts at lambda_2 of p J^neum, about 0.31
    at beta = 2; damping by 0.7 would give 0.3 + 0.7 lambda_2 = 0.52."""
    st = instanton_state
    lam2 = spectral.second_eigenvalue(st, spectral.leading_eigenpair(st))
    x = st.grid.points
    m0 = st.m + 1e-3 * np.sin(np.pi * x / st.grid.b) * np.exp(-(x / 4.0) ** 2)
    res = []
    real = meso.conv_values

    def recorded(kernel, grid, m, *args):
        out = real(kernel, grid, m, *args)
        arg = params2.beta * (out + st.h)
        res.append(float(np.max(np.abs(m - np.tanh(arg)))))
        return out

    monkeypatch.setattr(meso, "conv_values", recorded)
    inner_solve(params2, kernel05, st.grid, st.h, m0,
                meso.conv_values(kernel05, st.grid, m0))
    rate = (res[-1] / res[4]) ** (1.0 / (len(res) - 5))
    assert 0.25 < lam2 < 0.35
    assert abs(rate - lam2) < 0.02
