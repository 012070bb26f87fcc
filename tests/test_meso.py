"""Mesoscopic state machinery: start state, the fixed-point loop,
linearization.  The auxiliary solve at a fixed field h is the one loop
(:func:`mesostefan.meso.iterate`) run with h as its field."""

import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import linregress

from mesostefan import antisym, asym, meso, spectral, stefan
from mesostefan.errors import ConvergenceError, DomainError, SaturationError
from mesostefan.grids import build_grid, conv_values
from mesostefan.meso import exact_state, iterate, make_state
from mesostefan.thermo import mobility

from conftest import ELL, J_STABLE, N0, X0


@pytest.fixture(scope="module")
def wide_grid():
    return build_grid(0.1, 2.0, 2.0, 0.05)


def inner_solve(params, kernel, grid, h, m, conv=None, newton=None):
    """The auxiliary fixed point m = tanh(beta (J^neum*m + h)) at the fixed
    field h, by the one loop from (h, m); ``conv`` is J^neum*m when the
    caller has it.  Returns the state and the loop's trace."""
    start = make_state(params, kernel, grid, h, m, conv)
    return iterate(start, lambda m, out, scratch: start.h, newton)


@pytest.fixture(scope="module")
def instanton_state(params2, kernel05, inst05, wide_grid):
    """Zero-field critical point: interface profile on a reflecting domain."""
    m = np.interp(wide_grid.points, inst05.x, inst05.profile)
    st, _ = inner_solve(params2, kernel05, wide_grid, np.zeros(wide_grid.n),
                        m, conv_values(kernel05, wide_grid, m))
    return st


def test_effective_field_constant(params2, kernel05, wide_grid):
    m = np.full(wide_grid.n, params2.m_beta)
    h = exact_state(params2, kernel05, wide_grid, m).h
    assert np.max(np.abs(h)) < 1e-14


def test_effective_field_round_trip(params2, kernel05, wide_grid):
    m = 0.7 * np.tanh(wide_grid.points / 2.5) + 0.1 * np.cos(wide_grid.points)
    h = exact_state(params2, kernel05, wide_grid, m).h
    assert make_state(params2, kernel05, wide_grid, h, m).residual_norm < 1e-14


@pytest.mark.parametrize("edge", [1.0, -1.0])
def test_effective_field_refuses_saturation(params2, kernel05, wide_grid,
                                            edge):
    """artanh(+-1) is infinite: no finite field makes m = +-1 a fixed
    point."""
    m = 0.5 * np.tanh(wide_grid.points)
    m[3] = edge
    with pytest.raises(DomainError, match="saturates"):
        exact_state(params2, kernel05, wide_grid, m)


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
    st, trace = iterate(start, lambda m, out, scratch: start.h)
    assert np.array_equal(st.m, m0)   # already below tolerance: unchanged
    assert trace.increments == [start.residual_norm]


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython 3.10 keeps a call's arguments on the "
                           "caller's stack until the call returns")
def test_loop_frees_a_handed_over_start(params2, kernel05, wide_grid):
    """A start passed with no name left in the caller is freed by the
    loop's third step: the loop keeps no reference to it, reads its m in
    the first step and its convolution in the first two."""
    h = np.zeros(wide_grid.n)
    refs = []

    def start():
        st = make_state(params2, kernel05, wide_grid, h.copy(),
                        0.6 * np.tanh(wide_grid.points / 3.0))
        refs.extend(weakref.ref(a) for a in (st, st.h, st.m, st.conv))
        return st

    alive = []

    def field(m, out, scratch):
        alive.append(sum(r() is not None for r in refs))
        return h

    iterate(start(), field)
    assert alive[:4] == [2, 1, 0, 0]


def test_inner_solve_reuses_last_convolution(params2, kernel05, wide_grid,
                                             monkeypatch):
    """Seeded at an exact fixed point, the start and the loop convolve once
    between them: the state's weight and residual come from the loop
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
    st, _ = iterate(start, lambda m, out, scratch: h)
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
    st2, _ = inner_solve(params2, kernel05, wide_grid, st.h + bump, st.m,
                         st.conv)
    dev = np.max(np.abs(st2.m - st.m))
    assert dev > 0.0
    assert dev / 0.01 < 10.0     # finite measured Lipschitz constant


def test_inner_solve_antisymmetry_preserved(params2, kernel05, wide_grid):
    x = wide_grid.points
    m0 = 0.8 * np.tanh(x / 2.0)
    h = 0.005 * np.sin(np.pi * x / wide_grid.b)
    st, _ = inner_solve(params2, kernel05, wide_grid, h, m0)
    assert np.max(np.abs(st.m + st.m[::-1])) < 1e-10


def test_inner_solve_exponential_locality(params2, kernel05, inst05):
    """A compact field bump perturbs the solution exponentially locally."""
    grid = build_grid(0.1, 3.0, 3.0, 0.05)
    m0 = np.interp(grid.points, inst05.x, inst05.profile)
    start = exact_state(params2, kernel05, grid, m0)
    h0 = start.h
    bump = 0.01 * np.exp(-((grid.points - 10.0) / 0.5) ** 2)
    st1, _ = inner_solve(params2, kernel05, grid, h0, m0, start.conv)
    st2, _ = inner_solve(params2, kernel05, grid, h0 + bump, m0, start.conv)
    diff = np.abs(st2.m - st1.m)
    dist = np.abs(grid.points - 10.0)
    sel = (dist > 2.0) & (dist < 12.0) & (diff > 1e-14)
    fit = linregress(dist[sel], np.log(diff[sel]))
    assert -fit.slope > 0.5
    assert fit.rvalue ** 2 > 0.9


def test_inner_solve_saturation(params2, kernel05, wide_grid,
                                maximal_stable):
    """An iterate driven to |m| = 1 meets the current integral's mobility
    floor on the next step: SaturationError."""
    z = np.zeros(wide_grid.n)
    start = make_state(params2, kernel05, wide_grid, z, z)

    def field(m, out, scratch):
        h = antisym.current_integral(maximal_stable, wide_grid, m,
                                     wide_grid.center_index, out, scratch)
        h += 30.0
        return h

    with pytest.raises(SaturationError, match="mobility below floor"):
        iterate(start, field)


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
    """The converged state, its leading pair as a Newton direction
    (u, lambda, u weighted by 1/p) and its solution pushed by 1e-3 u (sup
    norm)."""
    st = res.state
    pair = spectral.leading_eigenpair(st)
    newton = (pair.u, pair.lambda_, st.quadrature * pair.u)
    return st, newton, st.m + 1e-3 * pair.u / np.max(np.abs(pair.u))


@pytest.mark.parametrize("eps,n", [(0.025, 1601), (0.0025, 16001)],
                         ids=["n1601", "n16001"])
def test_inner_solve_stall_converges(params2, kernel05, inst05, maximal_stable,
                                     convolutions, monkeypatch, eps, n):
    """A push along the 1 - C eps interface mode stalls plain Picard
    iteration: after 35 steps its residual falls by less than 1% in 5.  The
    Newton direction along that mode finishes the solve at any size in at
    most 35 convolutions, the start's included."""
    res = antisym.solve_centred(maximal_stable, kernel05, inst05, eps, 1.0, 2)
    st, newton, m0 = _pushed_along_slow_mode(res)
    assert st.grid.n == n
    monkeypatch.setattr(meso, "MAX_ITER", 35)
    with pytest.raises(ConvergenceError, match="did not reach") as info:
        inner_solve(params2, kernel05, st.grid, st.h, m0)
    plain = info.value.last.increments
    assert plain[-1] > 0.99 * plain[-6]
    convolutions.clear()
    st2, _ = inner_solve(params2, kernel05, st.grid, st.h, m0, newton=newton)
    assert len(convolutions) <= 35
    assert st2.residual_norm < 1e-12
    assert make_state(params2, kernel05, st.grid, st.h,
                      st2.m).residual_norm < 1e-12
    assert np.max(np.abs(st2.m - st.m)) <= 1e-8


def test_inner_solve_metastable_push_converges(params2, kernel05,
                                               metastable_sweep):
    """On the metastable branch the interface mode grows under Picard
    iteration (lambda > 1); the Newton direction turns it back to the
    fixed point."""
    st, newton, m0 = _pushed_along_slow_mode(metastable_sweep[0.025])
    assert newton[1] > 1.0
    st2, _ = inner_solve(params2, kernel05, st.grid, st.h, m0, newton=newton)
    assert st2.residual_norm < 1e-12
    assert np.max(np.abs(st2.m - st.m)) <= 1e-8


@pytest.mark.parametrize("eps,half,n", [(0.05, 1.0, 801), (0.01, 3.0, 12001)],
                         ids=["n801", "n12001"])
def test_loop_without_fixed_point_stops_contracting(params2, kernel05, inst05,
                                                    eps, half, n):
    """A constant field drives the interface out of the domain: there is no
    fixed point near the seed, and the loop, plain or with the Newton
    direction of the seed's exact state, raises ConvergenceError once
    STALL_STEPS residuals in a row have not fallen."""
    grid = build_grid(eps, half, half, 0.05)
    assert grid.n == n
    m0 = np.interp(grid.points, inst05.x, inst05.profile)
    pair = spectral.leading_eigenpair(exact_state(params2, kernel05, grid, m0))
    h = np.full(grid.n, 0.002)
    start = make_state(params2, kernel05, grid, h, m0)
    for newton in (None, (pair.u, pair.lambda_, start.quadrature * pair.u)):
        with pytest.raises(ConvergenceError, match="stopped contracting") \
                as info:
            iterate(start, lambda m, out, scratch: h, newton)
        assert len(info.value.last.increments) < 40


def test_inner_solve_without_gap_raises(params2, kernel05, stable_sweep,
                                        convolutions):
    """A leading eigenvalue equal to 1 leaves no Newton step: the loop
    raises before its first step."""
    st, (u, _, weights), m0 = _pushed_along_slow_mode(stable_sweep[0.025])
    start = make_state(params2, kernel05, st.grid, st.h, m0)
    convolutions.clear()
    with pytest.raises(DomainError, match="no Newton step"):
        iterate(start, lambda m, out, scratch: st.h, (u, 1.0, weights))
    assert convolutions == []


def test_inner_solve_budget_carries_last_iterate(params2, kernel05,
                                                 stable_sweep, monkeypatch):
    """An exhausted step budget raises ConvergenceError carrying the trace,
    whose steps have lowered the residual toward the fixed point."""
    st, newton, m0 = _pushed_along_slow_mode(stable_sweep[0.025])
    monkeypatch.setattr(meso, "MAX_ITER", 8)
    with pytest.raises(ConvergenceError, match="in 8 steps") as info:
        inner_solve(params2, kernel05, st.grid, st.h, m0, newton=newton)
    trace = info.value.last
    assert len(trace.increments) == 8
    assert trace.increments[-1] < 0.1 * trace.start_residual


def test_continuation_path(params2, kernel05, wide_grid, instanton_state):
    """The solve reaches a distant target field from the seed."""
    st = instanton_state
    target = st.h + 0.05 * np.tanh(wide_grid.points / 5.0)
    m = inner_solve(params2, kernel05, wide_grid, target, st.m, st.conv)[0].m
    assert make_state(params2, kernel05, wide_grid, target,
                      m).residual_norm < 1e-12
    assert np.max(np.abs(m - st.m)) < 0.5


def test_picard_record_counts_updates(params2, kernel05, wide_grid,
                                      instanton_state, convolutions):
    """The trace has one entry per step and every step but the last makes
    one update: one convolution each, plus the start's, from which the
    first residual is measured."""
    st = instanton_state
    bump = 0.01 * np.sin(np.pi * wide_grid.points / wide_grid.b)
    convolutions.clear()
    _, trace = inner_solve(params2, kernel05, wide_grid, st.h + bump, st.m,
                           meso.conv_values(kernel05, wide_grid, st.m))
    assert len(trace.increments) == len(convolutions) > 1


def test_inner_solve_from_given_convolution(params2, kernel05, wide_grid,
                                            instanton_state, convolutions):
    """Given the start state's J^neum*m, the loop makes one convolution per
    update and returns the same state as from a fresh convolution of the
    start, whose conv is its last convolution."""
    st = instanton_state
    bump = 0.01 * np.sin(np.pi * wide_grid.points / wide_grid.b)
    ref, ref_trace = inner_solve(params2, kernel05, wide_grid, st.h + bump,
                                 st.m)
    convolutions.clear()
    st2, trace = inner_solve(params2, kernel05, wide_grid, st.h + bump, st.m,
                             st.conv)
    assert trace == ref_trace
    assert len(trace.increments) - 1 == len(convolutions) > 0
    for name in ("m", "conv", "p"):
        assert np.array_equal(getattr(st2, name), getattr(ref, name))
    assert st2.residual_norm == ref.residual_norm
    assert np.array_equal(st2.conv, conv_values(kernel05, wide_grid, st2.m))


def _loops(mode, params2, kernel05, inst05, maximal_stable, maximal_meta):
    """A solve at eps = 0.05 and the traces of its loops, in the order they
    ran."""
    if mode == "off-center":
        res = asym.solve_off_center(maximal_stable, kernel05, inst05, 0.05, X0,
                                    N0)
        return res, [res.problem.extended_trace, res.trace]
    macro = {"stable": maximal_stable, "metastable": maximal_meta,
             # j > 0 is the mirrored arrangement, solved directly
             "stable-flipped": stefan.solve_maximal(params2, -J_STABLE)}[mode]
    res = antisym.solve_centred(macro, kernel05, inst05, 0.05, ELL, N0)
    return res, [res.trace]


@pytest.mark.parametrize("mode", ["stable", "stable-flipped", "metastable",
                                  "off-center"])
def test_outer_loops_restart_from_the_last_convolution(
        mode, params2, kernel05, inst05, maximal_stable, maximal_meta,
        convolutions, monkeypatch):
    """Every loop makes one convolution per fixed-point update and none for
    its first step, which restarts from its start state's convolution (the
    seed's, or off center the one the set-up formed)."""
    made = []             # convolutions made by each loop

    def counted(*args, **kwargs):
        before = len(convolutions)
        out = meso.iterate(*args, **kwargs)
        made.append(len(convolutions) - before)
        return out

    monkeypatch.setattr(antisym, "iterate", counted)
    monkeypatch.setattr(asym, "iterate", counted)
    res, traces = _loops(mode, params2, kernel05, inst05, maximal_stable,
                         maximal_meta)
    assert made == [len(t.increments) - 1 for t in traces]
    assert min(made) > 4
    assert res.state.residual_norm < 1e-12


def test_settled_ratio_needs_two_agreeing_ratios_below_the_limit():
    """rho = new / old once old / older agrees with it to RATIO_AGREEMENT
    of rho and it lies in (0, RATIO_LIMIT); 0.0 otherwise."""
    assert meso.settled_ratio(1.0, 0.5, 0.25) == 0.5
    assert meso.settled_ratio(1.0, 0.5, 0.23) == 0.23 / 0.5     # 8.7 % off
    assert meso.settled_ratio(1.0, 0.5, 0.22) == 0.0            # 13.6 % off
    assert meso.settled_ratio(1.0, 0.995, 0.995 ** 2) == 0.0    # past limit
    assert meso.settled_ratio(1.0, 1.0, 1.0) == 0.0             # no decay
    assert meso.settled_ratio(0.0, 0.5, 0.25) == 0.0            # no history
    assert meso.settled_ratio(1.0, 0.0, 0.0) == 0.0
    assert meso.settled_ratio(np.inf, 1.0, 0.5) == 0.0


def test_extrapolate_reaches_the_limit_of_a_geometric_sequence():
    """Over the exact ratio one extrapolation lands on the limit, in place,
    with the difference in the scratch it is given."""
    limit, mode = np.array([1.0, -2.0, 0.5]), np.array([0.3, 0.1, -0.2])
    old, new = limit + mode * 0.4 ** 3, limit + mode * 0.4 ** 4
    out = meso.extrapolate(new, old, 0.4, old)
    assert out is new
    assert np.max(np.abs(new - limit)) < 1e-15


@pytest.mark.parametrize("mode", ["stable", "metastable", "off-center"])
def test_extrapolated_steps_use_their_measured_ratio(
        mode, params2, kernel05, inst05, maximal_stable, maximal_meta):
    """Each loop records the steps that extrapolated, with the ratio of the
    step's increment to the previous one, never on two steps in a row and
    never before two ratios exist."""
    _, traces = _loops(mode, params2, kernel05, inst05, maximal_stable,
                       maximal_meta)
    for trace in traces:
        steps = sorted(trace.extrapolated)
        assert steps and steps[0] >= 2
        assert all(b - a >= 2 for a, b in zip(steps, steps[1:]))
        for k, rho in trace.extrapolated.items():
            assert rho == trace.ratios[k - 1] < meso.RATIO_LIMIT


def test_picard_contracts_at_the_subdominant_rate(params2, kernel05,
                                                  instanton_state,
                                                  monkeypatch):
    """On odd data plain Picard contracts at lambda_2 of p J^neum, about 0.31
    at beta = 2; damping by 0.7 would give 0.3 + 0.7 lambda_2 = 0.52.  The
    loop measures that rate and steps over it: every ratio it extrapolates
    with is lambda_2 to 0.05 (the first, 0.357, from the third and fourth
    increments), the last to 0.025, and it takes fewer updates than plain
    steps alone (13 against 18)."""
    st = instanton_state
    lam2 = spectral.second_eigenvalue(st, spectral.leading_eigenpair(st))
    x = st.grid.points
    m0 = st.m + 1e-3 * np.sin(np.pi * x / st.grid.b) * np.exp(-(x / 4.0) ** 2)

    def trace():
        return inner_solve(params2, kernel05, st.grid, st.h, m0,
                           conv_values(kernel05, st.grid, m0))[1]

    fast = trace()
    monkeypatch.setattr(meso, "settled_ratio", lambda *changes: 0.0)
    plain = trace()
    assert plain.extrapolated == {}
    res = plain.increments
    rate = (res[-1] / res[4]) ** (1.0 / (len(res) - 5))
    assert 0.25 < lam2 < 0.35
    assert abs(rate - lam2) < 0.02
    rhos = list(fast.extrapolated.values())
    assert len(rhos) >= 2
    assert all(abs(rho - lam2) < 0.05 for rho in rhos)
    assert abs(rhos[-1] - lam2) < 0.025
    assert len(fast.increments) < len(plain.increments)
