"""Off-center solver: boundary correction, weighted norm, projected map."""

from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from conftest import EPS_SWEEP, N0, X0
from mesostefan import antisym, asym, grids, stefan
from mesostefan.asym import (admissibility_report, build_problem,
                             check_off_center, default_a_plus,
                             projected_field)
from mesostefan.errors import (ConvergenceError, DomainError, GridError,
                               InfeasibleError, SaturationError)
from mesostefan.grids import Grid, Kernel, conv_values
from mesostefan.meso import INNER_TOL, make_state
from mesostefan.spectral import leading_eigenpair


@pytest.fixture(scope="module")
def problem01(kernel05, inst05, maximal_stable):
    problem, _ = build_problem(maximal_stable, kernel05, inst05, 0.1, X0, N0)
    return problem


@pytest.fixture(scope="module")
def m_star(kernel05, inst05, maximal_stable):
    """m* of the extended solve on eps^-1[-(1 + x0), 1 + x0] at each scale:
    the state build_problem restricts, which the problem does not keep."""
    return {eps: antisym.solve_centred(maximal_stable, kernel05, inst05, eps,
                                       1.0 + X0, N0).state.m
            for eps in EPS_SWEEP}


def _ext_grid(prob):
    """The extended grid eps^-1[-1, 1 + 2 x0], which only solve builds."""
    return asym.extended_u_star(prob)[0]


def _m_eps(prob, m_star):
    """m* restricted to the problem's grid: the quasi-solution's m."""
    return m_star[prob.res_grid.epsilon][:prob.res_grid.n]


def test_problem_preconditions(params2, kernel05, inst05, maximal_stable):
    with pytest.raises(DomainError):
        build_problem(maximal_stable, kernel05, inst05, 0.1, 0.0, N0)
    with pytest.raises(InfeasibleError):        # 1 + x0 > ell_j
        build_problem(stefan.solve_maximal(params2, -0.05), kernel05, inst05,
                      0.1, X0, N0)


def test_problem_refuses_an_inexact_quasi_solution(monkeypatch, kernel05,
                                                   inst05, maximal_stable):
    """h* + r_eps makes m* a fixed point to the inner solve's tolerance; a
    field off at one point is a ConvergenceError, not a start for the
    projected loop."""
    def shifted(params, kernel, grid, h, m, conv):
        h = h.copy()
        h[grid.n // 2] += 1e-3
        return make_state(params, kernel, grid, h, m, conv)

    monkeypatch.setattr(asym, "make_state", shifted)
    with pytest.raises(ConvergenceError, match="quasi-solution residual"):
        build_problem(maximal_stable, kernel05, inst05, 0.1, X0, N0)


def test_zero_near_needs_a_sign_change(problem01):
    """A profile with no sign change near the interface has no zero there:
    a ConvergenceError.  Where it vanishes at two neighbours, the zero is
    the first of them."""
    grid, c = problem01.res_grid, problem01.interface_index
    with pytest.raises(ConvergenceError, match="no zero within"):
        asym._zero_near(problem01, np.ones(grid.n))
    values = grid.points - grid.points[c]
    values[c + 1] = 0.0
    assert asym._zero_near(problem01, values) == grid.points[c]


def test_check_matches_problem_errors(kernel05, inst05, maximal_stable,
                                      problem01):
    """check_off_center, given exactly the arguments of build_problem,
    raises what build_problem raises before the extended solve, and returns
    the grids build_problem uses."""
    cases = [(0.1, 0.0, DomainError), (0.1, -0.2, DomainError),
             (0.25, X0, DomainError),            # eps > 0.2 (extended run)
             (0.03, X0, GridError),              # 2 eps^-1 not whole cells
             (0.1, 0.2025, GridError),           # interface off the grid
             (0.1, 0.025, GridError)]            # extension below one range
    for eps, x0, err in cases:
        args = (maximal_stable, kernel05, inst05, eps, x0, N0)
        with pytest.raises(err) as from_check:
            check_off_center(*args)
        with pytest.raises(err) as from_problem:
            build_problem(*args)
        assert str(from_check.value) == str(from_problem.value)
    half, _, res, c = check_off_center(maximal_stable, kernel05, inst05, 0.1,
                                       X0, N0)
    assert np.array_equal(res.points, problem01.res_grid.points)
    assert c == problem01.interface_index == half.n - 1
    # the interface is the centre of the relabeled extended grid
    assert _ext_grid(problem01).n == 2 * c + 1


def test_trace_records_weighted_increments(asym_sweep, projected_map_sweep,
                                           params2, kernel05, m_star):
    """The off-center loop records like the centred one: the
    quasi-solution's residual first, then one residual per step, the last
    below INNER_TOL and every other one above it.  The paper's projected
    map from the same start records weighted increments N(h_{k+1} - h_k),
    the last below 1e-10, and reaches the loop's state to 1e-9."""
    for eps in EPS_SWEEP:
        res = asym_sweep[eps]
        prob = res.problem
        tr = res.trace
        assert tr.residuals[0] == make_state(
            params2, kernel05, prob.res_grid, prob.h_eps,
            _m_eps(prob, m_star)).residual_norm
        assert tr.residuals[1:] == tr.increments
        assert min(tr.increments[:-1]) >= INNER_TOL > tr.increments[-1]
        assert res.state.residual_norm == tr.increments[-1]
        weighted, paper = projected_map_sweep[eps]
        assert weighted.increments[-1] < 1e-10
        assert min(weighted.increments[:-1]) >= 1e-10
        assert np.max(np.abs(paper.m - res.state.m)) < 1e-9
        assert np.max(np.abs(paper.h - res.state.h)) < 1e-9


def test_field_is_the_projected_current_integral(asym_sweep):
    """The returned field is the projected current integral of the returned
    magnetization bitwise: the loop stops on the pair it measured."""
    for eps in EPS_SWEEP:
        res = asym_sweep[eps]
        assert np.array_equal(res.state.h,
                              projected_field(res.problem, res.state.m))


def test_quasi_solution_residual(asym_sweep):
    for eps in EPS_SWEEP:
        assert asym_sweep[eps].trace.residuals[0] < 1e-9


def test_no_extended_array_outlives_the_solve(asym_sweep):
    """Of the extended solve the problem and the result keep the trace, the
    gluing point and the eigenvector on the half line: no field but the
    shared kernel's holds an array longer than the restricted grid, or a
    view of one, so none of the extended length."""
    res = asym_sweep[0.05]
    prob = res.problem
    n_ext, n_res = _ext_grid(prob).n, prob.res_grid.n
    assert prob.u_star.u.size == prob.interface_index + 1 < n_res < n_ext

    def arrays(obj):
        for f in fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, np.ndarray):
                yield f.name, value
            elif is_dataclass(value) and not isinstance(value,
                                                        (Grid, Kernel)):
                yield from ((f"{f.name}.{k}", v) for k, v in arrays(value))

    held = list(arrays(prob)) + list(arrays(res))
    assert "u_star.u" in dict(held) and "state.m" in dict(held)
    for name, a in held:
        base = a if a.base is None else a.base
        assert a.size <= n_res and base.size <= n_res, name


def test_boundary_correction_support_and_scale(asym_sweep, kernel05):
    """R is confined to one kernel range of the right edge and scales as eps."""
    consts = []
    for eps in EPS_SWEEP:
        prob = asym_sweep[eps].problem
        r = prob.r_eps
        k = kernel05.half_points
        assert np.max(np.abs(r[: r.size - k - 1])) == 0.0
        consts.append(np.max(np.abs(r)) / eps)
    assert max(consts) / min(consts) < 1.5
    assert max(consts) < 1.0


def test_boundary_correction_matches_operator_difference(problem01, params2,
                                                         kernel05, m_star):
    """R equals the extended-minus-restricted reflected convolutions of m*."""
    prob = problem01
    n_res = prob.res_grid.n
    ext_conv = conv_values(kernel05, _ext_grid(prob), m_star[0.1])
    res_conv = conv_values(kernel05, prob.res_grid, m_star[0.1][:n_res])
    diff = ext_conv[:n_res] - res_conv
    assert np.max(np.abs(prob.r_eps - diff)) < 1e-14


def test_boundary_correction_shrinks_with_offset(kernel05, inst05,
                                                 maximal_stable, problem01):
    """A smaller interface offset leaves less reflection asymmetry."""
    small, _ = build_problem(maximal_stable, kernel05, inst05, 0.1, 0.05, N0)
    assert np.max(np.abs(small.r_eps)) < np.max(np.abs(problem01.r_eps))


def test_u_star_symmetry_and_positivity(asym_sweep):
    for eps in EPS_SWEEP:
        prob = asym_sweep[eps].problem
        ext_grid, u = asym.extended_u_star(prob)
        c = ext_grid.index_of(X0 / eps)    # the extended centre
        k = min(c, u.size - 1 - c)
        seg = u[c - k:c + k + 1]
        assert np.max(np.abs(seg - seg[::-1])) < 1e-8
        assert np.all(u > 0.0)
        assert prob.u_star.lambda_ < 1.0


@pytest.mark.parametrize("eps", [0.05, 0.0125])
def test_u_star_is_the_full_grid_pair(eps, kernel05, inst05, maximal_stable):
    """u*, found on the extended state's even half line and extended, is
    the leading pair of the whole relabeled state."""
    args = (maximal_stable, kernel05, inst05, eps, X0, N0)
    problem, _ = build_problem(*args)
    half, xi_index = check_off_center(*args)[:2]
    ext_grid, u = asym.extended_u_star(problem)
    extended = antisym._iterate(maximal_stable, kernel05, inst05, half,
                                xi_index)
    full = leading_eigenpair(replace(extended.state, grid=ext_grid))
    assert np.max(np.abs(u - full.u)) <= 1e-12
    assert abs(problem.u_star.lambda_ - full.lambda_) <= 1e-14


def test_weight_matches_defining_formula(problem01):
    w = problem01.weight
    g = problem01.res_grid
    x = g.points
    expected = np.where(
        x >= w.center,
        np.exp(w.a_plus * (g.b - x)),
        np.exp(w.a_minus * (x - g.a)),
    )
    assert np.max(np.abs(w.values - expected) / expected) < 1e-12
    assert abs(w.a_minus * (X0 + 1.0) - w.a_plus * (1.0 - X0)) < 1e-12
    assert np.all(w.values > 0.0)


def test_weight_is_built_on_first_use(kernel05, inst05, maximal_stable,
                                      monkeypatch):
    """The off-center solve builds no weight; the admissibility report's
    first read builds it once, from the problem's a_plus."""
    built = []
    real = asym.build_weight
    monkeypatch.setattr(asym, "build_weight",
                        lambda *args: built.append(args) or real(*args))
    res = asym.solve_off_center(maximal_stable, kernel05, inst05, 0.1, X0, N0)
    assert built == []
    asym.admissibility_report(res.problem, res.state.h)
    assert res.problem.weight is res.problem.weight
    assert len(built) == 1
    assert res.problem.weight.a_plus == res.problem.a_plus \
        == default_a_plus(inst05, 0.1, X0)


def test_weight_rate_is_capped(inst05):
    a = default_a_plus(inst05, 0.025, X0)
    assert a <= 12.0 * 0.025 / (1.0 - X0) + 1e-15
    assert a > 0.0


def test_seed_weighted_distance(asym_sweep, m_star):
    """N(h0 - quasi-solution) <= c eps with a stable constant."""
    consts = []
    for eps in EPS_SWEEP:
        prob = asym_sweep[eps].problem
        h0 = projected_field(prob, _m_eps(prob, m_star))
        consts.append(prob.weight.norm(h0 - prob.h_eps) / eps)
    assert max(consts) < 1.0
    assert max(consts) / min(consts) < 2.0


def test_quasi_solution_state(kernel05, inst05, maximal_stable, problem01,
                              m_star, asym_sweep):
    """build_problem returns the quasi-solution's state: its pair, the
    restricted convolution of m_eps and the residual the loop records
    first.  Left of the last k + 1 points that convolution is the extended
    loop's own, bitwise; on them, the restricted reflection's."""
    problem, start = build_problem(maximal_stable, kernel05, inst05, 0.1, X0,
                                   N0)
    m_eps = _m_eps(problem, m_star)
    assert start.h is problem.h_eps and np.array_equal(start.m, m_eps)
    assert np.array_equal(start.h, problem01.h_eps)
    left = problem.res_grid.n - kernel05.half_points - 1
    loop = antisym.solve_centred(maximal_stable, kernel05, inst05, 0.1,
                                 1.0 + X0, N0).state.conv
    assert np.array_equal(start.conv[:left], loop[:left])
    assert np.max(np.abs(start.conv - conv_values(
        kernel05, problem.res_grid, m_eps))) < 1e-14
    assert start.residual_norm == asym_sweep[0.1].trace.residuals[0]


def test_set_up_convolves_on_the_half_line_and_the_window(
        kernel05, inst05, maximal_stable, monkeypatch):
    """build_problem runs no convolution over the restricted or the
    extended grid: the extended loop's and its power iteration's run on
    the half line, and r_eps and the restricted convolution on the last
    k + 1 points come from two window products over 3k + 1 values."""
    sizes = []
    real = grids._blocked_convolution

    def recorded(kernel, values, left_pad, right_pad, work):
        sizes.append((values.size, np.size(left_pad), np.size(right_pad)))
        return real(kernel, values, left_pad, right_pad, work)

    monkeypatch.setattr(grids, "_blocked_convolution", recorded)
    problem, _ = build_problem(maximal_stable, kernel05, inst05, 0.05, X0, N0)
    k, half = kernel05.half_points, problem.interface_index + 1
    steps = len(problem.extended_trace.increments)
    power = problem.u_star.iterations
    assert sizes == [(half, k, k)] * (steps + power + 1) + [(k + 1, k, k)] * 2


def test_projected_step_checks_the_mobility_floor(problem01, m_star):
    """The projected field integrates the current law like the antisymmetric
    map: a mobility below MOBILITY_FLOOR is a SaturationError."""
    m = _m_eps(problem01, m_star).copy()
    m[0] = np.sqrt(1.0 - 0.5 * antisym.MOBILITY_FLOOR
                   / problem01.macro.params.beta)
    with pytest.raises(SaturationError, match="mobility below floor"):
        projected_field(problem01, m)


def test_projection_annihilates_component(problem01, m_star):
    h0 = projected_field(problem01, _m_eps(problem01, m_star))
    u = problem01.u_star_restricted
    du = problem01.res_grid.spacing
    ortho = np.trapezoid(h0 * u, dx=du)
    assert abs(ortho) < 1e-12 * np.max(np.abs(h0)) * np.max(u) * u.size * du


def test_weighted_contraction(projected_map_sweep):
    """The paper's projected map contracts in the weighted norm."""
    for eps in EPS_SWEEP:
        ratios = projected_map_sweep[eps][0].ratios
        limit = max(0.9, 5.0 * eps)
        assert all(r <= limit for r in ratios)
        # the contraction constant itself scales like eps
        assert ratios[0] < 1.0 * eps


def test_field_zero_location(asym_sweep, kernel05):
    for eps in EPS_SWEEP:
        res = asym_sweep[eps]
        assert abs(res.eps_field_zero - X0) < eps * kernel05.spacing
        # field and magnetization zeros both inside the interface window
        c = res.problem.weight.center
        window = max(2.0, 2.0 * np.log(1.0 / eps))
        assert abs(res.field_zero - c) < window
        assert abs(res.m_zero - c) < window
        # the two zeros are tracked independently
        assert res.m_zero != res.field_zero


def test_final_state_interpolated_zero(asym_sweep):
    for eps in EPS_SWEEP:
        res = asym_sweep[eps]
        h = res.state.h
        x = res.state.grid.points
        h_at_zero = np.interp(res.field_zero, x, h)
        assert abs(h_at_zero) < 1e-10


def test_derivative_flat_away_from_interface(asym_sweep, m_star):
    """|dm*/dx| = O(eps) outside a log window around the interface."""
    consts = []
    for eps in EPS_SWEEP:
        prob = asym_sweep[eps].problem
        g = _ext_grid(prob)
        dm = np.gradient(m_star[eps], g.spacing)
        far = np.abs(g.points - prob.weight.center) > 2.0 * np.log(1.0 / eps)
        consts.append(np.max(np.abs(dm[far])) / eps)
    assert max(consts) < 1.0
    assert max(consts) / min(consts) < 3.0


def test_eigenvector_stability_under_restriction(asym_sweep):
    """The restricted state's eigenvector matches the extended one."""
    from mesostefan.spectral import leading_eigenpair

    res = asym_sweep[0.1]
    pair = leading_eigenpair(res.state)
    u_res = pair.u
    u_ext = res.problem.u_star_restricted
    assert np.max(np.abs(u_res - u_ext)) < 1e-3


def test_admissibility_report(asym_sweep, m_star):
    res = asym_sweep[0.1]
    prob = res.problem
    h0 = projected_field(prob, _m_eps(prob, m_star))
    rep = admissibility_report(prob, h0)
    assert rep["weighted_ok"] and rep["derivative_ok"] \
        and rep["window_derivative_ok"]
    assert abs(rep["orthogonality"]) < 1e-10
    # the quasi-solution itself is orthogonal only up to tiny boundary terms
    rep_eps = admissibility_report(prob, prob.h_eps)
    assert abs(rep_eps["orthogonality"]) < 1e-10
    # a bump at the right boundary blows up the weighted distance
    bumped = prob.h_eps.copy()
    bumped[-20:] += 0.2
    rep_bump = admissibility_report(prob, bumped)
    assert not rep_bump["weighted_ok"]


def test_final_state_admissible(asym_sweep):
    for eps in EPS_SWEEP:
        res = asym_sweep[eps]
        rep = admissibility_report(res.problem, res.state.h)
        assert rep["weighted_ok"]
        assert rep["derivative_ok"]
        assert rep["window_derivative_ok"]


def test_hydro_trend(asym_sweep, maximal_stable):
    from mesostefan.antisym import hydrodynamic_error

    errs = []
    for eps in EPS_SWEEP:
        res = asym_sweep[eps]
        em, eh = hydrodynamic_error(res.state, maximal_stable, X0,
                                    eps * res.xi_eps)
        errs.append((em, eh))
    assert errs[0][0] > errs[1][0] > errs[2][0]
    assert errs[0][1] > errs[1][1] > errs[2][1]


def test_hydro_error_reads_the_closed_forms_once_per_distance(
        asym_sweep, maximal_stable, monkeypatch):
    """Off center the check evaluates the closed forms once per distance
    from the interface, at the long side's own abscissae, and its errors
    are a pointwise evaluation's at eps x - x0 to 1e-14."""
    from mesostefan.antisym import hydrodynamic_error

    points = []
    real = stefan.MaximalSolution.fields_of_x

    def counted(self, x):
        points.append(np.size(x))
        return real(self, x)

    for eps in EPS_SWEEP:
        res = asym_sweep[eps]
        st, window = res.state, eps * res.xi_eps
        x = eps * st.grid.points - X0
        m_mac, h_mac = maximal_stable.fields_of_x(x)
        keep = np.abs(x) > window
        pointwise = (np.max(np.abs(st.m - m_mac)[keep]),
                     np.max(np.abs(st.h - h_mac)))
        points.clear()
        with monkeypatch.context() as patch:
            patch.setattr(stefan.MaximalSolution, "fields_of_x", counted)
            errors = hydrodynamic_error(st, maximal_stable, X0, window)
        assert sum(points) == res.problem.interface_index + 1
        assert np.max(np.abs(np.subtract(errors, pointwise))) <= 1e-14
