"""Off-center solver: boundary correction, weighted norm, projected map."""

from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from conftest import EPS_SWEEP, J_STABLE, N0, X0
from mesostefan import antisym
from mesostefan.asym import (admissibility_report, build_problem,
                             check_off_center, default_a_plus,
                             projected_iterate)
from mesostefan.errors import (DomainError, GridError, InfeasibleError,
                               SaturationError)
from mesostefan.grids import Grid, conv_values
from mesostefan.meso import make_state


@pytest.fixture(scope="module")
def problem01(params2, kernel05, inst05, maximal_stable):
    problem, _ = build_problem(params2, kernel05, 0.1, J_STABLE, X0, n0=N0,
                               instanton=inst05, macro=maximal_stable)
    return problem


@pytest.fixture(scope="module")
def m_star(params2, kernel05, inst05, maximal_stable):
    """m* of the extended solve on eps^-1[-(1 + x0), 1 + x0] at each scale:
    the state build_problem restricts, which the problem does not keep."""
    return {eps: antisym.solve_stable(params2, kernel05, eps, J_STABLE,
                                      1.0 + X0, n0=N0, instanton=inst05,
                                      macro=maximal_stable).state.m
            for eps in EPS_SWEEP}


def _m_eps(prob, m_star):
    """m* restricted to the problem's grid: the quasi-solution's m."""
    return m_star[prob.eps][:prob.res_grid.n]


def _projected_step(prob, m):
    """One projected step from m and a fresh convolution of it."""
    return projected_iterate(prob, m, conv_values(prob.kernel, prob.res_grid,
                                                  m))


def test_problem_preconditions(params2, kernel05):
    with pytest.raises(DomainError):
        build_problem(params2, kernel05, 0.1, J_STABLE, 0.0)
    with pytest.raises(InfeasibleError):
        build_problem(params2, kernel05, 0.1, -0.05, X0)   # 1 + x0 > ell_j


def test_check_matches_problem_errors(params2, kernel05, inst05,
                                      maximal_stable, problem01):
    """check_off_center raises exactly what build_problem raises before the
    extended solve, and returns the grids build_problem uses."""
    cases = [(0.1, 0.0, DomainError), (0.1, -0.2, DomainError),
             (0.25, X0, DomainError),            # eps > 0.2 (extended run)
             (0.03, X0, GridError),              # 2 eps^-1 not whole cells
             (0.1, 0.2025, GridError),           # interface off the grid
             (0.1, 0.025, GridError)]            # extension below one range
    for eps, x0, err in cases:
        with pytest.raises(err) as from_check:
            check_off_center(kernel05, eps, J_STABLE, x0, N0, inst05,
                             maximal_stable)
        with pytest.raises(err) as from_problem:
            build_problem(params2, kernel05, eps, J_STABLE, x0, n0=N0,
                          instanton=inst05, macro=maximal_stable)
        assert str(from_check.value) == str(from_problem.value)
    _, _, ext, res = check_off_center(kernel05, 0.1, J_STABLE, X0, N0,
                                      inst05, maximal_stable)
    assert np.array_equal(ext.points, problem01.ext_grid.points)
    assert np.array_equal(res.points, problem01.res_grid.points)


def test_trace_records_weighted_increments(asym_sweep, params2, kernel05,
                                           m_star):
    """The projected loop records into IterationTrace: weighted increments
    below OUTER_TOL at the end, the quasi-solution's residual first, then
    one residual and one inner tolerance per step."""
    for eps in EPS_SWEEP:
        res = asym_sweep[eps]
        prob = res.problem
        tr = res.trace
        assert tr.increments[-1] < antisym.OUTER_TOL
        assert all(inc >= antisym.OUTER_TOL for inc in tr.increments[:-1])
        assert tr.residuals[0] == make_state(
            params2, kernel05, prob.res_grid, prob.h_eps,
            _m_eps(prob, m_star)).residual_norm
        assert len(tr.residuals) == len(tr.increments) + 1
        assert max(tr.residuals[1:]) <= antisym.INNER_TOL
        assert tr.inner_tols == [antisym.INNER_TOL] * len(tr.increments)


def test_quasi_solution_residual(asym_sweep):
    for eps in EPS_SWEEP:
        assert asym_sweep[eps].trace.residuals[0] < 1e-9


def test_no_extended_array_outlives_the_solve(asym_sweep):
    """Of the extended solve the problem and the result keep the trace, the
    gluing point and the eigenvector: no other field holds an array of the
    extended length, or a view of one."""
    res = asym_sweep[0.05]
    prob = res.problem
    n_ext = prob.ext_grid.n
    assert prob.u_star.u.size == n_ext > prob.res_grid.n

    def arrays(obj):
        for f in fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, np.ndarray):
                yield f.name, value
            elif is_dataclass(value) and not isinstance(value, Grid):
                yield from ((f"{f.name}.{k}", v) for k, v in arrays(value))

    held = list(arrays(prob)) + list(arrays(res))
    assert "u_star.u" in dict(held) and "state.m" in dict(held)
    for name, a in held:
        if name in ("u_star.u", "problem.u_star.u"):
            continue
        base = a if a.base is None else a.base
        assert a.size != n_ext and base.size != n_ext, name


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
    ext_conv = conv_values(kernel05, prob.ext_grid, m_star[0.1])
    res_conv = conv_values(kernel05, prob.res_grid, m_star[0.1][:n_res])
    diff = ext_conv[:n_res] - res_conv
    assert np.max(np.abs(prob.r_eps - diff)) < 1e-14


def test_boundary_correction_shrinks_with_offset(params2, kernel05, inst05,
                                                 maximal_stable, problem01):
    """A smaller interface offset leaves less reflection asymmetry."""
    small, _ = build_problem(params2, kernel05, 0.1, J_STABLE, 0.05, n0=N0,
                             instanton=inst05, macro=maximal_stable)
    assert np.max(np.abs(small.r_eps)) < np.max(np.abs(problem01.r_eps))


def test_u_star_symmetry_and_positivity(asym_sweep):
    for eps in EPS_SWEEP:
        prob = asym_sweep[eps].problem
        u = prob.u_star.u
        c = prob.ext_grid.index_of(X0 / eps)    # the extended centre
        k = min(c, u.size - 1 - c)
        seg = u[c - k:c + k + 1]
        assert np.max(np.abs(seg - seg[::-1])) < 1e-8
        assert np.all(u > 0.0)
        assert prob.u_star.lambda_ < 1.0


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


def test_weight_rate_is_capped(inst05):
    a = default_a_plus(inst05, 0.025, X0)
    assert a <= 12.0 * 0.025 / (1.0 - X0) + 1e-15
    assert a > 0.0


def test_seed_weighted_distance(asym_sweep, m_star):
    """N(h0 - quasi-solution) <= c eps with a stable constant."""
    consts = []
    for eps in EPS_SWEEP:
        prob = asym_sweep[eps].problem
        h0, _ = _projected_step(prob, _m_eps(prob, m_star))
        consts.append(prob.weight.norm(h0 - prob.h_eps) / eps)
    assert max(consts) < 1.0
    assert max(consts) / min(consts) < 2.0


def test_quasi_solution_state(params2, kernel05, inst05, maximal_stable,
                              problem01, m_star, asym_sweep):
    """build_problem returns the quasi-solution's state: its pair, the
    restricted convolution of m_eps and the residual the loop records
    first."""
    problem, start = build_problem(params2, kernel05, 0.1, J_STABLE, X0,
                                   n0=N0, instanton=inst05,
                                   macro=maximal_stable)
    m_eps = _m_eps(problem, m_star)
    assert start.h is problem.h_eps and np.array_equal(start.m, m_eps)
    assert np.array_equal(start.h, problem01.h_eps)
    assert np.array_equal(start.conv, conv_values(kernel05, problem.res_grid,
                                                  m_eps))
    assert start.residual_norm == asym_sweep[0.1].trace.residuals[0]


def test_projected_step_checks_the_mobility_floor(problem01, m_star):
    """The projected step integrates the current law like the antisymmetric
    map: a mobility below MOBILITY_FLOOR is a SaturationError."""
    m = _m_eps(problem01, m_star).copy()
    m[0] = np.sqrt(1.0 - 0.5 * antisym.MOBILITY_FLOOR / problem01.params.beta)
    with pytest.raises(SaturationError, match="mobility below floor"):
        _projected_step(problem01, m)


def test_projection_annihilates_component(problem01, m_star):
    h0, state = _projected_step(problem01, _m_eps(problem01, m_star))
    u = problem01.u_star_restricted
    du = problem01.res_grid.spacing
    ortho = np.trapezoid(h0 * u, dx=du)
    assert abs(ortho) < 1e-12 * np.max(np.abs(h0)) * np.max(u) * u.size * du


def test_weighted_contraction(asym_sweep):
    for eps in EPS_SWEEP:
        res = asym_sweep[eps]
        limit = max(0.9, 5.0 * eps)
        assert all(r <= limit for r in res.trace.ratios)
        # the contraction constant itself scales like eps
        assert res.trace.ratios[0] < 1.0 * eps


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
        g = prob.ext_grid
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
    h0, _ = _projected_step(prob, _m_eps(prob, m_star))
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
        m_of = lambda xi: maximal_stable.m_of_x(np.asarray(xi) - X0)
        h_of = lambda xi: maximal_stable.h_of_x(np.asarray(xi) - X0)
        em, eh = hydrodynamic_error(res.state, m_of, h_of, eps, X0,
                                    eps * res.xi_eps)
        errs.append((em, eh))
    assert errs[0][0] > errs[1][0] > errs[2][0]
    assert errs[0][1] > errs[1][1] > errs[2][1]
