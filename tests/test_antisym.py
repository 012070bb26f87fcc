"""Antisymmetric solvers: seeds, the outer map, both branches, diagnostics."""

import numpy as np
import pytest

from conftest import ELL, EPS_SWEEP, J_META, J_STABLE, N0, X0, geometric_mean
from mesostefan import antisym, asym, stefan
from mesostefan.antisym import (build_seed, fixed_point_defect, flux_defect,
                                hydrodynamic_error, solve_metastable,
                                solve_stable, t_map)
from mesostefan.errors import DomainError, GridError, InfeasibleError
from mesostefan import meso
from mesostefan.grids import conv_values
from mesostefan.meso import make_state


# ------------------------------------------------------------------- seed

def _stable_seed(params2, kernel05, inst05, macro, eps, j=J_STABLE):
    """The seed layout check_stable builds and build_seed's start state on
    it, as solve_stable makes them."""
    grid, xi_index = antisym.check_stable(kernel05, eps, j, ELL, N0, inst05,
                                          macro)
    return grid, xi_index, build_seed(params2, kernel05, inst05, macro, eps,
                                      grid, xi_index)


def _odd(values):
    """The odd profile on a centred grid whose half line x >= 0 holds
    ``values``."""
    return np.concatenate([-values[:0:-1], values])


def test_seed_structure(params2, kernel05, inst05, maximal_stable):
    eps = 0.05
    g, xi_index, start = _stable_seed(params2, kernel05, inst05,
                                      maximal_stable, eps)
    # the seed lives on the half line x >= 0 of the check's grid
    assert start.grid.odd
    assert np.array_equal(start.grid.points, g.points[g.center_index:])
    assert start.m[0] == start.h[0] == start.conv[0] == 0.0
    assert np.max(np.abs(start.m)) < 1.0
    # continuity at the gluing point: both sides within O(eps) of m_beta
    i_xi = xi_index
    assert abs(start.m[i_xi] - start.m[i_xi + 1]) <= 2 * eps
    # the field vanishes identically one kernel range inside the splice
    k_range = int(round(1.0 / g.spacing))
    clean = start.h[:i_xi - k_range]
    assert np.max(np.abs(clean)) < 1e-6
    assert np.max(np.abs(clean)) < 1e-5   # also at the looser documented level


def test_seed_field_is_exact(params2, kernel05, inst05, maximal_stable):
    grid, _, start = _stable_seed(params2, kernel05, inst05, maximal_stable,
                                  0.1)
    # exact as the odd profile on the full grid too
    assert make_state(params2, kernel05, grid, _odd(start.h),
                      _odd(start.m)).residual_norm < 1e-12
    assert start.residual_norm < 1e-12


def test_seed_rejects_collision(params2, kernel05, inst05, maximal_stable):
    with pytest.raises(GridError):
        antisym.check_stable(kernel05, 0.1, J_STABLE, ELL, 10, inst05,
                             maximal_stable)  # xi ~ 20 exceeds half the domain


def test_seed_spacing_mismatch(params2, kernel025, inst05, maximal_stable):
    with pytest.raises(GridError):
        antisym.check_stable(kernel025, 0.1, J_STABLE, ELL, N0, inst05,
                             maximal_stable)


# ------------------------------------------------------------------ t_map

def test_t_map_sign_and_oddness(params2, kernel05, inst05, maximal_stable):
    grid, _, start = _stable_seed(params2, kernel05, inst05, maximal_stable,
                                  0.1)
    h = t_map(params2, start.grid, start.m, 0.1, J_STABLE)
    assert h[0] == 0.0
    # the half line's integral from 0 is the full grid's, which is odd
    c = grid.center_index
    full = antisym.current_integral(params2, grid, _odd(start.m), 0.1,
                                    J_STABLE, c)
    assert np.max(np.abs(full + full[::-1])) < 1e-15
    assert np.max(np.abs(full[c:] - h)) < 1e-15
    assert np.all(np.diff(h) > 0.0)          # j < 0: strictly increasing
    h_pos = t_map(params2, start.grid, start.m, 0.1, -J_STABLE)
    assert np.all(np.diff(h_pos) < 0.0)


def test_first_increment_scale(stable_sweep):
    """|T(h0) - h0| = O(eps log eps^-1) with a stable constant."""
    consts = []
    for eps in EPS_SWEEP:
        inc0 = stable_sweep[eps].trace.increments[0]
        consts.append(inc0 / (eps * np.log(1.0 / eps)))
    assert max(consts) / min(consts) < 2.0
    assert max(consts) < 1.0


# ------------------------------------------------------------ stable branch

def test_stable_fixed_point_identities(stable_sweep):
    for eps in EPS_SWEEP:
        res = stable_sweep[eps]
        assert res.state.residual_norm < 1e-8
        assert fixed_point_defect(res) < 1e-8


def test_stable_monotone_and_odd(stable_sweep):
    for eps in EPS_SWEEP:
        res = stable_sweep[eps]
        assert res.monotone
        assert np.all(np.diff(res.state.m) > 0.0)
        assert np.max(np.abs(res.state.m + res.state.m[::-1])) < 1e-10
        assert np.max(np.abs(res.state.h + res.state.h[::-1])) < 1e-10


def test_stable_closeness_to_seed(stable_sweep, params2, kernel05, inst05,
                                  maximal_stable):
    """Fixed point stays within O(eps log eps^-1) of the composite seed."""
    consts_h, consts_m = [], []
    for eps in EPS_SWEEP:
        res = stable_sweep[eps]
        _, _, seed = _stable_seed(params2, kernel05, inst05, maximal_stable,
                                  eps)
        scale = eps * np.log(1.0 / eps)
        c = res.state.grid.center_index      # both odd: x >= 0 suffices
        consts_h.append(np.max(np.abs(res.state.h[c:] - seed.h)) / scale)
        consts_m.append(np.max(np.abs(res.state.m[c:] - seed.m)) / scale)
    for consts in (consts_h, consts_m):
        assert max(consts) < 1.0
        assert max(consts) / min(consts) < 3.0


def test_stable_contraction(stable_sweep):
    for eps in EPS_SWEEP:
        ratios = stable_sweep[eps].trace.ratios
        assert all(r <= 0.9 for r in ratios[3:])
        assert geometric_mean(ratios[3:]) <= 0.7


def test_stable_flux_law(stable_sweep):
    for eps in EPS_SWEEP:
        res = stable_sweep[eps]
        defect, est = flux_defect(res.state, res.eps, res.j)
        assert defect <= 10.0 * est


def test_stable_hydrodynamic_trend(stable_sweep, maximal_stable):
    errs = []
    for eps in EPS_SWEEP:
        res = stable_sweep[eps]
        em, eh = hydrodynamic_error(res.state, maximal_stable.m_of_x,
                                    maximal_stable.h_of_x, eps, 0.0,
                                    eps * res.xi_eps)
        errs.append((em, eh))
    assert errs[0][0] > errs[1][0] > errs[2][0]
    assert errs[0][1] > errs[1][1] > errs[2][1]


def test_hydro_error_identity_on_exact_macro(params2, kernel05,
                                             maximal_stable, stable_sweep):
    """The exact macroscopic pair sampled at matching args gives zero error."""
    st = stable_sweep[0.1].state
    m_mac = maximal_stable.m_of_x(0.1 * st.grid.points)
    h_mac = maximal_stable.h_of_x(0.1 * st.grid.points)
    from mesostefan.meso import MesoState
    fake = MesoState(st.params, st.kernel, st.grid, h_mac, m_mac, st.conv, 0.0)
    em, eh = hydrodynamic_error(fake, maximal_stable.m_of_x,
                                maximal_stable.h_of_x, 0.1, 0.0, 0.3)
    assert em == 0.0 and eh == 0.0


def test_forbidden_values_shrink(stable_sweep, params2):
    """Plateau values occupy a vanishing macroscopic fraction."""
    fracs = []
    for eps in EPS_SWEEP:
        m = stable_sweep[eps].state.m
        inside = np.abs(m) < params2.m_beta - 1e-3
        fracs.append(inside.sum() * stable_sweep[eps].state.grid.spacing * eps)
    assert fracs[0] > fracs[1] > fracs[2]


def test_stable_mirrored_current(params2, kernel05, inst05):
    res = solve_stable(params2, kernel05, 0.1, -J_STABLE, ELL, n0=N0,
                       instanton=inst05)
    assert np.all(np.diff(res.state.m) < 0.0)
    assert res.monotone


@pytest.mark.parametrize("mode", ["stable", "off-center"])
def test_positive_current_is_the_mirror_image(mode, params2, kernel05, inst05):
    """The j > 0 solve runs directly, from the seed glued with the sign of
    its macroscopic profile, and returns the negated state of the j < 0
    solve with the same outer trace."""
    if mode == "stable":
        solve, check, arg = solve_stable, antisym.check_stable, ELL
    else:
        solve, check, arg = asym.solve_off_center, asym.check_off_center, X0
    neg, pos = (solve(params2, kernel05, 0.05, j, arg, n0=N0,
                      instanton=inst05) for j in (J_STABLE, -J_STABLE))
    for name in ("m", "h", "conv"):
        assert np.array_equal(getattr(pos.state, name),
                              -getattr(neg.state, name)), name
    assert pos.trace.to_csv() == neg.trace.to_csv()
    seeds = []
    for j in (J_STABLE, -J_STABLE):
        macro = stefan.solve_maximal(params2, j)
        grid, xi_index = check(kernel05, 0.05, j, arg, N0, inst05, macro)[:2]
        seeds.append(build_seed(params2, kernel05, inst05, macro, 0.05, grid,
                                xi_index).m)
    assert np.array_equal(seeds[1], -seeds[0])


def _extended(params2, kernel05, inst05, maximal_stable, eps):
    """The centred solve that the off-center set-up runs."""
    layout = asym.check_off_center(kernel05, eps, J_STABLE, X0, N0, inst05,
                                   maximal_stable)[:2]
    return antisym._iterate(params2, kernel05, inst05, maximal_stable, eps,
                            J_STABLE, *layout, "stable")


@pytest.mark.parametrize("mode", ["stable", "metastable", "extended"])
def test_centred_states_are_bitwise_odd(mode, stable_sweep, metastable_sweep,
                                        params2, kernel05, inst05,
                                        maximal_stable):
    """The returned h, m and J^neum*m are exact odd extensions of the half
    line's, +0 at x = 0, and the convolution is the full grid's."""
    results = [stable_sweep[0.05]] if mode == "stable" \
        else [metastable_sweep[0.05]] if mode == "metastable" \
        else [_extended(params2, kernel05, inst05, maximal_stable, 0.05)]
    for res in results:
        st = res.state
        c = st.grid.center_index
        for name in ("h", "m", "conv"):
            v = getattr(st, name)
            assert np.array_equal(v, -v[::-1]), name
            assert v[c] == 0.0 and not np.signbit(v[c]), name
        assert np.max(np.abs(st.conv - conv_values(kernel05, st.grid,
                                                   st.m))) < 1e-14


@pytest.mark.parametrize("mode", ["stable", "metastable", "extended"])
def test_centred_solves_convolve_on_the_half_line(mode, params2, kernel05,
                                                  inst05, maximal_stable,
                                                  maximal_meta, monkeypatch):
    """Every convolution of a centred solve, its seed's included, runs on
    the (n + 1) / 2 points of x >= 0."""
    sizes = []
    real = meso.conv_values

    def recorded(kernel, grid, values, *args):
        sizes.append((values.size, grid.n, grid.odd))
        return real(kernel, grid, values, *args)

    monkeypatch.setattr(meso, "conv_values", recorded)
    if mode == "extended":
        res = _extended(params2, kernel05, inst05, maximal_stable, 0.1)
    elif mode == "stable":
        res = solve_stable(params2, kernel05, 0.1, J_STABLE, ELL, n0=N0,
                           instanton=inst05, macro=maximal_stable)
    else:
        res = solve_metastable(params2, kernel05, 0.1, J_META, ELL, n0=N0,
                               instanton=inst05, macro=maximal_meta)
    n = res.state.grid.n
    assert len(sizes) == 1 + sum(res.trace.picard_steps)
    assert set(sizes) == {((n + 1) // 2, (n + 1) // 2, True)}


def test_trace_starts_at_the_seed_residual(stable_sweep, params2, kernel05,
                                           inst05, maximal_stable):
    """The first trace residual is the start state's measured one."""
    for eps in EPS_SWEEP:
        res = stable_sweep[eps]
        _, _, seed = _stable_seed(params2, kernel05, inst05,
                                  maximal_stable, eps)
        measured = make_state(params2, kernel05, seed.grid, seed.h,
                              seed.m).residual_norm
        assert res.trace.residuals[0] == measured < 1e-15


def test_stable_preconditions(params2, kernel05, inst05, maximal_stable):
    with pytest.raises(DomainError):
        solve_stable(params2, kernel05, 0.1, 0.0, ELL)
    with pytest.raises(DomainError):
        solve_stable(params2, kernel05, 0.3, J_STABLE, ELL)
    with pytest.raises(InfeasibleError) as exc:
        solve_stable(params2, kernel05, 0.1, J_STABLE, 2.5,
                     instanton=inst05, macro=maximal_stable)
    assert exc.value.ell_j == maximal_stable.ell_j


# ------------------------------------------------------ inexact inner solves

def _forcing_rule_holds(trace, tol, inner_tol=1e-12):
    assert len(trace.inner_tols) == len(trace.increments)
    assert trace.inner_tols[-1] == inner_tol
    for inc, itol in zip(trace.increments, trace.inner_tols):
        expect = inner_tol if inc < tol else max(inner_tol,
                                                 antisym.FORCING * inc)
        assert itol == expect


def test_inner_tolerance_follows_increment(stable_sweep):
    """Each solve runs at max(inner_tol, FORCING * inc) until inc < tol."""
    for eps in EPS_SWEEP:
        _forcing_rule_holds(stable_sweep[eps].trace, 1e-10)


def test_loose_outer_tolerance_keeps_inner_residual(params2, kernel05, inst05,
                                                    maximal_stable,
                                                    monkeypatch):
    """Steps with inc < OUTER_TOL solve at INNER_TOL, so the returned
    residual does not grow to FORCING * OUTER_TOL when OUTER_TOL is loose."""
    monkeypatch.setattr(antisym, "OUTER_TOL", 1e-8)
    res = solve_stable(params2, kernel05, 0.05, J_STABLE, ELL, n0=N0,
                       instanton=inst05, macro=maximal_stable)
    incs = res.trace.increments
    assert any(1e-10 < inc < 1e-8 for inc in incs)
    _forcing_rule_holds(res.trace, 1e-8)
    assert res.state.residual_norm <= 1e-12
    assert fixed_point_defect(res) <= 1e-9


def test_no_stop_on_inexact_pair(params2, kernel05, inst05, monkeypatch):
    """With a loose forcing an inexact solve can leave m unchanged, so the
    next increment is exactly 0; stopping there returned a defect of 8.8e-4.
    The loop must first re-solve that pair at inner_tol."""
    args = (params2, kernel05, 0.1, 0.02258, ELL)
    ref = solve_metastable(*args, n0=N0, instanton=inst05)
    monkeypatch.setattr(antisym, "FORCING", 0.1)
    res = solve_metastable(*args, n0=N0, instanton=inst05)
    assert 0.0 in res.trace.increments
    assert fixed_point_defect(res) <= 1e-9
    assert res.state.residual_norm <= 1e-12
    assert np.max(np.abs(res.state.m - ref.state.m)) <= 1e-8
    assert np.max(np.abs(res.state.h - ref.state.h)) <= 1e-8


def test_ratios_pair_with_increments_after_zero(params2, kernel05, inst05,
                                                monkeypatch):
    """ratios[k - 1] is increments[k] / increments[k - 1] at every k, NaN
    after the exact-zero increment the loose forcing produces."""
    monkeypatch.setattr(antisym, "FORCING", 0.1)
    res = solve_metastable(params2, kernel05, 0.1, 0.02258, ELL, n0=N0,
                           instanton=inst05)
    inc = res.trace.increments
    ratios = res.trace.ratios
    assert inc[2] == 0.0
    assert len(ratios) == len(inc) - 1
    assert np.isnan(ratios[2])
    for k in range(1, len(inc)):
        if np.isfinite(ratios[k - 1]):
            assert ratios[k - 1] == inc[k] / inc[k - 1]
    assert sum(np.isfinite(ratios)) == len(inc) - 2


def test_checks_match_solver_errors(params2, kernel05, inst05,
                                    maximal_stable, maximal_meta,
                                    stable_sweep, metastable_sweep):
    """check_stable / check_metastable raise exactly what the solves raise
    before iterating, and return the seed layout the solves run on."""
    cases = [
        (antisym.check_stable, solve_stable, maximal_stable, 0.25, J_STABLE,
         ELL, N0, DomainError),                  # eps > 0.2
        (antisym.check_stable, solve_stable, maximal_stable, 0.1, J_STABLE,
         2.5, N0, InfeasibleError),              # ell >= ell_j
        (antisym.check_stable, solve_stable, maximal_stable, 0.03, J_STABLE,
         ELL, N0, GridError),                    # not a whole number of cells
        (antisym.check_stable, solve_stable, maximal_stable, 0.1, J_STABLE,
         1.0025, N0, GridError),                 # odd cell count: no x = 0
        (antisym.check_stable, solve_stable, maximal_stable, 0.1, J_STABLE,
         ELL, 10, GridError),                    # gluing point collides
        (antisym.check_metastable, solve_metastable, maximal_meta, 0.1, 0.02,
         5.0, N0, InfeasibleError),              # ell >= ell_break
        (antisym.check_metastable, solve_metastable, maximal_meta, 0.02,
         0.02, ELL, 10, GridError),              # instanton window
    ]
    for check, solve, macro, eps, j, ell, n0, err in cases:
        with pytest.raises(err) as from_check:
            check(kernel05, eps, j, ell, n0, inst05, macro)
        with pytest.raises(err) as from_solve:
            solve(params2, kernel05, eps, j, ell, n0=n0, instanton=inst05,
                  macro=macro)
        assert str(from_check.value) == str(from_solve.value)
    for check, sweep, j, macro in (
            (antisym.check_stable, stable_sweep, J_STABLE, maximal_stable),
            (antisym.check_metastable, metastable_sweep, J_META,
             maximal_meta)):
        grid, xi_index = check(kernel05, 0.1, j, ELL, N0, inst05, macro)
        assert np.array_equal(grid.points, sweep[0.1].state.grid.points)
        assert xi_index * grid.spacing == sweep[0.1].xi_eps


@pytest.mark.parametrize("mode", ["stable", "metastable", "off-center"])
def test_solve_builds_its_seed_layout_once(mode, params2, kernel05, inst05,
                                           maximal_stable, maximal_meta,
                                           monkeypatch):
    """A solve runs its mode's check once and iterates on the layout that
    check built: one seed layout, and off center one check_stable, for the
    extended run."""
    calls = {}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((antisym, "_seed_layout"), (antisym, "check_stable"),
                        (antisym, "check_metastable"),
                        (asym, "check_off_center")):
        counted(owner, name)
    if mode == "stable":
        antisym.solve_stable(params2, kernel05, 0.05, J_STABLE, ELL, n0=N0,
                             instanton=inst05, macro=maximal_stable)
        expect = {"check_stable": 1}
    elif mode == "metastable":
        antisym.solve_metastable(params2, kernel05, 0.05, J_META, ELL, n0=N0,
                                 instanton=inst05, macro=maximal_meta)
        expect = {"check_metastable": 1}
    else:
        asym.solve_off_center(params2, kernel05, 0.05, J_STABLE, X0, n0=N0,
                              instanton=inst05, macro=maximal_stable)
        expect = {"check_off_center": 1, "check_stable": 1}
    assert calls == {"_seed_layout": 1, **expect}


# -------------------------------------------------------- metastable branch

def test_metastable_field_decreasing(metastable_sweep):
    for eps in EPS_SWEEP:
        h = metastable_sweep[eps].state.h
        assert np.all(np.diff(h) < 0.0)


def test_metastable_pattern(metastable_sweep):
    """m decreases, rises across the interface, and decreases again."""
    for eps in EPS_SWEEP:
        res = metastable_sweep[eps]
        d = np.diff(res.state.m)
        flips = np.where(np.sign(d[:-1]) * np.sign(d[1:]) < 0)[0]
        assert flips.size == 2
        c = res.state.grid.center_index
        assert flips[0] < c - 1 < c + 1 < flips[1] + 1
        assert res.increase_interval > 0.0


def test_metastable_window_shrinks(metastable_sweep):
    vals = [eps * metastable_sweep[eps].increase_interval for eps in EPS_SWEEP]
    assert vals[0] > vals[1] > vals[2]


def test_metastable_values_in_bands(metastable_sweep, params2):
    for eps in EPS_SWEEP:
        res = metastable_sweep[eps]
        off = np.abs(res.state.grid.points) > res.xi_eps
        m_off = np.abs(res.state.m[off])
        assert np.all(m_off > params2.m_star)
        assert np.all(m_off < 1.0)


def test_metastable_fixed_point_identities(metastable_sweep):
    for eps in EPS_SWEEP:
        res = metastable_sweep[eps]
        assert res.state.residual_norm < 1e-8
        assert fixed_point_defect(res) < 1e-8


def test_metastable_hydro_trend(metastable_sweep, maximal_meta):
    errs = []
    for eps in EPS_SWEEP:
        res = metastable_sweep[eps]
        em, _ = hydrodynamic_error(res.state, maximal_meta.m_of_x,
                                   maximal_meta.h_of_x, eps, 0.0,
                                   eps * res.xi_eps)
        errs.append(em)
    assert errs[0] > errs[1] > errs[2]


def test_metastable_needs_positive_current(params2, kernel05):
    with pytest.raises(DomainError):
        solve_metastable(params2, kernel05, 0.1, -0.02, ELL)
