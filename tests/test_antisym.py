"""Antisymmetric solvers: seeds, the outer map, both branches, diagnostics."""

import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (ELL, EPS_SWEEP, J_META, J_STABLE, N0, SPACING, X0,
                      geometric_mean)
from mesostefan import antisym, asym, cli, spectral, stefan
from mesostefan.antisym import (build_seed, check_centred,
                                fixed_point_defect, flux_defect,
                                hydrodynamic_error, solve_centred, t_map)
from mesostefan.config import RunConfig
from mesostefan.errors import (ConvergenceError, DomainError, GridError,
                               InfeasibleError)
from mesostefan import meso
from mesostefan.grids import build_grid, build_kernel, conv_values
from mesostefan.instanton import compute_instanton
from mesostefan.meso import make_state
from mesostefan.thermo import make_params


# ------------------------------------------------------------------- seed

def _stable_seed(macro, kernel05, inst05, eps):
    """The seed layout check_centred builds, its half line and gluing index,
    and build_seed's start state on it, as solve_centred makes them."""
    grid, xi_index = check_centred(macro, kernel05, inst05, eps, ELL, N0)
    return grid, xi_index, build_seed(macro, kernel05, inst05, grid,
                                      xi_index)


def _odd(values):
    """The odd profile on a centred grid whose half line x >= 0 holds
    ``values``."""
    return np.concatenate([-values[:0:-1], values])


def test_seed_structure(kernel05, inst05, maximal_stable):
    eps = 0.05
    g, xi_index, start = _stable_seed(maximal_stable, kernel05, inst05, eps)
    # the seed lives on the check's half line, the points x >= 0 of the
    # centred grid, to the bit
    assert start.grid is g and g.odd
    full = build_grid(eps, ELL, ELL, SPACING)
    assert g.points.tobytes() == full.points[full.center_index:].tobytes()
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
    _, _, start = _stable_seed(maximal_stable, kernel05, inst05, 0.1)
    grid = build_grid(0.1, ELL, ELL, SPACING)
    # exact as the odd profile on the full grid too
    assert make_state(params2, kernel05, grid, _odd(start.h),
                      _odd(start.m)).residual_norm < 1e-12
    assert start.residual_norm < 1e-12
    # the half line's values are no state on the full grid
    with pytest.raises(GridError, match="201 values on a grid of 401"):
        make_state(params2, kernel05, grid, start.h, start.m)


def test_seed_rejects_collision(kernel05, inst05, maximal_stable):
    with pytest.raises(GridError):    # xi ~ 20 exceeds half the domain
        check_centred(maximal_stable, kernel05, inst05, 0.1, ELL, 10)


def test_seed_spacing_mismatch(kernel025, inst05, maximal_stable):
    with pytest.raises(GridError):
        check_centred(maximal_stable, kernel025, inst05, 0.1, ELL, N0)


@pytest.mark.parametrize("beta, shape", [(2.1, "cos2"), (2.0, "quartic")])
def test_seed_refuses_an_instanton_of_another_beta_or_kernel(
        beta, shape, kernel05, maximal_stable):
    """An instanton computed at another beta, or with another kernel shape,
    at the solve's spacing: the check and the solve refuse it, where the
    seed would otherwise glue in the wrong interface profile."""
    inst = compute_instanton(make_params(beta), build_kernel(SPACING, shape))
    for run in (check_centred, solve_centred):
        with pytest.raises(GridError, match="does not match the solve"):
            run(maximal_stable, kernel05, inst, 0.1, ELL, N0)


# ------------------------------------------------------------------ t_map

def test_t_map_sign_and_oddness(params2, kernel05, inst05, maximal_stable):
    _, _, start = _stable_seed(maximal_stable, kernel05, inst05, 0.1)
    grid = build_grid(0.1, ELL, ELL, SPACING)
    h = t_map(maximal_stable, start.grid, start.m)
    assert h[0] == 0.0
    # the half line's integral from 0 is the full grid's, which is odd
    c = grid.center_index
    full = antisym.current_integral(maximal_stable, grid, _odd(start.m), c)
    assert np.max(np.abs(full + full[::-1])) < 1e-15
    assert np.max(np.abs(full[c:] - h)) < 1e-15
    assert np.all(np.diff(h) > 0.0)          # j < 0: strictly increasing
    h_pos = t_map(stefan.solve_maximal(params2, -J_STABLE), start.grid,
                  start.m)
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


def test_stable_closeness_to_seed(stable_sweep, kernel05, inst05,
                                  maximal_stable):
    """Fixed point stays within O(eps log eps^-1) of the composite seed."""
    consts_h, consts_m = [], []
    for eps in EPS_SWEEP:
        res = stable_sweep[eps]
        _, _, seed = _stable_seed(maximal_stable, kernel05, inst05,
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
        defect, est = flux_defect(res)
        assert defect <= 10.0 * est


def test_stable_hydrodynamic_trend(stable_sweep, maximal_stable):
    errs = []
    for eps in EPS_SWEEP:
        res = stable_sweep[eps]
        em, eh = hydrodynamic_error(res.half, maximal_stable, 0.0,
                                    eps * res.xi_eps)
        errs.append((em, eh))
    assert errs[0][0] > errs[1][0] > errs[2][0]
    assert errs[0][1] > errs[1][1] > errs[2][1]


def test_hydro_error_identity_on_exact_macro(params2, kernel05,
                                             maximal_stable, stable_sweep):
    """The exact macroscopic pair sampled at matching args gives zero error:
    the check's m and h from one |m| are m_of_x's and fields_of_x's bits."""
    st = stable_sweep[0.1].half
    m_mac = maximal_stable.m_of_x(0.1 * st.grid.points)
    h_mac = maximal_stable.fields_of_x(0.1 * st.grid.points)[1]
    from mesostefan.meso import MesoState
    fake = MesoState(st.params, st.kernel, st.grid, h_mac, m_mac, st.conv, 0.0)
    em, eh = hydrodynamic_error(fake, maximal_stable, 0.0, 0.3)
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
    res = solve_centred(stefan.solve_maximal(params2, -J_STABLE), kernel05,
                        inst05, 0.1, ELL, N0)
    assert np.all(np.diff(res.state.m) < 0.0)
    assert res.monotone


@pytest.mark.parametrize("mode", ["stable", "off-center"])
def test_positive_current_is_the_mirror_image(mode, params2, kernel05, inst05,
                                              tmp_path):
    """The j > 0 solve runs directly, from the seed glued with the sign of
    its macroscopic profile, and returns the negated state of the j < 0
    solve with the same outer trace."""
    if mode == "stable":
        solve, check, arg = solve_centred, check_centred, ELL
    else:
        solve, check, arg = asym.solve_off_center, asym.check_off_center, X0
    macros = [stefan.solve_maximal(params2, j) for j in (J_STABLE, -J_STABLE)]
    neg, pos = (solve(macro, kernel05, inst05, 0.05, arg, N0)
                for macro in macros)
    for name in ("m", "h", "conv"):
        assert np.array_equal(getattr(pos.state, name),
                              -getattr(neg.state, name)), name
    traces = []
    for name, res in (("neg", neg), ("pos", pos)):
        (tmp_path / name).mkdir()
        cli._save_run(str(tmp_path / name), res)
        traces.append((tmp_path / name / "trace.csv").read_text())
    assert traces[0] == traces[1]
    seeds = []
    for macro in macros:
        grid, xi_index = check(macro, kernel05, inst05, 0.05, arg, N0)[:2]
        seeds.append(build_seed(macro, kernel05, inst05, grid, xi_index).m)
    assert np.array_equal(seeds[1], -seeds[0])


def _extended(kernel05, inst05, maximal_stable, eps):
    """The centred solve that the off-center set-up runs."""
    layout = asym.check_off_center(maximal_stable, kernel05, inst05, eps, X0,
                                   N0)[:2]
    return antisym._iterate(maximal_stable, kernel05, inst05, *layout)


@pytest.mark.parametrize("mode", ["stable", "metastable", "extended"])
def test_centred_states_are_bitwise_odd(mode, stable_sweep, metastable_sweep,
                                        kernel05, inst05, maximal_stable):
    """The returned h, m and J^neum*m are exact odd extensions of the half
    line's, +0 at x = 0, the convolution is the full grid's, and the
    residual, the half line's, is the full state's to the bit."""
    results = [stable_sweep[0.05]] if mode == "stable" \
        else [metastable_sweep[0.05]] if mode == "metastable" \
        else [_extended(kernel05, inst05, maximal_stable, 0.05)]
    for res in results:
        st = res.state
        c = st.grid.center_index
        for name in ("h", "m", "conv"):
            v = getattr(st, name)
            assert np.array_equal(v, -v[::-1]), name
            assert v[c] == 0.0 and not np.signbit(v[c]), name
        assert np.max(np.abs(st.conv - conv_values(kernel05, st.grid,
                                                   st.m))) < 1e-14
        again = make_state(st.params, kernel05, st.grid, st.h, st.m, st.conv)
        assert again.residual_norm == st.residual_norm


@pytest.mark.parametrize("mode", ["stable", "metastable", "extended"])
def test_centred_solves_convolve_on_the_half_line(mode, params2, kernel05,
                                                  inst05, maximal_stable,
                                                  monkeypatch):
    """Every convolution of a centred solve runs on the (n + 1) / 2 points
    of x >= 0, odd: its seed's, then one per fixed-point step but the first,
    which reuses the seed's.  Every one of the spectral loop that follows
    it runs on the interface window from x = 0, even: the Lanczos steps of
    the sweep row's lambda on a stable or metastable state, which forms no
    leading pair, and those of the off-center set-up's u* pair.  A sweep
    row's shared inputs (the instanton's own loop among them) are built
    before the recording starts."""
    if mode != "extended":
        cfg = RunConfig(beta=params2.beta, ell=ELL, n0=N0, eps_list=[0.1],
                        **_ROW_CASES[mode]).validate_fields()
        shared = cli._shared_inputs(cfg)
    sizes = []
    real = meso.conv_values

    def recorded(kernel, grid, values, *args):
        sizes.append((values.size, grid.n, grid.odd))
        return real(kernel, grid, values, *args)

    def refused(*args, **kwargs):
        raise AssertionError("a sweep row forms no leading pair")

    monkeypatch.setattr(meso, "conv_values", recorded)
    monkeypatch.setattr(spectral, "leading_eigenpair", refused)
    if mode == "extended":
        problem, _ = asym.build_problem(maximal_stable, kernel05, inst05, 0.1,
                                        X0, N0)
        n, trace = 2 * problem.interface_index + 1, problem.extended_trace
        steps, window = problem.u_star.iterations, problem.u_star.u.size
        assert (steps, window) == (10, 132)
    else:
        row, res = cli._solve_one(cfg, 0.1, shared)
        n, trace = res.state.grid.n, res.trace
        steps, window = row.lambda_steps, row.lambda_points
    half = (n + 1) // 2
    assert window < half
    assert sizes == [(half, half, True)] * len(trace.increments) \
        + [(window, window, False)] * steps


#: the centred sweep rows whose checks run on the half line, as RunConfig
#: fields: both signs of the current on the stable branch, and metastable
_ROW_CASES = {"stable": {"mode": "antisym", "j": J_STABLE},
              "stable-j>0": {"mode": "antisym", "j": -J_STABLE},
              "metastable": {"mode": "metastable", "j": J_META}}


def _row_matches_the_full_grid(params2, eps, **fields):
    """A centred sweep row's hydrodynamic errors, read on x >= 0, are
    bitwise the full grid's, and its (1 - lambda) / eps, from the even half
    line's pair, is the full grid's leading pair's to 1e-10 relative."""
    fields = {"ell": ELL, "n0": N0, **fields}
    cfg = RunConfig(beta=params2.beta, eps_list=[eps],
                    **fields).validate_fields()
    shared = cli._shared_inputs(cfg)
    row, res = cli._solve_one(cfg, eps, shared)
    macro = shared[0]
    assert (row.hydro_m, row.hydro_h) == hydrodynamic_error(
        res.state, macro, 0.0, eps * res.xi_eps)
    full = (1.0 - spectral.leading_eigenpair(res.state).lambda_) / eps
    assert abs(row.lam_gap_ratio - full) <= 1e-10 * abs(full)
    return res


@pytest.mark.parametrize("eps", [0.05, 0.0125])
@pytest.mark.parametrize("case", list(_ROW_CASES))
def test_row_checks_read_the_half_line(case, eps, params2):
    _row_matches_the_full_grid(params2, eps, **_ROW_CASES[case])


def test_row_checks_on_a_half_line_of_one_kernel_range(params2):
    """At eps = 0.2 and ell = 0.25 the half line is 1.25 kernel ranges wide:
    the row's checks run on it as the solve did, although a full grid of
    that width would be refused."""
    res = _row_matches_the_full_grid(params2, 0.2, mode="antisym",
                                     j=J_STABLE, ell=0.25, n0=0)
    assert res.state.grid.b == pytest.approx(1.25)


def test_trace_starts_at_the_seed_residual(stable_sweep, params2, kernel05,
                                           inst05, maximal_stable):
    """The first trace residual is the start state's measured one."""
    for eps in EPS_SWEEP:
        res = stable_sweep[eps]
        _, _, seed = _stable_seed(maximal_stable, kernel05, inst05, eps)
        measured = make_state(params2, kernel05, seed.grid, seed.h,
                              seed.m).residual_norm
        assert res.trace.residuals[0] == measured < 1e-15


def test_stable_preconditions(kernel05, inst05, maximal_stable):
    with pytest.raises(DomainError):
        solve_centred(maximal_stable, kernel05, inst05, 0.3, ELL, N0)
    with pytest.raises(InfeasibleError) as exc:
        solve_centred(maximal_stable, kernel05, inst05, 0.1, 2.5, N0)
    assert exc.value.ell_j == maximal_stable.end


# ------------------------------------------------------ the fixed-point loop

def test_steps_are_single_updates_at_inner_tolerance(stable_sweep,
                                                     metastable_sweep):
    """A centred step is one fixed-point update: every increment but the
    last is at least INNER_TOL, the last is below it and takes no update,
    and each increment is the residual of the pair it measured."""
    for sweep in (stable_sweep, metastable_sweep):
        for eps in EPS_SWEEP:
            tr = sweep[eps].trace
            assert min(tr.increments[:-1]) >= meso.INNER_TOL \
                > tr.increments[-1]
            assert tr.residuals[1:] == tr.increments


def test_no_stop_on_inexact_pair(stable_sweep, metastable_sweep,
                                 params2, kernel05, inst05, maximal_stable):
    """The loop stops only on a pair whose residual is below INNER_TOL, and
    the field it returns is T of the returned magnetization exactly, for
    either sign of the current."""
    flipped = solve_centred(stefan.solve_maximal(params2, -J_STABLE),
                            kernel05, inst05, 0.05, ELL, N0)
    for res in [*stable_sweep.values(), *metastable_sweep.values(), flipped]:
        assert fixed_point_defect(res) == 0.0
        assert res.state.residual_norm == res.trace.increments[-1] \
            < meso.INNER_TOL


def test_loop_stops_when_it_stops_contracting(kernel05, inst05, maximal_stable,
                                              monkeypatch):
    """With a tolerance no residual meets, the residuals settle at rounding:
    STALL_STEPS of them in a row that do not fall raise ConvergenceError
    with the trace; a smaller step budget runs out first."""
    args = (maximal_stable, kernel05, inst05, 0.1, ELL, N0)
    monkeypatch.setattr(meso, "INNER_TOL", 0.0)
    with pytest.raises(ConvergenceError, match="stopped contracting") as info:
        solve_centred(*args)
    inc = info.value.last.increments
    assert max(inc[-meso.STALL_STEPS - 1:]) < 1e-14
    assert all(b >= a for a, b in zip(inc[-meso.STALL_STEPS - 1:],
                                      inc[-meso.STALL_STEPS:]))
    monkeypatch.setattr(meso, "MAX_ITER", 5)
    with pytest.raises(ConvergenceError, match="in 5 steps") as info:
        solve_centred(*args)
    assert len(info.value.last.increments) == 5


def test_ratios_pair_with_increments_after_zero(stable_sweep, tmp_path):
    """ratios[k - 1] is increments[k] / increments[k - 1] at every k, NaN
    after an exact-zero increment, and the trace file writes one row per
    step under the same header, 1 in its last column where the step
    extrapolated."""
    tr = meso.IterationTrace(1e-13, [0.5, 0.25, 0.0, 0.0, 1e-3], {1: 0.5})
    assert tr.ratios[:2] == [0.5, 0.0]
    assert np.isnan(tr.ratios[2]) and np.isnan(tr.ratios[3])
    assert len(tr.ratios) == 4
    out = tmp_path / "run"
    out.mkdir()
    res = stable_sweep[0.1]
    cli._save_run(str(out), SimpleNamespace(state=res.state, trace=tr,
                                            macro=res.macro))
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[:2] == ["k,increment,ratio,residual,extrapolated",
                         "0,0.5,nan,1e-13,0"]
    assert [line.split(",")[2] for line in lines[1:]] == \
        ["nan", "0.5", "0", "nan", "nan"]
    assert [line.split(",")[4] for line in lines[1:]] == \
        ["0", "1", "0", "0", "0"]


def test_checks_match_solver_errors(kernel05, inst05, inst025,
                                    maximal_stable, maximal_meta,
                                    stable_sweep, metastable_sweep):
    """check_centred, given exactly the arguments of solve_centred, raises
    what the solve raises before iterating, and returns the seed layout the
    solve runs on."""
    cases = [
        (maximal_stable, inst05, 0.25, ELL, N0, DomainError),  # eps > 0.2
        (maximal_stable, inst05, 0.1, 2.5, N0, InfeasibleError),  # ell_j
        (maximal_stable, inst05, 0.03, ELL, N0, GridError),  # not whole cells
        (maximal_stable, inst05, 0.1, 1.0025, N0, GridError),  # no x = 0
        (maximal_stable, inst05, 0.1, ELL, 10, GridError),  # gluing point
        (maximal_stable, inst025, 0.1, ELL, N0, GridError),  # spacing
        (maximal_meta, inst05, 0.1, 5.0, N0, InfeasibleError),  # ell_break
        (maximal_meta, inst05, 0.02, ELL, 10, GridError),  # instanton window
    ]
    for macro, inst, eps, ell, n0, err in cases:
        args = (macro, kernel05, inst, eps, ell, n0)
        with pytest.raises(err) as from_check:
            check_centred(*args)
        with pytest.raises(err) as from_solve:
            solve_centred(*args)
        assert str(from_check.value) == str(from_solve.value)
    for sweep, macro in ((stable_sweep, maximal_stable),
                         (metastable_sweep, maximal_meta)):
        half, xi_index = check_centred(macro, kernel05, inst05, 0.1, ELL, N0)
        assert np.array_equal(half.points, sweep[0.1].half.grid.points)
        assert xi_index * half.spacing == sweep[0.1].xi_eps


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython 3.10 keeps a call's arguments on the "
                           "caller's stack until the call returns")
@pytest.mark.parametrize("mode", ["stable", "metastable", "off-center"])
def test_solve_hands_its_start_over(mode, kernel05, inst05, maximal_stable,
                                    maximal_meta, monkeypatch):
    """A solve keeps no name for the state its loop starts from, so the
    loop frees it after its first step (off center the loop's, after the
    extended one's)."""
    alive = []
    real = meso.iterate

    def watched(start, field_of, newton=None):
        ref = weakref.ref(start)
        held = [start]
        del start

        def field(m, out, scratch):
            alive.append(ref() is not None)
            return field_of(m, out, scratch)
        return real(held.pop(), field, newton)

    monkeypatch.setattr(antisym, "iterate", watched)
    monkeypatch.setattr(asym, "iterate", watched)
    if mode == "off-center":
        asym.solve_off_center(maximal_stable, kernel05, inst05, 0.05, X0, N0)
    else:
        solve_centred(maximal_stable if mode == "stable" else maximal_meta,
                      kernel05, inst05, 0.05, ELL, N0)
    assert len(alive) > 2 and not any(alive)


@pytest.mark.parametrize("mode", ["stable", "metastable", "off-center"])
def test_solve_builds_its_seed_layout_once(mode, kernel05, inst05,
                                           maximal_stable, maximal_meta,
                                           monkeypatch):
    """A solve runs its mode's check once and iterates on the layout that
    check built: one seed layout, and off center one check_centred, for the
    extended run."""
    calls = {}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((antisym, "_seed_layout"), (antisym, "check_centred"),
                        (asym, "check_off_center")):
        counted(owner, name)
    if mode == "off-center":
        asym.solve_off_center(maximal_stable, kernel05, inst05, 0.05, X0, N0)
        expect = {"check_off_center": 1}
    else:
        antisym.solve_centred(maximal_stable if mode == "stable"
                              else maximal_meta, kernel05, inst05, 0.05, ELL,
                              N0)
        expect = {}
    assert calls == {"_seed_layout": 1, "check_centred": 1, **expect}


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
        em, _ = hydrodynamic_error(res.half, maximal_meta, 0.0,
                                   eps * res.xi_eps)
        errs.append(em)
    assert errs[0] > errs[1] > errs[2]


def test_metastable_needs_positive_current(params2):
    """A metastable solve takes j from its macroscopic solution, which
    refuses a current that is not positive."""
    for j in (-0.02, 0.0):
        with pytest.raises(DomainError, match="positive current"):
            stefan._metastable_maximal(params2, j)
