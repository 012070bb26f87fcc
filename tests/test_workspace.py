"""Loops that reuse their buffers: what they return is never a buffer.

Every outer loop, auxiliary solve and Lanczos recurrence keeps its n-point
arrays for its whole run and hands back copies, so a result stays
as it was when a later solve in the same process reuses buffers of its
own, and no two returned arrays share memory.
"""

import itertools
import resource
import sys
import tracemalloc

import numpy as np
import pytest

from mesostefan import antisym, asym, cli, grids, spectral, stefan
from mesostefan.config import RunConfig
from mesostefan.instanton import compute_instanton
from mesostefan.thermo import make_params

from conftest import ELL, N0, SPACING, X0

#: minor faults of a repeated stable solve at eps = 0.001 (n = 40 001),
#: twice the 1 073 measured for it in a fresh interpreter (1 062 with this
#: module run alone under pytest); it took 3 591 while every loop step
#: allocated its n-point arrays
REPEAT_FAULT_BOUND = 2_150


def _solves(params2, kernel05, inst05, j_stable, j_meta):
    """A stable, a metastable and an off-center solve at eps = 0.05 with
    the leading pair of each state, as {name: array}."""
    stable_macro = stefan.solve_maximal(params2, j_stable)
    stable = antisym.solve_centred(stable_macro, kernel05, inst05, 0.05, ELL,
                                   N0)
    meta = antisym.solve_centred(stefan._metastable_maximal(params2, j_meta),
                                 kernel05, inst05, 0.05, ELL, N0)
    off = asym.solve_off_center(stable_macro, kernel05, inst05, 0.05, X0, N0)
    arrays = {}
    for name, res in (("stable", stable), ("metastable", meta),
                      ("off-center", off)):
        st = res.state
        pair = spectral.leading_eigenpair(st)
        arrays.update({f"{name}.h": st.h, f"{name}.m": st.m,
                       f"{name}.conv": st.conv, f"{name}.u": pair.u})
    arrays.update({"off-center.u_star": off.problem.u_star.u,
                   "off-center.r_eps": off.problem.r_eps,
                   "off-center.h_eps": off.problem.h_eps})
    return arrays


def test_reused_buffers_never_leak_into_results(params2, kernel05, inst05):
    """Results of a first round of solves are bitwise unchanged by a second
    round at another current, and no two returned arrays share memory."""
    first = _solves(params2, kernel05, inst05, -0.02, 0.02)
    before = {name: a.copy() for name, a in first.items()}
    second = _solves(params2, kernel05, inst05, -0.025, 0.025)
    for name, a in first.items():
        assert np.array_equal(a, before[name]), name
    returned = [(f"first {k}", a) for k, a in first.items()] \
        + [(f"second {k}", a) for k, a in second.items()]
    shared = [(a, b) for (a, x), (b, y) in itertools.combinations(returned, 2)
              if np.shares_memory(x, y)]
    assert shared == []


def _repeat_faults(solve):
    """Minor page faults of the second of two calls of ``solve``, and what
    it returned."""
    solve()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    res = solve()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, res


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_minflt counts minor page faults on Linux")
def test_repeated_solve_faults_in_few_pages(kernel05, inst05, maximal_stable):
    """A stable solve at eps = 0.001 run a second time in the same process
    takes at most REPEAT_FAULT_BOUND minor page faults: its loops allocate
    their buffers once, not an n-point array per step."""
    faults, _ = _repeat_faults(lambda: antisym.solve_centred(
        maximal_stable, kernel05, inst05, 0.001, ELL, N0))
    assert faults <= REPEAT_FAULT_BOUND, faults


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_minflt counts minor page faults on Linux")
def test_repeated_extrapolating_solve_faults_in_few_pages(kernel05):
    """So do a centred solve near the critical temperature (beta = 1.01,
    ell_j = 2, eps = 0.001), whose loop extrapolates on 59 of 181
    fixed-point steps, and its leading pair from the interface slope, 60
    Lanczos steps on a 1 339-point window that keep their vectors: the
    repeated pair is bitwise the recurrence's own run on that window."""
    params = make_params(1.01)
    macro = stefan.solve_maximal(params, -0.16334)
    inst = compute_instanton(params, kernel05)

    def solve():
        res = antisym.solve_centred(macro, kernel05, inst, 0.001, ELL, N0)
        return res, spectral.leading_eigenpair(
            res.state.even_half(),
            start=lambda window, lo: spectral.slope_start(window, inst))

    faults, (res, pair) = _repeat_faults(solve)
    assert faults <= REPEAT_FAULT_BOUND, faults
    assert (pair.iterations, pair.u.size) == (60, 1339)
    window = res.state.even_half().window(0, pair.u.size)
    own, _ = spectral._top_ritz(window, spectral.slope_start(window, inst),
                                lo=0)
    assert np.array_equal(own.u, pair.u)
    assert len(res.trace.extrapolated) > 50


#: bound, in bytes, on the traced peak of one off-center sweep row at
#: eps = 0.001 (n = 40 001, j = -0.019206): 5.3 MB while its set-up
#: odd-extended the whole extended state and ran two full-length
#: convolutions, 4.66 MB once it worked from the half line, 4.04 MB since
#: it keeps no array of the extended length (the bound is that plus 5%)
ASYM_ROW_PEAK_BOUND = 4_240_000
#: the same for a stable row at eps = 0.001 (n = 40 001): 2.45 MB while
#: its result held the full odd state, 1.65 MB since it holds the half
#: line's (the bound is that plus 5%, on CPython from 3.11)
STABLE_ROW_PEAK_BOUND = 1_730_000


def _row_traced_peak(cfg) -> int:
    """The traced peak of the config's one row through cli.run, its shared
    inputs already built."""
    cli._shared_inputs(cfg)
    tracemalloc.start()
    try:
        report = cli.run(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.rows[0].iters > 0
    return peak


def test_off_center_row_traced_peak(params2):
    """One off-center row allocates at most ASYM_ROW_PEAK_BOUND at its
    peak: the set-up and the loop hold no array of the extended length,
    u* stays on the extended half line, and the loop's projection and
    Newton vectors stand in for the arrays they fold."""
    cfg = RunConfig(beta=params2.beta, j=-0.019206, x0=X0, mode="asym",
                    eps_list=[0.001], n0=N0).validate_fields()
    peak = _row_traced_peak(cfg)
    assert peak <= ASYM_ROW_PEAK_BOUND, peak


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython 3.10 keeps a call's arguments on the "
                           "caller's stack until the call returns: the "
                           "seed and the pair's start outlive their use")
def test_stable_row_traced_peak(params2):
    """One stable row allocates at most STABLE_ROW_PEAK_BOUND at its peak:
    its seed layout, seed, loop and result stay on the half line, and its
    checks read the result's half-line state."""
    cfg = RunConfig(beta=params2.beta, j=-0.019206, ell=ELL, mode="antisym",
                    eps_list=[0.001], n0=N0).validate_fields()
    peak = _row_traced_peak(cfg)
    assert peak <= STABLE_ROW_PEAK_BOUND, peak


@pytest.mark.parametrize("mode", ["antisym", "metastable", "asym"])
def test_sweep_row_builds_no_full_length_grid(mode, params2, monkeypatch):
    """A sweep row builds the points of the half line x >= 0 of the centred
    grid it solves on, and off center those of the restricted grid on
    eps^-1[-1, 1]: no grid of the full centred or extended length, and no
    point array but theirs."""
    eps = 0.05
    right = 1.0 + X0 if mode == "asym" else ELL
    full = grids.build_grid(eps, right, right, SPACING).n
    expect = [("build_half_line", (full + 1) // 2)]
    if mode == "asym":
        expect.append(("build_grid", grids.build_grid(eps, 1.0, 1.0,
                                                      SPACING).n))
    cfg = RunConfig(beta=params2.beta, j=0.02 if mode == "metastable"
                    else -0.02, mode=mode, eps_list=[eps], n0=N0,
                    **({"x0": X0} if mode == "asym" else {"ell": ELL})
                    ).validate_fields()
    cli._shared_inputs(cfg)
    built, points = [], []
    for name in ("build_grid", "build_half_line"):
        def counted(*args, real=getattr(grids, name), name=name):
            grid = real(*args)
            built.append((name, grid.n))
            return grid
        monkeypatch.setattr(grids, name, counted)
    real_points = grids._points
    monkeypatch.setattr(grids, "_points", lambda *args: points.append(
        real_points(*args)) or points[-1])
    assert cli.run(cfg).rows[0].iters > 0
    assert built == expect
    assert [p.size for p in points] == [n for _, n in expect]
    assert max(n for _, n in built) < full
