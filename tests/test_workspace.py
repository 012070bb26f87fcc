"""Loops that reuse their buffers: what they return is never a buffer.

Every outer loop, auxiliary solve and power or Lanczos iteration keeps its
n-point arrays for its whole run and hands back copies, so a result stays
as it was when a later solve in the same process reuses buffers of its
own, and no two returned arrays share memory.
"""

import itertools
import resource
import sys
import tracemalloc

import numpy as np
import pytest

from mesostefan import antisym, asym, cli, spectral, stefan
from mesostefan.config import RunConfig
from mesostefan.instanton import compute_instanton
from mesostefan.thermo import make_params

from conftest import ELL, N0, X0

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
    ell_j = 2, eps = 0.001) and its leading pair from the interface slope,
    whose loops extrapolate on 59 of 181 fixed-point steps and on 50 of 160
    power steps: an extrapolated step allocates no n-point array either."""
    params = make_params(1.01)
    macro = stefan.solve_maximal(params, -0.16334)
    inst = compute_instanton(params, kernel05)

    def solve():
        res = antisym.solve_centred(macro, kernel05, inst, 0.001, ELL, N0)
        half = res.state.even_half()
        return res, spectral.leading_eigenpair(
            half, start=spectral.slope_start(half, inst))

    faults, (res, pair) = _repeat_faults(solve)
    assert faults <= REPEAT_FAULT_BOUND, faults
    assert len(res.trace.extrapolated) > 50 and pair.extrapolations > 10


#: bound, in bytes, on the traced peak of one off-center sweep row at
#: eps = 0.001 (n = 40 001, j = -0.019206): 5.3 MB while its set-up
#: odd-extended the whole extended state and ran two full-length
#: convolutions, 4.66 MB since it works from the half line
ASYM_ROW_PEAK_BOUND = 5_070_000


def test_off_center_row_traced_peak(params2):
    """One off-center row through cli.run, its shared inputs already
    built, allocates at most ASYM_ROW_PEAK_BOUND at its peak: the set-up
    holds no array of the extended length but the eigenvector, and the
    loop's projection and Newton vectors stand in for the arrays they
    fold."""
    cfg = RunConfig(beta=params2.beta, j=-0.019206, x0=X0, mode="asym",
                    eps_list=[0.001], n0=N0).validate_fields()
    cli._shared_inputs(cfg)
    tracemalloc.start()
    try:
        report = cli.run(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.rows[0].iters > 0
    assert peak <= ASYM_ROW_PEAK_BOUND, peak
