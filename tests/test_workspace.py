"""Loops that reuse their buffers: what they return is never a buffer.

Every outer loop, auxiliary solve and power or Lanczos iteration keeps its
n-point arrays for its whole run and hands back copies, so a result stays
as it was when a later solve in the same process reuses buffers of its
own, and no two returned arrays share memory.
"""

import itertools
import resource
import sys

import numpy as np
import pytest

from mesostefan import antisym, asym, spectral

from conftest import ELL, X0

#: minor faults of a repeated stable solve at eps = 0.001 (n = 40 001),
#: twice the 1 073 measured for it in a fresh interpreter (1 062 with this
#: module run alone under pytest); it took 3 591 while every loop step
#: allocated its n-point arrays
REPEAT_FAULT_BOUND = 2_150


def _solves(params2, kernel05, inst05, j_stable, j_meta):
    """A stable, a metastable and an off-center solve at eps = 0.05 with
    the leading pair of each state, as {name: array}."""
    stable = antisym.solve_stable(params2, kernel05, 0.05, j_stable, ELL,
                                  instanton=inst05)
    meta = antisym.solve_metastable(params2, kernel05, 0.05, j_meta, ELL,
                                    instanton=inst05)
    off = asym.solve_off_center(params2, kernel05, 0.05, j_stable, X0,
                                instanton=inst05)
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


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_minflt counts minor page faults on Linux")
def test_repeated_solve_faults_in_few_pages(params2, kernel05, inst05,
                                            maximal_stable):
    """A stable solve at eps = 0.001 run a second time in the same process
    takes at most REPEAT_FAULT_BOUND minor page faults: its loops allocate
    their buffers once, not an n-point array per step."""
    def solve():
        return antisym.solve_stable(params2, kernel05, 0.001, -0.02, ELL,
                                    instanton=inst05, macro=maximal_stable)

    solve()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    solve()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults <= REPEAT_FAULT_BOUND, faults
