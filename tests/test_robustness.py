"""Robustness matrix: every beta, kernel and mode solves within a budget of
fixed-point steps.

beta in {1.2, 1.5, 2, 4}, kernel in {cos2, quartic}, the three modes, at
eps in {0.1, 0.0125}; |j| = 0.02, or 5e-4 at beta = 4 where ell_j ~ 1/|j|
shrinks (ell_j = 0.034 at |j| = 0.02).  ell = 1, x0 = 0.2 off center,
n0 = 2, spacing 0.05.  Each row's total fixed-point updates are pinned:
the centred loop's, and off center those of the extended solve and of the
off-center loop, whose Newton step along the extended eigenvector keeps
every row, beta = 1.2 included, a fast contraction.

Three maps run where the parameters get hard.  Metastable rows near the
branch breakdown (j up to 0.095 at beta = 2, ell_break = 1.04) solve, with
the boundary field O(eps) inside the Stefan one.  Centred rows near the
critical temperature (beta = 1.01, 1.02, 1.05 and 1.1 at ell_j = 2; at
1.01 and 1.02 lambda2 of the centred state is about 0.9) solve by Picard
iteration stepping over its measured contraction, and so do off-center
rows at beta = 1.02, 1.05 and 1.1 (ell_j = 2, x0 = 0.2).  Every row of
the three maps is one that ``validate`` calls feasible.
"""

import itertools

import pytest

import functools

from mesostefan.cli import EXIT_CONFIG, _shared_inputs, _solve_one, run, validate
from mesostefan.config import RunConfig

BETAS = (1.2, 1.5, 2.0, 4.0)
KERNELS = ("cos2", "quartic")
MODES = ("antisym", "metastable", "asym")
SCALES = (0.1, 0.0125)

#: rows that stop before iterating: at beta = 1.2 the quartic instanton's
#: threshold abscissa puts the gluing point past half of eps^-1 ell = 10
GLUING_COLLISIONS = {(1.2, "quartic", "antisym", 0.1),
                     (1.2, "quartic", "metastable", 0.1)}

CASES = list(itertools.product(BETAS, KERNELS, MODES, SCALES))

#: the row's fixed-point updates, per (beta, kernel) in the order antisym,
#: metastable, asym, each at eps 0.1 then 0.0125
PICARD_STEPS = {
    (1.2, "cos2"): (28, 23, 32, 33, 50, 43),
    (1.2, "quartic"): (0, 23, 0, 33, 51, 43),
    (1.5, "cos2"): (16, 16, 17, 15, 28, 26),
    (1.5, "quartic"): (16, 16, 17, 15, 28, 26),
    (2.0, "cos2"): (14, 15, 14, 14, 24, 22),
    (2.0, "quartic"): (14, 15, 14, 14, 24, 22),
    (4.0, "cos2"): (12, 12, 9, 9, 18, 17),
    (4.0, "quartic"): (12, 12, 9, 9, 18, 17),
}


def _config(beta, kernel, mode, eps) -> RunConfig:
    j_abs = 5e-4 if beta == 4.0 else 0.02
    return RunConfig(beta=beta, j=j_abs if mode == "metastable" else -j_abs,
                     ell=1.0, x0=0.2 if mode == "asym" else 0.0, mode=mode,
                     kernel=kernel, eps_list=[eps], n0=2)


@pytest.mark.parametrize("beta, kernel, mode, eps", CASES,
                         ids=["-".join(map(str, c)) for c in CASES])
def test_row_solves_without_newton(beta, kernel, mode, eps):
    """The row solves in the one fixed-point loop, with no fallback solve:
    off center its only Newton step is the fixed one along the extended
    eigenvector."""
    row, = run(_config(beta, kernel, mode, eps)).rows
    if (beta, kernel, mode, eps) in GLUING_COLLISIONS:
        assert row.iters == -EXIT_CONFIG
        assert row.error.startswith("GridError: gluing point")
        return
    assert row.error == ""
    assert row.iters > 0
    assert row.picard_steps == PICARD_STEPS[beta, kernel][
        2 * MODES.index(mode) + SCALES.index(eps)]


#: metastable rows near the breakdown at beta = 2: j -> the fixed-point
#: updates of the row at each of HIGH_CURRENT_SCALES
HIGH_CURRENT_STEPS = {0.07: (18, 20, 20), 0.08: (23, 19, 24),
                      0.09: (26, 28, 28), 0.095: (34, 39, 32)}
HIGH_CURRENT_SCALES = (0.1, 0.05, 0.025)
HIGH_CURRENT = list(itertools.product(HIGH_CURRENT_STEPS,
                                      range(len(HIGH_CURRENT_SCALES))))


@functools.lru_cache(maxsize=None)
def _shared(beta, j, mode):
    """A config's shared inputs, once per (beta, j, mode)."""
    return _shared_inputs(RunConfig(beta=beta, j=j, mode=mode))


@pytest.mark.parametrize("j, k", HIGH_CURRENT,
                         ids=[f"{j}-{HIGH_CURRENT_SCALES[k]}"
                              for j, k in HIGH_CURRENT])
def test_metastable_row_near_the_breakdown(j, k):
    """The row solves, non-monotone, with its boundary field between 0.06
    eps and 0.08 eps inside the Stefan one (j = 0.095, eps = 0.1:
    -0.2548 against -0.2618)."""
    eps = HIGH_CURRENT_SCALES[k]
    cfg = RunConfig(beta=2.0, j=j, ell=1.0, mode="metastable",
                    eps_list=[eps], n0=2)
    assert validate(cfg) == []
    shared = _shared(2.0, j, "metastable")
    row, res = _solve_one(cfg, eps, shared)
    steps = HIGH_CURRENT_STEPS[j][k]
    assert (row.iters, row.picard_steps) == (steps + 1, steps)
    assert res.state.residual_norm <= 1e-12
    assert not res.monotone
    shift = (res.state.h[-1] - shared[0].fields_of_x(1.0)[1]) / eps
    assert 0.06 <= shift <= 0.08


#: centred rows near the critical temperature, with j so that ell_j = 2:
#: (beta, j) -> the fixed-point updates at each of NEAR_CRITICAL_SCALES
NEAR_CRITICAL_STEPS = {(1.01, -0.16334): (53, 80, 86),
                       (1.02, -0.16004): (58, 78, 78),
                       (1.05, -0.15035): (49, 58, 58),
                       (1.1, -0.13516): (45, 39, 42)}
#: the Lanczos steps of their leading eigenvalues, from the interface slope
NEAR_CRITICAL_LAMBDA_STEPS = {(1.01, -0.16334): (15, 17, 22),
                              (1.02, -0.16004): (14, 20, 23),
                              (1.05, -0.15035): (15, 19, 20),
                              (1.1, -0.13516): (14, 15, 16)}
NEAR_CRITICAL_SCALES = (0.05, 0.0125, 0.00625)
NEAR_CRITICAL = list(itertools.product(NEAR_CRITICAL_STEPS,
                                       range(len(NEAR_CRITICAL_SCALES))))


@pytest.mark.parametrize("case, k", NEAR_CRITICAL,
                         ids=[f"{c[0]}-{NEAR_CRITICAL_SCALES[k]}"
                              for c, k in NEAR_CRITICAL])
def test_centred_row_near_the_critical_temperature(case, k):
    """The row solves by Picard iteration, which contracts at lambda2 ~ 0.9
    here and steps over that mode, with no auxiliary solve to count it as
    stalled, and extrapolates; its leading eigenvalue's Lanczos recurrence
    from the interface slope stops within the pinned steps."""
    (beta, j), eps = case, NEAR_CRITICAL_SCALES[k]
    cfg = RunConfig(beta=beta, j=j, ell=1.0, mode="antisym", eps_list=[eps],
                    n0=2)
    assert validate(cfg) == []
    row, res = _solve_one(cfg, eps, _shared(beta, j, "antisym"))
    steps = NEAR_CRITICAL_STEPS[case][k]
    assert (row.iters, row.picard_steps) == (steps + 1, steps)
    assert row.lambda_steps == NEAR_CRITICAL_LAMBDA_STEPS[case][k]
    assert row.picard_extrapolations > 0
    assert res.state.residual_norm <= 1e-12
    assert res.monotone


#: off-center rows near the critical temperature, with j so that ell_j = 2:
#: (beta, j) -> (steps of the off-center loop, fixed-point updates of the
#: row) at each of NEAR_CRITICAL_ASYM_SCALES; at beta = 1.01, eps = 0.0125
#: u* from power iteration had exact zeros in its tail, which the row's
#: power pair refused as a start, failing the row with a config error
NEAR_CRITICAL_ASYM_STEPS = {(1.01, -0.16334): ((19, 77), (16, 95)),
                            (1.02, -0.16004): ((18, 73), (16, 93)),
                            (1.05, -0.15035): ((17, 69), (15, 72)),
                            (1.1, -0.13516): ((17, 56), (14, 52))}
NEAR_CRITICAL_ASYM_SCALES = (0.05, 0.0125)
NEAR_CRITICAL_ASYM = list(itertools.product(
    NEAR_CRITICAL_ASYM_STEPS, range(len(NEAR_CRITICAL_ASYM_SCALES))))


@pytest.mark.parametrize("case, k", NEAR_CRITICAL_ASYM,
                         ids=[f"{c[0]}-{NEAR_CRITICAL_ASYM_SCALES[k]}"
                              for c, k in NEAR_CRITICAL_ASYM])
def test_off_center_row_near_the_critical_temperature(case, k):
    """The row solves, its interface at x0 to within one macroscopic cell,
    with the extended solve's updates counted in the row's, and its leading
    eigenvalue takes one Lanczos step from u*."""
    (beta, j), eps = case, NEAR_CRITICAL_ASYM_SCALES[k]
    cfg = RunConfig(beta=beta, j=j, x0=0.2, mode="asym", eps_list=[eps],
                    n0=2)
    assert validate(cfg) == []
    row, res = _solve_one(cfg, eps, _shared(beta, j, "asym"))
    assert (row.iters, row.picard_steps) == NEAR_CRITICAL_ASYM_STEPS[case][k]
    assert row.picard_steps == row.iters - 1 \
        + len(res.problem.extended_trace.increments) - 1
    assert row.lambda_steps == 1
    assert res.state.residual_norm <= 1e-12
    assert abs(res.eps_field_zero - 0.2) < eps * 0.05
