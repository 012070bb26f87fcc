"""Robustness matrix: every beta, kernel and mode solves within a budget of
fixed-point steps.

beta in {1.2, 1.5, 2, 4}, kernel in {cos2, quartic}, the three modes, at
eps in {0.1, 0.0125}; |j| = 0.02, or 5e-4 at beta = 4 where ell_j ~ 1/|j|
shrinks (ell_j = 0.034 at |j| = 0.02).  ell = 1, x0 = 0.2 off center,
n0 = 2, spacing 0.05.  Each row's total Picard steps are pinned to what
plain Picard iteration takes.  Two off-center rows at beta = 1.2 stall on
the slow interface mode (residual ratio above 0.9 for 5 steps): there the
recursive projection must take over and cut the steps to a third or less.
"""

import itertools

import pytest

from mesostefan.cli import EXIT_CONFIG, run
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

#: the row's Picard steps on plain fixed-point iteration, per (beta, kernel)
#: in the order antisym, metastable, asym, each at eps 0.1 then 0.0125
PICARD_STEPS = {
    (1.2, "cos2"): (81, 73, 98, 109, 913, 129),
    (1.2, "quartic"): (0, 73, 0, 109, 1103, 130),
    (1.5, "cos2"): (35, 33, 33, 35, 75, 56),
    (1.5, "quartic"): (36, 33, 33, 35, 77, 56),
    (2.0, "cos2"): (20, 18, 23, 26, 40, 31),
    (2.0, "quartic"): (20, 18, 23, 26, 41, 31),
    (4.0, "cos2"): (34, 30, 31, 27, 42, 37),
    (4.0, "quartic"): (34, 30, 31, 27, 42, 37),
}

#: rows with a stalled auxiliary solve, finished by recursive projection
PROJECTED = {(1.2, "cos2", "asym", 0.1), (1.2, "quartic", "asym", 0.1)}


def _config(beta, kernel, mode, eps) -> RunConfig:
    j_abs = 5e-4 if beta == 4.0 else 0.02
    return RunConfig(beta=beta, j=j_abs if mode == "metastable" else -j_abs,
                     ell=1.0, x0=0.2 if mode == "asym" else 0.0, mode=mode,
                     kernel=kernel, eps_list=[eps], n0=2)


@pytest.mark.parametrize("beta, kernel, mode, eps", CASES,
                         ids=["-".join(map(str, c)) for c in CASES])
def test_row_solves_without_newton(beta, kernel, mode, eps):
    row, = run(_config(beta, kernel, mode, eps)).rows
    if (beta, kernel, mode, eps) in GLUING_COLLISIONS:
        assert row.iters == -EXIT_CONFIG
        assert row.error.startswith("GridError: gluing point")
        return
    assert row.error == ""
    assert row.iters > 0
    plain = PICARD_STEPS[beta, kernel][2 * MODES.index(mode)
                                       + SCALES.index(eps)]
    if (beta, kernel, mode, eps) in PROJECTED:
        assert row.projected_solves > 0
        assert 0 < row.picard_steps <= plain / 3
    else:
        assert row.projected_solves == 0
        assert row.picard_steps == plain
