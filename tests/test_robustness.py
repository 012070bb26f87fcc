"""Robustness matrix: every beta, kernel and mode solves on plain Picard.

beta in {1.2, 1.5, 2, 4}, kernel in {cos2, quartic}, the three modes, at
eps in {0.1, 0.0125}; |j| = 0.02, or 5e-4 at beta = 4 where ell_j ~ 1/|j|
shrinks (ell_j = 0.034 at |j| = 0.02).  ell = 1, x0 = 0.2 off center,
n0 = 2, spacing 0.05.  Every auxiliary solve must finish on the fixed-point
path: a Newton-GMRES hand-off on any of these rows means the primary solver
regressed.
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
    assert row.picard_steps > 0
    assert row.newton_handoffs == 0
