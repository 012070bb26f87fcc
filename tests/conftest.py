"""Session fixtures: thermodynamic constants, interface profiles, and the
desk-scale solve sweeps shared across test modules.

Sweep parameters: beta = 2, ell = 1, x0 = 0.2 (off-center), spacing 0.05,
eps in {0.1, 0.05, 0.025}.  The currents are j = -/+ 0.02: the maximal
half-length at beta = 2 is ell_j = 0.039/|j|, so |j| = 0.02 gives
ell_j ~ 1.95 and keeps every feasibility precondition satisfied (including
the off-center requirement 1 + x0 < ell_j), which |j| = 0.2 would violate.
The spectral sweep runs at spacing 0.025 where the eigenvalue discretization
floor sits well below the scale trends being measured.
"""

import numpy as np
import pytest

from mesostefan import antisym, asym, cli, meso, spectral, stefan
from mesostefan.grids import build_kernel
from mesostefan.instanton import compute_instanton
from mesostefan.thermo import make_params

BETA = 2.0
J_STABLE = -0.02
J_META = 0.02
ELL = 1.0
X0 = 0.2
N0 = 2
SPACING = 0.05
SPECTRAL_SPACING = 0.025
EPS_SWEEP = (0.1, 0.05, 0.025)


@pytest.fixture(autouse=True)
def cold_cli_inputs():
    """Every test starts with the CLI's per-process inputs uncomputed, as
    a fresh process does, so that a test which patches what computes them
    (``instanton.compute_instanton``) sees its patch."""
    cli._params_kernel.cache_clear()
    cli._fixed_inputs.cache_clear()


@pytest.fixture(scope="session")
def params2():
    return make_params(BETA)


@pytest.fixture(scope="session")
def kernel05():
    return build_kernel(SPACING)


@pytest.fixture(scope="session")
def kernel025():
    return build_kernel(SPECTRAL_SPACING)


@pytest.fixture(scope="session")
def inst05(params2, kernel05):
    return compute_instanton(params2, kernel05)


@pytest.fixture(scope="session")
def inst025(params2, kernel025):
    return compute_instanton(params2, kernel025)


@pytest.fixture(scope="session")
def inst_fine(params2):
    kern = build_kernel(0.00625)
    return compute_instanton(params2, kern)


@pytest.fixture(scope="session")
def maximal_stable(params2):
    return stefan.solve_maximal(params2, J_STABLE)


@pytest.fixture(scope="session")
def maximal_meta(params2):
    return stefan._metastable_maximal(params2, J_META)


@pytest.fixture(scope="session")
def stable_sweep(kernel05, inst05, maximal_stable):
    return {
        eps: antisym.solve_centred(maximal_stable, kernel05, inst05, eps,
                                   ELL, N0)
        for eps in EPS_SWEEP
    }


@pytest.fixture(scope="session")
def metastable_sweep(kernel05, inst05, maximal_meta):
    return {
        eps: antisym.solve_centred(maximal_meta, kernel05, inst05, eps, ELL,
                                   N0)
        for eps in EPS_SWEEP
    }


@pytest.fixture(scope="session")
def asym_sweep(kernel05, inst05, maximal_stable):
    return {
        eps: asym.solve_off_center(maximal_stable, kernel05, inst05, eps, X0,
                                   N0)
        for eps in EPS_SWEEP
    }


def projected_map(problem, start, tol=1e-10, max_steps=60):
    """The paper's projected map iterated from the quasi-solution's state
    ``start``: h_{k+1} is the projected current integral of m_k, and
    m_{k+1} the auxiliary fixed point at that fixed field, found by the one
    loop with the extended pair (u*, lambda*).  Returns the trace of the
    weighted increments N(h_{k+1} - h_k), which stops at the first below
    ``tol``, and the last auxiliary state."""
    u = problem.u_star_restricted
    newton = (u, problem.u_star.lambda_, start.quadrature * u)
    trace = meso.IterationTrace(start.residual_norm)
    h, state = start.h, start
    while len(trace.increments) < max_steps:
        h_next = asym.projected_field(problem, state.m)
        at = meso.make_state(state.params, state.kernel, problem.res_grid,
                             h_next, state.m, state.conv)
        state, _ = meso.iterate(at, lambda m, out, scratch: h_next, newton)
        trace.increments.append(problem.weight.norm(h_next - h))
        h = h_next
        if trace.increments[-1] < tol:
            return trace, state
    raise AssertionError(f"projected map: no increment below {tol}")


@pytest.fixture(scope="session")
def projected_map_sweep(kernel05, inst05, maximal_stable):
    """(trace, final state) of the paper's projected map at each scale, on
    the off-center sweep's problems."""
    out = {}
    for eps in EPS_SWEEP:
        problem, start = asym.build_problem(maximal_stable, kernel05, inst05,
                                            eps, X0, N0)
        out[eps] = projected_map(problem, start)
    return out


@pytest.fixture(scope="session")
def spectral_sweep(kernel025, inst025, maximal_stable):
    """Stable solves plus eigen-data at the finer spectral spacing."""
    out = {}
    for eps in EPS_SWEEP:
        res = antisym.solve_centred(maximal_stable, kernel025, inst025, eps,
                                    ELL, N0)
        pair = spectral.leading_eigenpair(res.state)
        lam2 = spectral.second_eigenvalue(res.state, pair)
        shape = spectral.eigenvector_shape_report(res.state, pair, inst025)
        out[eps] = {"result": res, "pair": pair, "lambda2": lam2,
                    "shape": shape}
    return out


def geometric_mean(values):
    values = np.asarray(values, dtype=float)
    return float(np.exp(np.mean(np.log(values))))
