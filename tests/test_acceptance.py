"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Desk scale: beta = 2, ell = 1, x0 in {0, 0.2}, eps in {0.1, 0.05, 0.025},
spacing 0.05 (0.025 for the spectral criteria, whose trends sit below the
0.05 eigenvalue discretization floor), currents -/+0.02 so that every
feasibility precondition (ell < ell_j, 1 + x0 < ell_j, seed fit) holds.
Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import math

import numpy as np
import pytest

from conftest import EPS_SWEEP, J_STABLE, X0, geometric_mean
from mesostefan.antisym import (fixed_point_defect, flux_defect,
                                hydrodynamic_error)
from mesostefan.grids import (build_grid, build_kernel, conv_values,
                              KERNEL_SHAPES)
from mesostefan.instanton import apply_transfer, compute_instanton
from mesostefan.thermo import convex_envelope, potential, pressure

SPECTRAL_GAP_MARGIN = 0.25     # criterion 7: lambda2 <= 1 - g with g = 0.25


def report(num, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {description}")
    assert ok, f"criterion {num}: {description}"


def test_criterion_01_fixed_point_exactness(stable_sweep):
    worst_res = max(stable_sweep[e].state.residual_norm for e in EPS_SWEEP)
    worst_def = max(fixed_point_defect(stable_sweep[e]) for e in EPS_SWEEP)
    report(1, f"fixed-point identities (residual {worst_res:.2e}, "
              f"current-integral defect {worst_def:.2e}, tol 1e-8)",
           worst_res < 1e-8 and worst_def < 1e-8)


def test_criterion_02_mesoscopic_transport_law(stable_sweep, metastable_sweep,
                                               asym_sweep):
    ok = True
    worst = 0.0
    runs = [(r.state, r.eps, r.j) for sweep in (stable_sweep, metastable_sweep)
            for r in (sweep[eps] for eps in EPS_SWEEP)]
    runs += [(r.state, r.problem.eps, r.problem.j)
             for r in (asym_sweep[eps] for eps in EPS_SWEEP)]
    for state, eps, j in runs:
        defect, est = flux_defect(state, eps, j)
        ok &= defect <= 10.0 * est
        worst = max(worst, defect / est)
    report(2, f"chi(m) dh/dx = -eps j within 10x the quadrature estimate "
              f"(worst ratio {worst:.2f})", ok)


def test_criterion_03_monotonicity(stable_sweep):
    ok = all(stable_sweep[e].monotone
             and np.all(np.diff(stable_sweep[e].state.m) > 1e-14)
             for e in EPS_SWEEP)
    report(3, "m strictly increasing for j < 0 at every scale", ok)


def test_criterion_04_hydrodynamic_convergence(stable_sweep, asym_sweep,
                                               maximal_stable):
    ok = True
    detail = []
    for label, sweep, x0 in (("centered", stable_sweep, 0.0),
                             ("off-center", asym_sweep, X0)):
        errs, normalized = [], []
        for eps in EPS_SWEEP:
            res = sweep[eps]
            if label == "centered":
                m_of = maximal_stable.m_of_x
                h_of = maximal_stable.h_of_x
            else:
                m_of = lambda xi: maximal_stable.m_of_x(np.asarray(xi) - x0)
                h_of = lambda xi: maximal_stable.h_of_x(np.asarray(xi) - x0)
            em, _ = hydrodynamic_error(res.state, m_of, h_of, eps, x0,
                                       eps * res.xi_eps)
            errs.append(em)
            normalized.append(em / (eps * math.log(1.0 / eps)))
        ok &= errs[0] > errs[1] > errs[2]
        spread = max(normalized) / min(normalized)
        base_dev = max(n / normalized[0] for n in normalized)
        ok &= all(n / normalized[0] < 3.0 and normalized[0] / n < 3.0
                  for n in normalized)
        detail.append(f"{label}: errors {errs[0]:.1e}>{errs[1]:.1e}>"
                      f"{errs[2]:.1e}, rate spread {spread:.2f}")
    report(4, "sup-norm distance to the free-boundary limit decreases, "
              "rate within 3x of eps log(1/eps) [" + "; ".join(detail) + "]",
           ok)


def test_criterion_05_spectral_asymptotics(spectral_sweep, inst_fine):
    c_const = abs(J_STABLE) * inst_fine.mean / inst_fine.norm_sq
    discrepancies = []
    for eps in EPS_SWEEP:
        lam = spectral_sweep[eps]["pair"].lambda_
        discrepancies.append(abs((1.0 - lam) / eps - c_const) / c_const)
    ok = discrepancies[-1] < 0.30 \
        and discrepancies[0] > discrepancies[1] > discrepancies[2]
    report(5, f"(1 - lambda)/eps matches the interface constant "
              f"{c_const:.6f} (relative discrepancies "
              + " > ".join(f"{d:.2e}" for d in discrepancies) + ")", ok)


def test_criterion_06_eigenvector_shape(spectral_sweep):
    sups = [spectral_sweep[e]["shape"]["sup_window_diff"] for e in EPS_SWEEP]
    devs = [spectral_sweep[e]["shape"]["tail_slope_deviation"]
            for e in EPS_SWEEP]
    ratios = [a / b for a, b in zip(devs, devs[1:])]
    ok = sups[0] > sups[1] > sups[2] and min(ratios) >= 1.5
    report(6, f"|u - normalized interface slope| decreases over the window "
              f"({', '.join(f'{s:.1e}' for s in sups)}); tail log-slope "
              f"deviation from the interface rate "
              f"({', '.join(f'{d:.2e}' for d in devs)}) falls by "
              f"{min(ratios):.2f}x >= 1.5x per halving of eps", ok)


def test_criterion_07_spectral_gap(spectral_sweep):
    lams = [spectral_sweep[e]["pair"].lambda_ for e in EPS_SWEEP]
    lam2s = [spectral_sweep[e]["lambda2"] for e in EPS_SWEEP]
    ok = max(lam2s) <= 1.0 - SPECTRAL_GAP_MARGIN \
        and lams[0] < lams[1] < lams[2] < 1.0
    report(7, f"sub-dominant eigenvalue <= {1 - SPECTRAL_GAP_MARGIN} "
              f"(max {max(lam2s):.3f}) while the top tends to 1 "
              f"({lams[0]:.5f} < {lams[2]:.5f} < 1)", ok)


def test_criterion_08_geometric_convergence(stable_sweep, asym_sweep):
    ok = True
    worst_geo = 0.0
    for eps in EPS_SWEEP:
        ratios = stable_sweep[eps].trace.ratios
        tail = ratios[3:]
        ok &= all(r <= 0.9 for r in tail)
        geo = geometric_mean(tail)
        worst_geo = max(worst_geo, geo)
        ok &= geo <= 0.7
    worst_asym = 0.0
    for eps in EPS_SWEEP:
        limit = max(0.9, 5.0 * eps)
        ratios = asym_sweep[eps].trace.ratios
        ok &= all(r <= limit for r in ratios)
        worst_asym = max(worst_asym, max(ratios))
    report(8, f"contraction after burn-in <= 0.9 with geometric mean "
              f"<= 0.7 (worst {worst_geo:.3f}); weighted ratios "
              f"<= max(0.9, c eps) (worst {worst_asym:.3f})", ok)


def test_criterion_09_metastable_branch(metastable_sweep, params2):
    ok = True
    windows = []
    for eps in EPS_SWEEP:
        res = metastable_sweep[eps]
        d = np.diff(res.state.m)
        flips = np.where(np.sign(d[:-1]) * np.sign(d[1:]) < 0)[0]
        ok &= flips.size == 2 and res.increase_interval > 0.0
        ok &= bool(np.all(np.diff(res.state.h) < 0.0))
        off = np.abs(res.state.grid.points) > res.xi_eps
        m_off = np.abs(res.state.m[off])
        ok &= bool(np.all((m_off > params2.m_star) & (m_off < 1.0)))
        windows.append(eps * res.increase_interval)
    ok &= windows[0] > windows[1] > windows[2]
    report(9, "decrease/increase/decrease profile, eps * rise-length "
              f"strictly decreasing ({', '.join(f'{w:.3f}' for w in windows)})"
              ", off-window values in the metastable bands", ok)


def test_criterion_10_interface_localization(asym_sweep):
    ok = True
    locs = []
    for eps in EPS_SWEEP:
        res = asym_sweep[eps]
        cell = eps * res.state.grid.spacing
        dev = abs(res.eps_field_zero - X0)
        ok &= dev < cell
        window = max(2.0, 2.0 * math.log(1.0 / eps))
        c = res.problem.weight.center
        ok &= abs(res.field_zero - c) < window
        ok &= abs(res.m_zero - c) < window
        locs.append(dev)
    report(10, "field zero within one macroscopic cell of x0 "
               f"(deviations {', '.join(f'{d:.1e}' for d in locs)}); both "
               "zeros inside the interface window", ok)


def test_criterion_11_thermodynamic_oracles(params2, kernel05):
    # Legendre round trip through the pressure
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def sup_h(s):
        lo, hi = -1.5, 1.5
        c = hi - invphi * (hi - lo)
        d = lo + invphi * (hi - lo)
        fc = c * s - pressure(params2, c)
        fd = d * s - pressure(params2, d)
        for _ in range(90):
            if fc > fd:
                hi, d, fd = d, c, fc
                c = hi - invphi * (hi - lo)
                fc = c * s - pressure(params2, c)
            else:
                lo, c, fc = c, d, fd
                d = lo + invphi * (hi - lo)
                fd = d * s - pressure(params2, d)
        return max(fc, fd)

    duality = max(abs(sup_h(s) - float(convex_envelope(params2, s)))
                  for s in np.linspace(-0.99, 0.99, 50))

    # convex envelope against the lower-hull oracle
    s = np.linspace(-1 + 1e-8, 1 - 1e-8, 100_001)
    pot = np.asarray(potential(params2, s))
    hull = []
    for point in zip(s, pot):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (point[1] - y1) - (point[0] - x1) * (y2 - y1) <= 0:
                hull.pop()
            else:
                break
        hull.append(point)
    hx, hy = map(np.array, zip(*hull))
    queries = np.linspace(-0.995, 0.995, 41)
    envelope_err = float(np.max(np.abs(
        np.asarray(convex_envelope(params2, queries))
        - np.interp(queries, hx, hy))))

    # energy with the interaction (1/2)[int m^2 - int m (J^neum * m)] through
    # conv_values, against the O(n^2) double sum on 201 points
    g = build_grid(0.1, 1.0, 1.0, 0.1)
    k = build_kernel(0.1)
    m = params2.m_beta * np.tanh(g.points / 2.0)
    fe = np.trapezoid(potential(params2, m)
                      + 0.5 * (m * m - m * conv_values(k, g, m)), dx=g.spacing)
    shape = KERNEL_SHAPES[k.shape]
    offs = k.spacing * np.arange(-k.half_points, k.half_points + 1)
    tw = np.where(np.abs(np.arange(-k.half_points, k.half_points + 1))
                  == k.half_points, 0.5, 1.0)
    norm = 1.0 / float(np.sum(shape(offs) * tw * k.spacing))
    trap = np.full(g.n, g.spacing)
    trap[0] *= 0.5
    trap[-1] *= 0.5
    double_sum = float(np.sum(trap * potential(params2, m)))
    for i in range(g.n):
        jn = (shape(g.points[i] - g.points)
              + shape(g.points[i] + g.points - 2 * g.b)
              + shape(g.points[i] + g.points - 2 * g.a)) * norm
        double_sum += 0.25 * trap[i] * np.sum(trap * jn * (m[i] - m) ** 2)
    fe_err = abs(fe - double_sum)

    ok = duality < 1e-6 and envelope_err < 1e-8 and fe_err < 1e-8
    report(11, f"duality round trip {duality:.1e} < 1e-6; envelope vs hull "
               f"{envelope_err:.1e} < 1e-8; energy vs double sum "
               f"{fe_err:.1e} < 1e-8", ok)


def test_criterion_12_interface_profile_certification(params2, inst_fine,
                                                      kernel05, inst05):
    other = compute_instanton(params2, kernel05, seed="tanh")
    two_seed = float(np.max(np.abs(other.profile - inst05.profile)))
    kern_fine = build_kernel(inst_fine.spacing)
    md = inst_fine.derivative
    interior = np.abs(inst_fine.x) <= inst_fine.half_width - 2.0
    eig_err = float(np.max(np.abs(
        (apply_transfer(inst_fine, kern_fine, md) - md)[interior])))
    slope_dev = max(_tail_slope_deviation(inst_fine),
                    _tail_slope_deviation(inst05))
    ok = (inst_fine.residual < 1e-10 and inst05.residual < 1e-10
          and two_seed < 1e-8 and eig_err < 1e-6 and slope_dev <= 1e-4)
    report(12, f"residual {max(inst_fine.residual, inst05.residual):.1e} "
               f"< 1e-10; two-seed agreement {two_seed:.1e} < 1e-8; "
               f"unit-eigenvalue defect {eig_err:.1e} < 1e-6; tail "
               f"log-slope vs decay root {slope_dev:.1e} <= 1e-4", ok)


def _tail_slope_deviation(inst):
    """Largest relative deviation of -dlog v/dx from decay_rate, v = m_beta
    - profile, between consecutive points whose geometric-mean v lies in
    (1e-10, 1e-8)."""
    # where the tail saturates the gap is 0 and its log -inf: never selected
    with np.errstate(divide="ignore", invalid="ignore"):
        log_v = np.log(inst.m_beta - inst.profile[inst.x > 0])
        mid = 0.5 * (log_v[1:] + log_v[:-1])
        slopes = -np.diff(log_v) / inst.spacing
    sel = (mid > np.log(1e-10)) & (mid < np.log(1e-8))
    return float(np.max(np.abs(slopes[sel] / inst.decay_rate - 1.0)))
