"""Thermodynamic functions against brute-force and bisection oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mesostefan.errors import BranchRangeError, DomainError
from mesostefan.grids import Profile, build_grid, build_kernel, KERNEL_SHAPES
from mesostefan.thermo import (Diffusivity, convex_envelope,
                               convex_envelope_prime, diffusivity,
                               envelope_prime_inverse, entropy, free_energy,
                               make_params, mean_field_root,
                               metastable_branch_limit, metastable_inverse,
                               metastable_diffusivity, mobility, potential,
                               potential_double_prime, potential_prime,
                               pressure, solve_m_beta)
from mesostefan.thermo import _largest_root


# ----------------------------------------------------------------- oracles

def bisect_oracle(f, lo, hi, steps=100):
    f_lo = f(lo)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if f_lo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            f_lo = f(lo)
    return 0.5 * (lo + hi)


def lower_convex_hull(xs, ys):
    """Monotone-chain lower hull of a function graph; returns vertex arrays."""
    hull = []
    for p in zip(xs, ys):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point if it lies above the chord
            if (x2 - x1) * (p[1] - y1) - (p[0] - x1) * (y2 - y1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    hx, hy = zip(*hull)
    return np.array(hx), np.array(hy)


# ----------------------------------------------------------------- params

def test_params_invariants():
    for beta in (1.2, 1.5, 2.0, 3.0):
        p = make_params(beta)
        assert 0.0 < p.m_star < p.m_beta < 1.0
        assert abs(p.m_beta - math.tanh(beta * p.m_beta)) < 1e-14


def test_m_beta_against_bisection_oracle():
    oracle = bisect_oracle(lambda m: m - math.tanh(2.0 * m), 0.5, 1.0)
    assert solve_m_beta(2.0) == pytest.approx(oracle, abs=1e-13)
    assert solve_m_beta(2.0) == pytest.approx(0.9575040240772688, abs=1e-15)
    oracle15 = bisect_oracle(lambda m: m - math.tanh(1.5 * m), 0.5, 1.0)
    assert solve_m_beta(1.5) == pytest.approx(oracle15, abs=1e-13)
    assert solve_m_beta(1.5) == pytest.approx(0.8586, abs=1e-3)
    # close to beta = 1 the root is small and m - tanh(beta m) is flat there
    for beta in (1.0001, 1.001):
        oracle = bisect_oracle(lambda m: m - math.tanh(beta * m), 1e-3, 1.0)
        assert solve_m_beta(beta) == pytest.approx(oracle, abs=1e-13)


def test_m_beta_rejects_subcritical():
    for beta in (1.0, 0.5, -2.0):
        with pytest.raises(DomainError):
            solve_m_beta(beta)


@pytest.mark.parametrize("beta", [20.0, 40.0])
def test_m_beta_saturated(beta):
    """tanh(beta (1 - 1e-16)) rounds to 1 for beta >= 20: m_beta is 1 to
    rounding, and the maximal solution reports that it is saturated."""
    from mesostefan.stefan import solve_maximal

    params = make_params(beta)
    assert params.m_beta == 1.0 - 1e-16
    with pytest.raises(DomainError, match="past the saturation cutoff"):
        solve_maximal(params, -0.02)


# ---------------------------------------------------------------- potential

def test_potential_at_zero():
    p = make_params(2.0)
    assert potential(p, 0.0) == pytest.approx(-math.log(2.0) / 2.0, abs=1e-15)


def test_potential_at_half():
    # S(0.5) = -(0.75 ln 0.75 + 0.25 ln 0.25) = 0.5623351446188083
    p = make_params(2.0)
    s_half = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    assert entropy(0.5) == pytest.approx(s_half, abs=1e-16)
    assert potential(p, 0.5) == pytest.approx(-0.125 - s_half / 2.0, abs=1e-16)
    assert potential(p, 0.5) == pytest.approx(-0.4061675723094041, abs=1e-15)


def test_potential_even():
    p = make_params(2.0)
    m = np.linspace(-0.95, 0.95, 39)
    assert np.max(np.abs(potential(p, m) - potential(p, -m))) == 0.0


def test_potential_domain_error():
    p = make_params(2.0)
    for bad in (1.0, -1.0, 1.5):
        with pytest.raises(DomainError):
            potential(p, bad)


def test_convexity_pattern():
    """Strictly convex outside the spinodal, concave inside (second differences)."""
    p = make_params(2.0)
    inside = np.linspace(-p.m_star + 0.01, p.m_star - 0.01, 101)
    outside = np.linspace(p.m_star + 0.01, 0.999, 101)
    h = 1e-4
    for grid_pts, sign in ((inside, -1.0), (outside, 1.0)):
        second = (potential(p, grid_pts + h) - 2 * potential(p, grid_pts)
                  + potential(p, grid_pts - h)) / h ** 2
        assert np.all(sign * second > 0.0)


# ----------------------------------------------------------- mean-field root

def test_mean_field_root_degenerate():
    p = make_params(2.0)
    root = mean_field_root(p, 0.0)
    assert root.degenerate
    assert root.value == p.m_beta


def test_mean_field_root_argmin_oracle():
    p = make_params(2.0)
    h = 0.1
    root = mean_field_root(p, h)
    assert not root.degenerate
    assert abs(root.value) > p.m_beta
    assert abs(root.value - math.tanh(2.0 * (root.value + h))) < 1e-14
    s = np.linspace(-1 + 1e-6, 1 - 1e-6, 2_000_001)
    objective = potential(p, s) - h * s
    s_min = s[int(np.argmin(objective))]
    assert abs(root.value - s_min) < 2e-6


def test_mean_field_root_saturates():
    p = make_params(2.0)
    vals = [mean_field_root(p, h).value for h in (1.0, 5.0, 20.0)]
    assert vals[0] < vals[1] < vals[2] < 1.0
    assert vals[2] > 0.999999


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0))
def test_mean_field_root_monotone_property(h1, h2):
    p = make_params(2.0)
    lo, hi = sorted((h1, h2))
    assert mean_field_root(p, lo).value <= mean_field_root(p, hi).value + 1e-12


# ------------------------------------------------------------ shared root

@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1.05, max_value=10.0), st.data())
def test_largest_root_property(beta, data):
    """On the whole admissible range h > -metastable_branch_limit the root
    solves m = tanh(beta (m + h)) to rounding, lies on the outer branch
    m >= m_star, and f = m - tanh(beta (m + h)) stays positive above it."""
    p = make_params(beta)
    limit = metastable_branch_limit(p)
    h = data.draw(st.floats(min_value=-0.999 * limit, max_value=20.0))
    m = float(_largest_root(beta, h))
    assert abs(m - math.tanh(beta * (m + h))) <= 2 * np.spacing(1.0)
    assert m >= p.m_star
    above = m + (1.0 - m) * np.array([0.01, 0.1, 0.5, 0.9, 0.99])
    above = above[(above > m) & (above < 1.0)]
    assert np.all(above - np.tanh(beta * (above + h)) > 0.0)


def test_largest_root_and_pressure_arrays_match_scalar_calls():
    p = make_params(1.3)
    limit = metastable_branch_limit(p)
    hs = np.concatenate([np.linspace(-0.999 * limit, 25.0, 501), [0.0]])
    roots = _largest_root(p.beta, hs)
    assert roots.shape == hs.shape
    assert np.array_equal(roots, [float(_largest_root(p.beta, h)) for h in hs])
    fields = np.linspace(-30.0, 30.0, 401).reshape(1, -1)
    table = pressure(p, fields)
    assert table.shape == fields.shape
    assert np.array_equal(table[0], [pressure(p, h) for h in fields[0]])
    assert isinstance(pressure(p, 0.3), float)


# ------------------------------------------------------------ envelope

def test_envelope_plateau_value():
    p = make_params(2.0)
    flat = potential(p, p.m_beta)
    assert convex_envelope(p, 0.0) == pytest.approx(flat, abs=0)
    assert convex_envelope(p, 0.0) < potential(p, 0.0)
    assert convex_envelope_prime(p, p.m_beta) == pytest.approx(0.0, abs=1e-14)
    assert convex_envelope(p, 0.99) == potential(p, 0.99)


def test_envelope_continuity_at_plateau_edge():
    p = make_params(2.0)
    mb = p.m_beta
    assert abs(convex_envelope(p, mb - 1e-9) - convex_envelope(p, mb + 1e-9)) < 1e-10
    assert abs(convex_envelope_prime(p, mb - 1e-9)) < 1e-10
    assert abs(convex_envelope_prime(p, mb + 1e-9)) < 1e-8


def test_envelope_against_hull_oracle():
    p = make_params(2.0)
    s = np.linspace(-1 + 1e-8, 1 - 1e-8, 100_001)
    hx, hy = lower_convex_hull(s, np.asarray(potential(p, s)))
    queries = np.linspace(-0.995, 0.995, 53)
    oracle = np.interp(queries, hx, hy)
    ours = convex_envelope(p, queries)
    assert np.max(np.abs(ours - oracle)) < 1e-8


# ------------------------------------------------------------ pressure

def test_pressure_at_zero_and_symmetry():
    p = make_params(2.0)
    assert pressure(p, 0.0) == pytest.approx(-potential(p, p.m_beta), abs=1e-12)
    for h in (0.1, 0.4, 0.9):
        assert pressure(p, h) == pytest.approx(pressure(p, -h), abs=1e-12)


def test_pressure_against_grid_oracle():
    p = make_params(2.0)
    h = 0.2
    s = np.linspace(-1 + 1e-9, 1 - 1e-9, 100_001)
    oracle = np.max(h * s - convex_envelope(p, s))
    assert pressure(p, h) == pytest.approx(oracle, abs=1e-8)


def test_pressure_far_field():
    """Where the maximizer rounds to m = 1 the pressure is |h| - potential(1)."""
    p = make_params(2.0)
    for h in (5.0, 8.4, 1e3):
        assert pressure(p, h) == pytest.approx(h + 0.5, abs=1e-8)
        assert pressure(p, -h) == pressure(p, h)


def test_legendre_duality_round_trip():
    """Recover the envelope from the pressure by maximizing over the field."""
    p = make_params(2.0)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def sup_h(s, lo=-1.5, hi=1.5):
        c = hi - invphi * (hi - lo)
        d = lo + invphi * (hi - lo)
        fc = c * s - pressure(p, c)
        fd = d * s - pressure(p, d)
        for _ in range(90):
            if fc > fd:
                hi, d, fd = d, c, fc
                c = hi - invphi * (hi - lo)
                fc = c * s - pressure(p, c)
            else:
                lo, c, fc = c, d, fd
                d = lo + invphi * (hi - lo)
                fd = d * s - pressure(p, d)
        return max(fc, fd)

    worst = 0.0
    for s in np.linspace(-0.99, 0.99, 50):
        worst = max(worst, abs(sup_h(s) - float(convex_envelope(p, s))))
    assert worst < 1e-6


# -------------------------------------------------------- branch inverses

def test_envelope_prime_inverse_oracle():
    p = make_params(2.0)
    h = 0.05
    oracle = bisect_oracle(lambda m: float(potential_prime(p, m)) - h,
                           p.m_beta, 1 - 1e-12)
    got = envelope_prime_inverse(p, h)
    assert got == pytest.approx(oracle, abs=1e-12)
    assert p.m_beta < got < 1.0
    assert abs(float(potential_prime(p, got)) - h) < 1e-12


def test_envelope_prime_inverse_edges():
    p = make_params(2.0)
    assert envelope_prime_inverse(p, 1e-13) == pytest.approx(p.m_beta, abs=1e-9)
    assert envelope_prime_inverse(p, -0.05) == -envelope_prime_inverse(p, 0.05)
    assert envelope_prime_inverse(p, 0.0, side=-1) == -p.m_beta
    with pytest.raises(DomainError):
        envelope_prime_inverse(p, 0.0)


def test_metastable_inverse():
    p = make_params(2.0)
    assert metastable_inverse(p, 0.0, +1) == pytest.approx(p.m_beta, abs=1e-12)
    got = metastable_inverse(p, -0.01, +1)
    oracle = bisect_oracle(lambda m: float(potential_prime(p, m)) + 0.01,
                           p.m_star + 1e-12, 1 - 1e-12)
    assert got == pytest.approx(oracle, abs=1e-12)
    assert p.m_star < got < p.m_beta
    assert metastable_inverse(p, 0.01, -1) == -metastable_inverse(p, -0.01, +1)


def test_metastable_inverse_range_error():
    p = make_params(2.0)
    limit = metastable_branch_limit(p)
    with pytest.raises(BranchRangeError):
        metastable_inverse(p, -(limit + 1e-6), +1)


# ---------------------------------------------------------- coefficients

def test_mobility_values():
    p = make_params(2.0)
    assert mobility(p, 0.0) == p.beta
    assert mobility(p, 1.0) == 0.0
    assert mobility(p, -1.0) == 0.0
    m = np.linspace(-0.999, 0.999, 101)
    chi = mobility(p, m)
    assert np.all(chi > 0.0) and np.all(chi <= p.beta)


def test_metastable_diffusivity_vanishes_at_spinodal():
    p = make_params(2.0)
    assert abs(metastable_diffusivity(p, p.m_star)) < 1e-14
    m = np.linspace(p.m_star + 1e-6, 0.999, 64)
    assert np.all(metastable_diffusivity(p, m) > 0.0)


def test_diffusivity_identity():
    """mobility * potential curvature equals the metastable coefficient."""
    p = make_params(2.0)
    m = np.linspace(p.m_star + 0.01, 0.999, 128)
    lhs = mobility(p, m) * potential_double_prime(p, m)
    assert np.max(np.abs(lhs - metastable_diffusivity(p, m))) < 1e-12


def test_diffusivity_plateau_flag():
    p = make_params(2.0)
    d = diffusivity(p, 0.3)
    assert d == Diffusivity(0.0, True)
    d_out = diffusivity(p, 0.98)
    assert not d_out.on_plateau and d_out.value > 0.0


# ---------------------------------------------------------- free energy

def test_free_energy_constant_profile():
    p = make_params(2.0)
    g = build_grid(0.1, 1.0, 1.0, 0.1)
    k = build_kernel(0.1)
    c = 0.4
    fe = free_energy(p, k, Profile(g, np.full(g.n, c)))
    assert fe == pytest.approx((g.b - g.a) * float(potential(p, c)), rel=1e-13)


def test_free_energy_even():
    p = make_params(2.0)
    g = build_grid(0.1, 1.0, 1.0, 0.1)
    k = build_kernel(0.1)
    m = 0.5 * np.tanh(g.points / 2.0) + 0.2 * np.exp(-g.points ** 2)
    assert free_energy(p, k, Profile(g, m)) == pytest.approx(
        free_energy(p, k, Profile(g, -m)), rel=1e-13)


def test_free_energy_against_double_sum_oracle():
    """O(n^2) reflected-kernel double loop on a 201-point step profile."""
    p = make_params(2.0)
    g = build_grid(0.1, 1.0, 1.0, 0.1)   # 201 points on [-10, 10]
    k = build_kernel(0.1)
    m = np.where(g.points >= 0, p.m_beta, -p.m_beta)
    m[g.center_index] = 0.0
    fe = free_energy(p, k, Profile(g, m))

    x = g.points
    shape = KERNEL_SHAPES[k.shape]
    norm = 1.0 / float(np.sum(
        shape(k.spacing * np.arange(-k.half_points, k.half_points + 1))
        * np.where(np.abs(np.arange(-k.half_points, k.half_points + 1))
                   == k.half_points, 0.5, 1.0) * k.spacing))
    trap = np.full(g.n, g.spacing)
    trap[0] *= 0.5
    trap[-1] *= 0.5
    inter = 0.0
    for i in range(g.n):
        jn = (shape(x[i] - x) + shape(x[i] + x - 2 * g.b)
              + shape(x[i] + x - 2 * g.a)) * norm
        inter += 0.25 * trap[i] * np.sum(trap * jn * (m[i] - m) ** 2)
    bulk = float(np.sum(trap * potential(p, m)))
    assert fe == pytest.approx(bulk + inter, abs=1e-8)
    assert inter > 0.0


def test_free_energy_rejects_saturated():
    p = make_params(2.0)
    g = build_grid(0.1, 1.0, 1.0, 0.1)
    k = build_kernel(0.1)
    m = np.ones(g.n)
    with pytest.raises(DomainError):
        free_energy(p, k, Profile(g, m))


# ------------------------------------------------------------- properties

@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1.05, max_value=4.0),
       st.floats(min_value=-0.999, max_value=0.999))
def test_envelope_below_potential_property(beta, s):
    p = make_params(beta)
    assert float(convex_envelope(p, s)) <= float(potential(p, s)) + 1e-14


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1.05, max_value=4.0))
def test_spinodal_inside_plateau_property(beta):
    p = make_params(beta)
    assert p.m_star < p.m_beta
    # curvature vanishes exactly at the spinodal points
    assert abs(float(potential_double_prime(p, p.m_star))) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1.2, max_value=3.5),
       st.floats(min_value=1e-6, max_value=2.0))
def test_envelope_inverse_residual_property(beta, h):
    p = make_params(beta)
    m = envelope_prime_inverse(p, h)
    # near saturation the field residual is bounded below by the local slope
    # times one ulp of m, so the tolerance has to carry that factor
    slope = abs(float(potential_double_prime(p, m)))
    assert abs(float(potential_prime(p, m)) - h) < 1e-12 + 4e-15 * slope
    assert envelope_prime_inverse(p, -h) == -m


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1.2, max_value=3.5),
       st.floats(min_value=0.0, max_value=0.9))
def test_metastable_inverse_residual_property(beta, frac):
    """Roots across the admissible branch range solve the defining equation."""
    p = make_params(beta)
    h = -frac * metastable_branch_limit(p)
    m = metastable_inverse(p, h, +1)
    assert p.m_star < m <= p.m_beta + 1e-12
    assert abs(float(potential_prime(p, m)) - h) < 1e-12


@pytest.mark.parametrize("h", [4.5, 6.0])
def test_branch_inverses_near_saturation(params2, h):
    """Roots within 1e-9 of m = 1: the Newton polish must stay inside the
    bracket instead of probing atanh beyond 1."""
    ref = mean_field_root(params2, h).value
    for m in (envelope_prime_inverse(params2, h),
              metastable_inverse(params2, h, +1)):
        assert params2.m_beta < m < 1.0
        # one ulp of m moves potential_prime by potential_double_prime * ulp,
        # which exceeds 1e-9 h at h = 6 (1 - m ~ 1.4e-12)
        ulp_floor = potential_double_prime(params2, m) * np.spacing(m)
        assert abs(potential_prime(params2, m) - h) <= max(1e-9 * h, ulp_floor)
        assert abs(m - ref) <= 2 * np.spacing(ref)


@pytest.mark.parametrize("h", [9.0, 20.0])
def test_branch_inverses_past_saturation(params2, h):
    """Past h ~ 8.35 at beta = 2, potential_prime(1 - 1e-16) < h in floating
    point: the root is 1 to rounding, as for the mean-field root."""
    hi = 1.0 - 1e-16
    assert mean_field_root(params2, h).value == hi
    assert envelope_prime_inverse(params2, h) == hi
    assert envelope_prime_inverse(params2, -h) == -hi
    assert metastable_inverse(params2, h, +1) == hi
    assert metastable_inverse(params2, -h, -1) == -hi
