"""Thermodynamic functions against brute-force and bisection oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mesostefan.errors import BranchRangeError, DomainError
from mesostefan.grids import (build_grid, build_kernel, conv_values,
                              KERNEL_SHAPES)
from mesostefan.thermo import (bulk_root, convex_envelope, entropy,
                               make_params, mobility, potential,
                               potential_prime, pressure, solve_m_beta)


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


@pytest.mark.parametrize("beta", [20.0, 40.0, 1e10, 1e300])
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
    """At h = 0 both +-m_beta minimize potential(m) - h m; the root is the
    positive one, m_beta itself."""
    p = make_params(2.0)
    assert float(bulk_root(p.beta, 0.0)) == p.m_beta
    assert potential(p, p.m_beta) == potential(p, -p.m_beta)


def test_mean_field_root_argmin_oracle():
    p = make_params(2.0)
    h = 0.1
    root = float(bulk_root(p.beta, h))
    assert abs(root) > p.m_beta
    assert abs(root - math.tanh(2.0 * (root + h))) < 1e-14
    s = np.linspace(-1 + 1e-6, 1 - 1e-6, 2_000_001)
    objective = potential(p, s) - h * s
    s_min = s[int(np.argmin(objective))]
    assert abs(root - s_min) < 2e-6


def test_mean_field_root_saturates():
    p = make_params(2.0)
    vals = [float(bulk_root(p.beta, h)) for h in (1.0, 5.0, 20.0)]
    assert vals[0] < vals[1] < vals[2] < 1.0
    assert vals[2] > 0.999999


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-0.999, max_value=2.0),
       st.floats(min_value=-0.999, max_value=2.0))
def test_mean_field_root_monotone_property(f1, f2):
    """The root increases with h over its whole range (fields drawn as
    multiples of the metastable branch limit |potential_prime(m_star)| below
    0)."""
    p = make_params(2.0)
    limit = -float(potential_prime(p, p.m_star))
    lo, hi = sorted(f * limit if f < 0 else f for f in (f1, f2))
    assert bulk_root(p.beta, lo) <= bulk_root(p.beta, hi) + 1e-12


# ------------------------------------------------------------ shared root

@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1.05, max_value=10.0), st.data())
def test_largest_root_property(beta, data):
    """On the whole admissible range h > potential_prime(m_star) the root
    solves m = tanh(beta (m + h)) to rounding, lies on the outer branch
    m >= m_star, and f = m - tanh(beta (m + h)) stays positive above it."""
    p = make_params(beta)
    limit = -float(potential_prime(p, p.m_star))
    h = data.draw(st.floats(min_value=-0.999 * limit, max_value=20.0))
    m = float(bulk_root(beta, h))
    assert abs(m - math.tanh(beta * (m + h))) <= 2 * np.spacing(1.0)
    assert m >= p.m_star
    above = m + (1.0 - m) * np.array([0.01, 0.1, 0.5, 0.9, 0.99])
    above = above[(above > m) & (above < 1.0)]
    assert np.all(above - np.tanh(beta * (above + h)) > 0.0)


def test_largest_root_and_pressure_arrays_match_scalar_calls():
    p = make_params(1.3)
    limit = -float(potential_prime(p, p.m_star))
    hs = np.concatenate([np.linspace(-0.999 * limit, 25.0, 501), [0.0]])
    roots = bulk_root(p.beta, hs)
    assert roots.shape == hs.shape
    assert np.array_equal(roots, [float(bulk_root(p.beta, h)) for h in hs])
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
    # the plateau meets the potential where its slope vanishes
    assert potential_prime(p, p.m_beta) == pytest.approx(0.0, abs=1e-14)
    assert convex_envelope(p, 0.99) == potential(p, 0.99)


def test_envelope_continuity_at_plateau_edge():
    """C^1 at the plateau edge: the one-sided second-order difference
    quotients of the envelope at m_beta both vanish (the left one exactly,
    the plateau being flat)."""
    p = make_params(2.0)
    mb = p.m_beta
    env = lambda s: float(convex_envelope(p, s))
    assert abs(env(mb - 1e-9) - env(mb + 1e-9)) < 1e-10
    d = 1e-6
    left = (3.0 * env(mb) - 4.0 * env(mb - d) + env(mb - 2.0 * d)) / (2.0 * d)
    right = (-3.0 * env(mb) + 4.0 * env(mb + d) - env(mb + 2.0 * d)) / (2.0 * d)
    assert abs(left) < 1e-10
    assert abs(right) < 1e-8


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
    """For h > 0 the root inverts potential_prime outside the plateau."""
    p = make_params(2.0)
    h = 0.05
    oracle = bisect_oracle(lambda m: float(potential_prime(p, m)) - h,
                           p.m_beta, 1 - 1e-12)
    got = float(bulk_root(p.beta, h))
    assert got == pytest.approx(oracle, abs=1e-12)
    assert p.m_beta < got < 1.0
    assert abs(float(potential_prime(p, got)) - h) < 1e-12


def test_envelope_prime_inverse_edges():
    """Both sides of h = 0 meet at the plateau edge m_beta."""
    p = make_params(2.0)
    assert bulk_root(p.beta, 1e-13) == pytest.approx(p.m_beta, abs=1e-9)
    assert bulk_root(p.beta, -1e-13) == pytest.approx(p.m_beta, abs=1e-9)
    assert float(bulk_root(p.beta, 0.0)) == p.m_beta


def test_metastable_inverse():
    """For -limit < h < 0 the root inverts potential_prime on the metastable
    branch (m_star, m_beta)."""
    p = make_params(2.0)
    got = float(bulk_root(p.beta, -0.01))
    oracle = bisect_oracle(lambda m: float(potential_prime(p, m)) + 0.01,
                           p.m_star + 1e-12, 1 - 1e-12)
    assert got == pytest.approx(oracle, abs=1e-12)
    assert p.m_star < got < p.m_beta


def test_metastable_inverse_range_error():
    """Below the branch image the outer root does not exist."""
    p = make_params(2.0)
    limit = -float(potential_prime(p, p.m_star))
    for h in (-(limit + 1e-6), np.array([0.3, -(limit + 0.1)])):
        with pytest.raises(BranchRangeError) as exc:
            bulk_root(p.beta, h)
        assert exc.value.breakdown == pytest.approx(-limit, rel=1e-12)


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
    """The outer diffusivity 1 - beta (1 - m^2) vanishes at m_star and is
    positive above it."""
    p = make_params(2.0)
    assert abs(1.0 - p.beta * (1.0 - p.m_star ** 2)) < 1e-14
    m = np.linspace(p.m_star + 1e-6, 0.999, 64)
    assert np.all(1.0 - p.beta * (1.0 - m * m) > 0.0)


# ---------------------------------------------------------- free energy
#
# The free energy is the bulk potential plus the interaction energy
# (1/4) iint J^neum (m(x) - m(y))^2 = (1/2) [int m^2 - int m (J^neum * m)],
# an identity that holds because the reflected kernel preserves constants.

def test_free_energy_constant_profile():
    p = make_params(2.0)
    g = build_grid(0.1, 1.0, 1.0, 0.1)
    k = build_kernel(0.1)
    m = np.full(g.n, 0.4)
    fe = np.trapezoid(potential(p, m) + 0.5 * (m * m - m * conv_values(k, g, m)),
                      dx=g.spacing)
    assert fe == pytest.approx((g.b - g.a) * float(potential(p, 0.4)),
                               rel=1e-13)


def test_free_energy_even():
    p = make_params(2.0)
    g = build_grid(0.1, 1.0, 1.0, 0.1)
    k = build_kernel(0.1)
    m = 0.5 * np.tanh(g.points / 2.0) + 0.2 * np.exp(-g.points ** 2)
    fe = [np.trapezoid(potential(p, v) + 0.5 * (v * v - v * conv_values(k, g, v)),
                       dx=g.spacing) for v in (m, -m)]
    assert fe[0] == pytest.approx(fe[1], rel=1e-13)


def test_free_energy_against_double_sum_oracle():
    """O(n^2) reflected-kernel double loop on a 201-point step profile."""
    p = make_params(2.0)
    g = build_grid(0.1, 1.0, 1.0, 0.1)   # 201 points on [-10, 10]
    k = build_kernel(0.1)
    m = np.where(g.points >= 0, p.m_beta, -p.m_beta)
    m[g.center_index] = 0.0
    fe = np.trapezoid(potential(p, m) + 0.5 * (m * m - m * conv_values(k, g, m)),
                      dx=g.spacing)

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
    """The bulk term is undefined on a saturated profile."""
    p = make_params(2.0)
    with pytest.raises(DomainError):
        potential(p, np.ones(201))


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
    # the curvature -1 + 1/(beta (1 - m^2)) vanishes at the spinodal points
    assert abs(-1.0 + 1.0 / (beta * (1.0 - p.m_star ** 2))) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1.2, max_value=3.5),
       st.floats(min_value=1e-6, max_value=2.0))
def test_envelope_inverse_residual_property(beta, h):
    p = make_params(beta)
    m = float(bulk_root(beta, h))
    # near saturation the field residual is bounded below by the local slope
    # times one ulp of m, so the tolerance has to carry that factor
    slope = abs(-1.0 + 1.0 / (beta * (1.0 - m * m)))
    assert abs(float(potential_prime(p, m)) - h) < 1e-12 + 4e-15 * slope


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1.2, max_value=3.5),
       st.floats(min_value=0.0, max_value=0.9))
def test_metastable_inverse_residual_property(beta, frac):
    """Roots across the admissible branch range solve the defining equation."""
    p = make_params(beta)
    h = frac * float(potential_prime(p, p.m_star))
    m = float(bulk_root(beta, h))
    assert p.m_star < m <= p.m_beta + 1e-12
    assert abs(float(potential_prime(p, m)) - h) < 1e-12


@pytest.mark.parametrize("h", [4.5, 6.0])
def test_branch_inverses_near_saturation(params2, h):
    """Roots within 1e-9 of m = 1 stay below 1 and solve the equation to
    within one ulp of m."""
    m = float(bulk_root(params2.beta, h))
    assert params2.m_beta < m < 1.0
    # one ulp of m moves potential_prime by its slope times the ulp,
    # which exceeds 1e-9 h at h = 6 (1 - m ~ 1.4e-12)
    ulp_floor = (-1.0 + 1.0 / (params2.beta * (1.0 - m * m))) * np.spacing(m)
    assert abs(potential_prime(params2, m) - h) <= max(1e-9 * h, ulp_floor)


@pytest.mark.parametrize("h", [9.0, 20.0])
def test_branch_inverses_past_saturation(params2, h):
    """Past h ~ 8.35 at beta = 2, potential_prime(1 - 1e-16) < h in floating
    point: the root is 1 to rounding."""
    assert float(bulk_root(params2.beta, h)) == 1.0 - 1e-16
    assert np.all(bulk_root(params2.beta, [h, 2.0 * h]) == 1.0 - 1e-16)
