"""Grid construction, kernel normalization, and convolution quadrature."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mesostefan.errors import GridError
from mesostefan.grids import (BLOCK, KERNEL_SHAPES, POINT_CAP, TAP_CAP, Grid,
                              block_size, build_grid, build_kernel,
                              conv_values, conv_values_filled,
                              conv_workspace, trapezoid_antiderivative)
from oracles import convolve_reference, neumann_matrix

#: 21, 41, 161, 321 and 641 taps
ORACLE_SPACINGS = (0.1, 0.05, 0.0125, 0.00625, 0.003125)
CONV_MODES = ("neumann", "free", "filled")


def test_build_grid_basic():
    g = build_grid(0.1, 1.0, 1.0, 0.1)
    assert g.n == 201
    assert g.a == pytest.approx(-10.0, abs=1e-14)
    assert g.b == pytest.approx(10.0, abs=1e-14)
    dx = np.diff(g.points)
    assert np.max(np.abs(dx - g.spacing)) < 1e-12


def test_build_grid_asymmetric():
    # ell* = 1 + 2 x0 with x0 = 0.2
    g = build_grid(0.05, 1.0, 1.4, 0.1)
    assert g.a == pytest.approx(-20.0, abs=1e-12)
    assert g.b == pytest.approx(28.0, abs=1e-12)


def test_build_grid_rejects_coarse_spacing():
    with pytest.raises(GridError):
        build_grid(0.1, 1.0, 1.0, 0.3)


@pytest.mark.parametrize("bad", [
    dict(epsilon=0.0), dict(epsilon=1.5), dict(epsilon=float("nan")),
    dict(left=-1.0), dict(right=0.0), dict(spacing=-0.05),
])
def test_build_grid_rejects_bad_inputs(bad):
    kw = dict(epsilon=0.1, left=1.0, right=1.0, spacing=0.05)
    kw.update(bad)
    with pytest.raises(GridError):
        build_grid(kw["epsilon"], kw["left"], kw["right"], kw["spacing"])


def test_build_grid_point_cap():
    """2e7 cells pass the cap; the check comes before any allocation."""
    with pytest.raises(GridError, match=f"cap {POINT_CAP}"):
        build_grid(0.001, 100.0, 100.0, 0.01)


def test_build_grid_spacing_adjustment_limit():
    """A width that is not a whole number of cells is rejected with a
    message naming ell/eps and the spacing, however small the misfit: no
    spacing is adjusted.  Aligned widths give the exact spacing."""
    # width 0.37 at spacing 0.1 would need a 7.5% shrink to fit 4 cells;
    # width 19.462 at 0.05 a 0.06% shrink to fit 390
    for eps, half, spacing, text in ((0.5, 0.0925, 0.1, "0.37"),
                                     (0.1, 0.9731, 0.05, "19.462")):
        with pytest.raises(GridError, match=rf"ell/eps = .*{text} is not a "
                                            rf"whole number of cells of "
                                            rf"spacing {spacing}"):
            build_grid(eps, half, half, spacing)
    g = build_grid(0.1, 1.0, 1.0, 0.05)
    assert g.spacing == 20.0 / 400
    assert build_grid(0.001, 1.0, 1.4, 0.05).n == 48001


def test_build_kernel_tap_cap():
    """Spacings that would need more than TAP_CAP taps are rejected before
    any sample is allocated, down to denormal spacings."""
    assert build_kernel(2.0 / (TAP_CAP - 1)).samples.size == TAP_CAP
    for spacing in (1e-5, 1e-9, 1e-300, 5e-324):
        with pytest.raises(GridError, match=f"more than {TAP_CAP}"):
            build_kernel(spacing)


def test_grid_descriptor_json():
    g = build_grid(0.1, 1.0, 1.0, 0.05)
    d = json.loads(g.descriptor())
    assert d == {"epsilon": 0.1, "left": 1.0, "right": 1.0,
                 "spacing": 0.05, "n": 401}


def test_kernel_samples_and_normalization():
    k = build_kernel(0.1)
    assert k.samples.size == 21
    assert abs(k.weights.sum() - 1.0) < 1e-12
    k = build_kernel(0.05)
    assert k.samples.size == 41
    assert np.array_equal(k.samples, k.samples[::-1])
    k = build_kernel(0.02)
    assert k.samples[0] == 0.0 and k.samples[-1] == 0.0


def test_kernel_rejects_coarse():
    with pytest.raises(GridError):
        build_kernel(0.2)
    with pytest.raises(GridError):
        build_kernel(0.05, shape="nope")


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.011, max_value=0.1))
def test_kernel_symmetry_property(spacing):
    for shape in KERNEL_SHAPES:
        k = build_kernel(spacing, shape)
        assert abs(k.weights.sum() - 1.0) < 1e-12
        assert np.max(np.abs(k.samples - k.samples[::-1])) == 0.0
        assert np.all(k.samples >= 0.0)


def test_neumann_preserves_constants():
    g = build_grid(0.1, 1.0, 1.3, 0.05)
    k = build_kernel(0.05)
    out = conv_values(k, g, np.ones(g.n))
    assert np.max(np.abs(out - 1.0)) < 1e-10


def test_neumann_odd_in_odd_out():
    g = build_grid(0.1, 1.0, 1.0, 0.05)
    k = build_kernel(0.05)
    f = np.tanh(g.points / 3.0) + 0.2 * np.sin(g.points)
    f = 0.5 * (f - f[::-1])
    out = conv_values(k, g, f)
    assert np.max(np.abs(out + out[::-1])) < 1e-12


def test_reflection_commutes_on_symmetric_domain():
    g = build_grid(0.1, 1.0, 1.0, 0.05)
    k = build_kernel(0.05)
    f = np.exp(-((g.points - 2.0) / 3.0) ** 2)
    lhs = conv_values(k, g, f)[::-1]
    rhs = conv_values(k, g, f[::-1])
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_free_step_midpoint():
    """Free convolution of a step: direct quadrature oracle at the center."""
    g = build_grid(0.1, 1.0, 1.0, 0.05)
    k = build_kernel(0.05)
    f = np.where(g.points > 0, 1.0, 0.0)
    f[g.center_index] = 0.5
    out = conv_values_filled(k, f, 0.0, 0.0)
    # oracle: explicit weighted sum at x = 0
    c = g.center_index
    kk = k.half_points
    oracle = sum(k.weights[kk + d] * f[c + d] for d in range(-kk, kk + 1))
    assert abs(out[c] - oracle) < 1e-15
    assert abs(out[c] - 0.5) < 1e-13
    # smoothing confined to a ramp of width 2
    assert np.all(out[g.points < -1.0 - 1e-9] == 0.0)
    assert np.max(np.abs(out[(g.points > 1.0 + 1e-9) & (g.points < 5)] - 1.0)) < 1e-13


def test_free_mode_zero_outside():
    g = build_grid(0.1, 1.0, 1.0, 0.05)
    k = build_kernel(0.05)
    out = conv_values_filled(k, np.ones(g.n), 0.0, 0.0)
    assert out[0] < 1.0  # boundary sees the zero extension
    assert abs(out[g.center_index] - 1.0) < 1e-12


def test_conv_values_rejects_spacing_mismatch():
    g = build_grid(0.1, 1.0, 1.0, 0.05)
    k_bad = build_kernel(0.04)
    assert np.allclose(conv_values(build_kernel(0.05), g, np.ones(g.n)), 1.0)
    with pytest.raises(GridError):
        conv_values(k_bad, g, np.ones(g.n))


def test_neumann_requires_wide_domain():
    g = build_grid(0.5, 0.4, 0.4, 0.05)  # total width 1.6 < 2 kernel ranges
    k = build_kernel(0.05)
    with pytest.raises(GridError):
        conv_values(k, g, np.ones(g.n))


def test_matrix_matches_convolution():
    g = build_grid(0.1, 1.0, 1.2, 0.05)
    k = build_kernel(0.05)
    f = np.sin(0.4 * g.points) + 0.3 * np.cos(g.points)
    w = neumann_matrix(k, g)
    assert np.max(np.abs(w @ f - conv_values(k, g, f))) < 1e-13


@pytest.mark.parametrize("shape", sorted(KERNEL_SHAPES))
@pytest.mark.parametrize("spacing", [0.05, 0.00625])
def test_half_line_convolution_is_the_full_product(shape, spacing):
    """On the odd half line of [-1.5, 1.5] (both reflections reach x = 0.5)
    the convolution of an odd profile's values on x >= 0 is the dense
    J^neum product of the full profile there, and exactly 0 at x = 0."""
    g = build_grid(0.5, 0.75, 0.75, spacing)
    half = g.half_line()
    assert half.odd and not g.odd and half.n == (g.n + 1) // 2
    assert np.array_equal(half.points, g.points[g.center_index:])
    k = build_kernel(spacing, shape)
    v = np.sin(0.7 * half.points) + 0.3 * np.tanh(3.0 * half.points) \
        + 0.1 * half.points ** 3
    v[0] = 0.0
    full = np.concatenate([-v[:0:-1], v])
    out = conv_values(k, half, v)
    assert out[0] == 0.0
    assert np.max(np.abs(out - (neumann_matrix(k, g) @ full)[g.center_index:])) \
        <= 1e-13
    narrow = build_grid(0.5, 0.4, 0.4, spacing).half_line()  # 0.8 wide
    with pytest.raises(GridError):
        conv_values(k, narrow, np.zeros(narrow.n))


def test_refinement_second_order_at_boundaries():
    """Halving the spacing shrinks the output change by ~4 (reflection kinks)."""
    k_ref = None
    outs = []
    spacings = [0.1, 0.05, 0.025, 0.0125]
    for dx in spacings:
        g = build_grid(0.5, 2.5, 2.5, dx)
        k = build_kernel(dx)
        f = np.sin(0.3 * g.points + 0.2)   # nonzero slope at both boundaries
        out = conv_values(k, g, f)
        stride = int(round(0.1 / dx))
        outs.append(out[::stride])
    diffs = [np.max(np.abs(a - b)) for a, b in zip(outs, outs[1:])]
    ratios = [d1 / d2 for d1, d2 in zip(diffs, diffs[1:])]
    for r in ratios:
        assert 3.0 <= r <= 5.0, f"refinement ratio {r} outside [3, 5]"


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=0.3, max_value=0.9),
       st.integers(min_value=22, max_value=200))
def test_neumann_constant_property(eps, cells):
    """On grids of a whole number of cells per half-length (so at least two
    kernel ranges wide), reflection preserves constants."""
    half = cells * 0.05 * eps
    g = build_grid(eps, half, half, 0.05)
    assert g.n == 2 * cells + 1
    k = build_kernel(g.spacing)
    c = 0.73
    out = conv_values(k, g, np.full(g.n, c))
    assert np.max(np.abs(out - c)) < 1e-10


def test_cumulative_from_center_odd():
    g = build_grid(0.1, 1.0, 1.0, 0.05)
    f = np.cosh(g.points / 7.0)  # even integrand
    c = trapezoid_antiderivative(g, f, g.center_index)
    assert abs(c[g.center_index]) == 0.0
    assert np.max(np.abs(c + c[::-1])) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 64, 401, 4001])
def test_antiderivative_matches_scipy_bitwise(n):
    """The numpy antiderivative is scipy's cumulative_trapezoid, bit for
    bit, shifted to vanish at the anchor."""
    from scipy.integrate import cumulative_trapezoid

    pts = 0.05 * (np.arange(n) - (n - 1) // 2)
    g = Grid(0.5, 1.0, 1.0, 0.05, pts)
    f = 1.0 / (2.0 * (1.0 - 0.9 * np.tanh(pts / 3.0 + 0.1) ** 2))
    for anchor in {0, (n - 1) // 2, n - 1}:
        ref = cumulative_trapezoid(f, dx=0.05, initial=0.0)
        ref = ref - ref[anchor]
        assert np.array_equal(trapezoid_antiderivative(g, f, anchor), ref)


def _line(n, spacing):
    """Grid of n points at the spacing; conv_values reads only the spacing
    and the width, so no epsilon or half-lengths need to fit."""
    pts = spacing * (np.arange(n) - 0.5 * (n - 1))
    return Grid(0.5, 1.0, 1.0, spacing, pts)


def _block_sizes(kernel, mode):
    """n below the kernel's block B, at B and at q B - 1, q B, q B + 1 that
    the mode accepts (neumann needs a width of two kernel ranges), plus two
    solver-sized grids."""
    b = block_size(kernel.weights.size)
    sizes = [1, 2, b // 2, b - 1, b]
    sizes += [q * b + d for q in range(1, 14) for d in (-1, 0, 1)]
    sizes += [4001, 16001]
    n_min = 2 * kernel.half_points + 1 if mode == "neumann" else 1
    return sorted({n for n in sizes if n >= n_min})


def _blocked(kernel, values, mode, fills):
    if mode == "filled":
        return conv_values_filled(kernel, values, *fills)
    if mode == "free":
        return conv_values_filled(kernel, values, 0.0, 0.0)
    return conv_values(kernel, _line(values.size, kernel.spacing), values)


@pytest.mark.parametrize("mode", CONV_MODES)
@pytest.mark.parametrize("spacing", ORACLE_SPACINGS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_blocked_convolution_matches_direct(spacing, mode, data):
    """The blocked Toeplitz product equals the direct padded convolution to
    rounding, at every block boundary and in every padding mode."""
    kernel = build_kernel(spacing)
    n = data.draw(st.sampled_from(_block_sizes(kernel, mode)), label="n")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    fills = data.draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                      label="fills")
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    ref = convolve_reference(kernel, values, mode, fills)
    out = _blocked(kernel, values, mode, fills)
    assert out.shape == (n,)
    assert np.all(np.abs(out - ref) <= 4e-15 * (1.0 + np.abs(ref)))


@pytest.mark.parametrize("spacing", ORACLE_SPACINGS)
def test_blocked_convolution_every_boundary_size(spacing):
    """Each size of _block_sizes once per mode on one fixed profile."""
    kernel = build_kernel(spacing)
    for mode in CONV_MODES:
        for n in _block_sizes(kernel, mode):
            x = np.linspace(-3.0, 2.0, n)
            values = np.tanh(x) + 0.1 * np.sin(7.0 * x)
            ref = convolve_reference(kernel, values, mode, (-0.9, 0.8))
            out = _blocked(kernel, values, mode, (-0.9, 0.8))
            assert np.all(np.abs(out - ref) <= 4e-15 * (1.0 + np.abs(ref))), \
                (mode, n)


@pytest.mark.parametrize("spacing,taps,block,macs", [
    (0.1, 21, 24, 48), (0.05, 41, 40, 80), (0.025, 81, BLOCK, 192),
    (0.0125, 161, BLOCK, 256), (0.00625, 321, BLOCK, 384)])
def test_block_size_fits_the_kernel(spacing, taps, block, macs):
    """B is taps - 1 rounded up to a multiple of 8, at most BLOCK; a
    convolution then does B Q multiply-adds per point, Q the slab count."""
    kernel = build_kernel(spacing)
    assert kernel.weights.size == taps
    assert block_size(taps) == block
    assert kernel.slabs.shape[1:] == (block, block)
    assert kernel.slabs.shape[0] * block == macs


@pytest.mark.parametrize("spacing", ORACLE_SPACINGS)
def test_toeplitz_slabs_are_read_only(spacing):
    kernel = build_kernel(spacing)
    taps = kernel.weights.size
    block = block_size(taps)
    n_slabs = -(-(block + taps - 1) // block)
    assert kernel.slabs.shape == (n_slabs, block, block)
    assert not kernel.slabs.flags.writeable
    with pytest.raises(ValueError):
        kernel.slabs[0, 0, 0] = 1.0
    # every tap appears once per output column of a block
    assert np.allclose(kernel.slabs.sum(axis=(0, 1)), 1.0, rtol=0,
                       atol=1e-15)


@pytest.mark.parametrize("shape", ["cos2", "quartic"])
@pytest.mark.parametrize("spacing, block", [(0.05, 40), (0.0125, BLOCK)])
def test_convolution_into_a_workspace_is_the_allocating_one(shape, spacing,
                                                             block):
    """A convolution into a caller's workspace has the bits of the one that
    allocates, in every padding mode and when the workspace is used again,
    on the fitted 40-point and the 64-point block."""
    kernel = build_kernel(spacing, shape)
    assert block_size(kernel.weights.size) == block
    for n in (2 * kernel.half_points + 1, block * 7 + 1, 4001):
        x = np.linspace(-3.0, 2.0, n)
        work = conv_workspace(kernel, n)
        for values in (np.tanh(x), np.sin(5.0 * x)):
            assert np.array_equal(
                conv_values(kernel, _line(n, spacing), values, work),
                conv_values(kernel, _line(n, spacing), values))
            for fills in ((0.0, 0.0), (-0.9, 0.8)):
                out = conv_values_filled(kernel, values, *fills, work)
                assert np.shares_memory(out, work)
                assert np.array_equal(
                    out, conv_values_filled(kernel, values, *fills))
        with pytest.raises(GridError, match="workspace"):
            conv_values_filled(kernel, x, 0.0, 0.0,
                               conv_workspace(kernel, n + block))


def test_convolution_leaves_input_untouched():
    kernel = build_kernel(0.05)
    g = build_grid(0.1, 1.0, 1.0, 0.05)
    values = np.sin(g.points)
    values.setflags(write=False)
    before = values.copy()
    conv_values(kernel, g, values)
    for fills in ((0.0, 0.0), (-1.0, 1.0)):
        conv_values_filled(kernel, values, *fills)
    assert np.array_equal(values, before)
