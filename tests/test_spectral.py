"""Transforms, multipliers, and field generation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gkdvlab import spectral
from gkdvlab.spectral import (
    SQRT_2PI,
    Grid1D,
    SpectralField,
    airy_propagate,
    apply_pointwise_matrix,
    coeffs_to_values,
    forward_transform,
    gaussian_profile,
    hermitian_defect,
    hermitian_project,
    littlewood_paley_block,
    random_band_limited,
    riesz_potential,
    riesz_weights,
    values_to_coeffs,
)

GRID = Grid1D(64.0, 512)


def test_grid_lattice_shapes():
    g = Grid1D(8.0, 16)
    assert g.dx == 1.0
    assert g.dxi == math.pi / 8.0
    assert g.points[0] == -8.0
    assert g.points[-1] == 7.0
    assert g.frequencies[0] == -8 * g.dxi
    np.testing.assert_allclose(np.diff(g.frequencies), g.dxi)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(0.0, 16)
    with pytest.raises(ValueError):
        Grid1D(8.0, 15)
    with pytest.raises(ValueError):
        Grid1D(8.0, 4)


def test_transform_round_trip_complex():
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(GRID.size) + 1j * rng.standard_normal(GRID.size)
    back = coeffs_to_values(values_to_coeffs(vals, GRID), GRID)
    np.testing.assert_allclose(back, vals, atol=1e-12)


def test_transform_round_trip_real_field():
    rng = np.random.default_rng(8)
    vals = rng.standard_normal(GRID.size)
    f = forward_transform(vals, GRID)
    assert f.is_real
    assert hermitian_defect(f.coeffs) < 1e-12
    np.testing.assert_allclose(f.values(), vals, atol=1e-12)


def test_gaussian_transform_closed_form():
    # exp(-x^2/2) is its own transform under the symmetric convention
    f = gaussian_profile(GRID, 1.0, 1.0)
    expected = np.exp(-GRID.frequencies ** 2 / 2.0)
    np.testing.assert_allclose(f.coeffs.real, expected, atol=1e-12)
    np.testing.assert_allclose(f.coeffs.imag, 0.0, atol=1e-12)


def test_gaussian_profile_validation():
    with pytest.raises(ValueError):
        gaussian_profile(GRID, 1.0, 0.0)


def test_plancherel():
    rng = np.random.default_rng(9)
    vals = rng.standard_normal(GRID.size)
    f = forward_transform(vals, GRID)
    phys = math.sqrt(np.sum(vals ** 2) * GRID.dx)
    spec = math.sqrt(np.sum(np.abs(f.coeffs) ** 2) * GRID.dxi)
    assert phys == pytest.approx(spec, rel=1e-12)


def test_airy_group_law_and_isometry():
    f = random_band_limited(GRID, decay=1.0, band=100, seed=3)
    g1 = airy_propagate(airy_propagate(f, 0.4), 0.6)
    g2 = airy_propagate(f, 1.0)
    np.testing.assert_allclose(g1.coeffs, g2.coeffs, atol=1e-12)
    # modulus of every coefficient is preserved exactly
    np.testing.assert_allclose(np.abs(g2.coeffs), np.abs(f.coeffs), atol=1e-14)
    back = airy_propagate(g2, -1.0)
    np.testing.assert_allclose(back.coeffs, f.coeffs, atol=1e-12)


def test_airy_keeps_reality():
    f = gaussian_profile(GRID, 0.7)
    g = airy_propagate(f, 2.5)
    assert g.is_real
    assert np.isrealobj(g.values())


def test_riesz_zero_mode_dropped():
    w = riesz_weights(GRID, 0.5)
    mid = GRID.size // 2
    assert w[mid] == 0.0
    assert w[mid + 4] == pytest.approx((4 * GRID.dxi) ** 0.5)


def test_riesz_inverts_off_zero_mode():
    f = random_band_limited(GRID, decay=1.0, band=100, seed=4)
    g = riesz_potential(riesz_potential(f, 0.7), -0.7)
    mid = GRID.size // 2
    expect = f.coeffs.copy()
    expect[mid] = 0.0
    np.testing.assert_allclose(g.coeffs, expect, atol=1e-12)


def test_random_band_limited_support_and_determinism():
    f = random_band_limited(GRID, decay=1.2, band=37, seed=11)
    g = random_band_limited(GRID, decay=1.2, band=37, seed=11)
    np.testing.assert_array_equal(f.coeffs, g.coeffs)
    assert f.is_real
    mid = GRID.size // 2
    assert f.coeffs[mid] == 0.0  # no mean
    assert np.all(f.coeffs[mid + 38:] == 0.0)
    assert np.all(f.coeffs[: mid - 37] == 0.0)
    assert np.any(f.coeffs[mid + 1: mid + 38] != 0.0)
    h = random_band_limited(GRID, decay=1.2, band=37, seed=12)
    assert not np.array_equal(f.coeffs, h.coeffs)


def test_littlewood_paley_blocks_reconstruct():
    f = random_band_limited(GRID, decay=0.8, band=200, seed=5)
    total = np.zeros(GRID.size, dtype=complex)
    for k in range(-30, 30):
        total += littlewood_paley_block(f, k).coeffs
    mid = GRID.size // 2
    expect = f.coeffs.copy()
    expect[mid] = 0.0  # dyadic decomposition never sees the zero mode
    np.testing.assert_allclose(total, expect, atol=1e-12)


def test_spectral_field_rejects_bad_symmetry():
    c = np.zeros(16, dtype=complex)
    c[9] = 1.0  # positive mode without its mirror
    with pytest.raises(ValueError):
        SpectralField(Grid1D(8.0, 16), c, True)


def test_complex_numpy_scalar_clears_is_real():
    f = gaussian_profile(Grid1D(8.0, 16), 0.5)
    g = f * np.complex64(2j)
    assert not g.is_real
    np.testing.assert_array_equal(g.coeffs, f.coeffs * np.complex64(2j))
    assert (np.float32(2.0) * f).is_real


# Reference transforms as first written: fresh signs, numpy's shifts and a
# fresh fine grid on every call.  The cached tables must reproduce them bit
# for bit.

def _pad(coeffs, factor):
    n = coeffs.shape[-1]
    out = np.zeros(coeffs.shape[:-1] + (factor * n,), dtype=complex)
    out[..., (factor - 1) * n // 2: (factor + 1) * n // 2] = coeffs
    return out


def _central_band(coeffs, n):
    lo = (coeffs.shape[-1] - n) // 2
    return coeffs[..., lo: lo + n].copy()


def _reference_signs(n):
    k = np.arange(-n // 2, n // 2)
    return np.where(k % 2 == 0, 1.0, -1.0)


def _reference_forward(values, grid):
    spec = np.fft.fftshift(np.fft.fft(values, axis=-1), axes=-1)
    return (grid.dx / SQRT_2PI) * _reference_signs(grid.size) * spec


def _reference_inverse(coeffs, grid, real=False):
    coeffs = np.asarray(coeffs, dtype=complex)
    signs = _reference_signs(grid.size)
    vals = np.fft.ifft(np.fft.ifftshift(coeffs * signs, axes=-1), axis=-1)
    vals = vals * (grid.size * grid.dxi / SQRT_2PI)
    return vals.real if real else vals


def _reference_pointwise(coeffs, grid, func, pad, real):
    fine = Grid1D(grid.half_length, pad * grid.size)
    vals = _reference_inverse(_pad(coeffs, pad), fine, real=real)
    back = _central_band(_reference_forward(func(vals), fine), grid.size)
    return hermitian_project(back) if real else back


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _cube(v):
    return v * v * v


@settings(max_examples=60, deadline=None)
@given(half_length=st.floats(min_value=0.5, max_value=200.0),
       other_length=st.floats(min_value=0.5, max_value=200.0),
       half_size=st.integers(min_value=4, max_value=160),
       pad=st.sampled_from([2, 3]),
       rows=st.sampled_from([1, 3]),
       real=st.booleans(),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_cached_plan_matches_fresh_formulas_bytewise(half_length, other_length,
                                                     half_size, pad, rows, real,
                                                     seed):
    n = 2 * half_size
    shape = (n,) if rows == 1 else (rows, n)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def check(grid):
        coeffs = values_to_coeffs(vals, grid)
        _assert_same_bytes(coeffs, _reference_forward(vals, grid))
        _assert_same_bytes(coeffs_to_values(coeffs, grid, real=real),
                           _reference_inverse(coeffs, grid, real=real))
        _assert_same_bytes(apply_pointwise_matrix(coeffs, grid, _cube, pad=pad, real=real),
                           _reference_pointwise(coeffs, grid, _cube, pad, real))
        return coeffs

    grids = (Grid1D(half_length, n), Grid1D(other_length, n))
    # interleave two grids that share N: neither may reuse the other's scales
    for grid in grids + grids:
        check(grid)
    if half_length != other_length:
        assert not np.array_equal(spectral._plan(half_length, n).forward_scale,
                                  spectral._plan(other_length, n).forward_scale)

    grid = grids[0]
    coeffs = check(grid)
    for out in (values_to_coeffs(vals, grid), coeffs_to_values(coeffs, grid, real=real),
                apply_pointwise_matrix(coeffs, grid, _cube, pad=pad, real=real)):
        out[...] = 7.0
    check(grid)
    fine = grid.refined(pad)
    assert fine == Grid1D(half_length, pad * n)
    with pytest.raises(ValueError):
        fine.points[0] = 0.0


def _former_pointwise(coeffs, grid, func, pad, real):
    """apply_pointwise_matrix before its in-place scalings, inlined."""
    fine = grid.refined(pad)
    vals = coeffs_to_values(_pad(coeffs, pad), fine, real=real)
    back = _central_band(values_to_coeffs(func(vals), fine), grid.size)
    return hermitian_project(back) if real else back


def _quintic(v):
    return np.sign(v) * np.abs(v) ** 5.0


@settings(max_examples=60, deadline=None)
@given(half_size=st.integers(min_value=4, max_value=160),
       pad=st.sampled_from([2, 3]),
       rows=st.integers(min_value=1, max_value=9),
       real=st.booleans(),
       aliased=st.booleans(),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_lean_pointwise_map_matches_the_former_formula_bytewise(half_size, pad, rows,
                                                                real, aliased, seed):
    grid = Grid1D(24.0, 2 * half_size)
    rng = np.random.default_rng(seed)
    shape = (rows, grid.size)
    if real:
        coeffs = values_to_coeffs(rng.standard_normal(shape), grid)
        func = _quintic
    else:
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        func = _cube
    if aliased:  # the samples come back as a view of the work buffer
        func = np.asarray
    before = coeffs.copy()
    got = apply_pointwise_matrix(coeffs, grid, func, pad=pad, real=real)
    _assert_same_bytes(got, _former_pointwise(coeffs, grid, func, pad, real))
    _assert_same_bytes(apply_pointwise_matrix(coeffs[0], grid, func, pad=pad, real=real),
                       _former_pointwise(coeffs[0], grid, func, pad, real))
    _assert_same_bytes(coeffs, before)


def test_pointwise_map_rejects_a_wrong_output_length():
    with pytest.raises(ValueError, match="last axis"):
        apply_pointwise_matrix(GRID.frequencies + 0j, GRID, lambda v: v[..., ::2])


def test_hermitian_defect_per_row():
    f = random_band_limited(GRID, decay=1.0, band=40, seed=2)
    rows = np.stack([f.coeffs, f.coeffs * 1j, f.coeffs])
    defects = hermitian_defect(rows)
    assert defects.shape == (3,)
    assert defects[0] == defects[2] == hermitian_defect(f.coeffs) < 1e-12
    assert defects[1] > 1e-3
    assert list(spectral.hermitian_breaks(rows)) == [False, True, False]


def _former_hermitian_project(c):
    out = np.empty_like(c)
    out[..., 0] = c[..., 0].real
    out[..., 1:] = 0.5 * (c[..., 1:] + np.conj(c[..., 1:][..., ::-1]))
    return out


@pytest.mark.parametrize("shape", [(8,), (130,), (3, 64), (2, 5, 36)])
def test_in_place_hermitian_projection_matches_out_of_place_bytewise(shape):
    rng = np.random.default_rng(sum(shape))
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c[..., 1] = -0.0  # signed zeros must come out the same way too
    before = c.copy()
    want = _former_hermitian_project(c)
    got = hermitian_project(c)
    _assert_same_bytes(got, want)
    _assert_same_bytes(c, before)
    assert hermitian_project(c, out=c) is c
    _assert_same_bytes(c, want)
    assert not np.any(spectral.hermitian_breaks(c))
