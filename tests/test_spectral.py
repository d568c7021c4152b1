"""Transforms, multipliers, and field generation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gkdvlab import spectral
from gkdvlab.spacetime import free_evolution
from gkdvlab.spectral import (
    SQRT_2PI,
    Grid1D,
    SpectralField,
    _fold,
    _unfold,
    airy_propagate,
    apply_pointwise_matrix,
    coeffs_to_values,
    forward_transform,
    gaussian_profile,
    hermitian_defect,
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


# Every way into the removed complex and full-band layouts, each refused
# with a message that names the one layout left.
_REMOVED_LAYOUTS = {
    "values_to_coeffs": lambda: values_to_coeffs(np.ones(GRID.size) + 0j, GRID),
    "forward_transform": lambda: forward_transform(np.ones(GRID.size) * 1j, GRID),
    "complex_scalar": lambda: gaussian_profile(GRID, 0.5) * 2j,
    "complex_numpy_scalar": lambda: np.complex64(2j) * gaussian_profile(GRID, 0.5),
    "SpectralField": lambda: SpectralField(GRID, _unfold(gaussian_profile(GRID).modes)),
    "coeffs_to_values": lambda: coeffs_to_values(np.ones((2, GRID.size)), GRID),
    "apply_pointwise_matrix": lambda: apply_pointwise_matrix(np.ones(GRID.size), GRID,
                                                             np.asarray),
}


@pytest.mark.parametrize("case", sorted(_REMOVED_LAYOUTS))
def test_removed_layouts_fail_loudly(case):
    with pytest.raises(ValueError, match=r"N/2 \+ 1 modes in rfft layout"):
        _REMOVED_LAYOUTS[case]()


def test_transform_round_trip_real_field():
    rng = np.random.default_rng(8)
    vals = rng.standard_normal(GRID.size)
    f = forward_transform(vals, GRID)
    assert f.is_real
    assert hermitian_defect(f.modes, half=True) == 0.0  # rfft: real end modes
    np.testing.assert_allclose(f.values(), vals, atol=1e-12)


def test_gaussian_transform_closed_form():
    # exp(-x^2/2) is its own transform under the symmetric convention
    f = gaussian_profile(GRID, 1.0, 1.0)
    expected = np.exp(-_fold(GRID.frequencies) ** 2 / 2.0)
    np.testing.assert_allclose(f.modes.real, expected, atol=1e-12)
    np.testing.assert_allclose(f.modes.imag, 0.0, atol=1e-12)


def test_gaussian_profile_validation():
    with pytest.raises(ValueError):
        gaussian_profile(GRID, 1.0, 0.0)


def test_plancherel():
    rng = np.random.default_rng(9)
    vals = rng.standard_normal(GRID.size)
    f = forward_transform(vals, GRID)
    phys = math.sqrt(np.sum(vals ** 2) * GRID.dx)
    spec = math.sqrt(np.sum(np.abs(_unfold(f.modes)) ** 2) * GRID.dxi)
    assert phys == pytest.approx(spec, rel=1e-12)


def test_airy_group_law_and_isometry():
    f = random_band_limited(GRID, decay=1.0, band=100, seed=3)
    g1 = airy_propagate(airy_propagate(f, 0.4), 0.6)
    g2 = airy_propagate(f, 1.0)
    np.testing.assert_allclose(g1.modes, g2.modes, atol=1e-12)
    # modulus of every coefficient is preserved exactly
    np.testing.assert_allclose(np.abs(g2.modes), np.abs(f.modes), atol=1e-14)
    back = airy_propagate(g2, -1.0)
    np.testing.assert_allclose(back.modes, f.modes, atol=1e-12)


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
    expect = f.modes.copy()
    expect[0] = 0.0
    np.testing.assert_allclose(g.modes, expect, atol=1e-12)


def test_random_band_limited_support_and_determinism():
    f = random_band_limited(GRID, decay=1.2, band=37, seed=11)
    g = random_band_limited(GRID, decay=1.2, band=37, seed=11)
    np.testing.assert_array_equal(f.modes, g.modes)
    assert f.is_real
    assert f.modes[0] == 0.0  # no mean
    assert np.all(f.modes[38:] == 0.0)  # the unpaired -N/2 mode included
    assert np.all(f.modes[1:38] != 0.0)
    h = random_band_limited(GRID, decay=1.2, band=37, seed=12)
    assert not np.array_equal(f.modes, h.modes)


def test_littlewood_paley_blocks_reconstruct():
    f = random_band_limited(GRID, decay=0.8, band=200, seed=5)
    total = np.zeros(GRID.size // 2 + 1, dtype=complex)
    for k in range(-30, 30):
        total += littlewood_paley_block(f, k).modes
    expect = f.modes.copy()
    expect[0] = 0.0  # dyadic decomposition never sees the zero mode
    np.testing.assert_allclose(total, expect, atol=1e-12)


def test_spectral_field_rejects_bad_symmetry():
    grid = Grid1D(8.0, 16)
    c = np.zeros(16, dtype=complex)
    c[9] = 1.0  # positive mode without its mirror
    with pytest.raises(ValueError, match="expected 9 modes per row"):
        SpectralField(grid, c)
    with pytest.raises(ValueError, match="one row of modes"):
        SpectralField(grid, np.zeros((2, 9), dtype=complex))


def test_real_field_stores_its_half_spectrum():
    grid = Grid1D(8.0, 16)
    f = random_band_limited(grid, decay=1.0, band=5, seed=1)
    assert f.modes.shape == (9,) and f.is_real
    with pytest.raises(AttributeError):
        f.is_real = False
    assert not hasattr(f, "coeffs")  # no full-band view
    _assert_same_bytes(SpectralField(grid, f.modes).modes, f.modes)
    # real scalars, numpy ones included, and sums keep the half-spectrum
    for g in (np.float32(2.0) * f, f * 2, f + f, f - f):
        assert g.is_real and g.modes.shape == (9,)
    _assert_same_bytes((f + f).modes, (2.0 * f).modes)


# Reference transforms as first written: fresh signs, numpy's shifts and a
# fresh fine grid on every call.  The cached tables must reproduce them bit
# for bit.  Real samples and real fields take the real transforms on the
# k >= 0 half-spectrum; complex ones the full complex FFT.

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


def _half(a):
    """k = 0 .. N/2-1, then the unpaired -N/2 entry."""
    h = a.shape[-1] // 2
    return np.concatenate((a[..., h:], a[..., :1]), axis=-1)


def _reference_full_band(half):
    """Conjugate mirror of a half-spectrum; the zero and -N/2 modes keep their real parts."""
    h = half.shape[-1] - 1
    return np.concatenate((half[..., h:].real.astype(complex), np.conj(half[..., h - 1:0:-1]),
                           half[..., :1].real.astype(complex), half[..., 1:h]), axis=-1)


def _reference_forward(values, grid):
    if np.isrealobj(values):
        scale = (grid.dx / SQRT_2PI) * _half(_reference_signs(grid.size))
        return _reference_full_band(np.fft.rfft(values, axis=-1) * scale)
    spec = np.fft.fftshift(np.fft.fft(values, axis=-1), axes=-1)
    return (grid.dx / SQRT_2PI) * _reference_signs(grid.size) * spec


def _reference_inverse(coeffs, grid, real=False, pad=1):
    coeffs = np.asarray(coeffs, dtype=complex)
    if real:
        scale = (grid.dxi / SQRT_2PI) * _half(_reference_signs(grid.size))
        spec = _half(coeffs) * scale
        if pad > 1:
            spec[..., -1] = 0.5 * np.conj(spec[..., -1])
        return np.fft.irfft(spec, n=pad * grid.size, axis=-1, norm="forward")
    signs = _reference_signs(grid.size)
    vals = np.fft.ifft(np.fft.ifftshift(coeffs * signs, axes=-1), axis=-1)
    return vals * (grid.size * grid.dxi / SQRT_2PI)


def _reference_pointwise(coeffs, grid, func, pad):
    fine = Grid1D(grid.half_length, pad * grid.size)
    h = grid.size // 2
    spec = np.fft.rfft(func(_reference_inverse(coeffs, grid, real=True, pad=pad)), axis=-1)
    scale = (fine.dx / SQRT_2PI) * _half(_reference_signs(fine.size))
    return _reference_full_band(spec[..., :h + 1] * scale[:h + 1])


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
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_cached_plan_matches_fresh_formulas_bytewise(half_length, other_length,
                                                     half_size, pad, rows, seed):
    n = 2 * half_size
    shape = (n,) if rows == 1 else (rows, n)
    vals = np.random.default_rng(seed).standard_normal(shape)

    def check(grid):
        # the references take full bands: unfold the half-spectra
        coeffs = values_to_coeffs(vals, grid)
        full = _unfold(coeffs)
        _assert_same_bytes(full, _reference_forward(vals, grid))
        _assert_same_bytes(coeffs_to_values(coeffs, grid),
                           _reference_inverse(full, grid, real=True))
        _assert_same_bytes(_unfold(apply_pointwise_matrix(coeffs, grid, _cube, pad=pad)),
                           _reference_pointwise(full, grid, _cube, pad))
        return coeffs

    grids = (Grid1D(half_length, n), Grid1D(other_length, n))
    # interleave two grids that share N: neither may reuse the other's scales
    for grid in grids + grids:
        check(grid)
    if half_length != other_length:
        plans = (spectral._plan(half_length, n), spectral._plan(other_length, n))
        assert not np.array_equal(plans[0].half_forward, plans[1].half_forward)
        assert not np.array_equal(plans[0].half_inverse, plans[1].half_inverse)

    grid = grids[0]
    coeffs = check(grid)
    for out in (values_to_coeffs(vals, grid), coeffs_to_values(coeffs, grid),
                apply_pointwise_matrix(coeffs, grid, _cube, pad=pad)):
        out[...] = 7.0
    check(grid)
    fine = grid.refined(pad)
    assert fine == Grid1D(half_length, pad * n)
    with pytest.raises(ValueError):
        fine.points[0] = 0.0


def _former_hermitian_project(c):
    out = np.empty_like(c)
    out[..., 0] = c[..., 0].real
    out[..., 1:] = 0.5 * (c[..., 1:] + np.conj(c[..., 1:][..., ::-1]))
    return out


def _former_pointwise(coeffs, grid, func, pad):
    """The former real map: complex FFTs of the full band, then the averaging projection."""
    fine = Grid1D(grid.half_length, pad * grid.size)
    vals = _reference_inverse(_pad(coeffs, pad), fine).real
    back = _central_band(_reference_forward(func(vals).astype(complex), fine), grid.size)
    return _former_hermitian_project(back)


def _quintic(v):
    return np.sign(v) * np.abs(v) ** 5.0


# The half-spectrum map and the former complex-FFT map differ by round-off
# only: at most 1e-13 of the largest coefficient here (about 1e-15 measured).
FORMER_TOL = 1e-13


@settings(max_examples=60, deadline=None)
@given(half_size=st.integers(min_value=4, max_value=160),
       pad=st.sampled_from([2, 3]),
       rows=st.integers(min_value=1, max_value=9),
       aliased=st.booleans(),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_stacked_pointwise_map_matches_per_row_calls_bytewise(half_size, pad, rows,
                                                              aliased, seed):
    grid = Grid1D(24.0, 2 * half_size)
    rng = np.random.default_rng(seed)
    coeffs = values_to_coeffs(rng.standard_normal((rows, grid.size)), grid)
    # aliased: the map hands its samples back as its result
    func = np.asarray if aliased else _quintic
    before = coeffs.copy()
    got = apply_pointwise_matrix(coeffs, grid, func, pad=pad)
    for m in range(rows):
        _assert_same_bytes(got[m], apply_pointwise_matrix(coeffs[m], grid, func, pad=pad))
    _assert_same_bytes(coeffs, before)
    assert np.all(hermitian_defect(got, half=True) == 0.0)
    former = _former_pointwise(_unfold(coeffs), grid, func, pad)
    got = _unfold(got)
    assert np.max(np.abs(got - former)) <= FORMER_TOL * np.max(np.abs(former))


def _long_double_pointwise(coeffs, grid, func, pad, block=256):
    """The real dealiased map by direct sums over the full band in np.longdouble."""
    n, m = grid.size, pad * grid.size
    k = np.arange(-n // 2, n // 2)
    two_pi = 8 * np.arctan(np.longdouble(1))
    dxi = two_pi / (2 * np.longdouble(grid.half_length))
    dx = 2 * np.longdouble(grid.half_length) / m
    root = np.sqrt(two_pi)
    c = np.asarray(coeffs).astype(np.clongdouble) * np.where(k % 2 == 0, 1, -1)
    angles = (two_pi / m) * np.arange(m)  # e^{2 pi i jk/M} depends on jk mod M only
    cos_table, sin_table = np.cos(angles), np.sin(angles)
    back = np.zeros(c.shape, dtype=np.clongdouble)
    for j0 in range(0, m, block):
        jk = (np.arange(j0, min(m, j0 + block))[:, None] * k) % m
        cos, sin = cos_table[jk], sin_table[jk]
        g = func((c.real @ cos.T - c.imag @ sin.T) * (dxi / root))
        back += g @ cos - 1j * (g @ sin)
    back *= (dx / root) * np.where(k % 2 == 0, 1, -1)
    back[..., 0] = back[..., 0].real
    return back


# Error of the float64 map against the extended-precision sums, relative to
# the largest coefficient; about 7e-16 measured on these cases.
ACCURACY_TOL = 2e-15


@pytest.mark.parametrize("data", ["gaussian", "random"])
@pytest.mark.parametrize("pad", [2, 3])
@pytest.mark.parametrize("size", [256, 1024])
def test_pointwise_map_matches_long_double_sums(size, pad, data):
    grid = Grid1D(size / 4.0, size)
    if data == "gaussian":
        coeffs = free_evolution(gaussian_profile(grid, 0.8), np.array([0.0, 0.5, 1.0])).coeffs
    else:
        coeffs = np.stack([random_band_limited(grid, 1.0, size // 4, seed=s).modes
                           for s in range(3)])
    want = _long_double_pointwise(_unfold(coeffs), grid, _quintic, pad)
    got = _unfold(apply_pointwise_matrix(coeffs, grid, _quintic, pad=pad))
    scale = np.max(np.abs(want))
    assert float(np.max(np.abs(got - want)) / scale) <= ACCURACY_TOL


@pytest.mark.parametrize("pad", [1, 2, 3])
def test_real_samples_read_the_hermitian_part(pad):
    # random samples occupy the unpaired -N/2 mode, which pad 1 keeps in the
    # Nyquist bin and pad >= 2 splits between bins N/2 and -N/2
    grid = Grid1D(16.0, 64)
    half = values_to_coeffs(np.random.default_rng(pad).standard_normal((2, 64)), grid)
    coeffs = _unfold(half)
    assert np.all(coeffs[:, 0] != 0.0)
    fine = Grid1D(grid.half_length, pad * grid.size)
    want = _reference_inverse(_pad(coeffs, pad), fine).real
    got = spectral._real_samples(half, grid, pad)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    if pad == 1:
        _assert_same_bytes(coeffs_to_values(half, grid), got)


def test_pointwise_map_rejects_a_wrong_output_length():
    with pytest.raises(ValueError, match="last axis"):
        apply_pointwise_matrix(_fold(GRID.frequencies) + 0j, GRID, lambda v: v[..., ::2])


def test_hermitian_defect_per_row():
    full = _unfold(random_band_limited(GRID, decay=1.0, band=40, seed=2).modes)
    rows = np.stack([full, full * 1j, full])
    defects = hermitian_defect(rows)
    assert defects.shape == (3,)
    assert defects[0] == defects[2] == hermitian_defect(full) < 1e-12
    assert defects[1] > 1e-3
    assert list(spectral.hermitian_breaks(rows)) == [False, True, False]


@pytest.mark.parametrize("shape", [(8,), (130,), (3, 64), (2, 5, 36)])
def test_conjugate_mirror_is_exactly_hermitian(shape):
    rng = np.random.default_rng(sum(shape))
    h = shape[-1] // 2
    half = rng.standard_normal(shape[:-1] + (h + 1,)) \
        + 1j * rng.standard_normal(shape[:-1] + (h + 1,))
    before = half.copy()
    # the end modes keep their real parts; the others are untouched
    assert spectral._real_ends(half) is half
    _assert_same_bytes(half[..., 1:h], before[..., 1:h])
    for j in (0, h):
        _assert_same_bytes(half[..., j].real, before[..., j].real)
        assert np.all(half[..., j].imag == 0.0) and not np.any(np.signbit(half[..., j].imag))
    # unfolding mirrors the modes 0 < k < N/2 and folds back to the half
    full = _unfold(half)
    assert full.shape == shape and np.all(hermitian_defect(full) == 0.0)
    _assert_same_bytes(full, _reference_full_band(before))
    _assert_same_bytes(_fold(full), half)
