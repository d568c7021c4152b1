"""Single-time norms: closed forms, conjugation, homogeneity."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gkdvlab.norms import (
    band_sum,
    besov_norm,
    holder_conjugate,
    lebesgue_norm,
    lhat_norm,
    lhat_rows,
    sobolev_norm,
    weighted_norm,
    weighted_power_sum,
)
from gkdvlab.spectral import (
    Grid1D,
    SpectralField,
    _fold,
    forward_transform,
    gaussian_profile,
    random_band_limited,
)

GRID = Grid1D(64.0, 256)


def _single_mode(grid, k):
    """The real field with half-spectrum entry k equal to 1: the pair +-k for
    0 < k < N/2, the zero mode for k = 0, the unpaired -N/2 mode for k = N/2."""
    c = np.zeros(grid.size // 2 + 1, dtype=complex)
    c[k] = 1.0
    return SpectralField(grid, c)


def test_holder_conjugate_table():
    assert holder_conjugate(1.0) == math.inf
    assert holder_conjugate(math.inf) == 1.0
    assert holder_conjugate(2.0) == 2.0
    assert holder_conjugate(4.0) == pytest.approx(4.0 / 3.0)
    with pytest.raises(ValueError):
        holder_conjugate(0.5)


@given(st.floats(min_value=1.0 + 1e-9, max_value=1e6))
def test_holder_conjugate_involution(r):
    assert holder_conjugate(holder_conjugate(r)) == pytest.approx(r, rel=1e-9)


def test_lhat_single_mode_closed_form():
    pair = _single_mode(GRID, 17)
    unpaired = _single_mode(GRID, GRID.size // 2)
    for r in (1.0, 1.5, 2.0, 4.0, math.inf):
        rp = holder_conjugate(r)
        expect = GRID.dxi ** (1.0 / rp) if rp != math.inf else 1.0
        assert lhat_norm(unpaired, r) == pytest.approx(expect, rel=1e-12)
        expect = (2.0 * GRID.dxi) ** (1.0 / rp) if rp != math.inf else 1.0
        assert lhat_norm(pair, r) == pytest.approx(expect, rel=1e-12)


def test_lhat_2_is_plancherel():
    f = gaussian_profile(GRID, 0.8)
    l2 = math.sqrt(np.sum(np.abs(f.values()) ** 2) * GRID.dx)
    assert lhat_norm(f, 2.0) == pytest.approx(l2, rel=1e-10)
    assert sobolev_norm(f, 0.0) == pytest.approx(l2, rel=1e-10)


def test_sobolev_single_mode():
    xi = 8 * GRID.dxi
    assert sobolev_norm(_single_mode(GRID, 8), 0.75) == pytest.approx(
        xi ** 0.75 * math.sqrt(2.0 * GRID.dxi), rel=1e-12)
    assert sobolev_norm(_single_mode(GRID, GRID.size // 2), 0.75) == pytest.approx(
        GRID.max_frequency ** 0.75 * math.sqrt(GRID.dxi), rel=1e-12)
    # zero mode carries no homogeneous smoothness
    assert sobolev_norm(_single_mode(GRID, 0), 0.5) == 0.0


def test_weighted_norm_matches_direct_sum():
    f = gaussian_profile(GRID, 1.0)
    direct = math.sqrt(np.sum((np.abs(GRID.points) ** 1.0 * np.abs(f.values())) ** 2)
                       * GRID.dx)
    assert weighted_norm(f, 1.0) == pytest.approx(direct, rel=1e-12)


def test_weighted_norm_negative_power_finite():
    f = gaussian_profile(GRID, 1.0)
    val = weighted_norm(f, -0.25)
    assert math.isfinite(val) and val > 0


def test_lebesgue_gaussian_closed_form():
    # ||exp(-x^2/2)||_p = (2 pi / p)^(1/(2p)) on the line; the p = 6 case
    # needs dx = 1/4 to push the lattice aliasing error below 1e-8
    f = gaussian_profile(Grid1D(64.0, 512), 1.0)
    for p in (1.0, 2.0, 6.0):
        expect = (2.0 * math.pi / p) ** (1.0 / (2.0 * p))
        assert lebesgue_norm(f, p) == pytest.approx(expect, rel=1e-8)
    assert lebesgue_norm(f, math.inf) == pytest.approx(1.0, rel=1e-12)


def test_besov_single_shell():
    # data supported in one dyadic shell: the sum collapses to one term
    grid = Grid1D(64.0, 512)
    f = random_band_limited(grid, decay=0.0, band=200, seed=2)
    xi = np.abs(_fold(grid.frequencies))
    c = np.where((xi >= 2.5) & (xi < 3.5), f.modes, 0.0)
    g = SpectralField(grid, c)
    l2 = math.sqrt(2.0 * np.sum(np.abs(c) ** 2) * grid.dxi)  # each mode with its mirror
    for s in (-0.5, 0.0, 0.5):
        for q in (1.0, 2.0, math.inf):
            val = besov_norm(g, s, q)
            # shell center 3 sits in blocks k in {0, 1, 2} at most
            assert val == pytest.approx(l2 * 3.0 ** s, rel=0.8)
    assert besov_norm(g, 0.0, math.inf) <= besov_norm(g, 0.0, 1.0) + 1e-12


def test_besov_zero_field():
    f = SpectralField(GRID, np.zeros(GRID.size // 2 + 1, dtype=complex))
    assert besov_norm(f, 0.5, 2.0) == 0.0


def test_scaling_of_norms_under_amplitude():
    f = forward_transform(np.cos(GRID.points) * np.exp(-GRID.points ** 2 / 9.0), GRID)
    g = SpectralField(GRID, 3.0 * f.modes)
    for evaluate in (lambda h: lhat_norm(h, 2.5), lambda h: sobolev_norm(h, 0.4),
                     lambda h: besov_norm(h, 0.25, 2.0), lambda h: weighted_norm(h, 0.5),
                     lambda h: lebesgue_norm(h, 3.0)):
        assert evaluate(g) == pytest.approx(3.0 * evaluate(f), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(half_size=st.integers(min_value=4, max_value=2048),
       rows=st.integers(min_value=1, max_value=9),
       r=st.sampled_from([1.0, 1.25, 2.0, 3.0, 4.0, math.inf]),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_row_norms_match_the_former_copies_bytewise(half_size, rows, r, seed):
    grid = Grid1D(48.0, 2 * half_size)
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-6.0, 3.0, size=(rows, 1))
    coeffs = scale * (rng.standard_normal((rows, grid.size))
                      + 1j * rng.standard_normal((rows, grid.size)))
    rp = holder_conjugate(r)
    # full bands (the complex arrays of the pullbacks and the counterexample)
    # take the former copies' plain sum, half-spectra the same sum with each
    # mode 0 < k < N/2 counted twice
    for rows_of, half in ((coeffs, False), (_fold(coeffs), True)):
        mags = np.abs(rows_of)
        # the vectorised copies in the solver: one axis sum, numpy's array power
        former = np.max(mags, axis=1) if rp == math.inf \
            else (band_sum(mags ** rp, half) * grid.dxi) ** (1.0 / rp)
        assert weighted_power_sum(mags, grid.dxi, rp, half).tobytes() == former.tobytes()
        if half:
            assert lhat_rows(rows_of, grid.dxi, r).tobytes() == former.tobytes()
        # the per-row copies and lhat_norm: a row on its own takes Python's power
        for row in rows_of:
            mags = np.abs(row)
            former = float(np.max(mags)) if rp == math.inf \
                else float(band_sum(mags ** rp, half) * grid.dxi) ** (1.0 / rp)
            assert weighted_power_sum(mags, grid.dxi, rp, half) == former
            if half:
                assert lhat_rows(row, grid.dxi, r) == former
                assert lhat_norm(SpectralField(grid, row), r) == former


def test_row_norms_overflow_to_infinity_quietly():
    coeffs = np.full((2, GRID.size // 2 + 1), 1e250 + 0j)
    coeffs[1] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lhat_rows(coeffs, GRID.dxi, 3.0)
    assert got[0] == math.inf and math.isfinite(got[1])
