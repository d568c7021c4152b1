"""Single-time norms: closed forms, conjugation, dispatch."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gkdvlab.norms import (
    NormSpec,
    besov_norm,
    holder_conjugate,
    lebesgue_norm,
    lhat_norm,
    lhat_rows,
    norm,
    sobolev_norm,
    weighted_norm,
)
from gkdvlab.spectral import (
    Grid1D,
    SpectralField,
    forward_transform,
    gaussian_profile,
    random_band_limited,
)

GRID = Grid1D(64.0, 256)


def _single_mode(grid, index):
    c = np.zeros(grid.size, dtype=complex)
    c[index] = 1.0
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
    f = _single_mode(GRID, GRID.size // 2 + 17)
    for r in (1.0, 1.5, 2.0, 4.0, math.inf):
        rp = holder_conjugate(r)
        expect = GRID.dxi ** (1.0 / rp) if rp != math.inf else 1.0
        assert lhat_norm(f, r) == pytest.approx(expect, rel=1e-12)


def test_lhat_2_is_plancherel():
    f = gaussian_profile(GRID, 0.8)
    l2 = math.sqrt(np.sum(np.abs(f.values()) ** 2) * GRID.dx)
    assert lhat_norm(f, 2.0) == pytest.approx(l2, rel=1e-10)
    assert sobolev_norm(f, 0.0) == pytest.approx(l2, rel=1e-10)


def test_sobolev_single_mode():
    mid = GRID.size // 2
    f = _single_mode(GRID, mid + 8)
    xi = 8 * GRID.dxi
    assert sobolev_norm(f, 0.75) == pytest.approx(
        xi ** 0.75 * math.sqrt(GRID.dxi), rel=1e-12)
    # zero mode carries no homogeneous smoothness
    assert sobolev_norm(_single_mode(GRID, mid), 0.5) == 0.0


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
    c = np.where((np.abs(grid.frequencies) >= 2.5) & (np.abs(grid.frequencies) < 3.5),
                 f.coeffs, 0.0)
    g = SpectralField(grid, c, True)
    l2 = math.sqrt(np.sum(np.abs(c) ** 2) * grid.dxi)
    for s in (-0.5, 0.0, 0.5):
        for q in (1.0, 2.0, math.inf):
            val = besov_norm(g, s, q)
            # shell center 3 sits in blocks k in {0, 1, 2} at most
            assert val == pytest.approx(l2 * 3.0 ** s, rel=0.8)
    assert besov_norm(g, 0.0, math.inf) <= besov_norm(g, 0.0, 1.0) + 1e-12


def test_besov_zero_field():
    f = SpectralField(GRID, np.zeros(GRID.size, dtype=complex))
    assert besov_norm(f, 0.5, 2.0) == 0.0


def test_norm_dispatch_matches_direct():
    f = gaussian_profile(GRID, 0.6)
    assert norm(f, NormSpec.lhat(3.0)) == lhat_norm(f, 3.0)
    assert norm(f, NormSpec.sobolev(0.5)) == sobolev_norm(f, 0.5)
    assert norm(f, NormSpec.besov(0.25, 2.0)) == besov_norm(f, 0.25, 2.0)
    assert norm(f, NormSpec.weighted(1.0)) == weighted_norm(f, 1.0)
    assert norm(f, NormSpec.lebesgue(4.0)) == lebesgue_norm(f, 4.0)


def test_norm_dispatch_validation():
    f = gaussian_profile(GRID, 0.6)
    with pytest.raises(ValueError):
        NormSpec("unknown")
    with pytest.raises(ValueError):
        norm(f, NormSpec("lhat"))
    assert NormSpec.besov(0.25, 2.0).label() == "besov(s=0.25,q=2)"


def test_scaling_of_norms_under_amplitude():
    f = forward_transform(np.cos(GRID.points) * np.exp(-GRID.points ** 2 / 9.0), GRID)
    g = SpectralField(GRID, 3.0 * f.coeffs, f.is_real)
    for spec in (NormSpec.lhat(2.5), NormSpec.sobolev(0.4),
                 NormSpec.weighted(0.5), NormSpec.lebesgue(3.0)):
        assert norm(g, spec) == pytest.approx(3.0 * norm(f, spec), rel=1e-12)


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
    mags = np.abs(coeffs)
    # the vectorised copies in the solver: one axis sum, numpy's array power
    former = np.max(mags, axis=1) if rp == math.inf \
        else (np.sum(mags ** rp, axis=1) * grid.dxi) ** (1.0 / rp)
    assert lhat_rows(coeffs, grid.dxi, r).tobytes() == former.tobytes()
    # the per-row copies and lhat_norm: a row on its own takes Python's power
    for row in coeffs:
        mags = np.abs(row)
        former = float(np.max(mags)) if rp == math.inf \
            else float(np.sum(mags ** rp) * grid.dxi) ** (1.0 / rp)
        assert lhat_rows(row, grid.dxi, r) == former
        assert lhat_norm(SpectralField(grid, row), r) == former


def test_row_norms_overflow_to_infinity_quietly():
    coeffs = np.full((2, GRID.size), 1e250 + 0j)
    coeffs[1] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lhat_rows(coeffs, GRID.dxi, 3.0)
    assert got[0] == math.inf and math.isfinite(got[1])
