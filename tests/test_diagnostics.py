"""Scattering pullback, scaling invariance, monitoring, energy threshold."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gkdvlab.diagnostics import (
    boundary_mass_fraction,
    monitor,
    nonpositive_energy_amplitude,
    scaling_transform,
    scattering_state,
    spectral_tail_fraction,
)
from gkdvlab.norms import lhat_norm, sobolev_norm
from gkdvlab.solver import (
    NonlinearityG,
    SolverConfig,
    aux_smoothness,
    critical_exponent,
    glued_solve,
)
from gkdvlab.spacetime import TimeTrace, free_evolution, snorm
from gkdvlab.spectral import (
    Grid1D,
    SpectralField,
    forward_transform,
    _fold,
    gaussian_profile,
    random_band_limited,
)

GRID = Grid1D(64.0, 256)


def test_boundary_mass_fraction_extremes():
    centered = gaussian_profile(GRID, 1.0)
    assert boundary_mass_fraction(centered.values(), GRID) < 1e-12
    shifted = forward_transform(np.exp(-(GRID.points - 60.0) ** 2), GRID)
    assert boundary_mass_fraction(shifted.values(), GRID) > 0.5
    zero = SpectralField(GRID, np.zeros(GRID.size // 2 + 1, dtype=complex))
    assert boundary_mass_fraction(zero.values(), GRID) == 0.0


@settings(max_examples=60, deadline=None)
@given(half_size=st.integers(min_value=4, max_value=2048),
       rows=st.integers(min_value=0, max_value=9),
       zero_rows=st.sets(st.integers(min_value=0, max_value=8)),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_boundary_mass_fraction_matches_both_former_formulas_bytewise(
        half_size, rows, zero_rows, seed):
    # rows == 0 stands for a 1-d input: one field's samples, as monitor passes
    grid = Grid1D(16.0, 2 * half_size)
    vals = np.random.default_rng(seed).standard_normal((max(rows, 1), grid.size))
    vals[[m for m in zero_rows if m < len(vals)]] = 0.0
    edge = np.abs(grid.points) >= (1.0 - 0.1) * grid.half_length
    if rows == 0:
        one = vals[0]
        # the single-field formula: Python float sums over a boolean selection
        total = float(np.sum(np.abs(one) ** 2))
        want = 0.0 if total == 0.0 else float(np.sum(np.abs(one[edge]) ** 2)) / total
        got = boundary_mass_fraction(one, grid)
        assert isinstance(got, float) and got == want
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        return
    # the trace formula: row sums of the column selection, 0 for empty rows
    num = np.sum(np.abs(vals[:, edge]) ** 2, axis=1)
    den = np.sum(np.abs(vals) ** 2, axis=1)
    with np.errstate(invalid="ignore"):
        want = np.where(den > 0, num / den, 0.0)
    got = boundary_mass_fraction(vals, grid)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_spectral_tail_fraction():
    resolved = random_band_limited(GRID, decay=1.0, band=GRID.size // 4, seed=1)
    assert spectral_tail_fraction(resolved) == 0.0
    h = GRID.size // 2
    c = np.zeros(h + 1, dtype=complex)
    c[h - 1] = 1.0  # the pair +-(N/2 - 1), inside the outer shell
    assert spectral_tail_fraction(SpectralField(GRID, c)) == 1.0
    # the unpaired -N/2 mode counts once, the pair +-1 twice: a third in the shell
    c[h - 1], c[1], c[h] = 0.0, 1.0, 1.0
    assert spectral_tail_fraction(SpectralField(GRID, c)) == pytest.approx(1.0 / 3.0,
                                                                           rel=1e-15)


def test_scaling_preserves_critical_norms_exactly():
    alpha = 5.0
    f = random_band_limited(GRID, decay=1.0, band=GRID.size // 4, seed=2)
    rc = critical_exponent(alpha)
    for lam in (2.0, 0.5, 3.0):
        g = scaling_transform(f, lam, alpha)
        assert g.grid.half_length == GRID.half_length / lam
        assert lhat_norm(g, rc) == pytest.approx(lhat_norm(f, rc), rel=1e-13)
        # the critical Sobolev index for alpha = 5 is 0: plain mass
        assert sobolev_norm(g, 0.0) == pytest.approx(sobolev_norm(f, 0.0), rel=1e-13)


def test_scaling_critical_norm_other_alpha():
    alpha = 6.0  # critical smoothness 1/2 - 2/5 = 1/10
    f = random_band_limited(GRID, decay=1.0, band=GRID.size // 4, seed=3)
    s_crit = 0.5 - 2.0 / (alpha - 1.0)
    g = scaling_transform(f, 2.0, alpha)
    assert sobolev_norm(g, s_crit) == pytest.approx(sobolev_norm(f, s_crit), rel=1e-12)


def test_scaling_refuses_under_resolved_data():
    c = np.zeros(GRID.size // 2 + 1, dtype=complex)
    c[-2] = 1.0  # the pair +-(N/2 - 1)
    with pytest.raises(ValueError):
        scaling_transform(SpectralField(GRID, c), 2.0, 5.0)
    with pytest.raises(ValueError):
        scaling_transform(gaussian_profile(GRID, 1.0), -1.0, 5.0)


def test_free_flow_pullback_residuals_vanish():
    f = random_band_limited(GRID, decay=1.0, band=40, seed=4)
    trace = free_evolution(f, np.linspace(0.0, 8.0, 257))
    report = scattering_state(trace, 5.0, levels=3)
    assert report.checkpoint_times == [1.0, 2.0, 4.0, 8.0]
    assert all(res < 1e-13 for res in report.residuals)
    assert report.final_norm == pytest.approx(lhat_norm(f, 2.0), rel=1e-12)
    # the free flow's pullback is its datum, a real field
    np.testing.assert_allclose(report.final_state.modes, f.modes, rtol=0, atol=1e-13)


def test_scattering_checkpoint_snapping():
    f = gaussian_profile(GRID, 0.1)
    trace = free_evolution(f, np.linspace(0.0, 64.0, 129))
    report = scattering_state(trace, 5.0, levels=4)
    assert report.checkpoint_times == [4.0, 8.0, 16.0, 32.0, 64.0]
    with pytest.raises(ValueError):
        scattering_state(trace, 5.0, direction="sideways")
    with pytest.raises(ValueError):
        scattering_state(trace, 5.0, direction="backward")


def test_scattering_needs_enough_checkpoints():
    f = gaussian_profile(GRID, 0.1)
    trace = free_evolution(f, np.array([0.0, 64.0]))
    # snapping collapses the dyadic targets onto too few distinct samples
    with pytest.raises(ValueError):
        scattering_state(trace, 5.0, levels=4)


def test_rigid_translation_snorm_grows_like_dyadic_root():
    # |u(t)| a rigidly translating profile with period 8 on this box: over
    # whole periods the time quadrature is exactly proportional to T, so
    # snorm picks up exactly 2^{1/q} per interval doubling (1/q = 1/10 at
    # the scattering pair for alpha = 5)
    grid = Grid1D(4.0, 64)
    f = random_band_limited(grid, decay=1.5, band=12, seed=5)
    spans = (8.0, 16.0, 32.0)
    norms = []
    for span in spans:
        times = np.linspace(0.0, span, int(span * 16) + 1)
        phases = np.exp(-1j * np.outer(times, _fold(grid.frequencies)))  # speed 1
        trace = TimeTrace(grid, times, phases * f.modes[None, :])
        norms.append(snorm(trace, 2.0))
    assert norms[1] / norms[0] == pytest.approx(2.0 ** 0.1, rel=1e-10)
    assert norms[2] / norms[1] == pytest.approx(2.0 ** 0.1, rel=1e-10)


def test_monitor_on_a_short_run():
    G = NonlinearityG(alpha=5.0, mu=1.0)
    # keep the horizon short: by t = 2 real radiation from this datum
    # reaches the edge of a 64-box and trips the taint flag
    u0 = gaussian_profile(GRID, 0.05)
    cfg = SolverConfig(grid=GRID, t_end=1.0)
    glued = glued_solve(u0, G, cfg, segment_length=0.5)
    report = monitor(glued.trace, G)
    assert len(report.entries) == 5  # dyadic defaults
    assert not report.tainted
    ts = [e.t for e in report.entries]
    assert ts == sorted(ts)
    sn = [e.snorm_to_t for e in report.entries]
    assert all(b >= a for a, b in zip(sn, sn[1:]))  # cumulative in time
    for e in report.entries:
        assert e.mass_drift < 1e-10
        assert e.energy_drift < 1e-8
        assert set(e.lhat) == {"1.8", "2.5"}
        assert set(e.sobolev) == {"0.5", "1"}
    doc = report.to_dict()
    assert doc["tainted"] is False
    assert len(doc["entries"]) == 5


def test_monitor_explicit_checkpoints():
    G = NonlinearityG(alpha=5.0, mu=0.0)
    f = random_band_limited(GRID, decay=1.0, band=GRID.size // 4, seed=6)
    trace = free_evolution(f, np.linspace(0.0, 1.0, 65))
    report = monitor(trace, G, checkpoint_times=[0.5, 1.0])
    assert [e.t for e in report.entries] == [0.5, 1.0]
    # the free flow conserves every lhat norm
    for e in report.entries:
        assert e.lhat["2.5"] == pytest.approx(lhat_norm(f, 2.5), rel=1e-12)


def test_nonpositive_energy_amplitude_closed_form():
    # unit-width gaussian, mu = -1: E(a) = 0 at a = (3 sqrt(3) / 2)^{1/4}
    grid = Grid1D(64.0, 512)
    profile = gaussian_profile(grid, 1.0)
    G = NonlinearityG(alpha=5.0, mu=-1.0)
    a_star = nonpositive_energy_amplitude(profile, G)
    assert a_star == pytest.approx((1.5 * math.sqrt(3.0)) ** 0.25, rel=1e-8)
    from gkdvlab.solver import energy
    assert energy(SpectralField(grid, a_star * profile.modes), G) <= 0.0
    assert energy(SpectralField(grid, 0.999 * a_star * profile.modes), G) > 0.0


def test_nonpositive_energy_amplitude_validation():
    profile = gaussian_profile(GRID, 1.0)
    with pytest.raises(ValueError):
        nonpositive_energy_amplitude(profile, NonlinearityG(alpha=5.0, mu=1.0))
    zero = SpectralField(GRID, np.zeros(GRID.size // 2 + 1, dtype=complex))
    with pytest.raises(ValueError):
        nonpositive_energy_amplitude(zero, NonlinearityG(alpha=5.0, mu=-1.0))
