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
from gkdvlab.norms import lhat_norm, sobolev_norm, weighted_power_sum
from gkdvlab.solver import (
    NonlinearityG,
    SolverConfig,
    aux_smoothness,
    critical_exponent,
    energy,
    glued_solve,
    picard_solve,
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

from full_band import unfold

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
       rows=st.integers(min_value=1, max_value=9),
       zero_rows=st.sets(st.integers(min_value=0, max_value=8)),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_boundary_mass_fraction_bits_do_not_depend_on_the_row_count(
        half_size, rows, zero_rows, seed):
    grid = Grid1D(16.0, 2 * half_size)
    vals = np.random.default_rng(seed).standard_normal((rows, grid.size))
    vals[[m for m in zero_rows if m < rows]] = 0.0
    got = boundary_mass_fraction(vals, grid)
    assert got.shape == (rows,)
    # each row alone (1-d, as monitor passes it) and in blocks of 1 to 4 rows,
    # as glued_solve takes them: the bits of the row inside the whole trace
    for m, row in enumerate(vals):
        alone = boundary_mass_fraction(row, grid)
        assert isinstance(alone, float)
        assert np.float64(alone).tobytes() == got[m].tobytes()
    for block in (1, 2, 3, 4):
        parts = [boundary_mass_fraction(vals[i:i + block], grid)
                 for i in range(0, rows, block)]
        assert np.concatenate(parts).tobytes() == got.tobytes()
    # the former trace formula, row sums of the fancy-indexed edge columns,
    # adds the same squares in another order: equal up to the rounding of a
    # sum of N positive terms, and 0 for empty rows
    edge = np.abs(grid.points) >= (1.0 - 0.1) * grid.half_length
    num = np.sum(np.abs(vals[:, edge]) ** 2, axis=1)
    den = np.sum(np.abs(vals) ** 2, axis=1)
    with np.errstate(invalid="ignore"):
        want = np.where(den > 0, num / den, 0.0)
    assert np.all((got == 0.0) == (want == 0.0))
    np.testing.assert_allclose(got, want, rtol=4 * grid.size * np.finfo(float).eps, atol=0)


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


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_pullbacks_match_the_full_band_formula(direction):
    # the half-lattice pullbacks, unfolded, are the full-band pullbacks
    # c exp(-i t xi^3) value for value; final_state makes the unpaired -N/2
    # mode real, the full band keeps its phase.  Backward, u on [-1, 0] is
    # the time reversal u(-t, -x) = v(t, x) of the forward solve v from
    # u0(-x), whose modes are the conjugates: the backward pullbacks of u at
    # -1/8 .. -1 are the conjugates of the forward pullbacks of v at 1/8 .. 1
    f = random_band_limited(GRID, decay=1.0, band=GRID.size // 2 - 1, seed=8)
    u0 = 0.2 * SpectralField(GRID, f.modes + 0.01)  # a nonzero unpaired mode
    cfg = SolverConfig(grid=GRID, t_end=1.0, samples_per_unit=32)
    G = NonlinearityG(alpha=5.0, mu=1.0)
    if direction == "forward":
        trace = picard_solve(u0, G, cfg).trace
        times, coeffs, sign = trace.times, trace.coeffs, 1.0
    else:
        trace = picard_solve(SpectralField(GRID, np.conj(u0.modes)), G, cfg).trace
        times, coeffs, sign = -trace.times[::-1], np.conj(trace.coeffs[::-1]), -1.0
    report = scattering_state(trace, 5.0, levels=3)
    assert report.checkpoint_times == [0.125, 0.25, 0.5, 1.0]
    idx = [int(np.flatnonzero(times == sign * t)[0]) for t in report.checkpoint_times]
    xi = GRID.frequencies
    full = unfold(coeffs[idx]) * np.exp(-1j * np.outer(times[idx], xi * xi * xi))
    final = full[-1]  # at t = 1 forward, t = -1 backward
    got = unfold(report.final_state.modes)
    if direction == "backward":
        got = np.conj(got)
    np.testing.assert_array_equal(got[1:], final[1:])
    assert got[0] == final[0].real and final[0].imag != 0.0
    norms = [weighted_power_sum(np.abs(b - a), GRID.dxi, 2.0) for a, b in zip(full, full[1:])]
    assert report.residuals == pytest.approx(norms, rel=1e-13)
    assert report.final_norm == pytest.approx(weighted_power_sum(np.abs(final), GRID.dxi, 2.0),
                                              rel=1e-13)


def test_scattering_checkpoint_snapping():
    f = gaussian_profile(GRID, 0.1)
    trace = free_evolution(f, np.linspace(0.0, 64.0, 129))
    report = scattering_state(trace, 5.0, levels=4)
    assert report.checkpoint_times == [4.0, 8.0, 16.0, 32.0, 64.0]
    # scattering is forward: a trace that ends at t <= 0 has nothing to show
    with pytest.raises(ValueError, match="positive times"):
        scattering_state(free_evolution(f, np.linspace(-64.0, 0.0, 129)), 5.0, levels=4)


def test_checkpoints_of_a_trace_through_zero_are_positive():
    # the targets are T/2^levels .. T of the last time T: a trace that
    # starts before 0 is not read as a backward run
    trace = free_evolution(gaussian_profile(GRID, 0.1), np.linspace(-1.0, 1.0, 65))
    report = scattering_state(trace, 5.0, levels=3)
    assert report.checkpoint_times == [0.125, 0.25, 0.5, 1.0]


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
    # the dyadic checkpoints t0 + span/16 .. t0 + span, each a sample time
    G = NonlinearityG(alpha=5.0, mu=0.0)
    f = random_band_limited(GRID, decay=1.0, band=GRID.size // 4, seed=6)
    trace = free_evolution(f, np.linspace(0.5, 1.5, 65))
    report = monitor(trace, G)
    assert [e.t for e in report.entries] == [0.5625, 0.625, 0.75, 1.0, 1.5]
    # the free flow conserves every lhat norm
    for e in report.entries:
        assert e.lhat["2.5"] == pytest.approx(lhat_norm(f, 2.5), rel=1e-12)


def test_nonpositive_energy_amplitude_closed_form():
    # unit-width gaussian, mu = -1: E(a) = 0 at a = (3 sqrt(3) / 2)^{1/4}
    grid = Grid1D(64.0, 512)
    profile = gaussian_profile(grid, 1.0)
    G = NonlinearityG(alpha=5.0, mu=-1.0)
    a_star = nonpositive_energy_amplitude(profile, G)
    assert a_star == pytest.approx((1.5 * math.sqrt(3.0)) ** 0.25, rel=1e-12)
    assert energy(SpectralField(grid, a_star * profile.modes), G) <= 0.0
    assert energy(SpectralField(grid, 0.999 * a_star * profile.modes), G) > 0.0


@pytest.mark.parametrize("alpha", [4.5, 5.0, 7.0])
@pytest.mark.parametrize("mu", [-1.0, -0.25])
@pytest.mark.parametrize("width", [1.0, 2.0])
def test_nonpositive_energy_amplitude_of_gaussians(alpha, mu, width):
    # width w: K = sqrt(pi) / (4 w), P = w sqrt(2 pi / (alpha + 1)), so
    # A^(alpha-1) = -(alpha+1)^(3/2) / (4 sqrt(2) mu w^2)
    profile = gaussian_profile(Grid1D(64.0, 512), 1.0, width)
    G = NonlinearityG(alpha=alpha, mu=mu)
    a_star = nonpositive_energy_amplitude(profile, G)
    exact = (-(alpha + 1.0) ** 1.5 / (4.0 * math.sqrt(2.0) * mu * width ** 2)) \
        ** (1.0 / (alpha - 1.0))
    assert a_star == pytest.approx(exact, rel=1e-12)
    assert energy(a_star * profile, G) <= 0.0
    assert energy((1.0 - 1e-9) * a_star * profile, G) > 0.0


def test_nonpositive_energy_amplitude_validation():
    profile = gaussian_profile(GRID, 1.0)
    with pytest.raises(ValueError):
        nonpositive_energy_amplitude(profile, NonlinearityG(alpha=5.0, mu=1.0))
    zero = SpectralField(GRID, np.zeros(GRID.size // 2 + 1, dtype=complex))
    with pytest.raises(ValueError):
        nonpositive_energy_amplitude(zero, NonlinearityG(alpha=5.0, mu=-1.0))
