"""Contraction solver, reference integrator, conservation, gluing."""

import gc
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gkdvlab import solver, spacetime, spectral
from gkdvlab.norms import band_sum, holder_conjugate, lhat_rows
from gkdvlab.solver import (
    FieldStack,
    NonlinearityG,
    NumericalBlowupError,
    SolverConfig,
    _size_norms,
    aux_smoothness,
    critical_exponent,
    energy,
    free_smallness,
    glued_solve,
    mass,
    picard_solve,
    reference_solve,
    retarded_integral,
)
from gkdvlab.spacetime import TimeTrace, free_evolution, snorm, xnorm
from gkdvlab.spectral import (
    Grid1D,
    SpectralField,
    _fold,
    _real_ends,
    apply_pointwise_matrix,
    coeffs_to_values,
    gaussian_profile,
    hermitian_defect,
    random_band_limited,
)

from full_band import unfold

GRID = Grid1D(64.0, 256)
G5 = NonlinearityG(alpha=5.0, mu=1.0)


def _sup_l2(a, b, grid):
    """Sup over rows of the L^2 distance of two real traces' half-spectra."""
    return float(np.max(np.sqrt(band_sum(np.abs(a - b) ** 2, half=True) * grid.dxi)))


def test_critical_exponents():
    assert critical_exponent(5.0) == 2.0
    assert critical_exponent(7.0) == 3.0
    assert aux_smoothness(5.0) == 0.5
    with pytest.raises(ValueError):
        aux_smoothness(100.0)


def test_free_flow_recovered_when_uncoupled():
    # band-limited datum: the unpaired Nyquist mode is empty, so the
    # mu = 0 dynamics is the free flow to round-off in both solvers
    f = random_band_limited(GRID, decay=1.0, band=GRID.size // 4, seed=3)
    u0 = SpectralField(GRID, 0.3 * f.modes)
    G0 = NonlinearityG(alpha=5.0, mu=0.0)
    cfg = SolverConfig(grid=GRID, samples_per_unit=32)
    res = picard_solve(u0, G0, cfg)
    assert res.converged
    free = free_evolution(u0, cfg.times())
    assert _sup_l2(res.trace.coeffs, free.coeffs, GRID) < 1e-13
    ref = reference_solve(u0, G0, cfg)
    assert _sup_l2(ref.coeffs, free.coeffs, GRID) < 1e-12


def test_zero_datum():
    u0 = SpectralField(GRID, np.zeros(GRID.size // 2 + 1, dtype=complex))
    res = picard_solve(u0, G5, SolverConfig(grid=GRID, samples_per_unit=16))
    assert res.converged
    assert res.epsilon == 0.0
    assert np.all(res.trace.coeffs == 0.0)


def test_smallness_gate_declines_large_data():
    u0 = gaussian_profile(GRID, 5.0)
    res = picard_solve(u0, G5, SolverConfig(grid=GRID, samples_per_unit=16))
    assert not res.converged
    assert res.iterations == 0
    assert "gate" in res.reason
    assert res.epsilon > res.delta


def test_contraction_on_small_gaussian():
    u0 = gaussian_profile(GRID, 0.05)
    cfg = SolverConfig(grid=GRID)
    res = picard_solve(u0, G5, cfg)
    assert res.converged
    assert res.contraction_factors
    assert max(res.contraction_factors) <= 0.5
    diagnostics = solver.solve_diagnostics(res.trace, u0, G5, cfg, res.epsilon)
    assert diagnostics["mass_drift"] < 1e-8
    assert diagnostics["energy_drift"] < 1e-6
    assert not diagnostics["boundary_tainted"]


def test_first_update_is_exactly_quintic_in_amplitude():
    # the flux is 5-homogeneous and every other operation linear, so the
    # first Picard update scales as amplitude^5 exactly
    cfg = SolverConfig(grid=GRID, samples_per_unit=32)
    dists = []
    for amp in (0.02, 0.04):
        res = picard_solve(gaussian_profile(GRID, amp), G5, cfg)
        dists.append(res.update_distances[0])
    assert dists[1] / dists[0] == pytest.approx(2.0 ** 5, rel=1e-9)


def test_picard_matches_reference():
    u0 = gaussian_profile(GRID, 0.05)
    cfg = SolverConfig(grid=GRID)
    pic = picard_solve(u0, G5, cfg)
    ref = reference_solve(u0, G5, cfg)
    assert _sup_l2(pic.trace.coeffs, ref.coeffs, GRID) < 1e-6


def test_reference_self_convergence_is_fourth_order():
    # step sizes small enough that h * xi_max^3 is order one; coarser steps
    # sit in a pre-asymptotic regime where the oscillatory error constant
    # is not yet settled
    u0 = gaussian_profile(GRID, 0.4)
    base = dict(grid=GRID, samples_per_unit=4, t_end=1.0)
    c1 = reference_solve(u0, G5, SolverConfig(**base, reference_dt=1 / 64)).coeffs
    c2 = reference_solve(u0, G5, SolverConfig(**base, reference_dt=1 / 128)).coeffs
    c3 = reference_solve(u0, G5, SolverConfig(**base, reference_dt=1 / 256)).coeffs
    e12 = _sup_l2(c1, c2, GRID)
    e23 = _sup_l2(c2, c3, GRID)
    assert 11.0 < e12 / e23 < 22.0


def test_rejects_complex_data():
    # a one-sided band is no real field's half-spectrum: it cannot be built
    c = np.zeros(GRID.size, dtype=complex)
    c[GRID.size // 2 + 3] = 1.0
    with pytest.raises(ValueError, match="N/2 \\+ 1 modes in rfft layout"):
        picard_solve(SpectralField(GRID, c), G5, SolverConfig(grid=GRID))


def test_alpha_range_guard():
    u0 = gaussian_profile(GRID, 0.02)
    cfg = SolverConfig(grid=GRID, samples_per_unit=16)
    with pytest.raises(ValueError):
        picard_solve(u0, NonlinearityG(alpha=4.0, mu=1.0), cfg)
    cfg_x = SolverConfig(grid=GRID, samples_per_unit=16, exploratory=True)
    with pytest.warns(UserWarning):
        res = picard_solve(u0, NonlinearityG(alpha=4.0, mu=1.0), cfg_x)
    assert res.converged
    # far outside even the exploratory window
    with pytest.raises(ValueError):
        picard_solve(u0, NonlinearityG(alpha=2.0, mu=1.0), cfg_x)


def test_size_norms_are_snorm_plus_xnorm_bytewise():
    f = random_band_limited(GRID, decay=1.0, band=GRID.size // 4, seed=2)
    trace = free_evolution(0.1 * f, SolverConfig(grid=GRID, samples_per_unit=32).times())
    rc = critical_exponent(5.0)
    checked = snorm(trace, rc) + xnorm(trace, aux_smoothness(5.0), rc)
    assert sum(_size_norms(trace, 5.0)).hex() == checked.hex()


def test_free_smallness_monotone_in_amplitude():
    cfg = SolverConfig(grid=GRID, samples_per_unit=16)
    eps1 = free_smallness(gaussian_profile(GRID, 0.05), G5, cfg)
    eps2 = free_smallness(gaussian_profile(GRID, 0.10), G5, cfg)
    assert eps2 == pytest.approx(2.0 * eps1, rel=1e-12)  # norms are 1-homogeneous


def test_glued_matches_single_shot():
    u0 = gaussian_profile(GRID, 0.05)
    cfg = SolverConfig(grid=GRID)
    single = picard_solve(u0, G5, cfg)
    glued = glued_solve(u0, G5, cfg, segment_length=0.25, store_stride=1)
    assert glued.converged
    assert len(glued.segments) == 4
    np.testing.assert_array_equal(glued.trace.times, single.trace.times)
    assert _sup_l2(glued.trace.coeffs, single.trace.coeffs, GRID) < 1e-7


def test_glued_trace_is_strictly_increasing_and_strided():
    u0 = gaussian_profile(GRID, 0.05)
    cfg = SolverConfig(grid=GRID, t_end=2.0)
    glued = glued_solve(u0, G5, cfg, segment_length=1.0, store_stride=4)
    assert np.all(np.diff(glued.trace.times) > 0)
    assert glued.trace.times[0] == 0.0
    assert glued.trace.times[-1] == 2.0
    for seg in glued.segments:
        assert seg["mass_drift"] < 1e-8


@pytest.mark.parametrize("stride", [0, -64])
def test_store_stride_below_one_is_refused(stride):
    u0 = gaussian_profile(GRID, 0.05)
    cfg = SolverConfig(grid=GRID, t_end=0.25)
    for solve in (glued_solve, reference_solve):
        with pytest.raises(ValueError, match=f"store_stride must be >= 1, got {stride}"):
            solve(u0, G5, cfg, store_stride=stride)


def test_glued_solve_refuses_an_infinite_end_time():
    # each segment would converge, so the segment loop would never end
    cfg = SolverConfig(grid=GRID, t_end=math.inf)
    with pytest.raises(ValueError, match="finite end time"):
        glued_solve(gaussian_profile(GRID, 0.05), G5, cfg)


def test_mass_energy_closed_forms():
    # unit-width gaussian a exp(-x^2/2): mass = a^2 sqrt(pi),
    # energy = a^2 sqrt(pi)/4 + (mu/6) a^6 sqrt(pi/3)
    grid = Grid1D(64.0, 512)
    a = 0.7
    u = gaussian_profile(grid, a)
    assert mass(u) == pytest.approx(a ** 2 * math.sqrt(math.pi), rel=1e-10)
    for mu in (1.0, -1.0):
        G = NonlinearityG(alpha=5.0, mu=mu)
        expect = (a ** 2 * math.sqrt(math.pi) / 4.0
                  + (mu / 6.0) * a ** 6 * math.sqrt(math.pi / 3.0))
        assert energy(u, G, pad=3) == pytest.approx(expect, rel=1e-10)


# The real-field kernels as they were when traces stored full bands: the
# half-spectrum computation, mirrored onto the full band by the two helpers
# below.  Unfolded half-spectra must reproduce them bit for bit.  The
# dealiased map is the public one, given the folded band and unfolded, as
# the former full-band entry point did; test_spectral checks it bit for bit
# against its own reference.

def _full_band_map(full, grid, func, pad):
    return unfold(apply_pointwise_matrix(_fold(full), grid, func, pad=pad))


def _parent_mirror(full):
    half = full.shape[-1] // 2
    np.conjugate(full[..., :half:-1], out=full[..., 1:half])
    full[..., half].imag = 0.0
    full[..., 0].imag = 0.0
    return full


def _parent_mirrored_product(a, b):
    half = a.shape[-1] - 1
    shape = np.broadcast_shapes(a.shape, b.shape)[:-1] + (2 * half,)
    full = np.empty(shape, dtype=complex)
    np.multiply(a[..., :half], b[..., :half], out=full[..., half:])
    full[..., 0] = (a[..., half] * b[..., half]).real
    return _parent_mirror(full)


def _parent_table(grid, times, unit, half):
    # xi^3 as the product xi*xi*xi, which is odd bitwise, as the grid's plan
    # computes it; the array power xi**3 is not at some modes
    xi = grid.frequencies
    xi3 = xi * xi * xi
    return np.exp(unit * np.outer(times, _fold(xi3) if half else xi3))


def _parent_free(u0, grid, times, t0):
    """Full-band free trace of the full band u0."""
    return _parent_mirrored_product(_parent_table(grid, times - t0, 1j, True), _fold(u0))


def _parent_retarded(rows, grid, times):
    """Full-band retarded integral of the full-band rows of a real forcing.

    The phases are offsets from the first time, exp(i (t - t0) xi^3), and
    their conjugates; step k adds w g_k + conj(w) g_{k+1} with the solver's
    weight row w of the step.
    """
    up = _parent_table(grid, times - times[0], 1j, True)
    w = spacetime._phi2_weights(grid, (times[-1] - times[0]) / (times.size - 1))
    integrand = _fold(rows)
    np.multiply(np.conjugate(up), integrand, out=integrand)
    result = np.empty_like(integrand)
    result[0] = 0.0
    steps = np.add(np.conjugate(w) * integrand[1:], w * integrand[:-1], out=result[1:])
    np.cumsum(steps, axis=0, out=steps)
    return _parent_mirrored_product(up, result)


def _parent_duhamel(v, free, grid, times, G, pad, retarded=_parent_retarded):
    flux = _full_band_map(v, grid, G.apply_values, pad)
    np.multiply(1j * grid.frequencies, flux, out=flux)
    coeffs = retarded(flux, grid, times)
    np.multiply(G.mu, coeffs, out=coeffs)
    np.add(free, coeffs, out=coeffs)
    return coeffs


def _assert_equal_values(got, want):
    """Equal entry by entry, bit for bit but for the sign of exact zeros.

    The mirrored kernels add full bands, and -0 + 0 is +0: the k < 0 half of
    a sum is then not always the mirror of its k > 0 half where an entry is
    zero (at the first row of a Duhamel map, say).  An unfolded sum is.
    """
    assert got.shape == want.shape and np.array_equal(got, want)


def _phi(z, k):
    """phi_1 (k = 1) or phi_2 (k = 2) of complex z: (e^z - sum_{j<k} z^j/j!)/z^k.

    The formula where |z| >= 1, else its Taylor series sum_j z^j/(j+k)! to
    30 terms, on any array shape.
    """
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1.0
    big = np.where(small, 1.0, z)
    direct = (np.exp(big) - 1.0 - (k == 2) * big) / big ** k
    term = np.full(z.shape, 1.0 / math.factorial(k), dtype=complex)
    series = term.copy()
    for j in range(1, 30):
        term = term * z / (j + k)
        series += term
    return np.where(small, series, direct)


# The full-band retarded integral written directly: exact exponential
# quadrature of the forcing's linear interpolant on every mode, with phases
# and weights of its own, from the anchor times[j0].  The half-spectrum
# integral of the rows from j0 on reproduces those rows to round-off.

def _former_retarded(rows, grid, times, j0=0):
    xi3 = grid.frequencies ** 3
    h = np.diff(times)[:, None]
    down = np.exp(-1j * np.outer(times, xi3))
    integrand = down * rows
    w = h * _phi(-1j * h * xi3, 2)
    cumulative = np.zeros_like(integrand)
    increments = w * integrand[:-1] + np.conj(w) * integrand[1:]
    np.cumsum(increments, axis=0, out=cumulative[1:])
    cumulative -= cumulative[j0]
    result = np.conj(down) * cumulative
    result[:, 0] = result[:, 0].real
    return result


@pytest.mark.parametrize("per_unit", [4, 16, 128])
@pytest.mark.parametrize("linear", [False, True])
def test_retarded_integral_is_exact_for_forcings_linear_in_time(per_unit, linear):
    """F(t) = a + b (t - t0) per mode integrates to (a tau phi_1 + b tau^2 phi_2)(i tau xi^3),
    tau = t - t0: at every mode within 1e-12 of its largest value, up to xi^3 h = 62
    at 4 samples per unit.  The trapezoid rule erred by up to a third there."""
    grid = Grid1D(64.0, 256)
    times = SolverConfig(grid=grid, t_start=0.5, t_end=1.5, samples_per_unit=per_unit).times()
    rng = np.random.default_rng(per_unit)
    a, b = (_real_ends(rng.standard_normal((2, grid.size // 2 + 1))
                       + 1j * rng.standard_normal((2, grid.size // 2 + 1))))
    b = b if linear else 0.0 * b
    tau = (times - times[0])[:, None]
    got = retarded_integral(TimeTrace(grid, times, a + b * tau)).coeffs
    z = 1j * tau * spectral._plan(grid.half_length, grid.size).xi3
    want = _real_ends(a * tau * _phi(z, 1) + b * tau ** 2 * _phi(z, 2))
    err = np.max(np.abs(got - want), axis=0) / np.max(np.abs(want), axis=0)
    assert np.max(err) <= 1e-12


def _former_picard(u0, G, cfg, retarded=_former_retarded):
    """(final full-band coeffs, update distances) of the full-band iteration loop."""
    times = cfg.times()
    rp = holder_conjugate(critical_exponent(G.alpha))
    grid = u0.grid
    free = _parent_free(unfold(u0.modes), grid, times, cfg.t_start)
    v = free
    dists = []
    for _ in range(cfg.max_iterations):
        w = _parent_duhamel(v, free, grid, times, G, cfg.pad, retarded)
        per_row = (np.sum(np.abs(w - v) ** rp, axis=1) * grid.dxi) ** (1.0 / rp)
        dists.append(float(np.max(per_row)))
        v = w
        if dists[-1] <= cfg.tolerance:
            break
    return v, dists


def test_free_evolution_matches_the_full_band_kernel_bytewise():
    grid = Grid1D(32.0, 128)
    times = np.linspace(0.25, 1.25, 33)
    for u0 in (gaussian_profile(grid, 0.4), random_band_limited(grid, 1.0, 40, seed=5)):
        got = free_evolution(u0, times, t0=0.5)
        assert got.coeffs.shape == (times.size, grid.size // 2 + 1)
        want = _parent_free(unfold(u0.modes), grid, times, 0.5)
        assert unfold(got.coeffs).tobytes() == want.tobytes()
        assert _fold(want).tobytes() == got.coeffs.tobytes()


def _blocks_of(monkeypatch, rows, grid):
    """Make the row-blocked kernels take traces on grid rows rows at a time."""
    monkeypatch.setattr(spectral, "_BLOCK_BYTES", rows * 16 * (grid.size // 2 + 1))


@pytest.mark.parametrize("j0", [0, 5, 32])
def test_retarded_integral_matches_the_former_formula(j0, monkeypatch):
    _check_retarded_against_the_former_formula(j0, None, False, monkeypatch)


@pytest.mark.parametrize("block_rows, in_place", [(2, False), (None, True), (2, True)])
@pytest.mark.parametrize("j0", [0, 5, 32])
def test_retarded_integral_in_row_blocks_or_in_place_matches_the_former_formula(
        j0, block_rows, in_place, monkeypatch):
    _check_retarded_against_the_former_formula(j0, block_rows, in_place, monkeypatch)


def _check_retarded_against_the_former_formula(j0, block_rows, in_place, monkeypatch):
    grid = Grid1D(32.0, 128)
    whole = np.linspace(0.5, 2.5, 65)
    # the 33 rows from the former anchor whole[j0] on, integrated from their
    # first time; the half-spectrum, unfolded: the mirrored full-band kernel
    # bit for bit, the former formula anchored at j0 on the whole trace to
    # round-off (1e-13 of the largest coefficient), with real end modes; in
    # blocks of 2 of the 33 rows too, and formed in the forcing's own array
    times = whole[j0:j0 + 33]
    source = free_evolution(random_band_limited(grid, 1.0, 30, seed=j0), whole)
    forcing = TimeTrace(grid, times, source.coeffs[j0:j0 + 33].copy())
    rows = unfold(forcing.coeffs)
    if block_rows:
        _blocks_of(monkeypatch, block_rows, grid)
    got = retarded_integral(forcing, out=forcing.coeffs if in_place else None)
    assert (got.coeffs is forcing.coeffs) == in_place
    full = unfold(got.coeffs)
    assert full.tobytes() == _parent_retarded(rows, grid, times).tobytes()
    want = _former_retarded(unfold(source.coeffs), grid, whole, j0)[j0:j0 + 33]
    assert np.max(np.abs(full - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.all(got.coeffs[0] == 0.0)
    assert got.is_real and np.all(hermitian_defect(got.coeffs) == 0.0)


def test_duhamel_map_matches_the_full_band_kernel_bytewise(monkeypatch):
    _check_duhamel_against_the_full_band_kernel(None, monkeypatch)


def test_duhamel_map_in_row_blocks_matches_the_full_band_kernel_bytewise(monkeypatch):
    _check_duhamel_against_the_full_band_kernel(2, monkeypatch)


def _check_duhamel_against_the_full_band_kernel(block_rows, monkeypatch):
    grid = Grid1D(32.0, 128)
    cfg = SolverConfig(grid=grid, t_start=0.25, t_end=0.75, samples_per_unit=32)
    times, t0 = cfg.times(), cfg.t_start
    for mu in (1.0, -1.0):
        G = NonlinearityG(alpha=5.0, mu=mu)
        u0 = 0.8 * random_band_limited(grid, 1.0, 32, seed=9)
        free = free_evolution(u0, times, t0=t0)
        v = free_evolution(gaussian_profile(grid, 0.6), times, t0=t0)
        want = _parent_duhamel(unfold(v.coeffs), unfold(free.coeffs), grid, times,
                               G, cfg.pad)
        with monkeypatch.context() as patch:
            if block_rows:  # the 17 rows in blocks of 2
                _blocks_of(patch, block_rows, grid)
            got = solver.duhamel_map(v, u0, G, cfg)
        assert got.is_real
        _assert_equal_values(unfold(got.coeffs), want)


@pytest.mark.parametrize("mu", [1.0, -1.0])
def test_picard_solve_in_row_blocks_matches_the_whole_trace_loop_bytewise(mu, monkeypatch):
    """Update distances and iterates of picard_solve in blocks of 2 of its 33 rows.

    The reference is the loop on whole traces: the full-band Duhamel map and
    the distance max_m lhat(w - v) of the half-spectrum difference.
    """
    G = NonlinearityG(alpha=5.0, mu=mu)
    u0 = 1.5 * random_band_limited(GRID, decay=1.0, band=GRID.size // 4, seed=7)
    cfg = SolverConfig(grid=GRID, t_start=0.25, t_end=1.25, samples_per_unit=32)
    times = cfg.times()
    rc = critical_exponent(G.alpha)
    free = _parent_free(unfold(u0.modes), GRID, times, cfg.t_start)
    v, dists = free, []
    while not dists or dists[-1] > cfg.tolerance:
        w = _parent_duhamel(v, free, GRID, times, G, cfg.pad)
        dists.append(float(np.max(lhat_rows(_fold(w - v), GRID.dxi, rc))))
        v = w
    _blocks_of(monkeypatch, 2, GRID)
    res = picard_solve(u0, G, cfg)
    assert res.converged and res.update_distances == dists and len(dists) >= 3
    _assert_equal_values(unfold(res.trace.coeffs), v)


def _own_peak(call):
    """Bytes a call allocates above what is live when it starts, at its peak."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_trace_kernels_hold_their_result_and_a_few_blocks():
    """The work arrays of the trace kernels are block-sized on a long trace.

    257 rows at N = 4096 (8.4 MB of coefficients, 7 blocks): each kernel
    holds its result, or the (M, N) array of powers of mixed_norm, plus at
    most 4 pad blocks.  With whole-trace temporaries they peaked at 25 to
    34 MB.
    """
    grid = Grid1D(1024.0, 4096)
    cfg = SolverConfig(grid=grid, t_start=0.0, t_end=2.0)
    times = cfg.times()
    budget = 4 * cfg.pad * spectral._BLOCK_BYTES
    with spacetime._shared_tables():  # as in a Picard solve: the phase table is built
        v = free_evolution(gaussian_profile(grid, 0.05), times)
        assert len(spectral._row_blocks(v.coeffs)) > 4
        result = v.coeffs.nbytes
        powers = times.size * grid.size * 8
        assert _own_peak(lambda: apply_pointwise_matrix(v.coeffs, grid, G5.apply_values,
                                                        pad=cfg.pad)) <= result + budget
        assert _own_peak(lambda: spacetime.mixed_norm(v, 8.0, 4.0, 0.5)) <= powers + budget
        assert _own_peak(lambda: solver.duhamel_map(v, v.field(0), G5, cfg)) <= result + budget


def test_a_picard_step_holds_the_table_and_two_traces():
    """A Picard solve drops its free trace once the first map returns.

    257 rows at N = 4096, two iterations: the solve's own peak is its phase
    table, the iterate and the flux, plus at most 4 pad blocks.  Holding the
    free trace through every step, as a fourth trace, peaked above that.
    """
    grid = Grid1D(1024.0, 4096)
    cfg = SolverConfig(grid=grid, t_start=0.0, t_end=2.0, tolerance=0.0, max_iterations=2)
    u0 = gaussian_profile(grid, 0.05)
    trace = cfg.times().size * (grid.size // 2 + 1) * 16
    budget = 4 * cfg.pad * spectral._BLOCK_BYTES
    res = []
    assert _own_peak(lambda: res.append(picard_solve(u0, G5, cfg))) <= 3 * trace + budget
    assert res[0].iterations == 2 and res[0].trace.coeffs.nbytes == trace


def test_a_picard_loop_maps_in_one_work_buffer(monkeypatch):
    """Every iteration's pointwise map sees the same work buffer, and none outlives the solve."""
    cfg = SolverConfig(grid=GRID, t_start=0.0, t_end=1.0, tolerance=0.0, max_iterations=3)
    buffers = []

    def apply_values(self, values, out=None, _apply=NonlinearityG.apply_values):
        buffers.append(spectral._work.get())
        return _apply(self, values, out)

    monkeypatch.setattr(NonlinearityG, "apply_values", apply_values)
    res = picard_solve(gaussian_profile(GRID, 0.05), G5, cfg)
    assert res.iterations == 3 and len(buffers) == 3
    assert buffers[0] is not None and all(b is buffers[0] for b in buffers)
    assert spectral._work.get() is None


# Update distances are sums over the modes.  A real trace's are taken over
# its half-spectrum with the modes 0 < k < N/2 counted twice, so they match
# the full-band sums to round-off only: 1e-13 of each distance here (a few
# units in the last place measured).
DISTANCE_TOL = 1e-13


def _assert_same_distances(dists, want):
    assert len(dists) == len(want)
    assert all(abs(a - b) <= DISTANCE_TOL * b for a, b in zip(dists, want))


@pytest.mark.parametrize("mu", [1.0, -1.0])
def test_picard_and_glued_match_the_former_loop_bytewise(mu):
    G = NonlinearityG(alpha=5.0, mu=mu)
    f = random_band_limited(GRID, decay=1.0, band=GRID.size // 4, seed=7)
    u0 = SpectralField(GRID, 1.5 * f.modes)
    cfg = SolverConfig(grid=GRID, t_start=0.25, t_end=1.25, samples_per_unit=32)
    res = picard_solve(u0, G, cfg)
    coeffs, dists = _former_picard(u0, G, cfg, _parent_retarded)
    assert res.converged and res.iterations == len(dists) >= 3
    _assert_same_distances(res.update_distances, dists)
    _assert_equal_values(unfold(res.trace.coeffs), coeffs)
    _assert_near_the_former_loop(unfold(res.trace.coeffs), res.update_distances,
                                 *_former_picard(u0, G, cfg))

    glued = glued_solve(u0, G, cfg, segment_length=0.25, store_stride=1)
    assert glued.converged and len(glued.segments) == 4
    for k, seg in enumerate(glued.segments):
        rows = slice(8 * k, 8 * k + 9)
        datum = glued.trace.field(8 * k)
        seg_cfg = SolverConfig(grid=GRID, t_start=seg["t_start"], t_end=seg["t_end"],
                               samples_per_unit=32)
        coeffs, dists = _former_picard(datum, G, seg_cfg, _parent_retarded)
        assert seg["iterations"] == len(dists)
        _assert_equal_values(unfold(glued.trace.coeffs[rows]), coeffs)
        _assert_near_the_former_loop(unfold(glued.trace.coeffs[rows]), dists,
                                     *_former_picard(datum, G, seg_cfg))


def _assert_near_the_former_loop(coeffs, dists, former, former_dists):
    """Round-off agreement with the full-band retarded formula.

    Coefficients within 1e-13 of the largest, update distances within 1e-13
    of the first one (the last distances are themselves near round-off).
    """
    assert np.max(np.abs(coeffs - former)) <= 1e-13 * np.max(np.abs(former))
    assert len(dists) == len(former_dists)
    assert max(abs(a - b) for a, b in zip(dists, former_dists)) <= 1e-13 * former_dists[0]


def _record_tables(monkeypatch):
    """Every phase table handed out, with the number of tables the memo holds after the call.

    The memo's one-dimensional entries are weight rows, not tables.

    The list keeps the tables alive, so distinct ids are distinct builds;
    clear it before checking that nothing else keeps them.
    """
    made = []

    def recording(grid, times, unit, _table=spacetime._airy_table):
        table = _table(grid, times, unit)
        memo = spacetime._tables.get()
        made.append((table, None if memo is None else
                     sum(entry.ndim == 2 for entry in memo.values())))
        return table

    monkeypatch.setattr(spacetime, "_airy_table", recording)
    monkeypatch.setattr(solver, "_airy_table", recording)
    return made


def _assert_none_outlive(made):
    refs = [weakref.ref(table) for table, _ in made]
    made.clear()
    assert spacetime._tables.get() is None
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_no_phase_table_outlives_picard_solve(monkeypatch):
    made = _record_tables(monkeypatch)
    res = picard_solve(gaussian_profile(GRID, 0.05), G5,
                       SolverConfig(grid=GRID, t_start=0.5, t_end=1.5, samples_per_unit=32))
    assert res.iterations >= 2
    # the free trace, then per iteration the retarded integral and the free
    # term, all reading the one read-only table of offsets from the start
    assert len(made) == 1 + 2 * res.iterations
    assert len({id(t) for t, _ in made}) == 1
    assert not made[0][0].flags.writeable
    _assert_none_outlive(made)


def test_equal_dyadic_segments_share_one_phase_table(monkeypatch):
    made = _record_tables(monkeypatch)
    cfg = SolverConfig(grid=GRID, t_start=0.5, t_end=2.5, samples_per_unit=32)
    glued = glued_solve(gaussian_profile(GRID, 0.05), G5, cfg, segment_length=0.5)
    assert glued.converged and len(glued.segments) == 4
    assert len(made) == sum(1 + 2 * seg["iterations"] for seg in glued.segments)
    assert len({id(t) for t, _ in made}) == 1
    _assert_none_outlive(made)


def test_a_glued_run_holds_at_most_two_phase_tables(monkeypatch):
    # segment starts 0.1, 0.4, 0.7, ... are not dyadic: their offsets from
    # the start differ in the last bit, so segments need tables of their own
    made = _record_tables(monkeypatch)
    cfg = SolverConfig(grid=GRID, t_start=0.1, t_end=2.5, samples_per_unit=32)
    glued = glued_solve(gaussian_profile(GRID, 0.05), G5, cfg, segment_length=0.3)
    assert glued.converged and len(glued.segments) == 8
    assert len({id(t) for t, _ in made}) > 2
    assert max(held for _, held in made) == 2
    _assert_none_outlive(made)


@pytest.mark.parametrize("shift", [2.0, 64.0])
def test_free_and_retarded_traces_are_invariant_under_time_shifts(shift):
    # dyadic times: shifted times minus the shifted start are the offsets
    # of the unshifted ones bit for bit
    grid = Grid1D(32.0, 128)
    u0 = random_band_limited(grid, 1.0, 40, seed=6)
    whole = np.linspace(0.25, 1.25, 33)
    source = free_evolution(random_band_limited(grid, 1.0, 30, seed=8), whole)
    for start in (0, 5):
        times, t0 = whole[start:], whole[start]
        free = free_evolution(u0, times, t0=t0)
        moved = free_evolution(u0, times + shift, t0=t0 + shift)
        assert moved.coeffs.tobytes() == free.coeffs.tobytes()
        ret = retarded_integral(TimeTrace(grid, times, source.coeffs[start:]))
        moved = retarded_integral(TimeTrace(grid, times + shift, source.coeffs[start:]))
        assert moved.coeffs.tobytes() == ret.coeffs.tobytes()


def test_glued_segments_report_their_solve_diagnostics_bytewise():
    u0 = gaussian_profile(GRID, 0.4)
    cfg = SolverConfig(grid=GRID, t_start=0.25, t_end=1.25, samples_per_unit=32)
    glued = glued_solve(u0, G5, cfg, segment_length=0.25, store_stride=1)
    assert glued.converged and len(glued.segments) == 4
    for k, seg in enumerate(glued.segments):
        seg_cfg = replace(cfg, t_start=seg["t_start"], t_end=seg["t_end"])
        res = picard_solve(glued.trace.field(8 * k), G5, seg_cfg)
        assert res.trace.coeffs.tobytes() == glued.trace.coeffs[8 * k:8 * k + 9].tobytes()
        assert res.iterations == seg["iterations"]
        assert res.contraction_factors == seg["contraction_factors"]
        diagnostics = solver.solve_diagnostics(res.trace, res.trace.field(0), G5, seg_cfg,
                                               res.epsilon)
        assert diagnostics["mass_drift"] == seg["mass_drift"]
        assert diagnostics["boundary_mass_fraction"] == seg["boundary_mass_fraction"]


@pytest.mark.parametrize("block_rows", [1, 2, 3, 4])
def test_glued_boundary_fraction_in_row_blocks_matches_the_whole_segment_bytewise(
        block_rows, monkeypatch):
    # 9 rows per segment: blocks of 1, 2 and 4 leave row 8 alone
    u0 = gaussian_profile(GRID, 0.4)
    cfg = SolverConfig(grid=GRID, t_start=0.25, t_end=1.25, samples_per_unit=32)
    _blocks_of(monkeypatch, block_rows, GRID)
    glued = glued_solve(u0, G5, cfg, segment_length=0.25, store_stride=1)
    assert glued.converged and len(glued.segments) == 4
    for k, seg in enumerate(glued.segments):
        rows = glued.trace.coeffs[8 * k:8 * k + 9]
        assert len(spectral._row_blocks(rows)) > 1
        whole = solver.boundary_mass_fraction(coeffs_to_values(rows, GRID), GRID)
        assert seg["boundary_mass_fraction"] == float(np.max(whole))


def test_a_repeated_glued_run_is_byte_identical():
    u0 = gaussian_profile(GRID, 0.4)
    cfg = SolverConfig(grid=GRID, t_start=0.1, t_end=1.6, samples_per_unit=32)

    def run():
        glued = glued_solve(u0, G5, cfg, segment_length=0.3)
        return glued.trace.times.tobytes(), glued.trace.coeffs.tobytes(), glued.segments

    first = run()
    other = Grid1D(32.0, 128)
    picard_solve(gaussian_profile(other, 0.4), G5, replace(cfg, grid=other))
    assert run() == first


def _former_hermitian_project(c):
    out = np.empty_like(c)
    out[..., 0] = c[..., 0].real
    out[..., 1:] = 0.5 * (c[..., 1:] + np.conj(c[..., 1:][..., ::-1]))
    return out


# The reference scheme as first written: one datum, a 1-d coefficient array,
# conj(e_half) taken in every substep and an out-of-place averaging
# projection.  Stacked and single calls must agree bit for bit, and both
# reproduce it to round-off.

def _former_reference(u0, G, cfg):
    times, grid = cfg.times(), u0.grid
    xi = grid.frequencies
    xi3 = xi * xi * xi
    flux_multiplier = G.mu * 1j * xi

    def flux(c):
        return flux_multiplier * _full_band_map(c, grid, G.apply_values, cfg.pad)

    out = np.empty((times.size, grid.size), dtype=complex)
    c = unfold(u0.modes)
    out[0] = c
    for m in range(times.size - 1):
        span = times[m + 1] - times[m]
        nsub = max(1, math.ceil(span / cfg.reference_dt))
        h = span / nsub
        e_half = np.exp(1j * xi3 * (h / 2.0))
        e_full = e_half * e_half
        for _ in range(nsub):
            k1 = flux(c)
            k2 = np.conj(e_half) * flux(e_half * (c + (h / 2.0) * k1))
            k3 = np.conj(e_half) * flux(e_half * (c + (h / 2.0) * k2))
            k4 = np.conj(e_full) * flux(e_full * (c + h * k3))
            c = e_full * (c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
            c = _former_hermitian_project(c)
        out[m + 1] = c
    return out


def _parent_reference(data, G, cfg):
    """The stacked full-band scheme, mirrored after every substep; (k, M, N) rows."""
    times, grid = cfg.times(), data[0].grid
    flux_multiplier = G.mu * 1j * grid.frequencies

    def flux(c):
        return flux_multiplier * _full_band_map(c, grid, G.apply_values, cfg.pad)

    out = np.empty((len(data), times.size, grid.size), dtype=complex)
    c = np.stack([unfold(u.modes) for u in data])
    out[:, 0] = c
    h = None
    for m in range(times.size - 1):
        span = times[m + 1] - times[m]
        nsub = max(1, math.ceil(span / cfg.reference_dt))
        if span / nsub != h:
            h = span / nsub
            e_half = _parent_table(grid, np.array([h / 2.0]), 1j, False)[0]
            e_full = e_half * e_half
            back_half, back_full = np.conj(e_half), np.conj(e_full)
        for _ in range(nsub):
            k1 = flux(c)
            k2 = back_half * flux(e_half * (c + (h / 2.0) * k1))
            k3 = back_half * flux(e_half * (c + (h / 2.0) * k2))
            k4 = back_full * flux(e_full * (c + h * k3))
            c = _parent_mirror(e_full * (c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)))
        out[:, m + 1] = c
    return out


# reference_solve sizes its sample and fine-spectrum arrays by pad
@pytest.mark.parametrize("mu, pad", [(1.0, 2), (-1.0, 2), (1.0, 3), (-1.0, 3)],
                         ids=["1.0", "-1.0", "1.0-pad3", "-1.0-pad3"])
def test_reference_solve_rows_match_the_full_band_scheme_bytewise(mu, pad):
    grid = Grid1D(32.0, 128)
    G = NonlinearityG(alpha=5.0, mu=mu)
    cfg = SolverConfig(grid=grid, t_start=0.1, t_end=0.6, samples_per_unit=16,
                       reference_dt=0.005, pad=pad)
    data = [gaussian_profile(grid, 0.5), 0.4 * random_band_limited(grid, 1.0, 32, seed=3)]
    want = _parent_reference(data, G, cfg)
    for trace, rows in zip(reference_solve(data, G, cfg), want):
        assert trace.coeffs.shape == (cfg.times().size, grid.size // 2 + 1)
        for m in range(rows.shape[0]):
            assert unfold(trace.coeffs[m]).tobytes() == rows[m].tobytes()


@settings(max_examples=40, deadline=None)
@given(half_size=st.integers(min_value=4, max_value=128),
       rows=st.integers(min_value=1, max_value=4),
       reference_dt=st.sampled_from([1.0 / 64.0, 0.005]),
       mu=st.sampled_from([1.0, -1.0]),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_stacked_reference_solve_matches_single_calls_bytewise(half_size, rows,
                                                               reference_dt, mu, seed):
    n = 2 * half_size
    grid = Grid1D(n / 8.0, n)
    G = NonlinearityG(alpha=5.0, mu=mu)
    # the spans of linspace(0.1, 0.35, 5) differ in the last bit, so the
    # substep phases must follow the step of each interval
    cfg = SolverConfig(grid=grid, t_start=0.1, t_end=0.35, samples_per_unit=16,
                       reference_dt=reference_dt)
    rng = np.random.default_rng(seed)
    data = []
    for _ in range(rows):
        f = random_band_limited(grid, 1.0, max(1, n // 4), seed=int(rng.integers(2 ** 32)))
        data.append(SpectralField(grid, rng.uniform(0.05, 0.6) * f.modes))
    traces = reference_solve(data, G, cfg)
    assert len(traces) == rows
    for u0, trace in zip(data, traces):
        single = reference_solve(u0, G, cfg)
        assert trace.times.tobytes() == single.times.tobytes()
        assert trace.coeffs.tobytes() == single.coeffs.tobytes()
        assert np.all(hermitian_defect(single.coeffs) == 0.0)
        # the mirror replaced the averaging projection: round-off apart, within
        # 1e-13 of the largest coefficient (about 1e-15 measured)
        former = _former_reference(u0, G, cfg)
        assert np.max(np.abs(unfold(single.coeffs) - former)) \
            <= 1e-13 * np.max(np.abs(former))


@pytest.mark.parametrize("stride", [1, 3, 4])
def test_strided_reference_solve_keeps_the_stride_1_rows_bytewise(stride):
    grid = Grid1D(32.0, 128)
    G = NonlinearityG(alpha=5.0, mu=-1.0)
    # 11 samples: strides 3 and 4 keep the last one besides their multiples
    cfg = SolverConfig(grid=grid, t_end=0.625, samples_per_unit=16, reference_dt=1 / 64)
    data = [gaussian_profile(grid, 0.5), 0.4 * random_band_limited(grid, 1.0, 32, seed=3),
            gaussian_profile(grid, 0.3, 2.0)]
    idx = solver._strided_indices(cfg.times().size, stride)
    assert list(idx) == {1: list(range(11)), 3: [0, 3, 6, 9, 10], 4: [0, 4, 8, 10]}[stride]
    whole = reference_solve(data, G, cfg)
    kept = reference_solve(data, G, cfg, store_stride=stride)
    assert len(kept) == len(data)
    for w, k in zip(whole, kept):
        assert k.times.tobytes() == w.times[idx].tobytes()
        assert k.coeffs.tobytes() == w.coeffs[idx].tobytes()


def _blowup(u0, G, cfg, store_stride=1):
    with pytest.raises(NumericalBlowupError) as info:
        reference_solve(u0, G, cfg, store_stride=store_stride)
    return info.value


def test_a_strided_blowup_carries_the_kept_rows_before_the_failure():
    grid = Grid1D(16.0, 64)
    G = NonlinearityG(alpha=5.0, mu=-1.0)
    cfg = SolverConfig(grid=grid, t_end=1.0, samples_per_unit=16, reference_dt=1 / 32)
    small, late, early = (gaussian_profile(grid, a) for a in (0.5, 1.3, 1.4))
    kept_rows = []
    with np.errstate(over="ignore", invalid="ignore"):
        for u in (late, early):
            whole = _blowup(u, G, cfg)
            got = _blowup([small, u], G, cfg, store_stride=4)
            assert got.datum == 1 and str(got) == str(whole) and got.time == whole.time
            rows = np.arange(0, whole.trace.sample_count, 4)
            kept_rows.append(None if got.trace is None else got.trace.sample_count)
            if got.trace is not None:
                assert got.trace.times.tobytes() == whole.trace.times[rows].tobytes()
                assert got.trace.coeffs.tobytes() == whole.trace.coeffs[rows].tobytes()
    # late fails after t = 7/16 (rows 0 and 4 kept), early after 3/16 (row 0 only)
    assert kept_rows == [2, None]


def test_failing_rows_leave_the_stack_and_the_first_listed_failure_is_raised():
    grid = Grid1D(16.0, 64)
    G = NonlinearityG(alpha=5.0, mu=-1.0)
    cfg = SolverConfig(grid=grid, t_end=1.0, samples_per_unit=16, reference_dt=1 / 32)
    small, late, early = (gaussian_profile(grid, a) for a in (0.5, 1.3, 1.4))
    with np.errstate(over="ignore", invalid="ignore"):
        alone = {id(u): _blowup(u, G, cfg) for u in (late, early)}
        assert 0.0 < alone[id(early)].time < alone[id(late)].time
        # early fails first but late is listed first; small outlives both
        for stack, failing in (([small, late, early], 1), ([early, late], 0),
                               ([late, small], 0)):
            got = _blowup(stack, G, cfg)
            want = alone[id(stack[failing])]
            assert got.datum == failing and want.datum == 0
            assert str(got) == str(want) and got.time == want.time
            assert got.trace.times.tobytes() == want.trace.times.tobytes()
            assert got.trace.coeffs.tobytes() == want.trace.coeffs.tobytes()
    assert reference_solve([small], G, cfg)[0].coeffs.tobytes() \
        == reference_solve(small, G, cfg).coeffs.tobytes()


def test_field_stacks_need_real_data_on_one_grid():
    u = gaussian_profile(GRID, 0.1)
    assert FieldStack([u, u]).grid == GRID
    with pytest.raises(ValueError, match="at least one"):
        FieldStack([])
    with pytest.raises(ValueError, match="different grids"):
        reference_solve([u, gaussian_profile(Grid1D(32.0, 256), 0.1)], G5,
                        SolverConfig(grid=GRID))
    with pytest.raises(ValueError, match="rfft layout"):
        reference_solve([u, 1j * u], G5, SolverConfig(grid=GRID))


def test_real_kernels_return_exactly_hermitian_traces():
    grid = Grid1D(32.0, 128)
    times = np.linspace(0.0, 0.5, 17)
    data = [gaussian_profile(grid, 0.4),
            SpectralField(grid, 0.4 * random_band_limited(grid, 1.0, 40, seed=2).modes)]
    for u0 in data:
        free = free_evolution(u0, times)
        g_rows = apply_pointwise_matrix(free.coeffs, grid, G5.apply_values)
        forcing = TimeTrace(grid, times, (1j * _fold(grid.frequencies)) * g_rows)
        assert np.any(forcing.coeffs[:, -1].imag != 0.0)  # i xi of the unpaired mode
        for trace in (free, retarded_integral(forcing)):
            assert trace.is_real and np.all(hermitian_defect(trace.coeffs) == 0.0)
    cfg = SolverConfig(grid=grid, t_end=0.25, samples_per_unit=16, reference_dt=1 / 64)
    for trace in reference_solve(data, G5, cfg):
        assert np.all(hermitian_defect(trace.coeffs) == 0.0)


def test_power_rule_is_the_signed_power():
    v = np.array([-2.0, -0.5, -0.0, 0.0, 0.25, 3.0])
    got = NonlinearityG(alpha=5.0).apply_values(v)
    np.testing.assert_allclose(got, np.sign(v) * np.abs(v) ** 5.0, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(NonlinearityG(alpha=4.5).apply_values(v),
                               np.sign(v) * np.abs(v) ** 4.5, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("alpha", [5.0, 4.5])
def test_power_rule_into_a_given_array_has_the_allocating_bytes(alpha):
    G = NonlinearityG(alpha=alpha)
    v = np.array([[-2.0, -0.5, -0.0, 0.0, 0.25, 3.0],
                  [1e-3, -7.5, 0.0, -1e-300, 2.0, -0.0]])
    given = v.tobytes()
    want = G.apply_values(v)
    buf = np.full_like(v, np.nan)
    assert G.apply_values(v, out=buf) is buf
    assert buf.tobytes() == want.tobytes() and v.tobytes() == given


def test_the_gate_edge_at_the_glued_commands_sampling_gives_the_shipped_delta():
    # solve, scatter and persist gate at 32 samples per unit; the sweep's
    # default is 128, where the edge reads 1.386787 (1.386791 at 32)
    result = solver.calibrate_delta(Grid1D(64.0, 256), samples_per_unit=32)
    assert result["delta"] == solver.DELTA_DEFAULT
