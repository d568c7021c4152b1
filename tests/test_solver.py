"""Contraction solver, reference integrator, conservation, gluing."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gkdvlab import solver, spacetime
from gkdvlab.norms import holder_conjugate
from gkdvlab.solver import (
    FieldStack,
    NonlinearityG,
    NumericalBlowupError,
    SolverConfig,
    aux_smoothness,
    critical_exponent,
    critical_sobolev,
    energy,
    free_smallness,
    glued_solve,
    mass,
    picard_solve,
    reference_solve,
    retarded_integral,
)
from gkdvlab.spacetime import TimeTrace, free_evolution
from gkdvlab.spectral import (
    Grid1D,
    SpectralField,
    apply_pointwise_matrix,
    gaussian_profile,
    hermitian_defect,
    random_band_limited,
)

GRID = Grid1D(64.0, 256)
G5 = NonlinearityG(alpha=5.0, mu=1.0)


def _sup_l2(a, b, grid):
    return float(np.max(np.sqrt(np.sum(np.abs(a - b) ** 2, axis=1) * grid.dxi)))


def test_critical_exponents():
    assert critical_exponent(5.0) == 2.0
    assert critical_exponent(7.0) == 3.0
    assert critical_sobolev(5.0) == 0.0
    assert aux_smoothness(5.0) == 0.5
    with pytest.raises(ValueError):
        aux_smoothness(100.0)


def test_free_flow_recovered_when_uncoupled():
    # band-limited datum: the unpaired Nyquist mode is empty, so the
    # mu = 0 dynamics is the free flow to round-off in both solvers
    f = random_band_limited(GRID, decay=1.0, band=GRID.size // 4, seed=3)
    u0 = SpectralField(GRID, 0.3 * f.coeffs, True)
    G0 = NonlinearityG(alpha=5.0, mu=0.0)
    cfg = SolverConfig(grid=GRID, samples_per_unit=32)
    res = picard_solve(u0, G0, cfg)
    assert res.converged
    free = free_evolution(u0, cfg.times())
    assert _sup_l2(res.trace.coeffs, free.coeffs, GRID) < 1e-13
    ref = reference_solve(u0, G0, cfg)
    assert _sup_l2(ref.coeffs, free.coeffs, GRID) < 1e-12


def test_zero_datum():
    u0 = SpectralField(GRID, np.zeros(GRID.size, dtype=complex), True)
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
    assert res.diagnostics["mass_drift"] < 1e-8
    assert res.diagnostics["energy_drift"] < 1e-6
    assert not res.diagnostics["boundary_tainted"]


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
    c = np.zeros(GRID.size, dtype=complex)
    c[GRID.size // 2 + 3] = 1.0
    with pytest.raises(ValueError):
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


# The Picard loop as first written: a fresh free evolution and fresh phase
# tables on every iteration, outside any _shared_tables scope.  With the
# public retarded_integral the solver's hoisted loop must reproduce it bit
# for bit; with the former full-band retarded formula, to round-off.

def _former_retarded(forcing, t0):
    times = forcing.times
    j0 = int(np.argmin(np.abs(times - t0)))
    down = np.exp(-1j * np.outer(times, forcing.grid.frequencies ** 3))
    integrand = down * forcing.coeffs
    cumulative = np.zeros_like(integrand)
    increments = 0.5 * np.diff(times)[:, None] * (integrand[1:] + integrand[:-1])
    np.cumsum(increments, axis=0, out=cumulative[1:])
    cumulative -= cumulative[j0]
    result = np.conj(down) * cumulative
    if forcing.is_real:
        result[:, 0] = result[:, 0].real
    return result


def _fresh_retarded(forcing, t0):
    return retarded_integral(forcing, t0).coeffs


def _former_picard(u0, G, cfg, retarded=_former_retarded):
    """(final coeffs, update distances) of the former iteration loop."""
    times, t0 = cfg.times(), cfg.anchor_time()
    rp = holder_conjugate(critical_exponent(G.alpha))
    grid = u0.grid
    v = free_evolution(u0, times, t0=t0).coeffs
    dists = []
    for _ in range(cfg.max_iterations):
        g_rows = apply_pointwise_matrix(v, grid, G.apply_values, pad=cfg.pad)
        forcing = TimeTrace(grid, times, (1j * grid.frequencies)[None, :] * g_rows,
                            is_real=True)
        w = (free_evolution(u0, times, t0=t0).coeffs
             + G.mu * retarded(forcing, t0))
        per_row = (np.sum(np.abs(w - v) ** rp, axis=1) * grid.dxi) ** (1.0 / rp)
        dists.append(float(np.max(per_row)))
        v = w
        if dists[-1] <= cfg.tolerance:
            break
    return v, dists


@pytest.mark.parametrize("j0", [0, 5, 32])
def test_retarded_integral_matches_the_former_formula(j0):
    grid = Grid1D(32.0, 128)
    times = np.linspace(0.5, 1.5, 33)
    rng = np.random.default_rng(j0)
    rows = rng.standard_normal((times.size, grid.size)) \
        + 1j * rng.standard_normal((times.size, grid.size))
    # a complex forcing keeps the full-band formula, bit for bit
    forcing = TimeTrace(grid, times, rows)
    got = retarded_integral(forcing, times[j0])
    assert got.coeffs.tobytes() == _former_retarded(forcing, times[j0]).tobytes()
    assert np.all(got.coeffs[j0] == 0.0)
    # a real forcing runs on its half-spectrum: the former formula to
    # round-off (1e-13 of the largest coefficient), and exactly Hermitian
    forcing = free_evolution(random_band_limited(grid, 1.0, 30, seed=j0), times)
    got = retarded_integral(forcing, times[j0])
    want = _former_retarded(forcing, times[j0])
    assert np.max(np.abs(got.coeffs - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.all(got.coeffs[j0] == 0.0)
    assert got.is_real and np.all(hermitian_defect(got.coeffs) == 0.0)


@pytest.mark.parametrize("mu", [1.0, -1.0])
def test_picard_and_glued_match_the_former_loop_bytewise(mu):
    G = NonlinearityG(alpha=5.0, mu=mu)
    f = random_band_limited(GRID, decay=1.0, band=GRID.size // 4, seed=7)
    u0 = SpectralField(GRID, 1.5 * f.coeffs, True)
    cfg = SolverConfig(grid=GRID, t_start=0.25, t_end=1.25, samples_per_unit=32)
    res = picard_solve(u0, G, cfg)
    coeffs, dists = _former_picard(u0, G, cfg, _fresh_retarded)
    assert res.converged and res.iterations == len(dists) >= 3
    assert res.update_distances == dists
    assert res.trace.coeffs.tobytes() == coeffs.tobytes()
    _assert_near_the_former_loop(res.trace.coeffs, res.update_distances,
                                 *_former_picard(u0, G, cfg))

    glued = glued_solve(u0, G, cfg, segment_length=0.25, store_stride=1)
    assert glued.converged and len(glued.segments) == 4
    for k, seg in enumerate(glued.segments):
        rows = slice(8 * k, 8 * k + 9)
        datum = SpectralField(GRID, glued.trace.coeffs[8 * k], True)
        seg_cfg = SolverConfig(grid=GRID, t_start=seg["t_start"], t_end=seg["t_end"],
                               anchor=seg["t_start"], samples_per_unit=32)
        coeffs, dists = _former_picard(datum, G, seg_cfg, _fresh_retarded)
        assert seg["iterations"] == len(dists)
        assert glued.trace.coeffs[rows].tobytes() == coeffs.tobytes()
        _assert_near_the_former_loop(glued.trace.coeffs[rows], dists,
                                     *_former_picard(datum, G, seg_cfg))


def _assert_near_the_former_loop(coeffs, dists, former, former_dists):
    """Round-off agreement with the full-band retarded formula.

    Coefficients within 1e-13 of the largest, update distances within 1e-13
    of the first one (the last distances are themselves near round-off).
    """
    assert np.max(np.abs(coeffs - former)) <= 1e-13 * np.max(np.abs(former))
    assert len(dists) == len(former_dists)
    assert max(abs(a - b) for a, b in zip(dists, former_dists)) <= 1e-13 * former_dists[0]


def test_no_phase_table_outlives_picard_solve(monkeypatch):
    made = []

    def recording(grid, times, unit, half, _table=spacetime._airy_table):
        table = _table(grid, times, unit, half)
        made.append((weakref.ref(table), table.flags.writeable, spacetime._tables.get()))
        return table

    monkeypatch.setattr(spacetime, "_airy_table", recording)
    monkeypatch.setattr(solver, "_airy_table", recording)
    res = picard_solve(gaussian_profile(GRID, 0.05), G5,
                       SolverConfig(grid=GRID, samples_per_unit=32))
    assert res.iterations >= 2
    # one free trace outside the scope, then one shared retarded table
    # handed out once per iteration
    assert len(made) == 1 + res.iterations
    assert made[0][2] is None and made[0][1]
    shared = [ref() for ref, _, _ in made[1:]]
    assert all(t is shared[0] for t in shared)
    assert not any(writeable for _, writeable, _ in made[1:])
    del shared
    assert spacetime._tables.get() is None
    made = [ref for ref, _, _ in made]
    gc.collect()
    assert all(ref() is None for ref in made)


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
    xi3 = xi ** 3
    flux_multiplier = G.mu * 1j * xi

    def flux(c):
        return flux_multiplier * apply_pointwise_matrix(c, grid, G.apply_values,
                                                        pad=cfg.pad)

    out = np.empty((times.size, grid.size), dtype=complex)
    c = u0.coeffs.copy()
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
        data.append(SpectralField(grid, rng.uniform(0.05, 0.6) * f.coeffs, True))
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
        assert np.max(np.abs(single.coeffs - former)) <= 1e-13 * np.max(np.abs(former))


def _blowup(u0, G, cfg):
    with pytest.raises(NumericalBlowupError) as info:
        reference_solve(u0, G, cfg)
    return info.value


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
    with pytest.raises(ValueError, match="real data"):
        reference_solve([u, SpectralField(GRID, 1j * u.coeffs)], G5,
                        SolverConfig(grid=GRID))


def test_real_kernels_return_exactly_hermitian_traces():
    grid = Grid1D(32.0, 128)
    times = np.linspace(0.0, 0.5, 17)
    data = [gaussian_profile(grid, 0.4),
            SpectralField(grid, 0.4 * random_band_limited(grid, 1.0, 40, seed=2).coeffs, True)]
    for u0 in data:
        free = free_evolution(u0, times)
        g_rows = apply_pointwise_matrix(free.coeffs, grid, G5.apply_values)
        forcing = TimeTrace(grid, times, (1j * grid.frequencies) * g_rows, is_real=True)
        for trace in (free, retarded_integral(forcing, times[3])):
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
