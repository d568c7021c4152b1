"""Pair geometry, exponent algebra, and mixed space-time quadrature."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import simpson

from gkdvlab import spacetime, spectral
from gkdvlab.estimates import _require_duhamel_window
from gkdvlab.norms import holder_conjugate, weighted_power_sum
from gkdvlab.solver import retarded_integral
from gkdvlab.spacetime import (
    TimeTrace,
    _airy_table,
    _phi2_weights,
    _shared_tables,
    classify_pair,
    dual_exponent_map,
    exponent_map,
    free_evolution,
    mixed_norm,
    snorm,
    trapezoid_weights,
    xnorm,
)
from gkdvlab.spectral import (
    Grid1D,
    _fold,
    _work_buffer,
    airy_propagate,
    coeffs_to_values,
    gaussian_profile,
    random_band_limited,
    riesz_weights,
    values_to_coeffs,
)

from full_band import unfold

GRID = Grid1D(32.0, 128)

rationals = st.fractions(min_value=Fraction(-2), max_value=Fraction(2),
                         max_denominator=60)


@given(s=rationals,
       rho=st.fractions(min_value=0, max_value=Fraction(3, 4), max_denominator=60))
def test_exponent_map_solves_the_linear_system_exactly(s, rho):
    r = math.inf if rho == 0 else 1 / rho
    p, q = exponent_map(s, r)
    invp = 0 if p == math.inf else 1 / p
    invq = 0 if q == math.inf else 1 / q
    assert 2 * invp + invq == rho
    assert -invp + 2 * invq == s


@given(s=rationals,
       rho=st.fractions(min_value=0, max_value=Fraction(3, 4), max_denominator=60))
def test_dual_exponent_map_shifted_system(s, rho):
    r = math.inf if rho == 0 else 1 / rho
    p, q = dual_exponent_map(s, r)
    invp = 0 if p == math.inf else 1 / p
    invq = 0 if q == math.inf else 1 / q
    assert 2 * invp + invq == 2 + rho
    assert -invp + 2 * invq == s


def _former_maps(s, r):
    """exponent_map, dual_exponent_map and the retarded bounds' window as
    each computed its own reciprocals before they shared one solver."""
    rho = Fraction(0) if r == math.inf else (1.0 / r if isinstance(r, float) else 1 / r)

    def invert(invp, invq):
        return (math.inf if invp == 0 else 1 / invp, math.inf if invq == 0 else 1 / invq)

    direct = invert(-s / 5 + 2 * rho / 5, 2 * s / 5 + rho / 5)
    dual = invert(-s / 5 + 2 * (2 + rho) / 5, 2 * s / 5 + (2 + rho) / 5)
    window = (0.4 * rho - 0.2 * s, 0.4 * s + 0.2 * rho)
    return direct, dual, window


def test_exponent_maps_and_duhamel_window_on_a_lattice():
    # the maps are bitwise what they were; the window returns exponent_map's
    # (p, q), accepts the same pairs as its former 0.4/0.2 arithmetic and
    # agrees with it to round-off
    lattice = [(float(s), float(r)) for s in np.round(np.arange(-1.0, 1.0001, 0.05), 10)
               for r in np.round(np.arange(1.35, 4.0, 0.05), 10)]
    for s, r in [(Fraction(1, 3), 2), (Fraction(-1, 4), Fraction(7, 3)), (0.25, math.inf)]:
        direct, dual, _ = _former_maps(s, r)
        assert exponent_map(s, r) == direct and dual_exponent_map(s, r) == dual
    accepted = 0
    for s, r in lattice:
        direct, dual, (invp, invq) = _former_maps(s, r)
        assert exponent_map(s, r) == direct and dual_exponent_map(s, r) == dual
        in_window = 0.0 <= invp < 0.25 and 0.0 <= invq < 0.5 - invp
        try:
            got = _require_duhamel_window("side", s, 1.0 / r)
        except ValueError:
            assert not in_window
            continue
        assert in_window and got == direct
        former = tuple(math.inf if x == 0 else 1 / x for x in (invp, invq))
        assert got == pytest.approx(former, rel=1e-13)
        accepted += 1
    assert accepted > 200


def test_region_corners():
    # O: the origin in the (1/r, s) plane, the single admissible s at r = inf
    o = classify_pair(0.0, math.inf)
    assert o.acceptable and o.boundary
    assert not classify_pair(0.01, math.inf).acceptable
    # A: lower closed corner (1/r, s) = (1/2, -1/4)
    a = classify_pair(-0.25, 2.0)
    assert a.acceptable and a.boundary
    assert not classify_pair(-0.2500001, 2.0).acceptable
    # C: upper closed corner (1/2, 1), on the s = 2/r edge
    c = classify_pair(1.0, 2.0)
    assert c.acceptable and c.boundary
    # B: the 1/r = 3/4 vertical is excluded for every s
    for s in (-1.0, 0.0, 0.25, 1.0):
        assert not classify_pair(s, 4.0 / 3.0).acceptable
    # interior point is acceptable without the boundary flag
    mid = classify_pair(0.25, 4.0)
    assert mid.acceptable and not mid.boundary
    # open strip for 1/2 < 1/r < 3/4: endpoints excluded
    lo = 2 * 0.6 - 1.25
    hi = 2.5 - 3 * 0.6
    assert classify_pair(0.5 * (lo + hi), 1.0 / 0.6).acceptable
    assert not classify_pair(lo, 1.0 / 0.6).acceptable
    assert not classify_pair(hi, 1.0 / 0.6).acceptable


def test_exponent_map_at_the_corners():
    assert exponent_map(0.25, 4.0) == (pytest.approx(20.0), pytest.approx(6.0 + 2.0 / 3.0))
    p, q = exponent_map(1.0 / 6.0, 2.0)  # classical point
    assert p == pytest.approx(6.0)
    assert q == pytest.approx(6.0)
    assert exponent_map(0.0, math.inf) == (math.inf, math.inf)


def test_conjugacy_involution_on_a_lattice():
    # (s, r) -> (1 - s, r') maps acceptability onto conjugate acceptability
    count = 0
    for rho in np.linspace(0.0, 0.74, 20):
        r = math.inf if rho == 0.0 else 1.0 / rho
        for s in np.linspace(-0.75, 1.75, 10):
            direct = classify_pair(float(s), r)
            rp = holder_conjugate(r)
            mirrored = classify_pair(1.0 - float(s), rp)
            assert direct.conjugate_acceptable == mirrored.acceptable
            assert mirrored.conjugate_acceptable == direct.acceptable
            count += 1
    assert count == 200


def test_classify_pair_clamps_and_rejects():
    assert classify_pair(0.0, 1.0 - 1e-14).clamped
    with pytest.raises(ValueError):
        classify_pair(0.0, 0.9)


def test_trace_validation():
    times = np.array([0.0, 0.5, 1.0])
    coeffs = np.zeros((3, GRID.size // 2 + 1), dtype=complex)
    TimeTrace(GRID, times, coeffs)
    with pytest.raises(ValueError):
        TimeTrace(GRID, times[:1], coeffs[:1])
    with pytest.raises(ValueError):
        TimeTrace(GRID, np.array([0.0, 1.0, 0.5]), coeffs)
    with pytest.raises(ValueError):
        TimeTrace(GRID, times, coeffs[:, :-1])


def test_trace_rows_are_half_spectra():
    f = random_band_limited(GRID, decay=1.0, band=20, seed=2)
    times = np.array([0.0, 0.5, 1.0])
    half = free_evolution(f, times).coeffs
    assert half.shape == (3, GRID.size // 2 + 1)
    trace = TimeTrace(GRID, times, half)
    assert trace.is_real and trace.coeffs.tobytes() == half.tobytes()
    # the full band, even an exactly Hermitian one, is not a trace's layout
    with pytest.raises(ValueError, match="expected 65 modes per row, .* rfft layout"):
        TimeTrace(GRID, times, unfold(half))
    assert trace.field(1).modes.tobytes() == half[1].tobytes()
    assert trace.restricted(0.5).coeffs.tobytes() == half[:2].tobytes()


def test_trace_restriction():
    f = gaussian_profile(GRID, 1.0)
    trace = free_evolution(f, np.linspace(0.0, 2.0, 9))
    sub = trace.restricted(1.0)
    assert sub.sample_count == 5
    assert sub.times[-1] == 1.0
    with pytest.raises(ValueError):
        trace.restricted(-0.1)


def test_free_evolution_matches_propagator_rows():
    f = random_band_limited(GRID, decay=1.0, band=30, seed=6)
    times = np.linspace(0.0, 3.0, 7)
    trace = free_evolution(f, times)
    for m, t in enumerate(times):
        np.testing.assert_allclose(trace.coeffs[m], airy_propagate(f, t).modes,
                                   atol=1e-12)


def test_mixed_norm_against_simpson_oracle():
    # smooth synthetic data, dense trace: trapezoid vs scipy Simpson
    grid = Grid1D(8.0, 16)
    times = np.linspace(0.0, 1.0, 4097)
    x = grid.points
    vals = np.cos(times[:, None] + x[None, :]) * np.exp(-x[None, :] ** 2 / 4.0)
    trace = TimeTrace(grid, times, values_to_coeffs(vals, grid))
    got = mixed_norm(trace, 2.0, 4.0)
    inner = simpson(np.abs(vals) ** 4.0, x=times, axis=0) ** (1.0 / 4.0)
    expect = (np.sum(inner ** 2.0) * grid.dx) ** 0.5
    assert got == pytest.approx(expect, rel=1e-6)


def test_mixed_norm_infinite_exponents():
    f = gaussian_profile(GRID, 2.0)
    trace = free_evolution(f, np.linspace(0.0, 1.0, 17))
    sup = mixed_norm(trace, math.inf, math.inf)
    assert sup == pytest.approx(np.max(np.abs(trace.values())), rel=1e-12)


@pytest.mark.parametrize("s", [-0.25, 0.0, 1.0 / 6.0, 0.5])
def test_mixed_norm_with_smoothness_matches_the_former_path_bytewise(s):
    """mixed_norm(trace, p, q, s) against the former two-step path, inlined.

    That path built the trace of |D_x|^s u, transformed it and took the
    L^p_x L^q_t norm of its samples with time inside, all rows at once.
    """
    _check_mixed_norm_against_the_former_path(s)


@pytest.mark.parametrize("s", [-0.25, 0.0, 1.0 / 6.0, 0.5])
def test_mixed_norm_in_row_blocks_matches_the_former_path_bytewise(s, monkeypatch):
    """The same with the 33 rows in blocks of 2, the last one short."""
    monkeypatch.setattr(spectral, "_BLOCK_BYTES", 2 * 16 * (GRID.size // 2 + 1))
    _check_mixed_norm_against_the_former_path(s)


def _check_mixed_norm_against_the_former_path(s):
    f = random_band_limited(GRID, decay=1.0, band=32, seed=8)
    trace = free_evolution(f, np.linspace(0.0, 1.0, 33))
    weighted = trace.coeffs if s == 0 \
        else trace.coeffs * riesz_weights(GRID, s, half=True)[None, :]
    vals = coeffs_to_values(weighted, GRID)
    mags = np.abs(vals)
    tw = trapezoid_weights(trace.times)
    for p in (2.0, 4.0, math.inf):
        for q in (2.0, 4.0, math.inf):
            if q == math.inf:
                inner = np.max(mags, axis=0)
            else:
                inner = np.einsum("m,mj->j", tw, mags ** q) ** (1.0 / q)
            former = weighted_power_sum(inner, GRID.dx, p)
            assert mixed_norm(trace, p, q, s).hex() == former.hex(), (p, q)


def test_trapezoid_weights_sum_to_span():
    times = np.array([0.0, 0.1, 0.4, 1.0])
    w = trapezoid_weights(times)
    assert np.sum(w) == pytest.approx(1.0)


def test_xnorm_rejects_unacceptable_pair():
    f = gaussian_profile(GRID, 1.0)
    trace = free_evolution(f, np.linspace(0.0, 1.0, 9))
    with pytest.raises(ValueError):
        xnorm(trace, 2.0, 2.0)
    # (-0.2, 5/3) sits below the open lower edge of the 1/2 < 1/r < 3/4
    # strip yet still maps to finite exponents, so the exploratory escape
    # hatch can evaluate the quadrature
    with pytest.raises(ValueError):
        xnorm(trace, -0.2, 5.0 / 3.0)
    assert mixed_norm(trace, *exponent_map(-0.2, 5.0 / 3.0), -0.2) > 0


def test_snorm_is_xnorm_at_zero_smoothness():
    f = gaussian_profile(GRID, 1.0)
    trace = free_evolution(f, np.linspace(0.0, 1.0, 9))
    assert snorm(trace, 2.0) == xnorm(trace, 0.0, 2.0)


def test_weight_rows_are_shared_beside_the_tables_and_bounded():
    """Inside a scope a step's weight row is built once and read-only; the memo
    keeps at most two rows, dropping the least recently used, and the rows
    never push a phase table out."""
    grid = Grid1D(32.0, 128)
    times = np.linspace(0.0, 1.0, 33)
    with _shared_tables():
        table = _airy_table(grid, times, 1j)
        rows = [_phi2_weights(grid, h) for h in (1 / 32, 1 / 16, 1 / 8)]
        assert rows[0].shape == (grid.size // 2 + 1,) and not rows[2].flags.writeable
        assert _phi2_weights(grid, 1 / 8) is rows[2]
        assert _phi2_weights(grid, 1 / 32) is not rows[0]  # dropped for 1/8
        memo = spacetime._tables.get()
        assert sum(entry.ndim == 1 for entry in memo.values()) == 2
        assert _airy_table(grid, times, 1j) is table
    assert _phi2_weights(grid, 1 / 8).flags.writeable
    assert _phi2_weights(grid, 1 / 8).tobytes() == rows[2].tobytes()


def test_retarded_integral_refuses_uneven_times():
    grid = Grid1D(32.0, 128)
    times = np.array([0.0, 0.25, 1.0])
    forcing = TimeTrace(grid, times, np.ones((3, grid.size // 2 + 1), dtype=complex))
    with pytest.raises(ValueError, match="uniformly spaced"):
        retarded_integral(forcing)


def test_shared_phase_tables_change_no_bytes():
    grid = Grid1D(32.0, 128)
    times = np.linspace(0.25, 1.25, 65)
    f = random_band_limited(grid, decay=1.0, band=32, seed=4)

    def evaluate():
        free = free_evolution(f, times, t0=0.25)
        forcing = TimeTrace(grid, times, free.coeffs * (1j * _fold(grid.frequencies)))
        return free.coeffs.tobytes(), retarded_integral(forcing).coeffs.tobytes()

    fresh = evaluate()
    with _shared_tables():
        assert evaluate() == fresh
        assert evaluate() == fresh  # second pass reads the memoized tables
        table = _airy_table(grid, times, -1j)
        assert table.shape == (times.size, grid.size // 2 + 1)
        assert _airy_table(grid, times, -1j) is table
        assert _airy_table(grid, times, 1j) is not table
        assert _airy_table(grid, times[1:], -1j) is not table
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
    assert _airy_table(grid, times, -1j) is not table
    assert _airy_table(grid, times, -1j).flags.writeable


def test_mixed_norm_in_a_work_buffer_scope_allocates_no_trace_sized_array():
    """After one warm-up call, mixed_norm at s != 0 takes its (M, N) powers and
    its weighted spectrum from the work buffer: a second call on a (129, 129)
    trace allocates less than one (M, N) float array."""
    grid = Grid1D(64.0, 256)
    trace = free_evolution(random_band_limited(grid, decay=1.0, band=64, seed=2),
                           np.linspace(0.0, 1.0, 129))
    assert trace.coeffs.shape == (129, 129)
    with _work_buffer():
        first = mixed_norm(trace, 4.0, 6.0, 0.25)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            second = mixed_norm(trace, 4.0, 6.0, 0.25)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    assert second == first
    assert peak < 8 * trace.sample_count * grid.size
