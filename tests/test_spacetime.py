"""Pair geometry, exponent algebra, and mixed space-time quadrature."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import simpson

from gkdvlab.norms import holder_conjugate
from gkdvlab.solver import retarded_integral
from gkdvlab.spacetime import (
    TimeTrace,
    _airy_table,
    _shared_tables,
    classify_pair,
    dual_exponent_map,
    exponent_map,
    free_evolution,
    mixed_norm,
    mixed_norm_values,
    snorm,
    trapezoid_weights,
    xnorm,
)
from gkdvlab.spectral import (
    Grid1D,
    _fold,
    _unfold,
    airy_propagate,
    gaussian_profile,
    random_band_limited,
)

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
        TimeTrace(GRID, times, _unfold(half))
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


def test_mixed_norm_orders_agree_when_p_equals_q():
    f = gaussian_profile(GRID, 1.0)
    trace = free_evolution(f, np.linspace(0.0, 1.0, 33))
    for p in (2.0, 4.0):
        a = mixed_norm(trace, p, p, "x_outer")
        b = mixed_norm(trace, p, p, "t_outer")
        assert a == pytest.approx(b, rel=1e-12)


def test_mixed_norm_against_simpson_oracle():
    # smooth synthetic data, dense trace: trapezoid vs scipy Simpson
    grid = Grid1D(8.0, 16)
    times = np.linspace(0.0, 1.0, 4097)
    x = grid.points
    vals = np.cos(times[:, None] + x[None, :]) * np.exp(-x[None, :] ** 2 / 4.0)
    got = mixed_norm_values(vals, grid, times, 2.0, 4.0, "x_outer")
    inner = simpson(np.abs(vals) ** 4.0, x=times, axis=0) ** (1.0 / 4.0)
    expect = (np.sum(inner ** 2.0) * grid.dx) ** 0.5
    assert got == pytest.approx(expect, rel=1e-6)
    got_t = mixed_norm_values(vals, grid, times, 2.0, 4.0, "t_outer")
    outer = (np.sum(np.abs(vals) ** 2.0, axis=1) * grid.dx) ** (1.0 / 2.0)
    expect_t = simpson(outer ** 4.0, x=times) ** 0.25
    assert got_t == pytest.approx(expect_t, rel=1e-6)


def test_mixed_norm_infinite_exponents():
    f = gaussian_profile(GRID, 2.0)
    trace = free_evolution(f, np.linspace(0.0, 1.0, 17))
    sup = mixed_norm(trace, math.inf, math.inf)
    assert sup == pytest.approx(np.max(np.abs(trace.values())), rel=1e-12)
    assert mixed_norm(trace, math.inf, math.inf, "t_outer") == pytest.approx(sup)


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
    assert xnorm(trace, -0.2, 5.0 / 3.0, check=False) > 0


def test_snorm_is_xnorm_at_zero_smoothness():
    f = gaussian_profile(GRID, 1.0)
    trace = free_evolution(f, np.linspace(0.0, 1.0, 9))
    assert snorm(trace, 2.0) == xnorm(trace, 0.0, 2.0)


def test_shared_phase_tables_change_no_bytes():
    grid = Grid1D(32.0, 128)
    times = np.linspace(0.25, 1.25, 65)
    f = random_band_limited(grid, decay=1.0, band=32, seed=4)

    def evaluate():
        free = free_evolution(f, times, t0=0.25)
        forcing = TimeTrace(grid, times, free.coeffs * (1j * _fold(grid.frequencies)))
        return free.coeffs.tobytes(), retarded_integral(forcing, 0.25).coeffs.tobytes()

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
