"""Ratio checks: determinism, seed nesting, homogeneity, hypothesis gates."""

import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gkdvlab import solver, spacetime, spectral
from gkdvlab.estimates import (
    _REGISTRY,
    ESTIMATE_IDS,
    EstimateSpec,
    _ensemble,
    _forcing_trace,
    _product_trace,
    lip_norm_estimate,
    verify,
)
from gkdvlab.solver import NonlinearityG
from gkdvlab.spacetime import TimeTrace, free_evolution, mixed_norm
from gkdvlab.spectral import (
    SQRT_2PI,
    Grid1D,
    _work_buffer,
    apply_pointwise_matrix,
    hermitian_defect,
    random_band_limited,
    values_to_coeffs,
)

from full_band import unfold

# small grid/ensemble so each call stays well under a second
FAST = dict(ensemble=8, size=128, half_length=32.0)


def test_spec_validation():
    with pytest.raises(ValueError, match="known ids"):
        EstimateSpec("fourier_restriction")
    with pytest.raises(ValueError):
        EstimateSpec("kato", ensemble=0)
    with pytest.raises(ValueError):
        EstimateSpec("kato", interval=(1.0, 1.0))
    with pytest.raises(ValueError):
        EstimateSpec("kato", amplitude=0.0)
    with pytest.raises(ValueError, match="samples_per_unit"):
        EstimateSpec("kato", samples_per_unit=1)


def test_reports_are_reproducible():
    spec = EstimateSpec("stein_tomas", seed=7, **FAST)
    first = verify(spec)
    second = verify(spec)
    assert first.to_json() == second.to_json()


def test_growing_the_ensemble_keeps_early_samples():
    small = verify(EstimateSpec("kato", ensemble=4, size=128, half_length=32.0))
    large = verify(EstimateSpec("kato", ensemble=8, size=128, half_length=32.0))
    assert large.ratios[:4] == small.ratios


def test_ratios_are_amplitude_invariant():
    base = verify(EstimateSpec("stein_tomas", **FAST))
    scaled = verify(EstimateSpec("stein_tomas", amplitude=2.0, **FAST))
    for a, b in zip(base.ratios, scaled.ratios):
        assert b == pytest.approx(a, rel=1e-12)
    ql = verify(EstimateSpec("nonlinear_i", ensemble=4, size=128, half_length=32.0))
    qs = verify(EstimateSpec("nonlinear_i", amplitude=2.0, ensemble=4, size=128,
                             half_length=32.0))
    for a, b in zip(ql.ratios, qs.ratios):
        assert b == pytest.approx(a, rel=1e-10)


@pytest.mark.parametrize("estimate_id,params", [
    ("stein_tomas", {"r": 4.0}),
    ("kato", {"q": 1.5}),
    ("strichartz", {"s": 2.0, "r": 2.0}),
    ("inhom_linf", {"r": 4.0}),
    ("chain_rule", {"s": 6.0}),
    ("counterexample", {"family": "log_tail", "p": 0.4}),
])
def test_out_of_hypothesis_parameters_are_refused(estimate_id, params):
    with pytest.raises(ValueError):
        verify(EstimateSpec(estimate_id, params=params, ensemble=1))


def test_restriction_and_smoothing_routes_coincide():
    # r = 6 on one side and (s, r) = (1/6, 2) on the other are the same
    # inequality written through different norms; on matched draws the
    # sampled ratios must agree
    a = verify(EstimateSpec("stein_tomas", seed=3, **FAST))
    b = verify(EstimateSpec("strichartz", seed=3, **FAST))
    assert len(a.ratios) == len(b.ratios)
    for x, y in zip(a.ratios, b.ratios):
        assert y == pytest.approx(x, rel=1e-12)


def test_interpolation_ratio_is_order_one():
    report = verify(EstimateSpec("interpolation", ensemble=6, size=128,
                                 half_length=32.0))
    assert 0.0 < report.max_ratio < 4.0
    assert all(np.isfinite(report.ratios))


def test_refinement_trace_shape():
    plain = verify(EstimateSpec("stein_tomas", ensemble=4, size=128, half_length=32.0))
    assert len(plain.refinement) == 3
    assert all("interval" not in entry for entry in plain.refinement)
    widened = verify(EstimateSpec("inhom_linf", ensemble=2, size=64,
                                  half_length=16.0, samples_per_unit=32))
    assert len(widened.refinement) == 4
    assert "interval" in widened.refinement[-1]
    assert all("interval" not in e for e in widened.refinement[:-1])


def test_counterexample_sharp_band_closed_forms():
    report = verify(EstimateSpec("counterexample",
                                 params={"family": "sharp_band", "n": (4, 16)}))
    table = report.extras["table"]
    assert [row["n"] for row in table] == [4, 16]
    for row in table:
        assert row["lhat"] == pytest.approx(1.0, abs=1e-10)
        assert row["sobolev"] == pytest.approx(row["predicted_sobolev"], rel=0.05)
    # the stacked-frequency family keeps the critical norm pinned while the
    # polynomial-scale norm grows without bound
    assert table[1]["sobolev"] > table[0]["sobolev"]


def test_counterexample_log_tail_growth():
    report = verify(EstimateSpec("counterexample",
                                 params={"family": "log_tail", "n": (8, 64)}))
    table = report.extras["table"]
    lhats = [row["lhat"] for row in table]
    assert lhats == sorted(lhats) and lhats[0] < lhats[-1]
    assert table[-1]["sobolev"] / table[0]["sobolev"] < 1.5


def test_csv_round_trip(tmp_path):
    report = verify(EstimateSpec("stein_tomas", ensemble=6, size=128,
                                 half_length=32.0))
    path = tmp_path / "samples.csv"
    report.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "sample,decay,ratio"
    assert len(lines) == 1 + len(report.samples)
    decays = {float(line.split(",")[1]) for line in lines[1:]}
    assert decays == {0.6, 1.0, 1.6}


def test_every_estimate_id_dispatches():
    for estimate_id in ESTIMATE_IDS:
        spec = EstimateSpec(estimate_id, ensemble=1, size=64, half_length=16.0,
                            samples_per_unit=16)
        report = verify(spec)
        assert report.estimate_id == estimate_id
        assert np.isfinite(report.max_ratio)


def test_lip_seminorm_known_values():
    # |z| z at order 2: |G| / z^2 = 1, |G'| / |z| = 2 and G' = 2|z| is
    # 2-Lipschitz, attained by every pair of one sign
    square = NonlinearityG(alpha=2.0)
    assert lip_norm_estimate(square, 2.0) == 2.0
    quintic = NonlinearityG(alpha=5.0)
    assert lip_norm_estimate(quintic, 5.0) == pytest.approx(120.0, rel=1e-10)


def test_lip_seminorm_is_exact_for_every_power():
    # central differences of fourth and fifth order cancel catastrophically
    # at a 1e-5 step: the power rule's derivatives are taken in closed form
    sextic = NonlinearityG(alpha=6.0)
    assert lip_norm_estimate(sextic, 6.0) == pytest.approx(720.0, rel=1e-10)
    near_quintic = NonlinearityG(alpha=4.999999)
    assert lip_norm_estimate(near_quintic, 4.999999) == pytest.approx(120.0, rel=1e-4)


def test_lip_seminorm_flags_unbounded_quotients():
    # |z| z is not of order 5/2: G'' = 2 sign(z) over |z|^(1/2) blows up at 0
    square = NonlinearityG(alpha=2.0)
    coarse = lip_norm_estimate(square, 2.5, samples=200)
    fine = lip_norm_estimate(square, 2.5, samples=400)
    assert fine > 10.0 * coarse  # diverges as the sample grid deepens


def test_lip_seminorm_validation():
    quintic = NonlinearityG(alpha=5.0)
    with pytest.raises(ValueError):
        lip_norm_estimate(quintic, 0.0)
    with pytest.raises(ValueError):
        lip_norm_estimate(quintic, 5.0, samples=4)


def _former_per_row_product(f, g, grid, pad):
    """One row of the former single-field dealiased product, inlined.

    Complex transforms of the full band, then the averaging projection.
    """
    fine = grid.refined(pad)
    lo = (fine.size - grid.size) // 2
    k = np.arange(-fine.size // 2, fine.size // 2)
    signs = np.where(k % 2 == 0, 1.0, -1.0)

    def fine_values(c):
        padded = np.zeros(fine.size, dtype=complex)
        padded[lo: lo + grid.size] = c
        vals = np.fft.ifft(np.fft.ifftshift(padded * signs))
        return (vals * (fine.size * fine.dxi / SQRT_2PI)).real

    prod = fine_values(f) * fine_values(g)
    back = ((fine.dx / SQRT_2PI) * signs * np.fft.fftshift(np.fft.fft(prod)))[lo: lo + grid.size]
    out = np.empty_like(back)
    out[0] = back[0].real
    out[1:] = 0.5 * (back[1:] + np.conj(back[:0:-1]))
    return out


def _times(w):
    return w[0] * w[1]


@settings(max_examples=40, deadline=None)
@given(half_size=st.integers(min_value=4, max_value=160),
       rows=st.integers(min_value=2, max_value=9),
       pad=st.sampled_from([2, 3]),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_stacked_product_matches_per_row_products_bytewise(half_size, rows, pad, seed):
    grid = Grid1D(16.0, 2 * half_size)
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 1.0, rows)
    u, v = (TimeTrace(grid, times, values_to_coeffs(rng.standard_normal((rows, grid.size)),
                                                    grid))
            for _ in range(2))
    prod = _product_trace(np.stack((u.coeffs, v.coeffs)), grid, times, pad=pad)
    # each reference is a (2, 1, N/2 + 1) stack into one row: the map
    # combines the axis before the rows, never the rows themselves
    want = np.concatenate([apply_pointwise_matrix(np.stack((u.coeffs[m:m + 1],
                                                            v.coeffs[m:m + 1])),
                                                  grid, _times, pad=pad,
                                                  out=np.empty((1, half_size + 1), complex))
                           for m in range(rows)])
    assert prod.is_real
    assert prod.coeffs.dtype == want.dtype and prod.coeffs.shape == want.shape
    assert prod.coeffs.tobytes() == want.tobytes()
    assert np.all(hermitian_defect(prod.coeffs) == 0.0)
    # the former single-field product to round-off: 1e-13 of the largest coefficient
    former = np.stack([_former_per_row_product(unfold(u.coeffs[m]), unfold(v.coeffs[m]),
                                               grid, pad) for m in range(rows)])
    assert np.max(np.abs(unfold(prod.coeffs) - former)) <= 1e-13 * np.max(np.abs(former))


# refinement-stability gate and CLI ensemble floor of every id
GATES_AND_FLOORS = {
    "stein_tomas": (0.10, 50), "kenig_ruiz": (0.10, 50), "kato": (0.10, 50),
    "strichartz": (0.10, 50), "inhom_linf": (0.15, 100), "inhom_xy": (0.15, 100),
    "interpolation": (0.10, 50), "leibniz": (0.15, 50), "chain_rule": (0.15, 50),
    "nonlinear_i": (0.15, 50), "nonlinear_ii": (0.15, 50), "inclusion": (0.10, 50),
    "counterexample": (0.05, 50),
}


def test_registry_pins_every_gate_and_floor():
    assert ESTIMATE_IDS == tuple(_REGISTRY)
    assert len(set(map(id, _REGISTRY.values()))) == len(ESTIMATE_IDS)
    assert {i: (row.gate, row.floor) for i, row in _REGISTRY.items()} == GATES_AND_FLOORS
    assert EstimateSpec("kato").ensemble == 50


@pytest.mark.parametrize("estimate_id", [i for i in ESTIMATE_IDS if not _REGISTRY[i].static])
def test_doubling_leg_matches_a_full_ensemble(estimate_id):
    spec = EstimateSpec(estimate_id, **FAST)
    report = verify(spec)
    row = _REGISTRY[estimate_id]
    one, _ = row.run(spec, row.check(spec.params))
    ratios, rows = _ensemble(replace(spec, ensemble=2 * spec.ensemble), one)
    assert ratios[:spec.ensemble] == report.ratios
    assert rows[:spec.ensemble] == report.samples
    assert report.refinement[2] == {"size": spec.size, "ensemble": 2 * spec.ensemble,
                                    "max_ratio": max(ratios),
                                    "mean_ratio": float(np.mean(ratios))}


def test_no_phase_table_outlives_verify(monkeypatch):
    made = []

    def recording(grid, times, unit, _table=spacetime._airy_table):
        table = _table(grid, times, unit)
        made.append((weakref.ref(table), table.flags.writeable))
        return table

    monkeypatch.setattr(spacetime, "_airy_table", recording)
    monkeypatch.setattr(solver, "_airy_table", recording)
    verify(EstimateSpec("inhom_xy", **FAST))
    assert made
    assert spacetime._tables.get() is None
    assert spectral._work.get() is None
    gc.collect()
    assert all(ref() is None for ref, _ in made)
    assert not any(writeable for _, writeable in made)


def _kernel_outputs(spec: EstimateSpec, grid: Grid1D) -> list:
    """Every kernel that takes arrays from the work buffer, on one grid."""
    times = spec.times()
    G = NonlinearityG(alpha=5.0, mu=1.0)
    u = free_evolution(random_band_limited(grid, decay=1.0, band=32, seed=3), times)
    v = free_evolution(random_band_limited(grid, decay=0.6, band=32, seed=4), times)
    forcing = _forcing_trace(spec, grid, times, 32, 1.0, np.random.SeedSequence(5))
    pair = np.stack((u.coeffs, v.coeffs))
    return [
        mixed_norm(u, 4.0, 6.0),
        mixed_norm(u, 4.0, 6.0, 0.25),
        mixed_norm(forcing, 1.6, 3.0, -0.25),
        mixed_norm(u, 3.0, 5.0),
        mixed_norm(u, 4.0, math.inf, -0.25),
        mixed_norm(u, math.inf, math.inf, 0.5),
        apply_pointwise_matrix(u.coeffs, grid, G.apply_values, pad=2),
        apply_pointwise_matrix(u.coeffs, grid, G.apply_values, pad=3),
        apply_pointwise_matrix(u.coeffs[7], grid, G.apply_values, pad=3),
        _product_trace(pair.copy(), grid, times).coeffs,  # a (2, M, N/2 + 1) stack to M rows
        _product_trace(pair.copy(), grid, times, pad=3).coeffs,
        forcing.coeffs,
    ]


def test_the_work_buffer_changes_no_bytes_and_leaks_no_view():
    """Inside a leg's work-buffer scope every kernel gives the bytes it gives outside one.

    The calls alternate the base grid and the 2N grid, as a run's legs do,
    so the buffer is grown, reused and read at both sizes; no result is a
    view of it, and it is gone when the scope closes.
    """
    spec = EstimateSpec("inhom_xy", **FAST)
    grids = (spec.grid(), Grid1D(spec.half_length, 2 * spec.size))
    fresh = [[np.asarray(x).tobytes() for x in _kernel_outputs(spec, grid)] for grid in grids]
    with _work_buffer():
        for _ in range(2):
            for grid, expected in zip(grids, fresh):
                got = _kernel_outputs(spec, grid)
                assert [np.asarray(x).tobytes() for x in got] == expected
                buffer = spectral._work.get()[0]
                assert buffer.size > 0
                assert not any(np.shares_memory(x, buffer) for x in got
                               if isinstance(x, np.ndarray))
    assert spectral._work.get() is None
