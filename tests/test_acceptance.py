"""End-to-end acceptance gate.

Thirteen independent criteria, one test per criterion, covering the free
flow, every sampled inequality, the admissible-pair geometry, the
contraction solver, scattering in both regimes, the sharp-exponent
counterexample families, and long-run norm persistence.  Each test is the
single pass/fail line for its criterion; tests that drive the command
surface assert on exit codes and the written reports so the same gates
hold for CLI users.
"""

import json
import math
import time

import numpy as np
import pytest

from gkdvlab.cli import main
from gkdvlab.diagnostics import scaling_transform
from gkdvlab.estimates import EstimateSpec, verify
from gkdvlab.norms import band_sum, holder_conjugate, lhat_norm
from gkdvlab.solver import (
    NonlinearityG,
    SolverConfig,
    critical_exponent,
    picard_solve,
    reference_solve,
)
from gkdvlab.spacetime import classify_pair
from gkdvlab.spectral import Grid1D, airy_propagate, gaussian_profile, random_band_limited


def run_cli(tmp, argv):
    return main(argv + ["--out", str(tmp / "out")])


def load_report(tmp):
    return json.loads((tmp / "out" / "report.json").read_text())


def test_criterion_01_free_flow_is_an_isometry():
    grid = Grid1D(64.0, 256)
    rng = np.random.default_rng(11)
    started = time.perf_counter()
    worst = 0.0
    for k in range(20):
        f = random_band_limited(grid, decay=0.8, band=grid.size // 4, seed=100 + k)
        t = float(rng.uniform(0.0, 10.0))
        g = airy_propagate(f, t)
        for r in (1.0, 4.0 / 3.0, 2.0, 3.0, 6.0, math.inf):
            worst = max(worst, abs(lhat_norm(g, r) / lhat_norm(f, r) - 1.0))
    elapsed = time.perf_counter() - started
    assert worst < 1e-12
    assert elapsed < 5.0
    print(f"[criterion 01] PASS free-flow isometry, worst rel dev {worst:.2e}")


def test_criterion_02_dispersive_smoothing_bound(tmp_path):
    rc = run_cli(tmp_path, ["verify", "--id", "strichartz"])
    assert rc == 0
    doc = load_report(tmp_path)
    assert doc["passed"] is True
    assert doc["stability"]["drift"] <= 0.10
    print(f"[criterion 02] PASS drift {doc['stability']['drift']:.3%}")


def test_criterion_03_restriction_bound_and_endpoint_growth(tmp_path):
    for r in (4.5, 6.0, 8.0):
        rc = run_cli(tmp_path, ["verify", "--id", "stein_tomas", "--r", str(r)])
        assert rc == 0, f"restriction check unstable at r={r}"
    near = verify(EstimateSpec("stein_tomas", params={"r": 4.1}))
    mid = verify(EstimateSpec("stein_tomas", params={"r": 6.0}))
    assert near.max_ratio > mid.max_ratio  # constant grows toward r = 4
    print(f"[criterion 03] PASS endpoint growth {near.max_ratio / mid.max_ratio:.2f}x")


def test_criterion_04_maximal_and_smoothing_bounds(tmp_path):
    rc = run_cli(tmp_path, ["verify", "--id", "kenig_ruiz"])
    assert rc == 0
    for q in (2.0, 4.0):
        rc = run_cli(tmp_path, ["verify", "--id", "kato", "--q", str(q)])
        assert rc == 0, f"local smoothing unstable at q={q}"
    print("[criterion 04] PASS maximal and local-smoothing checks stable")


def test_criterion_05_retarded_integral_bounds(tmp_path):
    for estimate_id in ("inhom_linf", "inhom_xy"):
        for r in (2.0, 3.0):
            rc = run_cli(tmp_path, ["verify", "--id", estimate_id, "--r", str(r)])
            assert rc == 0, f"{estimate_id} unstable at r={r}"
    print("[criterion 05] PASS retarded-integral checks stable at r=2, 3")


def test_criterion_06_admissible_pair_geometry():
    started = time.perf_counter()
    origin = classify_pair(0.0, math.inf)
    assert origin.acceptable and origin.boundary
    lower = classify_pair(-0.25, 2.0)
    assert lower.acceptable and lower.boundary
    upper = classify_pair(1.0, 2.0)
    assert upper.acceptable and upper.boundary
    for s in (-1.0, 0.0, 0.25, 1.0):
        assert not classify_pair(s, 4.0 / 3.0).acceptable
    count = 0
    for rho in np.linspace(0.0, 0.74, 20):
        r = math.inf if rho == 0.0 else 1.0 / rho
        for s in np.linspace(-0.75, 1.75, 10):
            direct = classify_pair(float(s), r)
            mirrored = classify_pair(1.0 - float(s), holder_conjugate(r))
            assert direct.conjugate_acceptable == mirrored.acceptable
            count += 1
    assert count == 200
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"[criterion 06] PASS corners and 200-point involution in {elapsed:.2f}s")


def test_criterion_07_contraction_solver_with_conservation():
    grid = Grid1D(64.0, 256)
    u0 = gaussian_profile(grid, 0.05)
    for mu in (1.0, -1.0):
        G = NonlinearityG(alpha=5.0, mu=mu)
        cfg = SolverConfig(grid=grid, t_end=1.0)
        res = picard_solve(u0, G, cfg)
        assert res.converged
        assert all(f <= 0.5 for f in res.contraction_factors)
        assert res.diagnostics["mass_drift"] < 1e-8
        assert res.diagnostics["energy_drift"] < 1e-6
        ref = reference_solve(u0, G, cfg)
        gap = float(np.max(np.sqrt(
            band_sum(np.abs(res.trace.coeffs - ref.coeffs) ** 2, half=True) * grid.dxi)))
        assert gap < 1e-6
    print("[criterion 07] PASS contraction, conservation, cross-integrator gap")


def test_criterion_08_small_data_global_bound_and_scattering(tmp_path):
    rc = run_cli(tmp_path, ["scatter"])  # defaults are the acceptance config
    assert rc == 0
    doc = load_report(tmp_path)
    assert doc["passed"] is True
    print("[criterion 08] PASS small-data bound and monotone scattering residuals")


def test_criterion_09_scaling_commutes_with_the_flow():
    alpha, lam = 5.0, 2.0
    G = NonlinearityG(alpha=alpha, mu=1.0)
    grid = Grid1D(64.0, 256)
    u0 = gaussian_profile(grid, 0.05)
    u0s = scaling_transform(u0, lam, alpha)
    rc = critical_exponent(alpha)
    datum_dev = abs(lhat_norm(u0s, rc) / lhat_norm(u0, rc) - 1.0)
    assert datum_dev < 1e-8
    base = picard_solve(u0, G, SolverConfig(grid=grid, t_end=1.0,
                                            samples_per_unit=128))
    # same sample times after rescaling: t -> t / lam^3
    scaled = picard_solve(u0s, G, SolverConfig(grid=u0s.grid, t_end=1.0 / lam ** 3,
                                               samples_per_unit=128 * int(lam ** 3)))
    gap = 0.0
    for m in range(base.trace.sample_count):
        fa = scaling_transform(base.trace.field(m), lam, alpha)
        fb = scaled.trace.field(m)
        gap = max(gap, float(np.sqrt(
            band_sum(np.abs(fa.modes - fb.modes) ** 2, half=True) * fa.grid.dxi)))
    assert gap < 1e-5
    print(f"[criterion 09] PASS commutation gap {gap:.2e}, datum dev {datum_dev:.2e}")


def test_criterion_10_sharp_exponent_families(tmp_path):
    rc = run_cli(tmp_path, ["counterexample", "--family", "sharp_band",
                            "--n", "4,16,64"])
    assert rc == 0
    table = load_report(tmp_path)["report"]["extras"]["table"]
    assert all(abs(row["lhat"] - 1.0) <= 1e-10 for row in table)
    rc = run_cli(tmp_path, ["counterexample", "--family", "log_tail",
                            "--n", "8,64,512"])
    assert rc == 0
    table = load_report(tmp_path)["report"]["extras"]["table"]
    lhats = [row["lhat"] for row in table]
    assert all(b > a for a, b in zip(lhats, lhats[1:]))
    print("[criterion 10] PASS both sharp-exponent families behave as predicted")


def test_criterion_11_energy_threshold_protocol(tmp_path):
    rc = run_cli(tmp_path, ["scatter", "--protocol", "energy-threshold",
                            "--mu", "-1", "--t-end", "32"])
    assert rc == 0
    doc = load_report(tmp_path)
    assert doc["passed"] is True
    result = doc["result"]
    assert result["power_norm_kept"] >= 0.5
    assert not result["monotone_decreasing"] and result["control_monotone"]
    print(f"[criterion 11] PASS kept {result['power_norm_kept']:.1%} of the "
          "nonlinear-power norm while the control run scattered")


def test_criterion_12_flux_estimate_chain(tmp_path):
    for estimate_id in ("nonlinear_i", "nonlinear_ii", "chain_rule"):
        rc = run_cli(tmp_path, ["verify", "--id", estimate_id])
        assert rc == 0, f"{estimate_id} drifted past its gate"
    print("[criterion 12] PASS flux estimates stable under refinement")


def test_criterion_13_long_run_norm_persistence(tmp_path):
    rc = run_cli(tmp_path, ["persist"])  # defaults are the acceptance config
    assert rc == 0
    doc = load_report(tmp_path)
    assert doc["passed"] is True
    result = doc["result"]
    assert result["max_growth"] <= 3.0
    assert doc["result"]["monitor"]["tainted"] is False
    print(f"[criterion 13] PASS auxiliary norms grew {result['max_growth']:.6f}x")
