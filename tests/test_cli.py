"""Command surface: config merging, exit codes, report files."""

import json
from pathlib import Path

import numpy as np
import pytest

from gkdvlab import cli, estimates, solver
from gkdvlab.cli import main
from gkdvlab.estimates import EstimateReport
from gkdvlab.solver import NumericalBlowupError
from gkdvlab.traceio import read_trace


def run(tmp, argv):
    return main(argv + ["--out", str(tmp / "out")])


def load_report(tmp):
    return json.loads((tmp / "out" / "report.json").read_text())


FAST_VERIFY = ["verify", "--id", "stein_tomas", "--ensemble", "6",
               "--size", "128", "--half-length", "32"]


def test_verify_writes_reproducible_reports(tmp_path, monkeypatch):
    # identical relative out paths so the embedded config matches byte-for-byte
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        monkeypatch.chdir(d)
        assert main(FAST_VERIFY + ["--out", "rpt"]) == 0
    blob_a = (tmp_path / "a" / "rpt" / "report.json").read_bytes()
    blob_b = (tmp_path / "b" / "rpt" / "report.json").read_bytes()
    assert blob_a == blob_b
    csv_a = (tmp_path / "a" / "rpt" / "samples.csv").read_bytes()
    assert csv_a == (tmp_path / "b" / "rpt" / "samples.csv").read_bytes()


def test_verify_report_contents(tmp_path):
    assert run(tmp_path, FAST_VERIFY) == 0
    doc = load_report(tmp_path)
    assert doc["command"] == "verify"
    assert doc["passed"] is True
    assert doc["report"]["id"] == "stein_tomas"
    assert doc["stability"]["drift"] <= doc["stability"]["threshold"]
    assert (tmp_path / "out" / "samples.csv").exists()


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"ensemble": 4, "size": 128, "half_length": 32.0}))
    rc = run(tmp_path, ["verify", "--id", "stein_tomas",
                        "--config", str(cfg), "--ensemble", "6"])
    assert rc == 0
    resolved = load_report(tmp_path)["config"]
    assert resolved["ensemble"] == 6  # explicit flag beats the file
    assert resolved["size"] == 128  # file beats the default
    assert resolved["samples_per_unit"] == 128  # untouched default


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"ensmeble": 4}))
    rc = run(tmp_path, ["verify", "--id", "stein_tomas", "--config", str(cfg)])
    assert rc == 1
    assert "ensmeble" in capsys.readouterr().err


def test_out_of_hypothesis_flag_exits_one(tmp_path):
    assert run(tmp_path, ["verify", "--id", "stein_tomas", "--ensemble", "2",
                          "--size", "128", "--half-length", "32", "--r", "4.0"]) == 1


def test_unreachable_stability_gate_exits_two(tmp_path):
    rc = run(tmp_path, FAST_VERIFY + ["--stability-threshold", "1e-9"])
    assert rc == 2
    assert load_report(tmp_path)["passed"] is False


def test_verify_applies_ensemble_floor(tmp_path):
    rc = run(tmp_path, ["verify", "--id", "inhom_xy", "--size", "64",
                        "--half-length", "16", "--samples-per-unit", "32"])
    assert rc == 0
    # the retarded-integral maxima need the deeper ensemble; the resolved
    # value is echoed so reports are self-describing
    assert load_report(tmp_path)["config"]["ensemble"] == 100


def test_solve_round_trip_with_trace(tmp_path):
    trace_path = tmp_path / "run.trace"
    rc = run(tmp_path, ["solve", "--amp", "0.05", "--half-length", "32",
                        "--size", "128", "--t-end", "0.5", "--reference",
                        "--save-trace", str(trace_path)])
    assert rc == 0
    doc = load_report(tmp_path)
    assert doc["result"]["converged"] is True
    assert doc["result"]["reference_distance"] < 1e-6
    trace, meta = read_trace(trace_path)
    assert trace.times[0] == 0.0 and trace.times[-1] == 0.5
    assert meta["config"]["amp"] == 0.05


def test_solve_gate_refusal_exits_two(tmp_path):
    rc = run(tmp_path, ["solve", "--amp", "2.0", "--half-length", "32",
                        "--size", "128", "--t-end", "1.0"])
    assert rc == 2
    doc = load_report(tmp_path)
    assert doc["result"]["converged"] is False
    assert "gate" in doc["result"]["reason"]


def test_numerical_blowup_exits_three(tmp_path):
    with np.errstate(over="ignore", invalid="ignore"):
        rc = run(tmp_path, ["solve", "--datum", "gaussian", "--amp", "2.0",
                            "--mu", "-1", "--delta", "1000", "--t-end", "1.0",
                            "--half-length", "32", "--size", "128"])
    assert rc == 3


def test_counterexample_command(tmp_path, capsys):
    rc = run(tmp_path, ["counterexample", "--family", "sharp_band",
                        "--n", "4,16"])
    assert rc == 0
    table = capsys.readouterr().out
    assert "sharp_band" in table and "predicted" in table
    assert (tmp_path / "out" / "samples.csv").exists()
    doc = load_report(tmp_path)
    assert [row["n"] for row in doc["report"]["extras"]["table"]] == [4, 16]


def test_calibrate_delta_command(tmp_path):
    rc = run(tmp_path, ["calibrate-delta", "--amplitudes", "0.05,0.1",
                        "--size", "64", "--half-length", "16"])
    assert rc == 0
    result = load_report(tmp_path)["result"]
    assert set(result) >= {"delta", "edge", "rows"}
    assert len(result["rows"]) == 12  # 2 amplitudes x 2 signs x 3 data


def test_persist_short_horizon(tmp_path):
    rc = run(tmp_path, ["persist", "--t-end", "1.0", "--half-length", "64",
                        "--size", "256", "--segment-length", "0.5"])
    assert rc == 0
    doc = load_report(tmp_path)
    assert doc["passed"] is True
    assert doc["result"]["monitor"]["tainted"] is False
    assert doc["result"]["max_growth"] <= doc["result"]["growth_bound"]


def test_bad_scatter_protocol_exits_one(tmp_path):
    assert run(tmp_path, ["scatter", "--protocol", "sideways"]) == 1


def test_degenerate_ensemble_exits_one(tmp_path, monkeypatch, capsys):
    # stein_tomas divides by the datum's Fourier-Lebesgue norm
    monkeypatch.setattr(estimates, "lhat_norm", lambda f, r: 0.0)
    assert run(tmp_path, FAST_VERIFY) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "degenerate right-hand side" in err
    assert not (tmp_path / "out" / "report.json").exists()


def test_uncalibratable_sweep_exits_one(tmp_path, capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        rc = run(tmp_path, ["calibrate-delta", "--amplitudes", "40",
                            "--random-per-amplitude", "0", "--size", "16",
                            "--half-length", "4", "--t-end", "0.25"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no probe contracted" in err


@pytest.mark.parametrize("refined,drift,code", [(0.0, 0.0, 0), (0.5, "inf", 2)])
def test_drift_gate_with_a_zero_base(tmp_path, monkeypatch, refined, drift, code):
    def zero_base(spec):
        legs = [{"size": spec.size, "ensemble": spec.ensemble,
                 "max_ratio": m, "mean_ratio": m} for m in (0.0, refined, refined)]
        return EstimateReport(spec.estimate_id, {}, spec.seed, spec.half_length,
                              spec.size, 129, spec.ensemble, [0.0], 0.0, 0.0, legs,
                              [{"sample": 0, "decay": 0.6, "ratio": 0.0}])

    monkeypatch.setattr(cli, "verify", zero_base)
    assert run(tmp_path, FAST_VERIFY) == code
    doc = load_report(tmp_path)
    assert doc["stability"]["drift"] == drift
    assert doc["passed"] is (code == 0)


ENERGY = ["scatter", "--protocol", "energy-threshold", "--mu", "-1", "--t-end", "2",
          "--size", "256", "--half-length", "64"]


def test_energy_protocol_big_blowup_writes_report(tmp_path, monkeypatch):
    calls = []

    def recording(u0, G, cfg, _solve=cli.reference_solve):
        calls.append((u0, G, cfg))
        return _solve(u0, G, cfg)

    monkeypatch.setattr(cli, "reference_solve", recording)
    with np.errstate(over="ignore", invalid="ignore"):
        rc = run(tmp_path, ENERGY + ["--energy-margin", "3"])
        [(stack, G, cfg)] = calls  # big and control in one stacked call
        with pytest.raises(NumericalBlowupError) as info:
            solver.reference_solve(stack[0], G, cfg)
    assert rc == 3 and len(stack) == 2
    doc = load_report(tmp_path)
    assert doc["passed"] is False
    assert doc["blowup_time"] == info.value.time


def test_energy_protocol_control_blowup_exits_three(tmp_path, capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        rc = run(tmp_path, ENERGY + ["--control-amp", "3"])
    assert rc == 3
    assert not (tmp_path / "out" / "report.json").exists()
    assert "numerical blowup" in capsys.readouterr().err
