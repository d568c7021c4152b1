"""Command surface: config merging, exit codes, report files."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gkdvlab
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


def test_an_infinite_box_exits_one_with_one_error_line(tmp_path, capsys):
    """Found by test_cli_never_raises: an infinite half-length built a grid
    whose boundary fraction raised IndexError once the solve was done."""
    assert run(tmp_path, ["solve", "--half-length", "inf", "--size", "16",
                          "--t-end", "0.125", "--max-iterations", "0"]) == 1
    assert capsys.readouterr().err == "error: half_length must be positive and finite, got inf\n"


_ENERGY_SMALL = ["scatter", "--protocol", "energy-threshold", "--mu", "-1",
                 "--size", "64", "--half-length", "16", "--t-end", "0.5"]


@pytest.mark.parametrize("argv", [
    ["solve", "--amp", "nan"],
    ["solve", "--width=-inf"],
    ["solve", "--datum", "random", "--decay", "inf"],
    ["scatter", "--amp", "inf", "--size", "64", "--half-length", "16", "--t-end", "0.5"],
    _ENERGY_SMALL + ["--width", "nan"],
    _ENERGY_SMALL + ["--energy-margin", "inf"],
    _ENERGY_SMALL + ["--control-amp", "nan"],
    ["persist", "--width", "inf", "--size", "64", "--half-length", "16", "--t-end", "0.5"],
])
def test_a_non_finite_datum_parameter_exits_one_without_a_report(tmp_path, capsys, argv):
    """A NaN datum used to run and exit 3 as a blowup at t = 0, the energy
    protocol wrote a report of one, and persist --width inf died dividing by zero."""
    assert run(tmp_path, argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config: ") and "must be finite" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("per_unit", ["1", "0", "-3"])
def test_verify_below_two_samples_per_unit_exits_one(tmp_path, capsys, per_unit):
    """The sampler's floor of 2 intervals used to run while the report echoed the value."""
    assert run(tmp_path, FAST_VERIFY + [f"--samples-per-unit={per_unit}"]) == 1
    assert capsys.readouterr().err == "error: samples_per_unit must be >= 2\n"
    assert not (tmp_path / "out").exists()


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


def test_unresolved_log_tail_band_exits_one(tmp_path, capsys):
    # at size 64 the default box resolves |xi| <= 0.0076, below 1/9
    rc = run(tmp_path, ["counterexample", "--family", "log_tail", "--n", "3,9",
                        "--size", "64"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "resolves none" in lines[0] and "size 64" in lines[0] and "n = 3" in lines[0]
    assert not (tmp_path / "out" / "report.json").exists()


def test_calibrate_delta_command(tmp_path, capsys):
    rc = run(tmp_path, ["calibrate-delta", "--amplitudes", "0.05,0.1",
                        "--size", "64", "--half-length", "16"])
    assert rc == 0
    result = load_report(tmp_path)["result"]
    assert set(result) >= {"delta", "edge", "rows"}
    assert len(result["rows"]) == 12  # 2 amplitudes x 2 signs x 3 data
    # the probe table, one line per row of the report, then the shipped default
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["mu", "amplitude", "datum", "epsilon", "factor", "converged"]
    for line, row in zip(lines[1:13], result["rows"]):
        mu, amplitude, datum, epsilon, factor, converged = line.split()
        assert (float(mu), datum, converged) == (row["mu"], row["datum"], str(row["converged"]))
        assert float(amplitude) == pytest.approx(row["amplitude"], abs=5e-5)
        assert float(epsilon) == pytest.approx(row["epsilon"], abs=5e-5)
        assert float(factor) == pytest.approx(row["factor"], rel=5e-3)
    assert lines[13] == f"shipped DELTA_DEFAULT: {solver.DELTA_DEFAULT:g}"
    assert result["delta"] != solver.DELTA_DEFAULT and lines[14].startswith("note: ")
    assert lines[15].startswith(f"calibrate-delta: delta={result['delta']:g} ")


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

    def recording(u0, G, cfg, _solve=cli.reference_solve, **kwargs):
        calls.append((u0, G, cfg))
        return _solve(u0, G, cfg, **kwargs)

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


def test_energy_protocol_store_stride_thins_the_trace_only(tmp_path):
    # at 128 samples per unit over [0, 2]: 257 samples, every 4th and the last
    # kept by default; the dyadic checkpoints T/16 .. T are all kept rows
    reports = {}
    for stride, argv, rows in ((1, ["--store-stride", "1"], 257), (4, [], 65)):
        out = tmp_path / str(stride)
        out.mkdir()
        trace_path = out / "e.trace"
        argv = ENERGY + ["--samples-per-unit", "128"] + argv
        assert run(out, argv + ["--save-trace", str(trace_path)]) == 2
        trace, meta = read_trace(trace_path)
        assert trace.sample_count == rows and meta["config"]["store_stride"] == stride
        text = (out / "out" / "report.json").read_text()
        reports[stride] = text.replace(str(out), "<out>")
    # the reports differ only in the echoed stride
    assert reports[1].count('"store_stride": 1') == 1
    assert reports[1].replace('"store_stride": 1', '"store_stride": 4') == reports[4]


def test_energy_protocol_result_is_the_same_at_32_and_128_samples_per_unit(tmp_path):
    # the default reference_dt, 1/256, divides both output steps, so both runs
    # take the same RK4 substeps, and every checkpoint is a kept row of both
    results = []
    for per_unit in ("32", "128"):
        out = tmp_path / per_unit
        out.mkdir()
        assert run(out, ENERGY + ["--samples-per-unit", per_unit]) == 2
        doc = load_report(out)
        assert doc["reference_step"] == 1.0 / 256.0
        results.append(json.dumps(doc["result"]))
    assert results[0] == results[1]


@pytest.mark.parametrize("command, step", [
    (["solve", "--reference"], 1.0 / 256.0),
    (["solve", "--reference", "--reference-dt", "0.005"], 1.0 / 224.0),
    (ENERGY + ["--reference-dt", "0.005"], 1.0 / 224.0),
    (ENERGY + ["--samples-per-unit", "128", "--reference-dt", "0.005"], 1.0 / 256.0),
])
def test_reports_echo_the_reference_step_run(tmp_path, command, step):
    # reference_dt is snapped to divide each output step of 1/32 (or 1/128)
    assert run(tmp_path, command) in (0, 2)
    assert load_report(tmp_path)["reference_step"] == step


@pytest.mark.parametrize("argv", [
    ["scatter", "--t-end", "0.25", "--size", "256", "--half-length", "64"],
    ENERGY, ["persist", "--t-end", "0.25", "--size", "256", "--half-length", "64"],
])
@pytest.mark.parametrize("stride", ["0", "-64"])
def test_store_stride_below_one_exits_one(tmp_path, capsys, argv, stride):
    assert run(tmp_path, argv + ["--store-stride", stride]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines == [f"error: store_stride must be >= 1, got {stride}"]
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("step", ["-1", "0", "nan"])
def test_reference_step_not_above_zero_exits_one(tmp_path, capsys, step):
    assert run(tmp_path, ["solve", "--reference", "--reference-dt", step]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: reference_dt must be > 0, got {float(step)}"]
    assert not (tmp_path / "out" / "report.json").exists()


def test_out_of_memory_exits_one_with_one_line(tmp_path, monkeypatch, capsys):
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 128. GiB for an array")

    monkeypatch.setattr(cli, "picard_solve", too_large)
    assert run(tmp_path, ["solve"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: Unable to allocate 128. GiB for an array"]


def test_energy_protocol_control_blowup_exits_three(tmp_path, capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        rc = run(tmp_path, ENERGY + ["--control-amp", "3"])
    assert rc == 3
    assert not (tmp_path / "out" / "report.json").exists()
    assert "numerical blowup" in capsys.readouterr().err


@pytest.mark.parametrize("command,config", [
    ("verify", {"size": "256"}), ("verify", {"size": None}),
    ("verify", {"ensemble": "x"}), ("verify", {"seed": 1.5}),
    ("verify", {"n": [4, "16"]}), ("verify", {"ensemble": True}),
    ("solve", {"amp": "0.1"}), ("solve", {"reference": 1}),
    ("persist", {"aux_lhat": None}), ("calibrate-delta", {"amplitudes": [0.1, False]}),
])
def test_mistyped_config_value_exits_one(tmp_path, capsys, command, config):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert run(tmp_path, [command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config: ")
    assert next(iter(config)) in err
    assert not (tmp_path / "out").exists()


def test_config_numbers_are_echoed_as_given(tmp_path):
    path = tmp_path / "run.json"
    # an int for a float key, and the report spelling of an infinite exponent
    path.write_text(json.dumps({"id": "kato", "q": "inf", "half_length": 32, "size": 128,
                                "ensemble": 2}))
    assert run(tmp_path, ["verify", "--config", str(path)]) == 0
    doc = load_report(tmp_path)
    assert doc["config"]["half_length"] == 32 and doc["report"]["L"] == 32.0
    assert doc["config"]["q"] == "inf" and doc["report"]["params"]["q"] == "inf"


# --- hostile input never raises ----------------------------------------------

# Flags that keep every run short: small grids, short horizons, tiny ensembles.
_SIZES = st.sampled_from(["16", "32", "64"])
_HORIZON = dict(half_length=st.sampled_from(["8", "16"]),
                t_end=st.sampled_from(["0.125", "0.25", "0.5"]))
_SAMPLING = dict(_HORIZON, samples_per_unit=st.sampled_from(["16", "32"]))
_SMALL = {
    "verify": dict(_SAMPLING, id=st.sampled_from(estimates.ESTIMATE_IDS), size=_SIZES,
                   ensemble=st.sampled_from(["1", "2", "3"])),
    "solve": dict(_SAMPLING, size=_SIZES, datum=st.sampled_from(["gaussian", "random"]),
                  reference=st.booleans()),
    "scatter": dict(_SAMPLING, size=_SIZES, mu=st.sampled_from(["1", "-1"]),
                    protocol=st.sampled_from(["small-data", "energy-threshold"])),
    "counterexample": dict(family=st.sampled_from(["sharp_band", "log_tail"]),
                           n=st.sampled_from(["1,2", "3,9"]),
                           size=st.sampled_from(["64", "256"])),
    "calibrate-delta": dict(_HORIZON, size=_SIZES, amplitudes=st.sampled_from(["0.05", "0.05,0.5"]),
                            random_per_amplitude=st.sampled_from(["0", "1"])),
    "persist": dict(_SAMPLING, size=_SIZES, segment_length=st.sampled_from(["0.25", "2"])),
}
_HOSTILE = {
    int: ["0", "-1", "-64"],
    float: ["nan", "inf", "-inf", "0", "-1"],
    cli._int_list: ["0", "-1,2", ""],
    cli._float_list: ["nan", "inf,-1", "0", ""],
}
# config values of the wrong JSON type; null counts only where the default is not None
_WRONG = {
    int: ["256", 1.5, True, [1], {}, None],
    float: ["0.1", True, [0.5], {}, None],
    str: [1, True, ["x"], 2.5, None],
    bool: [1, "true", None],
    cli._int_list: ["1,2", 1, [True], ["x"], [1.5], None],
    cli._float_list: ["0.1", 0.1, [True], ["x"], None],
}


@st.composite
def _hostile_runs(draw):
    command = draw(st.sampled_from(sorted(_SMALL)))
    keys = cli._KEYS[command]
    flags = {key: draw(s) for key, s in _SMALL[command].items()}
    numeric = sorted(k for k, (_, kind) in keys.items() if kind in _HOSTILE)
    for key in draw(st.lists(st.sampled_from(numeric), max_size=2, unique=True)):
        flags[key] = draw(st.sampled_from(_HOSTILE[keys[key][1]]))
    config = None
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        key = draw(st.sampled_from(sorted(k for k in keys if k != "out")))
        default, kind = keys[key]
        wrong = [v for v in _WRONG[kind] if not (v is None and default is None)]
        config = {key: draw(st.sampled_from(wrong))}
    return command, flags, config


@settings(max_examples=200, deadline=None)
@given(_hostile_runs())
def test_cli_never_raises(case):
    command, flags, config = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, "--out", str(Path(tmp) / "out")]
        for key, value in flags.items():
            flag = "--" + key.replace("_", "-")
            if value is True:
                argv.append(flag)
            elif value is not False:
                argv.append(f"{flag}={value}")  # "=" keeps "-1" a value, not a flag
        if command in ("solve", "scatter", "persist"):
            argv += ["--save-trace", str(Path(tmp) / "run.trace")]
        if config is not None:
            path = Path(tmp) / "run.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
    assert code in (0, 1, 2, 3)
    if config is not None:
        assert code == 1
        assert err.getvalue().startswith("config: ") and err.getvalue().count("\n") == 1


# Values argparse cannot parse; a list that starts with "-" and is passed
# as a separate argument reads as a flag, so the list key gets no value.
_UNPARSEABLE = {
    int: ["x", "1.5", "0x10"],
    float: ["x", "1,2", "one"],
    cli._int_list: ["x", "1,y"],
    cli._float_list: ["x", "0.5,y"],
}


@st.composite
def _unparseable_runs(draw):
    command = draw(st.sampled_from(sorted(cli._KEYS)))
    keys = cli._KEYS[command]
    key = draw(st.sampled_from(sorted(k for k, (_, kind) in keys.items()
                                      if kind in _UNPARSEABLE)))
    kind = keys[key][1]
    flag = "--" + key.replace("_", "-")
    if kind in (cli._int_list, cli._float_list) and draw(st.booleans()):
        return [command, flag, draw(st.sampled_from(["-1,2", "-0.5,1"]))]
    return [command, f"{flag}={draw(st.sampled_from(_UNPARSEABLE[kind]))}"]


@settings(max_examples=100, deadline=None)
@given(_unparseable_runs())
def test_unparseable_flags_exit_one(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--out", str(Path(tmp) / "out")])
        assert not (Path(tmp) / "out").exists()
    assert code == 1
    lines = err.getvalue().splitlines()
    assert lines[0].startswith("usage: gkdvlab " + argv[0])
    assert lines[-1].startswith(f"gkdvlab {argv[0]}: error: ")


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["verify", "--help"]])
def test_help_and_version_still_exit_zero(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out


def test_importing_the_cli_leaves_concurrent_futures_out():
    """The ensemble legs' helper thread is a plain threading.Thread:
    concurrent.futures alone would add about 12 ms to every process's set-up."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gkdvlab.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, gkdvlab.cli; "
            "sys.exit(' '.join(m for m in sys.modules if m.startswith('concurrent')) or None)")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
