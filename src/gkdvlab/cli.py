"""Command line front end: reproducible experiment runs with JSON reports.

Every subcommand resolves its configuration from centralized defaults, an
optional --config JSON document, and explicit flags (flags win), echoes the
resolved configuration into report.json, and exits 0 on success, 2 when a
quantitative gate fails (reports are still written), 1 on configuration or
runtime errors (a flag argparse cannot parse and a --config value of the
wrong type among them), and 3 on numerical blowup.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .diagnostics import monitor, nonpositive_energy_amplitude, scattering_state
from .estimates import EstimateSpec, _estimate, verify
from .norms import band_sum, lhat_norm, lhat_sup, lebesgue_norm, sobolev_norm
from .solver import (
    DELTA_DEFAULT,
    FieldStack,
    NonlinearityG,
    NumericalBlowupError,
    SolverConfig,
    calibrate_delta,
    critical_exponent,
    glued_solve,
    picard_solve,
    reference_solve,
    reference_step,
    solve_diagnostics,
)
from .spacetime import TimeTrace, snorm
from .spectral import Grid1D, gaussian_profile, random_band_limited
from .traceio import atomic_write_json, write_trace

_EXIT_OK = 0
_EXIT_ERROR = 1
_EXIT_THRESHOLD = 2
_EXIT_BLOWUP = 3


class ConfigError(ValueError):
    pass


def _int_list(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _float_list(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part.strip()]


# The datum, coupling, sampling and output keys that solve, scatter and
# persist share, with their common defaults.
_FLOW: Dict[str, tuple] = {
    "alpha": (5.0, float), "mu": (1.0, float), "datum": ("gaussian", str),
    "amp": (0.05, float), "width": (1.0, float), "decay": (1.0, float),
    "band": (None, int), "seed": (0, int), "samples_per_unit": (32, int),
    "delta": (None, float), "pad": (2, int), "save_trace": (None, str), "out": (".", str),
}

# Per command, key -> (default, kind).  The kind parses the --flag (bool is
# a switch) and fixes the JSON type a --config value must have: a string, an
# integer, a number (an integer is accepted and echoed as given; "inf",
# "-inf" and "nan" are the report spellings of the non-finite floats), true
# or false, or a list of integers or numbers.  null is accepted only where
# the default is None.
_KEYS: Dict[str, Dict[str, tuple]] = {
    "verify": {
        "id": ("stein_tomas", str), "r": (None, float), "s": (None, float),
        "q": (None, float), "theta": (None, float), "s1": (None, float),
        "s2": (None, float), "alpha": (None, float), "mu": (None, float),
        "case": (None, str), "family": (None, str), "n": (None, _int_list),
        "p": (None, float), "half_length": (64.0, float), "size": (256, int),
        "t_start": (0.0, float), "t_end": (1.0, float),
        "samples_per_unit": (128, int), "ensemble": (None, int), "seed": (0, int),
        "band": (None, int), "amplitude": (1.0, float),
        "stability_threshold": (None, float), "out": (".", str),
    },
    "solve": {
        **_FLOW, "half_length": (64.0, float), "size": (256, int),
        "t_start": (0.0, float), "t_end": (1.0, float), "tolerance": (1e-10, float),
        "max_iterations": (25, int), "exploratory": (False, bool),
        "reference": (False, bool), "reference_dt": (1.0 / 256.0, float),
        "mass_drift_bound": (1e-8, float), "energy_drift_bound": (1e-6, float),
        "reference_bound": (1e-6, float),
    },
    "scatter": {
        **_FLOW, "protocol": ("small-data", str), "half_length": (256.0, float),
        "size": (1024, int), "t_end": (64.0, float), "segment_length": (2.0, float),
        "store_stride": (4, int), "levels": (4, int), "reference_dt": (1.0 / 256.0, float),
        "control_amp": (0.05, float), "energy_margin": (1.0, float),
    },
    "counterexample": {
        "family": ("sharp_band", str), "r": (4.0, float), "n": (None, _int_list),
        "p": (None, float), "half_length": (None, float), "size": (None, int),
        "out": (".", str),
    },
    "calibrate-delta": {
        "alpha": (5.0, float), "amplitudes": (None, _float_list), "seed": (0, int),
        "random_per_amplitude": (2, int), "half_length": (64.0, float),
        "size": (256, int), "t_start": (0.0, float), "t_end": (1.0, float),
        "out": (".", str),
    },
    "persist": {
        **_FLOW,
        # box large enough that no resolvable group speed crosses 0.9L
        # by t_end; smaller boxes trip the boundary-mass taint flag
        "half_length": (1024.0, float), "size": (4096, int), "t_end": (16.0, float),
        "segment_length": (2.0, float), "store_stride": (4, int),
        "aux_lhat": ([1.8, 2.5], _float_list), "aux_sobolev": ([0.5, 1.0], _float_list),
        "growth_bound": (3.0, float),
    },
}

_KIND_NAMES = {str: "a string", int: "an integer", float: "a number",
               bool: "true or false", _int_list: "a list of integers",
               _float_list: "a list of numbers"}
_JSON_FLOATS = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ConfigError, so that main exits 1.

    Subparsers are made with the same class.  --help and --version still
    exit 0 from inside argparse.
    """

    def error(self, message: str):
        raise ConfigError(f"{self.format_usage()}{self.prog}: error: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gkdvlab",
        description="spectral laboratory for a dispersion-generalized KdV flow",
    )
    parser.add_argument("--version", action="version", version=f"gkdvlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, keys in _KEYS.items():
        sp = sub.add_parser(command)
        sp.add_argument("--config", default=None, help="JSON config file; flags override")
        for key, (_, kind) in keys.items():
            flag = "--" + key.replace("_", "-")
            if kind is bool:
                sp.add_argument(flag, action="store_true", default=argparse.SUPPRESS)
            else:
                sp.add_argument(flag, type=kind, default=argparse.SUPPRESS)
    return parser


def _scalar(value, kind):
    """value if it has the JSON type of kind (TypeError if not); report spellings become floats."""
    if isinstance(value, bool) != (kind is bool):
        raise TypeError
    if kind is float and isinstance(value, str) and value in _JSON_FLOATS:
        return _JSON_FLOATS[value]
    if not isinstance(value, (int, float) if kind is float else kind):
        raise TypeError
    return value


def _config_value(command: str, key: str, value):
    default, kind = _KEYS[command][key]
    if value is None and default is None:
        return None
    try:
        if kind in (_int_list, _float_list):
            if not isinstance(value, list):
                raise TypeError
            item = int if kind is _int_list else float
            return [_scalar(v, item) for v in value]
        return _scalar(value, kind)
    except TypeError:
        raise ConfigError(f"config: {key!r} for command {command!r} must be "
                          f"{_KIND_NAMES[kind]}, got {json.dumps(value)}") from None


def _resolve_config(args: argparse.Namespace) -> dict:
    command = args.command
    keys = _KEYS[command]
    resolved = {key: default for key, (default, _) in keys.items()}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config: top level must be a JSON object")
        for key, value in loaded.items():
            if key not in keys:
                raise ConfigError(
                    f"config: unknown key {key!r} for command {command!r}"
                )
            resolved[key] = _config_value(command, key, value)
    provided = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    resolved.update(provided)
    return resolved


def _flow(cfg: dict, datum: bool = True):
    """The grid, the datum (None if not datum) and G of solve, scatter and persist.

    Datum and control sizes must be finite: a NaN or infinite one would
    surface only later, as a blowup at t = 0 or a division by zero.
    """
    for key in ("amp", "width", "decay", "control_amp", "energy_margin"):
        if key in cfg and not math.isfinite(cfg[key]):
            raise ConfigError(f"config: {key!r} must be finite, got {cfg[key]}")
    grid = Grid1D(cfg["half_length"], cfg["size"])
    kind = cfg["datum"] if datum else None
    u0 = None
    if kind == "gaussian":
        u0 = gaussian_profile(grid, cfg["amp"], cfg["width"])
    elif kind == "random":
        band = cfg["band"] if cfg["band"] is not None else grid.size // 4
        u0 = cfg["amp"] * random_band_limited(grid, decay=cfg["decay"], band=band,
                                              seed=cfg["seed"])
    elif kind is not None:
        raise ConfigError(f"config: datum must be gaussian or random, got {kind!r}")
    return grid, u0, NonlinearityG(alpha=cfg["alpha"], mu=cfg["mu"])


def _solver_config(cfg: dict, grid: Grid1D) -> SolverConfig:
    # keys a command lacks, or leaves at None, keep SolverConfig's defaults
    given = {key: cfg[key] for key in ("t_start", "tolerance", "max_iterations", "delta",
                                       "exploratory", "reference_dt") if cfg.get(key) is not None}
    return SolverConfig(grid=grid, t_end=cfg["t_end"], samples_per_unit=cfg["samples_per_unit"],
                        pad=cfg["pad"], **given)


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _report_skeleton(command: str, cfg: dict) -> dict:
    return {"version": __version__, "command": command, "config": cfg}


def _finish(cfg: dict, doc: dict, passed: bool, summary: str,
            trace: Optional[TimeTrace] = None, failed: int = _EXIT_THRESHOLD) -> int:
    """Every command's tail: record the verdict, write the outputs, print, exit code.

    The trace is saved only when given and --save-trace names a file;
    failed is the exit code of a run that did not pass.
    """
    doc["passed"] = passed
    if trace is not None and cfg.get("save_trace"):
        write_trace(Path(cfg["save_trace"]), trace, {"config": cfg, "version": __version__})
    path = _out_dir(cfg) / "report.json"
    atomic_write_json(path, doc)
    print(summary)
    print(f"report: {path}")
    return _EXIT_OK if passed else failed


def _verdict(passed: bool) -> str:
    return "pass" if passed else "FAIL"


def _cmd_verify(cfg: dict) -> int:
    params = {key: cfg[key] for key in ("r", "s", "q", "theta", "s1", "s2", "alpha", "mu",
                                        "case", "family", "n", "p") if cfg[key] is not None}
    row = _estimate(cfg["id"])
    if cfg["ensemble"] is None:
        cfg["ensemble"] = row.floor
    spec = EstimateSpec(
        cfg["id"], params,
        half_length=cfg["half_length"], size=cfg["size"],
        interval=(cfg["t_start"], cfg["t_end"]),
        samples_per_unit=cfg["samples_per_unit"], ensemble=cfg["ensemble"],
        seed=cfg["seed"], band=cfg["band"], amplitude=cfg["amplitude"],
    )
    report = verify(spec)
    threshold = cfg["stability_threshold"]
    if threshold is None:
        threshold = row.gate
    base = report.refinement[0]["max_ratio"]
    drift = 0.0
    for entry in report.refinement[1:]:
        if "interval" in entry:
            continue  # interval growth is reported, not gated
        gap = abs(entry["max_ratio"] - base)
        # a zero base is stable only if the refined leg is zero too
        drift = max(drift, gap / base if base else (math.inf if gap else 0.0))
    finite = all(math.isfinite(x) for x in report.ratios)
    passed = finite and drift <= threshold
    doc = _report_skeleton("verify", cfg)
    doc["report"] = report.to_dict()
    doc["stability"] = {"threshold": threshold, "drift": drift}
    report.write_csv(_out_dir(cfg) / "samples.csv")
    return _finish(cfg, doc, passed,
                   f"{cfg['id']}: max_ratio={report.max_ratio:.6g} "
                   f"drift={drift:.3%} (gate {threshold:.0%}) -> {_verdict(passed)}")


def _cmd_solve(cfg: dict) -> int:
    grid, u0, G = _flow(cfg)
    scfg = _solver_config(cfg, grid)
    result = picard_solve(u0, G, scfg)
    # the gate's own test: a declined solve has no iterate to diagnose
    diagnostics = {} if result.epsilon > result.delta else \
        solve_diagnostics(result.trace, u0, G, scfg, result.epsilon)
    doc = _report_skeleton("solve", cfg)
    # every field of the result but its trace, which --save-trace writes
    doc["result"] = {f.name: getattr(result, f.name) for f in fields(result) if f.name != "trace"}
    doc["result"]["diagnostics"] = diagnostics
    passed = result.converged
    if result.converged:
        passed = (diagnostics["mass_drift"] <= cfg["mass_drift_bound"]
                  and diagnostics["energy_drift"] <= cfg["energy_drift_bound"])
        if cfg["reference"]:
            doc["reference_step"] = reference_step(scfg)
            ref = reference_solve(u0, G, scfg)
            gap = float(np.max(np.sqrt(
                band_sum(np.abs(result.trace.coeffs - ref.coeffs) ** 2, half=True) * grid.dxi)))
            doc["result"]["reference_distance"] = gap
            passed = passed and gap <= cfg["reference_bound"]
    state = "converged" if result.converged else f"not converged ({result.reason})"
    return _finish(cfg, doc, passed,
                   f"solve: {state} in {result.iterations} iterations, "
                   f"epsilon={result.epsilon:.4g} -> {_verdict(passed)}",
                   trace=result.trace if result.converged else None)


def _cmd_scatter(cfg: dict) -> int:
    if cfg["protocol"] == "small-data":
        return _scatter_small(cfg)
    if cfg["protocol"] == "energy-threshold":
        return _scatter_energy(cfg)
    raise ConfigError(
        f"config: protocol must be small-data or energy-threshold, got {cfg['protocol']!r}"
    )


def _glued(cfg: dict, command: str):
    """The glued solve of scatter small-data and persist, and its report so far."""
    grid, u0, G = _flow(cfg)
    glued = glued_solve(u0, G, _solver_config(cfg, grid),
                        segment_length=cfg["segment_length"],
                        store_stride=cfg["store_stride"])
    doc = _report_skeleton(command, cfg)
    doc["segments"] = glued.segments
    if not glued.converged:
        doc["reason"] = glued.reason
    return u0, G, glued, doc


def _scatter_small(cfg: dict) -> int:
    u0, G, glued, doc = _glued(cfg, "scatter")
    if not glued.converged:
        return _finish(cfg, doc, False, f"scatter: glued solve failed: {glued.reason}")
    rc = critical_exponent(cfg["alpha"])
    datum_norm = lhat_norm(u0, rc)
    sup_norm = lhat_sup(glued.trace.coeffs, u0.grid.dxi, rc)
    size_norm = snorm(glued.trace, rc)
    bound = 2.0 * datum_norm
    report = scattering_state(glued.trace, cfg["alpha"], levels=cfg["levels"])
    doc["result"] = {
        "datum_norm": datum_norm,
        "sup_norm": sup_norm,
        "snorm": size_norm,
        "bound": bound,
        "checkpoint_times": report.checkpoint_times,
        "residuals": report.residuals,
        "monotone_decreasing": report.monotone_decreasing,
        "final_norm": report.final_norm,
    }
    passed = (sup_norm + size_norm <= bound) and report.monotone_decreasing
    return _finish(cfg, doc, passed,
                   f"scatter small-data: sup+snorm={sup_norm + size_norm:.4g} "
                   f"bound={bound:.4g} residuals monotone={report.monotone_decreasing} "
                   f"-> {_verdict(passed)}", trace=glued.trace)


def _scatter_energy(cfg: dict) -> int:
    if cfg["mu"] >= 0:
        raise ConfigError("config: the energy-threshold protocol needs mu < 0")
    grid, _, G = _flow(cfg, datum=False)
    profile = gaussian_profile(grid, 1.0, cfg["width"])
    threshold = nonpositive_energy_amplitude(profile, G)
    amp = cfg["energy_margin"] * threshold
    big = amp * profile
    control = gaussian_profile(grid, cfg["control_amp"], cfg["width"])
    scfg = _solver_config(cfg, grid)
    doc = _report_skeleton("scatter", cfg)
    doc["threshold_amplitude"] = threshold
    doc["run_amplitude"] = amp
    doc["reference_step"] = reference_step(scfg)
    power = cfg["alpha"] + 1.0
    lp0 = lebesgue_norm(big, power)
    try:
        trace, ctl_trace = reference_solve(FieldStack((big, control)), G, scfg,
                                           store_stride=cfg["store_stride"])
    except NumericalBlowupError as exc:
        if exc.datum != 0:
            raise  # the control run failed: exit 3 with no report
        doc["blowup_time"] = exc.time
        return _finish(cfg, doc, False,
                       f"scatter energy-threshold: blowup at t={exc.time:.4g}",
                       failed=_EXIT_BLOWUP)
    big_report = scattering_state(trace, cfg["alpha"], levels=cfg["levels"])
    lp_final = lebesgue_norm(trace.field(trace.sample_count - 1), power)
    ctl_report = scattering_state(ctl_trace, cfg["alpha"], levels=cfg["levels"])
    doc["result"] = {
        "residuals": big_report.residuals,
        "monotone_decreasing": big_report.monotone_decreasing,
        "control_residuals": ctl_report.residuals,
        "control_monotone": ctl_report.monotone_decreasing,
        "power_norm_initial": lp0,
        "power_norm_final": lp_final,
        "power_norm_kept": lp_final / lp0,
    }
    passed = (not big_report.monotone_decreasing
              and ctl_report.monotone_decreasing
              and lp_final >= 0.5 * lp0)
    return _finish(cfg, doc, passed,
                   f"scatter energy-threshold: kept {lp_final / lp0:.1%} of the "
                   f"L^{power:g} norm, residual decay={big_report.monotone_decreasing}, "
                   f"control decay={ctl_report.monotone_decreasing} -> {_verdict(passed)}",
                   trace=trace)


def _cmd_counterexample(cfg: dict) -> int:
    params = {key: cfg[key] for key in ("family", "r", "n", "p", "half_length", "size")
              if cfg[key] is not None}
    spec = EstimateSpec("counterexample", params)
    report = verify(spec)
    table = report.extras["table"]
    family = report.extras["family"]
    if family == "log_tail" and table[0]["sobolev"] == 0.0:
        size, half_length = report.extras["size"], report.extras["half_length"]
        raise ValueError(
            f"the grid resolves none of the log_tail band 1/n <= xi <= 1/2 at "
            f"n = {table[0]['n']}: size {size} on half_length {half_length:g} reaches "
            f"only xi = {(size // 2 - 1) * math.pi / half_length:.3g}; raise size or n")
    print(f"{'n':>5} {'lhat':>12} {'sobolev':>12} {'predicted':>12}")
    for row in table:
        print(f"{row['n']:>5} {row['lhat']:>12.8f} {row['sobolev']:>12.6f} "
              f"{row['predicted_sobolev']:>12.6f}")
    if family == "sharp_band":
        flat = max(abs(row["lhat"] - 1.0) for row in table)
        growth = all(abs(row["sobolev"] / row["predicted_sobolev"] - 1.0) <= 0.05
                     for row in table)
        passed = flat <= 1e-10 and growth
        summary = f"lhat deviation {flat:.2e}, closed-form agreement {growth}"
    else:
        lh = [row["lhat"] for row in table]
        sob = [row["sobolev"] for row in table]
        increasing = all(b > a for a, b in zip(lh, lh[1:]))
        bounded = sob[-1] / sob[0] <= 1.5
        passed = increasing and bounded
        summary = (f"lhat increasing {increasing}, "
                   f"sobolev ratio {sob[-1] / sob[0]:.3f}")
    doc = _report_skeleton("counterexample", cfg)
    doc["report"] = report.to_dict()
    report.write_csv(_out_dir(cfg) / "samples.csv")
    return _finish(cfg, doc, passed,
                   f"counterexample {family}: {summary} -> {_verdict(passed)}")


def _cmd_calibrate(cfg: dict) -> int:
    grid = Grid1D(cfg["half_length"], cfg["size"])
    result = calibrate_delta(
        grid, alpha=cfg["alpha"], amplitudes=cfg["amplitudes"],
        interval=(cfg["t_start"], cfg["t_end"]), seed=cfg["seed"],
        random_per_amplitude=cfg["random_per_amplitude"],
    )
    print("  mu  amplitude datum         epsilon     factor  converged")
    for row in result["rows"]:
        print(f"{row['mu']:>+4g} {row['amplitude']:>10.4f} {row['datum']:<10} "
              f"{row['epsilon']:>10.4f} {row['factor']:>10.3g} {str(row['converged']):>10}")
    print(f"shipped DELTA_DEFAULT: {DELTA_DEFAULT:g}")
    if result["delta"] != DELTA_DEFAULT:
        print("note: the shipped default is this command's delta at its defaults")
    doc = _report_skeleton("calibrate-delta", cfg)
    doc["result"] = result
    return _finish(cfg, doc, True,
                   f"calibrate-delta: delta={result['delta']:g} "
                   f"(measured edge {result['edge']:.4g} over {len(result['rows'])} probes)")


def _cmd_persist(cfg: dict) -> int:
    u0, G, glued, doc = _glued(cfg, "persist")
    if not glued.converged:
        return _finish(cfg, doc, False, f"persist: glued solve failed: {glued.reason}")
    mon = monitor(glued.trace, G, aux_lhat=cfg["aux_lhat"],
                  aux_sobolev=cfg["aux_sobolev"], pad=cfg["pad"])
    initial = {
        "lhat": {f"{r:g}": lhat_norm(u0, r) for r in cfg["aux_lhat"]},
        "sobolev": {f"{s:g}": sobolev_norm(u0, s) for s in cfg["aux_sobolev"]},
    }
    growth = 0.0
    for entry in mon.entries:
        for key, value in entry.lhat.items():
            growth = max(growth, value / initial["lhat"][key])
        for key, value in entry.sobolev.items():
            growth = max(growth, value / initial["sobolev"][key])
    passed = growth <= cfg["growth_bound"] and not mon.tainted
    doc["result"] = {
        "initial": initial,
        "monitor": mon.to_dict(),
        "max_growth": growth,
        "growth_bound": cfg["growth_bound"],
    }
    return _finish(cfg, doc, passed,
                   f"persist: max auxiliary-norm growth {growth:.3f} "
                   f"(bound {cfg['growth_bound']:g}, tainted={mon.tainted}) "
                   f"-> {_verdict(passed)}", trace=glued.trace)


_COMMANDS = {
    "verify": _cmd_verify,
    "solve": _cmd_solve,
    "scatter": _cmd_scatter,
    "counterexample": _cmd_counterexample,
    "calibrate-delta": _cmd_calibrate,
    "persist": _cmd_persist,
}


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve_config(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return _EXIT_ERROR
    try:
        return _COMMANDS[args.command](cfg)
    except NumericalBlowupError as exc:
        print(f"numerical blowup at t={exc.time:.6g}", file=sys.stderr)
        return _EXIT_BLOWUP
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return _EXIT_ERROR
    except (ValueError, OSError, ArithmeticError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
