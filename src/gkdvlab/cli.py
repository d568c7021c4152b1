"""Command line front end: reproducible experiment runs with JSON reports.

Every subcommand resolves its configuration from centralized defaults, an
optional --config JSON document, and explicit flags (flags win), echoes the
resolved configuration into report.json, and exits 0 on success, 2 when a
quantitative gate fails (reports are still written), 1 on configuration or
runtime errors, and 3 on numerical blowup.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .diagnostics import monitor, nonpositive_energy_amplitude, scattering_state
from .estimates import ESTIMATE_IDS, EstimateSpec, verify
from .norms import lhat_norm, lhat_rows, lebesgue_norm, sobolev_norm
from .solver import (
    FieldStack,
    NonlinearityG,
    NumericalBlowupError,
    SolverConfig,
    calibrate_delta,
    critical_exponent,
    glued_solve,
    picard_solve,
    reference_solve,
)
from .spectral import Grid1D, SpectralField, gaussian_profile, random_band_limited
from .traceio import atomic_write_json, write_trace

_EXIT_OK = 0
_EXIT_ERROR = 1
_EXIT_THRESHOLD = 2
_EXIT_BLOWUP = 3

# refinement-stability gates per check; criteria with rougher data get 15%
_STABILITY = {
    "stein_tomas": 0.10, "kenig_ruiz": 0.10, "kato": 0.10, "strichartz": 0.10,
    "interpolation": 0.10, "inclusion": 0.10, "counterexample": 0.05,
    "leibniz": 0.15, "chain_rule": 0.15, "inhom_linf": 0.15, "inhom_xy": 0.15,
    "nonlinear_i": 0.15, "nonlinear_ii": 0.15,
}

# the retarded-integral checks need a deeper ensemble before the max ratio
# saturates; at 50 the ensemble-doubling refinement still finds new maxima
_ENSEMBLE_FLOOR = {"inhom_linf": 100, "inhom_xy": 100}


class ConfigError(ValueError):
    pass


def _int_list(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _float_list(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part.strip()]


_DEFAULTS: Dict[str, dict] = {
    "verify": {
        "id": "stein_tomas", "r": None, "s": None, "q": None, "theta": None,
        "s1": None, "s2": None, "alpha": None, "mu": None, "case": None,
        "family": None, "n": None, "p": None,
        "half_length": 64.0, "size": 256, "t_start": 0.0, "t_end": 1.0,
        "samples_per_unit": 128, "ensemble": None, "seed": 0, "band": None,
        "amplitude": 1.0, "stability_threshold": None, "out": ".",
    },
    "solve": {
        "alpha": 5.0, "mu": 1.0, "datum": "gaussian", "amp": 0.05,
        "width": 1.0, "decay": 1.0, "band": None, "seed": 0,
        "half_length": 64.0, "size": 256, "t_start": 0.0, "t_end": 1.0,
        "samples_per_unit": 128, "tolerance": 1e-10, "max_iterations": 25,
        "delta": None, "pad": 2, "exploratory": False, "reference": False,
        "reference_dt": 1.0 / 256.0, "mass_drift_bound": 1e-8,
        "energy_drift_bound": 1e-6, "reference_bound": 1e-6,
        "save_trace": None, "out": ".",
    },
    "scatter": {
        "protocol": "small-data", "alpha": 5.0, "mu": 1.0, "datum": "gaussian",
        "amp": 0.05, "width": 1.0, "decay": 1.0, "band": None, "seed": 0,
        "half_length": 256.0, "size": 1024, "t_end": 64.0,
        "samples_per_unit": 128, "segment_length": 2.0, "store_stride": 4,
        "levels": 4, "delta": None, "pad": 2,
        "reference_dt": 0.005, "control_amp": 0.05, "energy_margin": 1.0,
        "save_trace": None, "out": ".",
    },
    "counterexample": {
        "family": "sharp_band", "r": 4.0, "n": None, "p": None,
        "half_length": None, "size": None, "out": ".",
    },
    "calibrate-delta": {
        "alpha": 5.0, "amplitudes": None, "seed": 0, "random_per_amplitude": 2,
        "half_length": 64.0, "size": 256, "t_start": 0.0, "t_end": 1.0,
        "out": ".",
    },
    "persist": {
        "alpha": 5.0, "mu": 1.0, "datum": "gaussian", "amp": 0.05,
        "width": 1.0, "decay": 1.0, "band": None, "seed": 0,
        # box large enough that no resolvable group speed crosses 0.9L
        # by t_end; smaller boxes trip the boundary-mass taint flag
        "half_length": 1024.0, "size": 4096, "t_end": 16.0,
        "samples_per_unit": 128, "segment_length": 2.0, "store_stride": 4,
        "aux_lhat": [1.8, 2.5], "aux_sobolev": [0.5, 1.0],
        "growth_bound": 3.0, "delta": None, "pad": 2, "save_trace": None,
        "out": ".",
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkdvlab",
        description="spectral laboratory for a dispersion-generalized KdV flow",
    )
    parser.add_argument("--version", action="version", version=f"gkdvlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(cmd, **specs):
        sp = sub.add_parser(cmd)
        sp.add_argument("--config", default=None, help="JSON config file; flags override")
        for key, kind in specs.items():
            flag = "--" + key.replace("_", "-")
            if kind is bool:
                sp.add_argument(flag, action="store_true", default=argparse.SUPPRESS)
            else:
                sp.add_argument(flag, type=kind, default=argparse.SUPPRESS)
        return sp

    add("verify", id=str, r=float, s=float, q=float, theta=float, s1=float,
        s2=float, alpha=float, mu=float, case=str, family=str, n=_int_list,
        p=float, half_length=float, size=int, t_start=float, t_end=float,
        samples_per_unit=int, ensemble=int, seed=int, band=int,
        amplitude=float, stability_threshold=float, out=str)
    add("solve", alpha=float, mu=float, datum=str, amp=float, width=float,
        decay=float, band=int, seed=int, half_length=float, size=int,
        t_start=float, t_end=float, samples_per_unit=int, tolerance=float,
        max_iterations=int, delta=float, pad=int, exploratory=bool,
        reference=bool, reference_dt=float, mass_drift_bound=float,
        energy_drift_bound=float, reference_bound=float, save_trace=str,
        out=str)
    add("scatter", protocol=str, alpha=float, mu=float, datum=str, amp=float,
        width=float, decay=float, band=int, seed=int, half_length=float,
        size=int, t_end=float, samples_per_unit=int, segment_length=float,
        store_stride=int, levels=int, delta=float, pad=int,
        reference_dt=float, control_amp=float, energy_margin=float,
        save_trace=str, out=str)
    add("counterexample", family=str, r=float, n=_int_list, p=float,
        half_length=float, size=int, out=str)
    add("calibrate-delta", alpha=float, amplitudes=_float_list, seed=int,
        random_per_amplitude=int, half_length=float, size=int, t_start=float,
        t_end=float, out=str)
    add("persist", alpha=float, mu=float, datum=str, amp=float, width=float,
        decay=float, band=int, seed=int, half_length=float, size=int,
        t_end=float, samples_per_unit=int, segment_length=float,
        store_stride=int, aux_lhat=_float_list, aux_sobolev=_float_list,
        growth_bound=float, delta=float, pad=int, save_trace=str, out=str)
    return parser


def _resolve_config(args: argparse.Namespace) -> dict:
    command = args.command
    defaults = _DEFAULTS[command]
    resolved = dict(defaults)
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config: top level must be a JSON object")
        for key in loaded:
            if key not in defaults:
                raise ConfigError(
                    f"config: unknown key {key!r} for command {command!r}"
                )
        resolved.update(loaded)
    provided = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    resolved.update(provided)
    return resolved


def _make_datum(cfg: dict, grid: Grid1D) -> SpectralField:
    kind = cfg["datum"]
    if kind == "gaussian":
        return gaussian_profile(grid, cfg["amp"], cfg["width"])
    if kind == "random":
        band = cfg["band"] if cfg["band"] is not None else grid.size // 4
        f = random_band_limited(grid, decay=cfg["decay"], band=band, seed=cfg["seed"])
        return SpectralField(grid, cfg["amp"] * f.coeffs, True)
    raise ConfigError(f"config: datum must be gaussian or random, got {kind!r}")


def _solver_config(cfg: dict, grid: Grid1D, **overrides) -> SolverConfig:
    kwargs = dict(
        grid=grid,
        t_start=cfg.get("t_start", 0.0),
        t_end=cfg["t_end"],
        samples_per_unit=cfg["samples_per_unit"],
        pad=cfg["pad"],
        exploratory=cfg.get("exploratory", False),
    )
    if cfg.get("delta") is not None:
        kwargs["delta"] = cfg["delta"]
    if cfg.get("tolerance") is not None:
        kwargs["tolerance"] = cfg["tolerance"]
    if cfg.get("max_iterations") is not None:
        kwargs["max_iterations"] = cfg["max_iterations"]
    if cfg.get("reference_dt") is not None:
        kwargs["reference_dt"] = cfg["reference_dt"]
    kwargs.update(overrides)
    return SolverConfig(**kwargs)


def _write_report(cfg: dict, doc: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.json"
    atomic_write_json(path, doc)
    return path


def _report_skeleton(command: str, cfg: dict) -> dict:
    return {"version": __version__, "command": command, "config": cfg}


def _cmd_verify(cfg: dict) -> int:
    params = {}
    for key in ("r", "s", "q", "theta", "s1", "s2", "alpha", "mu", "case",
                "family", "n", "p"):
        if cfg.get(key) is not None:
            params[key] = cfg[key]
    if cfg["ensemble"] is None:
        cfg["ensemble"] = _ENSEMBLE_FLOOR.get(cfg["id"], 50)
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
        threshold = _STABILITY[cfg["id"]]
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
    doc["passed"] = passed
    path = _write_report(cfg, doc)
    report.write_csv(Path(cfg["out"]) / "samples.csv")
    print(f"{cfg['id']}: max_ratio={report.max_ratio:.6g} "
          f"drift={drift:.3%} (gate {threshold:.0%}) -> {'pass' if passed else 'FAIL'}")
    print(f"report: {path}")
    return _EXIT_OK if passed else _EXIT_THRESHOLD


def _cmd_solve(cfg: dict) -> int:
    grid = Grid1D(cfg["half_length"], cfg["size"])
    u0 = _make_datum(cfg, grid)
    G = NonlinearityG(alpha=cfg["alpha"], mu=cfg["mu"])
    scfg = _solver_config(cfg, grid)
    result = picard_solve(u0, G, scfg)
    doc = _report_skeleton("solve", cfg)
    doc["result"] = {
        "converged": result.converged,
        "iterations": result.iterations,
        "epsilon": result.epsilon,
        "delta": result.delta,
        "update_distances": result.update_distances,
        "contraction_factors": result.contraction_factors,
        "reason": result.reason,
        "diagnostics": result.diagnostics,
    }
    passed = result.converged
    if result.converged:
        passed = (result.diagnostics["mass_drift"] <= cfg["mass_drift_bound"]
                  and result.diagnostics["energy_drift"] <= cfg["energy_drift_bound"])
        if cfg["reference"]:
            ref = reference_solve(u0, G, scfg)
            gap = float(np.max(np.sqrt(
                np.sum(np.abs(result.trace.coeffs - ref.coeffs) ** 2, axis=1)
                * grid.dxi)))
            doc["result"]["reference_distance"] = gap
            passed = passed and gap <= cfg["reference_bound"]
        if cfg["save_trace"]:
            write_trace(Path(cfg["save_trace"]), result.trace,
                        {"config": cfg, "version": __version__})
    doc["passed"] = passed
    path = _write_report(cfg, doc)
    state = "converged" if result.converged else f"not converged ({result.reason})"
    print(f"solve: {state} in {result.iterations} iterations, "
          f"epsilon={result.epsilon:.4g} -> {'pass' if passed else 'FAIL'}")
    print(f"report: {path}")
    return _EXIT_OK if passed else _EXIT_THRESHOLD


def _cmd_scatter(cfg: dict) -> int:
    if cfg["protocol"] == "small-data":
        return _scatter_small(cfg)
    if cfg["protocol"] == "energy-threshold":
        return _scatter_energy(cfg)
    raise ConfigError(
        f"config: protocol must be small-data or energy-threshold, got {cfg['protocol']!r}"
    )


def _scatter_small(cfg: dict) -> int:
    grid = Grid1D(cfg["half_length"], cfg["size"])
    u0 = _make_datum(cfg, grid)
    G = NonlinearityG(alpha=cfg["alpha"], mu=cfg["mu"])
    rc = critical_exponent(cfg["alpha"])
    scfg = _solver_config(cfg, grid)
    glued = glued_solve(u0, G, scfg, segment_length=cfg["segment_length"],
                        store_stride=cfg["store_stride"])
    doc = _report_skeleton("scatter", cfg)
    doc["segments"] = glued.segments
    if not glued.converged:
        doc["passed"] = False
        doc["reason"] = glued.reason
        _write_report(cfg, doc)
        print(f"scatter: glued solve failed: {glued.reason}")
        return _EXIT_THRESHOLD
    datum_norm = lhat_norm(u0, rc)
    # row by row: the sup must equal lhat_norm of the row that attains it
    sup_norm = max(lhat_rows(row, grid.dxi, rc) for row in glued.trace.coeffs)
    from .spacetime import snorm as time_snorm
    size_norm = time_snorm(glued.trace, rc)
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
    doc["passed"] = passed
    if cfg["save_trace"]:
        write_trace(Path(cfg["save_trace"]), glued.trace,
                    {"config": cfg, "version": __version__})
    path = _write_report(cfg, doc)
    print(f"scatter small-data: sup+snorm={sup_norm + size_norm:.4g} "
          f"bound={bound:.4g} residuals monotone={report.monotone_decreasing} "
          f"-> {'pass' if passed else 'FAIL'}")
    print(f"report: {path}")
    return _EXIT_OK if passed else _EXIT_THRESHOLD


def _scatter_energy(cfg: dict) -> int:
    if cfg["mu"] >= 0:
        raise ConfigError("config: the energy-threshold protocol needs mu < 0")
    grid = Grid1D(cfg["half_length"], cfg["size"])
    G = NonlinearityG(alpha=cfg["alpha"], mu=cfg["mu"])
    profile = gaussian_profile(grid, 1.0, cfg["width"])
    threshold = nonpositive_energy_amplitude(profile, G)
    amp = cfg["energy_margin"] * threshold
    big = SpectralField(grid, amp * profile.coeffs, True)
    control = gaussian_profile(grid, cfg["control_amp"], cfg["width"])
    scfg = _solver_config(cfg, grid)
    doc = _report_skeleton("scatter", cfg)
    doc["threshold_amplitude"] = threshold
    doc["run_amplitude"] = amp
    power = cfg["alpha"] + 1.0
    lp0 = lebesgue_norm(big, power)
    try:
        trace, ctl_trace = reference_solve(FieldStack((big, control)), G, scfg)
    except NumericalBlowupError as exc:
        if exc.datum != 0:
            raise  # the control run failed: exit 3 with no report
        doc["passed"] = False
        doc["blowup_time"] = exc.time
        _write_report(cfg, doc)
        print(f"scatter energy-threshold: blowup at t={exc.time:.4g}")
        return _EXIT_BLOWUP
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
    doc["passed"] = passed
    if cfg["save_trace"]:
        write_trace(Path(cfg["save_trace"]), trace,
                    {"config": cfg, "version": __version__})
    path = _write_report(cfg, doc)
    print(f"scatter energy-threshold: kept {lp_final / lp0:.1%} of the "
          f"L^{power:g} norm, residual decay={big_report.monotone_decreasing}, "
          f"control decay={ctl_report.monotone_decreasing} "
          f"-> {'pass' if passed else 'FAIL'}")
    print(f"report: {path}")
    return _EXIT_OK if passed else _EXIT_THRESHOLD


def _cmd_counterexample(cfg: dict) -> int:
    params = {"family": cfg["family"], "r": cfg["r"]}
    for key in ("n", "p", "half_length", "size"):
        if cfg.get(key) is not None:
            params[key] = cfg[key]
    spec = EstimateSpec("counterexample", params)
    report = verify(spec)
    table = report.extras["table"]
    family = report.extras["family"]
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
    doc["passed"] = passed
    path = _write_report(cfg, doc)
    report.write_csv(Path(cfg["out"]) / "samples.csv")
    print(f"counterexample {family}: {summary} -> {'pass' if passed else 'FAIL'}")
    print(f"report: {path}")
    return _EXIT_OK if passed else _EXIT_THRESHOLD


def _cmd_calibrate(cfg: dict) -> int:
    grid = Grid1D(cfg["half_length"], cfg["size"])
    result = calibrate_delta(
        grid, alpha=cfg["alpha"], amplitudes=cfg["amplitudes"],
        interval=(cfg["t_start"], cfg["t_end"]), seed=cfg["seed"],
        random_per_amplitude=cfg["random_per_amplitude"],
    )
    doc = _report_skeleton("calibrate-delta", cfg)
    doc["result"] = result
    doc["passed"] = True
    path = _write_report(cfg, doc)
    print(f"calibrate-delta: delta={result['delta']:g} "
          f"(measured edge {result['edge']:.4g} over {len(result['rows'])} probes)")
    print(f"report: {path}")
    return _EXIT_OK


def _cmd_persist(cfg: dict) -> int:
    grid = Grid1D(cfg["half_length"], cfg["size"])
    u0 = _make_datum(cfg, grid)
    G = NonlinearityG(alpha=cfg["alpha"], mu=cfg["mu"])
    scfg = _solver_config(cfg, grid)
    glued = glued_solve(u0, G, scfg, segment_length=cfg["segment_length"],
                        store_stride=cfg["store_stride"])
    doc = _report_skeleton("persist", cfg)
    doc["segments"] = glued.segments
    if not glued.converged:
        doc["passed"] = False
        doc["reason"] = glued.reason
        _write_report(cfg, doc)
        print(f"persist: glued solve failed: {glued.reason}")
        return _EXIT_THRESHOLD
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
    doc["passed"] = passed
    if cfg["save_trace"]:
        write_trace(Path(cfg["save_trace"]), glued.trace,
                    {"config": cfg, "version": __version__})
    path = _write_report(cfg, doc)
    print(f"persist: max auxiliary-norm growth {growth:.3f} "
          f"(bound {cfg['growth_bound']:g}, tainted={mon.tainted}) "
          f"-> {'pass' if passed else 'FAIL'}")
    print(f"report: {path}")
    return _EXIT_OK if passed else _EXIT_THRESHOLD


_COMMANDS = {
    "verify": _cmd_verify,
    "solve": _cmd_solve,
    "scatter": _cmd_scatter,
    "counterexample": _cmd_counterexample,
    "calibrate-delta": _cmd_calibrate,
    "persist": _cmd_persist,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
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
    except (ValueError, OSError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
