"""Report values pinned: every CLI command at one small config.

Each case runs the CLI and checks its exit code and "passed" flag exactly
and each headline number of its report.json against a recorded value.  A
change that moves a verdict number fails here; a change that is meant to
move one re-records the pins in the same change and lists each shift.

The numbers are pinned at a relative tolerance, not by bytes: array powers
may differ in the last bit between SIMD paths, and FFT bytes between numpy
builds.  A value at rounding level (a mass drift near 1e-14, a drift near
zero) is pinned to an absolute floor instead.  The row kernels give the
same bytes on one thread or two, so these values do not move with the CPU
count.
"""

import json

import pytest

from gkdvlab.cli import main
from gkdvlab.estimates import ESTIMATE_IDS

REL, ABS = 1e-9, 1e-12

_VERIFY = ["--size", "64", "--half-length", "16", "--samples-per-unit", "16",
           "--ensemble", "8", "--seed", "0"]
_VERIFY_VALUES = ("report.max_ratio", "report.refinement.max_ratio",
                  "stability.drift", "stability.threshold")
_SEGMENT_VALUES = ("segments.epsilon", "segments.mass_drift")

# name -> (argv, headline paths); a path's keys map over a list of records
CONFIGS = {
    **{f"verify_{i}": (["verify", "--id", i, *_VERIFY], _VERIFY_VALUES)
       for i in ESTIMATE_IDS},
    "solve_reference": (["solve", "--reference"], (
        "result.epsilon", "result.delta", "result.iterations", "result.update_distances",
        "result.diagnostics.mass_drift", "result.diagnostics.energy_drift",
        "result.diagnostics.size_norm", "result.diagnostics.boundary_mass_fraction",
        "result.reference_distance", "reference_step")),
    "scatter_small_data": (["scatter", "--size", "1024", "--half-length", "256",
                            "--t-end", "8"], (
        *_SEGMENT_VALUES, "result.snorm", "result.sup_norm", "result.residuals")),
    "scatter_energy_threshold": (["scatter", "--protocol", "energy-threshold", "--mu", "-1",
                                  "--t-end", "2", "--size", "128", "--half-length", "32"], (
        "threshold_amplitude", "reference_step", "result.power_norm_kept", "result.residuals",
        "result.control_residuals")),
    "persist": (["persist", "--size", "512", "--half-length", "128", "--t-end", "2",
                 "--samples-per-unit", "32", "--segment-length", "1"], (
        *_SEGMENT_VALUES, "result.max_growth", "result.growth_bound")),
    "counterexample": (["counterexample"], (
        "report.max_ratio", "report.refinement.max_ratio", "report.extras.table.sobolev")),
    "calibrate_delta": (["calibrate-delta", "--amplitudes", "0.05,0.5",
                         "--random-per-amplitude", "1", "--size", "64",
                         "--half-length", "16"], (
        "result.delta", "result.edge", "result.rows.epsilon", "result.rows.factor")),
}

# name -> (exit code, passed, {path: value}), recorded with the configs above
PINS = {
    "verify_stein_tomas": (0, True, {
        "report.max_ratio": 0.49088034648435347,
        "report.refinement.max_ratio": [
            0.49088034648435347, 0.49092501964707175, 0.5253961531410659,
        ],
        "stability.drift": 0.0703140936562483,
        "stability.threshold": 0.1,
    }),
    "verify_kenig_ruiz": (0, True, {
        "report.max_ratio": 0.8570417838916256,
        "report.refinement.max_ratio": [
            0.8570417838916256, 0.8607780298651759, 0.8570417838916256,
        ],
        "stability.drift": 0.004359467698978412,
        "stability.threshold": 0.1,
    }),
    "verify_kato": (2, False, {
        "report.max_ratio": 0.3891633180780805,
        "report.refinement.max_ratio": [
            0.3891633180780805, 0.3891633180780805, 0.46940067188329465,
        ],
        "stability.drift": 0.20617912860203222,
        "stability.threshold": 0.1,
    }),
    "verify_strichartz": (0, True, {
        "report.max_ratio": 0.49088034648435347,
        "report.refinement.max_ratio": [
            0.49088034648435347, 0.49092501964707175, 0.5253961531410659,
        ],
        "stability.drift": 0.0703140936562483,
        "stability.threshold": 0.1,
    }),
    "verify_inhom_linf": (0, True, {
        "report.max_ratio": 0.3807064648833859,
        "report.refinement.max_ratio": [
            0.3807064648833859, 0.38080826872007817, 0.38523444899355336, 0.4365319669861919,
        ],
        "stability.drift": 0.011893635984233777,
        "stability.threshold": 0.15,
    }),
    "verify_inhom_xy": (0, True, {
        "report.max_ratio": 0.16308943702222356,
        "report.refinement.max_ratio": [
            0.16308943702222356, 0.1628173492875967, 0.16308943702222356, 0.1923988152304831,
        ],
        "stability.drift": 0.0016683345015765013,
        "stability.threshold": 0.15,
    }),
    "verify_interpolation": (0, True, {
        "report.max_ratio": 0.91383311677124,
        "report.refinement.max_ratio": [0.91383311677124, 0.9124506691111106, 0.9466557581267309],
        "stability.drift": 0.035917544191722856,
        "stability.threshold": 0.1,
    }),
    "verify_leibniz": (0, True, {
        "report.max_ratio": 0.3613442520383435,
        "report.refinement.max_ratio": [0.3613442520383435, 0.361415818788399, 0.3936647193171186],
        "stability.drift": 0.08944508483656588,
        "stability.threshold": 0.15,
    }),
    "verify_chain_rule": (0, True, {
        "report.max_ratio": 0.010359000887276447,
        "report.refinement.max_ratio": [
            0.010359000887276447, 0.010384962686163103, 0.01071571234277518,
        ],
        "stability.drift": 0.034434928559265596,
        "stability.threshold": 0.15,
    }),
    "verify_nonlinear_i": (0, True, {
        "report.max_ratio": 1.5663836612143862,
        "report.refinement.max_ratio": [
            1.5663836612143862, 1.5566469638087195, 1.5663836612143862,
        ],
        "stability.drift": 0.00621603611347559,
        "stability.threshold": 0.15,
    }),
    "verify_nonlinear_ii": (2, False, {
        "report.max_ratio": 0.06385732123152253,
        "report.refinement.max_ratio": [
            0.06385732123152253, 0.06341878966034853, 0.09426268999715862,
        ],
        "stability.drift": 0.4761453844172025,
        "stability.threshold": 0.15,
    }),
    "verify_inclusion": (0, True, {
        "report.max_ratio": 0.42520169659787355,
        "report.refinement.max_ratio": [
            0.42520169659787355, 0.42520118892040415, 0.42520169659787355,
        ],
        "stability.drift": 1.1939685882226506e-06,
        "stability.threshold": 0.1,
    }),
    "verify_counterexample": (0, True, {
        "report.max_ratio": 0.9997576810281553,
        "report.refinement.max_ratio": [0.9997576810281553, 0.9998788576370367],
        "stability.drift": 0.00012120597938964198,
        "stability.threshold": 0.05,
    }),
    "solve_reference": (0, True, {
        "result.epsilon": 0.0791736242982318,
        "result.delta": 1.3,
        "result.iterations": 2,
        "result.update_distances": [1.2510623919366924e-07, 3.2405697945478877e-13],
        "result.diagnostics.mass_drift": 1.0855034135714275e-09,
        "result.diagnostics.energy_drift": 2.933827602807665e-09,
        "result.diagnostics.size_norm": 0.07917359793394217,
        "result.diagnostics.boundary_mass_fraction": 5.181364277508761e-10,
        "result.reference_distance": 2.671456023892176e-10,
        "reference_step": 0.00390625,
    }),
    "scatter_small_data": (0, True, {
        "segments.epsilon": [
            0.08282922942135154, 0.06124336552699136, 0.05378060403627166, 0.049269972231280615,
        ],
        "segments.mass_drift": [
            1.1108133210509546e-09, 5.789869858976187e-12, 9.548323192779444e-13,
            3.1514555843296895e-13,
        ],
        "result.snorm": 0.050934598869585374,
        "result.sup_norm": 0.0665667682272261,
        "result.residuals": [
            4.508694360911401e-08, 3.935657648785597e-08, 3.000309948714587e-08,
            2.0755238142502043e-08,
        ],
    }),
    "scatter_energy_threshold": (2, False, {
        "threshold_amplitude": 1.2695884757363396,
        "reference_step": 0.00390625,
        "result.power_norm_kept": 1.1429881320229593,
        "result.residuals": [
            0.6496417217565387, 1.064137085450309, 1.5574051110217677, 2.0299638002209903,
        ],
        "result.control_residuals": [
            3.4379397190169025e-08, 4.342706844063412e-08, 4.5081324850160156e-08,
            3.9354104307180253e-08,
        ],
    }),
    "persist": (0, True, {
        "segments.epsilon": [0.07923219816910561, 0.06333764662210761],
        "segments.mass_drift": [1.0855034135714275e-09, 2.5310298937219152e-11],
        "result.max_growth": 1.0000010429839663,
        "result.growth_bound": 3.0,
    }),
    "counterexample": (0, True, {
        "report.max_ratio": 0.9997576810281553,
        "report.refinement.max_ratio": [0.9997576810281553, 0.9998788576370367],
        "report.extras.table.sobolev": [1.4510127424050936, 2.013495665701169, 2.8332450220975662],
    }),
    "calibrate_delta": (0, True, {
        "result.delta": 0.78,
        "result.edge": 0.7853988564706935,
        "result.rows.epsilon": [
            0.07853988564706935, 0.04817121089716429, 0.7853988564706935, 0.6396467695008181,
            0.07853988564706935, 0.04817121089716429, 0.7853988564706935, 0.6396467695008181,
        ],
        "result.rows.factor": [
            2.5990923743681704e-06, 2.5879012479138344e-07, 0.030431967803265608,
            0.006507464177382629, 2.599113643323885e-06, 2.5888610311645894e-07,
            0.030104848955927885, 0.0065680091082377205,
        ],
    }),
}


def headline(doc: dict, path: str):
    for key in path.split("."):
        doc = [row[key] for row in doc] if isinstance(doc, list) else doc[key]
    return doc


def report_values(name: str, tmp_path) -> tuple:
    argv, paths = CONFIGS[name]
    code = main(argv + ["--out", str(tmp_path / "out")])
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    return code, doc["passed"], {path: headline(doc, path) for path in paths}


def test_every_command_is_pinned():
    commands = {argv[0] for argv, _ in CONFIGS.values()}
    assert commands == {"verify", "solve", "scatter", "persist", "counterexample",
                        "calibrate-delta"}
    assert set(PINS) == set(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_values_hold(name, tmp_path, capsys):
    code, passed, values = report_values(name, tmp_path)
    want_code, want_passed, want = PINS[name]
    assert (code, passed) == (want_code, want_passed)
    assert values.keys() == want.keys()
    for path, value in want.items():
        assert values[path] == pytest.approx(value, rel=REL, abs=ABS), path
