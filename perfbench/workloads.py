"""The benchmark's workloads: CLI invocations at acceptance configs.

A workload is a list of steps: CLI configs, then the traces read back.  It
is a closed loop with one client: the next step starts when the previous one
returns.  Output paths are relative to the pass's working directory, because
report.json echoes them and its bytes are compared with the golden digests.
"""

# --seed n selects input seed INPUT_SEEDS[n mod len(INPUT_SEEDS)].  Every
# seed listed passed every gate at the commit that recorded golden.json, and
# its digests are recorded there.  Seeds 2 and 13 are left out: at that
# commit nonlinear_ii fails its 15% refinement gate with them (drift 0.258
# at seed 13), which README.md records.
INPUT_SEEDS = (0, 1, 3, 4, 5, 6, 7, 8, 9, 10)


def _verify(seed):
    s = str(seed)
    return [
        ("verify_stein_tomas", ["verify", "--id", "stein_tomas", "--seed", s,
                                "--out", "stein_tomas"]),
        ("verify_inhom_xy", ["verify", "--id", "inhom_xy", "--r", "2", "--seed", s,
                             "--out", "inhom_xy"]),
        ("verify_leibniz", ["verify", "--id", "leibniz", "--seed", s,
                            "--out", "leibniz"]),
        ("verify_nonlinear_ii", ["verify", "--id", "nonlinear_ii", "--seed", s,
                                 "--out", "nonlinear_ii"]),
    ]


def _glued(_seed):
    # Both configs use the Gaussian default datum: a random datum fails the
    # scatter and persist gates, so these two have no seeded input.
    return [
        ("scatter_small_data", ["scatter", "--save-trace", "scatter.trace",
                                "--out", "scatter"]),
        ("persist", ["persist", "--save-trace", "persist.trace",
                     "--out", "persist"]),
    ]


def _rk4(seed):
    # t-end 8 rather than 32 keeps the regime (16,384 single-row maps at
    # N=1024, the gate still passes) but makes a pass about 5 s, so a run
    # holds several passes and reports a median instead of one sample.
    return [
        ("scatter_energy_threshold", ["scatter", "--protocol", "energy-threshold",
                                      "--mu", "-1", "--t-end", "8",
                                      "--out", "energy"]),
        ("solve_reference", ["solve", "--reference", "--datum", "random",
                             "--seed", str(seed), "--out", "solve"]),
    ]


# name -> (configs for an input seed, traces read back, input is seeded)
WORKLOADS = {
    "verify_ensemble": (_verify, (), True),
    "glued_long_run": (_glued, ("scatter.trace", "persist.trace"), False),
    "rk4_reference": (_rk4, (), True),
}

# Steps whose time is per-call interpreter overhead: 25,800 single-row
# products in leibniz, single-row RK4 flux maps in the other two.  That kind
# of work swings most in speed when the host is busy (up to 2x for tens of
# seconds), and child.py's calibration kernel tracks the swing, so run.py
# rescales these steps by it.  The batched steps swing less and differently;
# rescaling them adds noise, so they are reported as raw wall time.
CALIBRATED_STEPS = frozenset({"verify_leibniz", "scatter_energy_threshold",
                              "solve_reference"})


def input_seed(workload, seed):
    """Seed handed to the CLI, or None for a workload without random input."""
    if not WORKLOADS[workload][2]:
        return None
    return INPUT_SEEDS[seed % len(INPUT_SEEDS)]


def golden_key(workload, seed):
    s = input_seed(workload, seed)
    return "-" if s is None else str(s)


def steps(workload, seed):
    """The workload's steps in order: configs, then trace read-backs."""
    make, traces, _ = WORKLOADS[workload]
    s = input_seed(workload, seed)
    out = [{"name": name, "argv": argv} for name, argv in make(0 if s is None else s)]
    out += [{"name": f"read_trace {path}", "readback": path} for path in traces]
    return out
