"""gkdvlab benchmark: CLI workloads at acceptance configs, checked and timed.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each pass of a workload runs in one fresh, single-threaded Python
process (perfbench/child.py).  With ``--trace 0`` the run makes passes until
another would end after ``--seconds`` (at least one) and prints the
end-to-end metrics; with ``--trace 1`` it makes one untraced and one traced
pass and prints the per-layer metrics.  Every pass checks each config's exit
code and ``"passed"`` flag, the traces it reads back, and the sha256 of each
report against perfbench/golden.json.  The last line of standard output is
the JSON result.  Working files go to ``.perfbench_out/`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
GOLDEN = os.path.join(HERE, "golden.json")
STATE = os.path.join(OUT, "counts.json")

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from layers import COMPUTED_COUNTS, format_kernel_table  # noqa: E402

BUDGET_S = 170.0       # the whole run, set-up probes included
# Calibrated times are in seconds of a machine on which child.py's
# calibration kernel takes this long: a wall time is multiplied by
# REFERENCE_CALIBRATION_S over the calibration measured next to it.
REFERENCE_CALIBRATION_S = 0.005
SETUP_PROBES = 9       # fresh processes that only import and build the parser
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class BudgetExceeded(RuntimeError):
    pass


def code_digest():
    """sha256 over the package sources, naming the code a count belongs to."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "gkdvlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts child processes within the run's time budget."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + BUDGET_S
        self.dir = os.path.join(OUT, workload)
        os.makedirs(self.dir, exist_ok=True)
        for name in os.listdir(self.dir):
            if name.startswith("pass") and name.endswith(".json"):
                os.unlink(os.path.join(self.dir, name))

    def _child(self, extra, cwd):
        remaining = self.deadline - time.monotonic()
        if remaining < 1.0:
            raise BudgetExceeded("time budget spent")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--src", SRC, *extra]
        try:
            return subprocess.run(cmd, cwd=cwd, env=child_env(), capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BudgetExceeded(f"child ran past the time budget: {cmd[2:]}") from exc

    def setup_probe(self):
        """(set-up seconds, calibration seconds) of one fresh process."""
        proc = self._child(["--setup-only"], ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        return probe["setup_s"], probe["calibration"]

    def run_pass(self, index, trace, steps=None):
        """One pass in a fresh process; returns its checked record.

        ``steps`` limits the pass to the workload's first steps.
        """
        work = os.path.join(self.dir, "work")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        result_path = os.path.join(self.dir, f"pass{index}.json")
        extra = ["--workload", self.workload, "--seed", str(self.seed),
                 "--trace", str(int(trace)), "--result", result_path]
        if trace:
            extra += ["--spans", os.path.join(self.dir, "spans.npz")]
        if steps is not None:
            extra += ["--steps", str(steps)]
        started = time.monotonic()
        try:
            proc = self._child(extra, work)
            wall = time.monotonic() - started
            if proc.returncode != 0 or not os.path.exists(result_path):
                return {"wall_s": wall, "crashed": True, "ops": [], "configs": 0,
                        "configs_passed": 0, "failed": 1, "attempted": 1,
                        "error": proc.stderr[-4000:], "changed": []}
            with open(result_path) as fh:
                record = json.load(fh)
            record["wall_s"] = wall
            record["crashed"] = False
            check_pass(record, work, workloads.golden_key(self.workload, self.seed),
                       load_golden().get("digests", {}).get(self.workload, {}))
            return record
        finally:
            shutil.rmtree(work, ignore_errors=True)


def _argv_value(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def output_files(argv):
    """Relative paths of the files a config writes: reports, csv, traces."""
    out = _argv_value(argv, "--out")
    files = [os.path.join(out, "report.json")]
    if argv[0] == "verify":
        files.append(os.path.join(out, "samples.csv"))
    trace = _argv_value(argv, "--save-trace")
    if trace:
        files += [trace, os.path.splitext(trace)[0] + ".json"]
    return files


def check_pass(record, work, key, golden):
    """Mark each op passed or failed and compare digests with the golden set."""
    expected = golden.get(key, {})
    digests, changed = {}, []
    configs = configs_passed = failed = 0
    for op in record["ops"]:
        ok = op.get("error") is None
        if "readback" in op:
            ok = ok and op["rows"] > 0 and op["is_real"] and op["finite"] \
                and op["size"] == op["config_size"]
        else:
            configs += 1
            report_path = os.path.join(work, _argv_value(op["argv"], "--out"), "report.json")
            passed = False
            if op["exit"] == 0 and os.path.exists(report_path):
                with open(report_path) as fh:
                    passed = json.load(fh).get("passed") is True
            ok = ok and passed
            configs_passed += ok
            for rel in output_files(op["argv"]):
                path = os.path.join(work, rel)
                digests[rel] = file_sha256(path) if os.path.exists(path) else None
                if expected.get(rel) != digests[rel]:
                    changed.append(rel)
        op["ok"] = bool(ok)
        failed += not ok
    record.update(digests=digests, changed=changed, configs=configs,
                  configs_passed=configs_passed, failed=failed,
                  attempted=len(record["ops"]))


def load_golden():
    if not os.path.exists(GOLDEN):
        return {}
    with open(GOLDEN) as fh:
        return json.load(fh)


def check_counts(workload, key, counts, digest):
    """Compare computed counts with the previous run of the same code.

    The previous run is the last traced run in this checkout, or, for the
    code golden.json was recorded from, the recorded counts.  Returns the
    names of the counts that differ.
    """
    state = {}
    if os.path.exists(STATE):
        with open(STATE) as fh:
            state = json.load(fh)
    previous = state.get(digest, {}).get(workload, {}).get(key)
    golden = load_golden()
    if previous is None and golden.get("code_digest") == digest:
        previous = golden.get("counts", {}).get(workload, {}).get(key)
    if previous is None:
        state.setdefault(digest, {}).setdefault(workload, {})[key] = counts
        tmp = STATE + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(state, fh, indent=1, sort_keys=True)
        os.replace(tmp, STATE)
        return []
    return [name for name in COMPUTED_COUNTS if previous.get(name) != counts.get(name)]


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def step_seconds(passes, calibrated=frozenset()):
    """Wall seconds of each step, by name, over the passes that ran it.

    Samples of the steps named in ``calibrated`` are rescaled to the
    reference machine speed, measured by the calibrations on either side.
    """
    samples = {}
    for p in passes:
        for op in p["ops"]:
            seconds = op["seconds"]
            if op["name"] in calibrated:
                speed = (op["calibration_before"] + op["calibration_after"]) / 2.0
                seconds *= REFERENCE_CALIBRATION_S / speed
            samples.setdefault(op["name"], []).append(seconds)
    return samples


def sum_of_medians(samples, plan):
    return sum(statistics.median(samples[step["name"]]) for step in plan)


def steps_that_fit(plan, samples, overhead_s, remaining_s):
    """How many leading steps the next pass can run within the time left.

    Each step is predicted by its median so far; ``overhead_s`` is the last
    pass's time outside its steps (process start, set-up, checks).
    """
    total = overhead_s
    for count, step in enumerate(plan):
        total += statistics.median(samples[step["name"]])
        if total > remaining_s:
            return count
    return len(plan)


def measure(workload, seed, seconds, trace):
    """Run the passes; returns (result dict, run record)."""
    runner = Runner(workload, seed)
    plan = workloads.steps(workload, seed)
    setup = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    passes = []
    if trace:
        passes.append(runner.run_pass(0, trace=False))
        passes.append(runner.run_pass(1, trace=True))
    else:
        started = time.monotonic()
        steps = len(plan)
        while steps:
            passes.append(runner.run_pass(len(passes), trace=False, steps=steps))
            last = passes[-1]
            if last["crashed"] or last["failed"]:
                break
            steps = steps_that_fit(plan, step_seconds(passes), last["wall_s"] - last["run_s"],
                                   seconds - (time.monotonic() - started))
    setup += [(p["setup_s"], p["setup_calibration"]) for p in passes if not p["crashed"]]

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    changed = sorted({rel for p in passes for rel in p["changed"]})
    problems = [p["error"] for p in passes if p["crashed"]]
    problems += [f"{op['name']}: exit {op.get('exit')} {op.get('error') or ''}".strip()
                 for p in passes for op in p["ops"] if not op["ok"]]
    if changed:
        problems.append("outputs differ from golden.json: " + ", ".join(changed))
    good = [p for p in passes if not p["crashed"]]

    digest = code_digest()
    key = workloads.golden_key(workload, seed)
    if trace:
        traced = passes[1]
        if traced["crashed"]:
            metrics = {}
            mismatched = []
        else:
            layers = dict(traced["layers"])
            counts = {name: layers[name][0] for name in COMPUTED_COUNTS}
            mismatched = check_counts(workload, key, counts, digest)
            if mismatched:
                problems.append("computed counts differ from the previous run of "
                                "this code: " + ", ".join(mismatched))
            if not passes[0]["crashed"]:
                untraced, traced_total = (
                    sum(map(sum, step_seconds([p], workloads.CALIBRATED_STEPS).values()))
                    for p in passes)
                layers["bench.trace_overhead_s"] = (traced_total - untraced, "s")
            layers["cli.reports_changed"] = (len(traced["changed"]), "count")
            metrics = {k: metric(v, u) for k, (v, u) in sorted(layers.items())}
        correct = failed == 0 and not mismatched and len(good) == 2
    else:
        configs = sum(p["configs"] for p in passes)
        metrics = {}
        complete = [p for p in good if len(p["ops"]) == len(plan)]
        if complete:
            metrics = {
                "run_s": metric(sum_of_medians(
                    step_seconds(good, workloads.CALIBRATED_STEPS), plan), "s"),
                "setup_s": metric(statistics.median(
                    s * REFERENCE_CALIBRATION_S / c for s, c in setup), "s"),
                "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in complete),
                                      "MB"),
                "gate_pass_ratio": metric(
                    sum(p["configs_passed"] for p in passes) / max(configs, 1), "ratio"),
            }
        correct = failed == 0 and bool(complete)

    sample = good[0] if good else {}
    record = {
        "workload": workload, "seed": seed,
        "input_seed": workloads.input_seed(workload, seed),
        "trace": int(trace), "seconds": seconds,
        "git_sha": git_sha(), "code_digest": digest,
        "python": sample.get("python"), "numpy": sample.get("numpy"),
        "gkdvlab": sample.get("gkdvlab"),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "child_env": dict(THREAD_ENV, PYTHONHASHSEED="0"),
        "setup_samples_s": [s for s, _ in setup],
        "setup_calibrations_s": [c for _, c in setup],
        "run_wall_s": sum_of_medians(step_seconds(good), plan) if good else None,
        "step_median_s": {name: statistics.median(v)
                          for name, v in step_seconds(good).items()},
        "passes": [{k: p.get(k) for k in ("run_s", "run_cpu_s", "wall_s", "setup_s",
                                          "peak_rss_mb",
                                          "configs", "configs_passed", "failed",
                                          "span_count", "changed")}
                   for p in passes],
        "ops": [[{k: op.get(k) for k in ("name", "exit", "ok", "seconds", "cpu_seconds",
                                         "calibration_before", "calibration_after")}
                 for op in p["ops"]] for p in passes],
        "digests": sample.get("digests"),
        "problems": problems, "metrics": metrics,
    }
    if trace and good and not passes[1]["crashed"]:
        record["kernels"] = passes[1]["kernels"]
    result = {"correct": bool(correct), "attempted": max(attempted, 1),
              "failed": failed if attempted else 1, "metrics": metrics}
    return result, record


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "gkdvlab", "__init__.py")):
        print(f"perfbench: no package sources at {SRC}/gkdvlab; run from the root "
              "of a gkdvlab checkout", file=sys.stderr)
        return 2
    try:
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BudgetExceeded as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    with open(os.path.join(OUT, args.workload, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for problem in record["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    if "kernels" in record:
        print(format_kernel_table(record["kernels"]))
    print(f"perfbench: {args.workload} seed={args.seed} input_seed={record['input_seed']} "
          f"sha={record['git_sha'][:12]} python={record['python']} "
          f"numpy={record['numpy']} nproc={record['nproc']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
