"""One pass of a workload, run in a fresh Python process by run.py.

    python3 perfbench/child.py --setup-only --src SRC
    python3 perfbench/child.py --workload W --seed N --trace 0|1 --src SRC
                               --result FILE [--spans FILE] [--steps K]

The working directory is the pass's scratch directory; every config writes
under it.  Only the standard library is imported before set-up is timed, so
``setup_s`` covers the whole import of gkdvlab and numpy.
"""

import argparse
import contextlib
import io
import json
import sys
import time
import traceback


def _setup(src):
    started = time.perf_counter()
    sys.path.insert(0, src)
    import gkdvlab.cli
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            gkdvlab.cli.main(["--version"])
        except SystemExit:
            pass
    return time.perf_counter() - started


def _run_config(main, argv, log):
    """Exit code of one CLI call; a traceback is recorded as a failure."""
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            return main(argv), None
    except SystemExit as exc:
        return exc.code, f"SystemExit({exc.code!r})"
    except Exception:
        return None, traceback.format_exc()


def _calibration():
    """Seconds of a fixed numpy-and-interpreter kernel, median of 5.

    Run after set-up and after every step.  Interpreter-bound times (set-up,
    and the steps in workloads.CALIBRATED_STEPS) are divided by it in
    run.py, which takes out the machine's speed swings that medians alone
    cannot.
    """
    import numpy as np
    row = np.exp(1j * np.arange(2048) * 0.001)
    reps = []
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(60):
            np.fft.ifft(np.fft.fft(row))
        total = 0
        for i in range(6000):
            total += i
        reps.append(time.perf_counter() - started)
    return sorted(reps)[2]


def _read_back(read_trace, path):
    """Facts about a trace read back, checked by run.py."""
    import numpy as np
    try:
        trace, meta = read_trace(path)
        return {"rows": int(trace.coeffs.shape[0]), "size": int(trace.grid.size),
                "is_real": bool(trace.is_real),
                "config_size": meta.get("config", {}).get("size"),
                "finite": bool(np.all(np.isfinite(trace.coeffs))), "error": None}
    except Exception:
        return {"error": traceback.format_exc()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--steps", type=int, default=None,
                        help="run only the first STEPS steps of the workload")
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args()

    setup_s = _setup(args.src)
    calibration = _calibration()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "calibration": calibration}))
        return 0

    import resource

    import numpy as np

    import gkdvlab
    import gkdvlab.cli
    import gkdvlab.traceio
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    ops = []
    log = io.StringIO()
    setup_calibration = calibration
    for step in workloads.steps(args.workload, args.seed)[:args.steps]:
        step["calibration_before"] = calibration
        t, c = time.perf_counter(), time.process_time()
        if "argv" in step:
            step["exit"], step["error"] = _run_config(gkdvlab.cli.main, step["argv"], log)
        else:
            step.update(_read_back(gkdvlab.traceio.read_trace, step["readback"]))
        step["seconds"] = time.perf_counter() - t
        step["cpu_seconds"] = time.process_time() - c
        calibration = _calibration()
        step["calibration_after"] = calibration
        ops.append(step)
    run_s = sum(step["seconds"] for step in ops)
    run_cpu_s = sum(step["cpu_seconds"] for step in ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": setup_s, "setup_calibration": setup_calibration,
        "run_s": run_s, "run_cpu_s": run_cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": ops, "python": sys.version.split()[0], "numpy": np.__version__,
        "gkdvlab": gkdvlab.__version__,
    }
    if tracer is not None:
        tracer.uninstall()
        import layers
        spans = layers.Spans(tracer.columns(), tracer.names)
        result["layers"] = layers.layer_metrics(spans, run_s)
        result["kernels"] = layers.kernel_table(spans)
        result["span_count"] = int(spans.dur.size)
        if args.spans:
            tracer.save(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
