"""Record perfbench/golden.json: output digests and computed counts.

    python3 perfbench/record_golden.py

Runs one traced pass of every workload for every input seed in the seed set
and stores the sha256 of each report, samples.csv and saved trace, plus the
computed counts, under the digest of the current package sources.  Refuses
to write anything if a config fails its gate.  Record only at a commit whose
reports are accepted as correct: run.py counts every later difference in
``cli.reports_changed``.
"""

import json
import sys

import run
import workloads
from layers import COMPUTED_COUNTS


def main():
    golden = {"code_digest": run.code_digest(),
              "input_seeds": list(workloads.INPUT_SEEDS),
              "digests": {}, "counts": {}}
    failures = []
    for workload, (_, _, seeded) in workloads.WORKLOADS.items():
        seeds = range(len(workloads.INPUT_SEEDS)) if seeded else [0]
        for seed in seeds:
            key = workloads.golden_key(workload, seed)
            record = run.Runner(workload, seed).run_pass(0, trace=True)
            bad = [op["name"] for op in record["ops"] if not op["ok"]]
            if record["crashed"] or bad:
                failures.append(f"{workload} seed {key}: {bad or record.get('error')}")
                continue
            golden["digests"].setdefault(workload, {})[key] = record["digests"]
            golden["counts"].setdefault(workload, {})[key] = {
                name: record["layers"][name][0] for name in COMPUTED_COUNTS}
            golden["python"] = record["python"]
            golden["numpy"] = record["numpy"]
            print(f"{workload} seed {key}: run_s={record['run_s']:.2f} "
                  f"failed={record['failed']}", file=sys.stderr, flush=True)
    if failures:
        print("not recorded; failing configs:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    with open(run.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
