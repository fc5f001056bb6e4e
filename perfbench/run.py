"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve --seed 1 \\
        --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics of an uninstrumented run;
``--trace 1`` wraps the layers' public functions with span recording and
prints the per-layer metrics instead, and writes the spans with a host
stamp to ``.perfbench/trace-<workload>-<seed>.json``.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
A failed correctness check prints ``"correct": false`` and exits 1.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

#: Knobs that change what runs; pinned or cleared before ``repro`` loads.
PINNED_ENV = {"REPRO_WORKERS": "1"}
CLEARED_ENV = ("REPRO_OBS", "REPRO_LOG", "REPRO_CACHE_DIR", "REPRO_FAULTS",
               "REPRO_FAULTS_SEED", "REPRO_CHECKPOINT_DIR",
               "REPRO_MP_CONTEXT")

WORK_DIR = ".perfbench"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout holding "
              "src/repro", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, os.path.abspath("src"))

    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    run = workloads.Run(args.seed, args.seconds, bool(args.trace), tmp)
    if run.trace:
        workloads.instrument(run.recorder, run.counters)
    correct = True
    try:
        workloads.WORKLOADS[args.workload](run)
        if not run.trace:
            run.metrics.add("peak_rss_mb", harness.peak_rss_mb(), "MB")
    except harness.CheckFailed as exc:
        correct = False
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
    finally:
        run.recorder.restore()
        shutil.rmtree(tmp, ignore_errors=True)

    stamp = harness.host_stamp()
    print(f"perfbench: {args.workload} seed={args.seed} "
          f"{json.dumps(stamp, sort_keys=True)}", file=sys.stderr)
    for note in run.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    if run.trace:
        path = os.path.join(WORK_DIR,
                            f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as f:
            json.dump({"host": stamp, "workload": args.workload,
                       "seed": args.seed,
                       "traced_windows": run.traced_windows,
                       "spans": [s.to_dict() for s in run.recorder.spans]},
                      f)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": run.metrics.values}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
