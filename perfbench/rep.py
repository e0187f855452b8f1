"""One repetition of one workload in a fresh process; prints one JSON line.

Started by run.py from the checkout root with `src` on PYTHONPATH and the
workload's config already written. A fresh process per repetition makes
`ru_maxrss` the peak of this repetition alone.

    python3 perfbench/rep.py --workload suite_report --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys

import workloads
from tracer import Tracer

# Set-up (~40-60 ms) is short, so after the flow it is sampled again until
# its samples add up to this share of the flow's host time (at least three
# times). That gives run.py many samples without crowding out repetitions.
SAMPLE_SHARE = 0.1
# Passes of the calibration job before the flow; one more follows each set-up pass.
CALIBRATION_PASSES = 20


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bare", action="store_true",
                        help="the timed flow only, without the extra set-up samples")
    args = parser.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    shutil.rmtree(w.out_dir, ignore_errors=True)

    calibration = []
    if not args.trace:
        calibration = [workloads.calibration_s() for _ in range(CALIBRATION_PASSES)]
    tracer = None
    cuts = workloads.Checkpoints()
    if args.trace:
        tracer = Tracer()
        tracer.install()
    else:
        cuts.install()
    try:
        flow = workloads.run_flow(w, cuts)
    finally:
        cuts.uninstall()
        if tracer is not None:
            tracer.uninstall()
    max_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result, rows = flow.result, flow.rows
    out = {
        "wall_s": flow.wall_s,
        "intervals": flow.intervals,
        "max_rss_kb": max_rss_kb,
        "digest": workloads.report_digest(w.out_dir),
        "steps": sum(len(run.samples) for run in result.runs),
        "context": workloads.context(result),
    }
    if w.kind == "handoff":
        out["ops"] = out["handoffs"] = len(rows)
        out["problems"] = workloads.check_handoff_rows(
            w.out_dir, result, rows, lossless=result.config.handoff.message_loss_rate == 0
        )
    else:
        out["ops"] = len(result.runs)
        out["handoffs"] = workloads.tree_handoffs(result)
        out["problems"] = workloads.check_run_report(w.out_dir, result.config)
    del flow, result, rows

    if tracer is not None:
        out["trace"] = tracer.metrics()
        tracer.write_spans(f"{workloads.WORK_DIR}/{w.name}/spans.csv")
    elif not args.bare:
        out["setup_s"] = []
        while sum(out["setup_s"]) < SAMPLE_SHARE * out["wall_s"] or len(out["setup_s"]) < 3:
            out["setup_s"].append(workloads.setup_once(w))
            calibration.append(workloads.calibration_s())
    out["calibration_s"] = calibration
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
