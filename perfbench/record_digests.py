#!/usr/bin/env python3
"""Record the report digests that gate the benchmark's output check.

    python3 perfbench/record_digests.py --seeds 0-99 --workloads suite_report handoff_clean

Runs one untraced repetition per (workload, seed) and merges the report
sha256 into perfbench/digests.json. Re-record only when a change alters the
reports on purpose, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-99")
    parser.add_argument("--workloads", nargs="+", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, run.SRC)
    import workloads

    out = workloads.DIGESTS_FILE
    lo, hi = (int(x) for x in args.seeds.split("-"))
    table = {}
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            table = json.load(fh)
    for seed in range(lo, hi + 1):
        for name in args.workloads:
            run.write_config(name, seed)
            rep, error = run.run_child(name, 0, hash_seed=seed)
            if rep is None or rep["problems"]:
                print(f"{name} seed {seed}: {error or rep['problems']}", file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = rep["digest"]
            print(f"{name} {seed} {rep['digest']}", flush=True)
            with open(out, "w", encoding="utf-8") as fh:
                json.dump({k: dict(sorted(v.items(), key=lambda kv: int(kv[0])))
                           for k, v in sorted(table.items())}, fh, indent=1, sort_keys=False)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
