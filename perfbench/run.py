#!/usr/bin/env python3
"""mcastmob benchmark: run one workload (or all) and print every metric.

    python3 perfbench/run.py --workload suite_report --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Repetitions of the workload run one after another, each in a fresh process
(perfbench/rep.py), for about --seconds. With --trace 0 the
end-to-end times take each short interval of the flow at its fastest
repetition, scaled to a reference host speed; with --trace 1 each
untraced repetition is followed by a traced one, at least twice, and the
per-layer metrics come from the traced ones. Every repetition's output is checked; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUDGET_S = 170.0  # one invocation must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "handoffs_per_s": "1/s",
    "max_rss_mb": "MB",
}
PER_LAYER = {
    "topology.build_s": "s",
    "topology.nodes": "count",
    "topology.edges": "count",
    "oracle.bfs_runs": "count",
    "oracle.cache_hits": "count",
    "oracle.hit_ratio": "ratio",
    "oracle.bfs_s": "s",
    "oracle.instances": "count",
    "movement.traces": "count",
    "movement.trace_s": "s",
    "routing.joins": "count",
    "routing.prunes": "count",
    "routing.links_grafted": "count",
    "routing.join_s": "s",
    "routing.prune_s": "s",
    "routing.run_scenario_self_s": "s",
    "metrics.run_stats_s": "s",
    "metrics.aggregate_s": "s",
    "experiment.run_ms.p50": "ms",
    "experiment.run_ms.p_hi": "ms",
    "experiment.run_ms.p_hi_pct": "%",
    "experiment.run_ms.n": "count",
    "experiment.sweep_self_s": "s",
    "handoff.sims": "count",
    "handoff.mcast_ms.p50": "ms",
    "handoff.mcast_ms.p99": "ms",
    "handoff.mcast_ms.n": "count",
    "handoff.mip_ms.p50": "ms",
    "handoff.mip_ms.p98": "ms",
    "handoff.mip_ms.n": "count",
    "handoff.packets_emitted": "count",
    "handoff.packets_delivered": "count",
    "handoff.delivery_ratio": "ratio",
    "handoff.control_messages": "count",
    "handoff.giveups": "count",
    "handoff.us_per_packet": "us",
    "reporting.write_s": "s",
    "reporting.files": "count",
    "reporting.bytes": "bytes",
    "reporting.plot_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
_TIMED_UNITS = ("s", "ms", "us")  # medians over traced repetitions; the rest must repeat


def run_child(workload, trace, hash_seed, timeout=BUDGET_S, bare=False):
    """Run one repetition in a fresh process; returns (result dict or None, error).

    `bare` leaves out the extra set-up and execute samples of an untraced
    repetition, for the untraced half of a traced run.

    Each repetition gets its own PYTHONHASHSEED, so reports that depended on
    set or dict order under hash randomisation would differ between
    repetitions and fail the determinism check.
    """
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload,
             "--trace", str(trace)] + (["--bare"] if bare else []),
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"stopped at the {BUDGET_S:.0f} s time budget"
    if proc.returncode != 0:
        return None, proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else "crashed"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def fastest_phases(reps):
    """({phase: seconds}, problem): each interval's fastest time over `reps`, summed per phase.

    Host interference on a shared machine comes and goes within a second, so
    the fastest repetition of a short interval is steady where the median of
    a whole repetition is not (timeit's rule: the rest is interference).
    """
    shapes = {tuple((p, len(v)) for p, v in r["intervals"].items()) for r in reps}
    if len(shapes) != 1:
        return None, f"repetitions cut the flow into different intervals: {sorted(shapes)}"
    return {phase: sum(map(min, zip(*(r["intervals"][phase] for r in reps))))
            for phase in reps[0]["intervals"]}, None


def write_config(name, seed, tiny=False):
    """Write the workload's scenario for `seed` where rep.py loads it; returns the workload."""
    import workloads

    w = workloads.WORKLOADS[name]
    os.makedirs(os.path.join(ROOT, os.path.dirname(w.config_path)), exist_ok=True)
    with open(os.path.join(ROOT, w.config_path), "w", encoding="utf-8") as fh:
        fh.write(w.config(seed, tiny).canonical_json())
    return w


def measure(name, seed, seconds, trace, tiny=False):
    """Repeat one workload for `seconds`; returns (report dict, printable lines)."""
    import workloads

    w = write_config(name, seed, tiny)

    plain, traced, problems = [], [], []
    attempted = failed = rounds = 0
    start = time.monotonic()
    while True:
        rounds += 1
        for kind in (0, 1) if trace else (0,):
            rep, error = run_child(name, kind, len(plain) + len(traced),
                                   BUDGET_S - (time.monotonic() - start), bare=bool(trace))
            if rep is None:
                ops = (plain or traced or [{"ops": 1}])[0]["ops"]
                attempted += ops
                failed += ops
                problems.append(error)
                break
            attempted += rep["ops"]
            problems.extend(rep["problems"])
            (traced if kind else plain).append(rep)
        elapsed = time.monotonic() - start
        # go on while one more round is expected to end nearer to `seconds` than
        # now; a traced run makes two rounds, so its counts can be compared
        if problems or (elapsed + elapsed / rounds / 2 >= seconds
                        and (not trace or rounds >= 2)):
            break

    lines = [f"== {name} seed={seed} repetitions={len(plain)}"
             + (f" traced={len(traced)}" if trace else "")]
    reps = plain + traced
    digests = {r["digest"] for r in reps}
    if len(digests) > 1:
        problems.append(f"reports differ between repetitions: {sorted(digests)}")
    if reps and not tiny:
        passed, note = workloads.check_digest(w, seed, reps[0]["digest"])
        lines.append(f"report sha256 {reps[0]['digest']}: {note}")
        if not passed:
            problems.append(f"report digest {note}")

    metrics = {}
    if plain and not trace:
        phases, problem = fastest_phases(plain)
        if problem:
            problems.append(problem)
        else:
            # host seconds at the reference speed of the calibration job
            fastest_calibration = min(s for r in plain for s in r["calibration_s"])
            scale = workloads.CALIBRATION_REF_S / fastest_calibration
            phases = {phase: s * scale for phase, s in phases.items()}
            # handoffs are handoff.csv rows per second of handoff_sweep, or on a run
            # workload the tree's join/prune handoffs per second of execute_scenario
            handoff_s = phases["sweep"] if w.kind == "handoff" else phases["exec"]
            setup_s = [s for r in plain for s in r["setup_s"]]
            metrics = {
                "wall_s": (sum(phases.values()), len(plain)),
                "setup_s": (min(setup_s) * scale, len(setup_s)),
                "steps_per_s": (plain[0]["steps"] / phases["exec"], len(plain)),
                "handoffs_per_s": (plain[0]["handoffs"] / handoff_s, len(plain)),
                "max_rss_mb": (statistics.median([r["max_rss_kb"] for r in plain]) / 1024,
                               len(plain)),
            }
            lines.append(
                f"  information: fastest calibration pass {fastest_calibration * 1e3:.4g} ms "
                f"(scale {scale:.4g}); unscaled wall_s {metrics['wall_s'][0] / scale:.6g} s, "
                f"setup_s {min(setup_s):.6g} s; medians of whole repetitions "
                f"{statistics.median([r['wall_s'] for r in plain]):.6g} s, of set-up passes "
                f"{statistics.median(setup_s):.6g} s")

    if traced:
        first = traced[0]["trace"]
        for key, unit in PER_LAYER.items():
            if key.startswith("trace."):
                continue
            values = [r["trace"][key] for r in traced]
            if unit in _TIMED_UNITS:
                metrics[key] = (statistics.median(values), len(values))
            else:
                if any(v != first[key] for v in values):
                    problems.append(f"{key} differs between traced repetitions: {values}")
                metrics[key] = (first[key], len(values))
        traced_wall = statistics.median([r["wall_s"] for r in traced])
        plain_wall = statistics.median([r["wall_s"] for r in plain])
        metrics["trace.wall_s"] = (traced_wall, len(traced))
        metrics["trace.overhead_s"] = (traced_wall - plain_wall, len(traced))

    units = PER_LAYER if trace else END_TO_END
    for key, (value, n) in metrics.items():
        lines.append(f"  {key:30s} {value:14.6g} {units[key]:6s} (n={n})")
    base = "handoffs" if w.kind == "handoff" else "runs"
    lines.append(f"  {'failed_share':30s} {failed / max(attempted, 1):14.6g} ratio  "
                 f"({failed} of {attempted} {base})")
    if reps:
        lines.append("  context only, not a target (simulated vs published):")
        for key, (sim, ref) in reps[0]["context"].items():
            lines.append(f"    {key:10s} {sim:8.3f} vs {ref:.3f}")
    for p in problems[:20]:
        lines.append(f"  PROBLEM: {p}")
    report = {
        "correct": not problems and bool(reps),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }
    return report, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=7, help="master seed of the inputs")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and waits for the repetition
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "mcastmob", "__init__.py")):
        print(f"error: no mcastmob sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        report, lines = measure(name, args.seed, args.seconds, args.trace, args.tiny)
        print("\n".join(lines), flush=True)
        combined["correct"] &= report["correct"]
        combined["attempted"] += report["attempted"]
        combined["failed"] += report["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        combined["metrics"].update({prefix + k: v for k, v in report["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
