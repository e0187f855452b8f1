"""Command-line front end: run scenarios, handoff sweeps, plots, replays.

Exit codes: 0 success, also when stdout is closed before the summary is
printed (every report file is written first), 2 configuration problems, 3
edge lists that cannot be read or loaded, 4 failed runs in `run`, `handoff` or
`replay`: internal invariant violations or movement traces that cannot
continue (the offending run's child seed is printed for replay).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from statistics import fmean

from . import __version__, config as config_mod, experiment, reporting
from .config import ConfigError
from .experiment import RunFailure
from .metrics import REFERENCE
from .topology import TopologyError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOPOLOGY = 3
EXIT_INVARIANT = 4

OUTPUT_DIR_ENV = "MCASTMOB_OUT"


class _CliError(Exception):
    """A usage problem, printed as it is; exit 2."""


def _resolve_out(args, default):
    return args.out or os.environ.get(OUTPUT_DIR_ENV) or default


def _workers(args):
    if args.workers < 1:
        raise _CliError(f"--workers must be at least 1, not {args.workers}")
    return args.workers


def _load_config(path):
    if path is None:
        raise _CliError("--config is required")
    return config_mod.load(path)


def _write_run_files(out_dir, run):
    """runs/<key>.csv and traces/<key>.csv of one run; returns the key."""
    rec = run.record
    key = f"{rec.topology}__{rec.model}__run{rec.run_index:02d}"
    reporting.write_run_samples(os.path.join(out_dir, "runs", f"{key}.csv"), run.samples)
    reporting.write_trace(os.path.join(out_dir, "traces", f"{key}.csv"), run.trace)
    return key


def _write_report(out_dir, result):
    cfg = result.config
    reporting.write_report_json(
        os.path.join(out_dir, "report.json"),
        {
            "tool": "mcastmob",
            "version": __version__,
            "config_sha256": cfg.sha256(),
            "master_seed": cfg.master_seed,
            "runs": len(result.runs),
            "topologies": [result.topologies[s.name].summary() for s in cfg.topologies],
            "reference_values": REFERENCE,
            "config": cfg.to_dict(),
        },
    )
    for run in result.runs:
        _write_run_files(out_dir, run)
    reporting.write_run_stats(os.path.join(out_dir, "run_stats.csv"), result.runs)
    reporting.write_aggregate(os.path.join(out_dir, "aggregate.csv"), result.aggregate)
    reporting.write_summary(os.path.join(out_dir, "summary.csv"), result.runs)


def cmd_run(args):
    workers = _workers(args)
    cfg = _load_config(args.config)
    out_dir = _resolve_out(args, cfg.output_dir)
    result = experiment.execute_scenario(cfg, workers=workers)
    _write_report(out_dir, result)
    agg = result.aggregate
    print(f"wrote {len(result.runs)} runs to {out_dir}")
    for name in ("mean_r", "mean_L", "b_over_l"):
        value = agg.overall(name)
        shown = "n/a" if value is None else f"{value:.3f}"
        print(f"overall {name} = {shown} (reference {REFERENCE[name]})")
    print(f"overall bandwidth ratio sum(A+B)/sum(C) = {agg.overall_bw_ratio():.3f}")
    return EXIT_OK


def cmd_handoff(args):
    workers = _workers(args)
    cfg = _load_config(args.config)
    if cfg.handoff is None:
        raise ConfigError("handoff command needs a 'handoff' block")
    out_dir = _resolve_out(args, cfg.output_dir)
    result = experiment.execute_scenario(experiment.trim_to_sweep(cfg), workers=workers)
    rows = experiment.handoff_sweep(result)
    reporting.write_handoff(os.path.join(out_dir, "handoff.csv"), rows)
    sims = len({id(row.report) for row in rows})  # rows of one memo key share its report
    print(f"wrote {len(rows)} handoff rows from {sims} simulations to "
          f"{os.path.join(out_dir, 'handoff.csv')}")
    by_strategy = {}  # in row order, so mobile_ip comes last
    for row in rows:
        by_strategy.setdefault(row.strategy, []).append(row.report)
    for strategy, reps in by_strategy.items():
        finite = [r.handoff_latency for r in reps if r.handoff_latency < math.inf]
        latency = f"{fmean(finite):.3f}" if finite else "n/a"
        print(f"{strategy} mean of {len(reps)} rows: latency_ms = {latency} "
              f"({len(reps) - len(finite)} inf), lost = {fmean(r.packets_lost for r in reps):.3f}, "
              f"dup = {fmean(r.packets_duplicated for r in reps):.3f}, "
              f"control_msgs = {fmean(r.control_messages for r in reps):.3f}")
    return EXIT_OK


def cmd_plot(args):
    out_dir = _resolve_out(args, None)
    if not out_dir:
        raise _CliError("plot needs --out (the report directory)")
    try:
        written = reporting.render_plots(out_dir)
    except (FileNotFoundError, ValueError) as exc:
        raise _CliError(f"plot error: {exc}") from exc
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_replay(args):
    cfg = _load_config(args.config)
    if args.replay is None:
        raise _CliError("replay needs --replay <child-seed>")
    out_dir = _resolve_out(args, os.path.join(cfg.output_dir, "replay"))
    result = experiment.replay_run(cfg, args.replay)
    if result is None:
        raise _CliError(f"child seed {args.replay} does not belong to this config")
    key = _write_run_files(out_dir, result)
    print(f"replayed {key} (cn={result.cn}, ha={result.ha}) into {out_dir}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mcastmob",
        description="Simulate multicast-based IP mobility against basic Mobile IP",
    )
    parser.add_argument("--version", action="version", version=f"mcastmob {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, needs_workers in (
        ("run", cmd_run, True),
        ("handoff", cmd_handoff, True),
        ("plot", cmd_plot, False),
        ("replay", cmd_replay, False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", help="scenario JSON document")
        p.add_argument("--out", help=f"output directory (or ${OUTPUT_DIR_ENV})")
        if needs_workers:
            p.add_argument("--workers", type=int, default=1, help="parallel run jobs")
        if name == "replay":
            p.add_argument("--replay", type=int, help="child seed printed by a failed run")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:  # stdout closed early, say by `| head -1`: the reports are written
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # the rest goes nowhere, and the exit flush passes
        os.close(devnull)
        return EXIT_OK
    except _CliError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TopologyError as exc:
        print(f"topology error: {exc}", file=sys.stderr)
        return EXIT_TOPOLOGY
    except RunFailure as exc:
        print(f"{exc}\nreplay with: mcastmob replay --config <cfg> --replay {exc.child_seed}",
              file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
