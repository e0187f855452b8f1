"""Command-line front end: run scenarios, handoff sweeps, plots, replays.

Exit codes: 0 success, 2 configuration problems, 3 topology load/generation
failures, 4 failed runs: internal invariant violations or movement traces
that cannot continue (the offending run's child seed is printed for replay).
"""

from __future__ import annotations

import argparse
import os
import sys

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
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _resolve_out(args, cfg):
    return args.out or os.environ.get(OUTPUT_DIR_ENV) or cfg.output_dir


def _load_config(path):
    if path is None:
        raise _CliError(EXIT_CONFIG, "--config is required")
    try:
        return config_mod.load(path)
    except ConfigError as exc:
        raise _CliError(EXIT_CONFIG, f"config error: {exc}") from exc


def _run_key(result):
    rec = result.record
    return f"{rec.topology}__{rec.model}__run{rec.run_index:02d}"


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
        key = _run_key(run)
        reporting.write_run_samples(os.path.join(out_dir, "runs", f"{key}.csv"), run.samples)
        reporting.write_trace(os.path.join(out_dir, "traces", f"{key}.csv"), run.trace)
    reporting.write_run_stats(os.path.join(out_dir, "run_stats.csv"), result.runs)
    reporting.write_aggregate(os.path.join(out_dir, "aggregate.csv"), result.aggregate)
    reporting.write_summary(os.path.join(out_dir, "summary.csv"), result.runs)


def _execute(cfg, workers):
    try:
        return experiment.execute_scenario(cfg, workers=workers)
    except TopologyError as exc:
        raise _CliError(EXIT_TOPOLOGY, f"topology error: {exc}") from exc
    except OSError as exc:
        raise _CliError(EXIT_TOPOLOGY, f"topology file error: {exc}") from exc
    except RunFailure as exc:
        raise _CliError(
            EXIT_INVARIANT, f"{exc}\nreplay with: mcastmob replay --config <cfg> "
            f"--replay {exc.child_seed}"
        ) from exc


def cmd_run(args):
    cfg = _load_config(args.config)
    out_dir = _resolve_out(args, cfg)
    result = _execute(cfg, args.workers)
    _write_report(out_dir, result)
    agg = result.aggregate
    print(f"wrote {len(result.runs)} runs to {out_dir}")
    for name in ("mean_r", "mean_L", "b_over_l"):
        print(f"overall {name} = {agg.overall(name):.3f} (reference {REFERENCE[name]})")
    print(f"overall bandwidth ratio sum(A+B)/sum(C) = {agg.overall_bw_ratio():.3f}")
    return EXIT_OK


def cmd_handoff(args):
    cfg = _load_config(args.config)
    if cfg.handoff is None:
        raise _CliError(EXIT_CONFIG, "config error: handoff command needs a 'handoff' block")
    out_dir = _resolve_out(args, cfg)
    result = _execute(cfg, args.workers)
    rows = experiment.handoff_sweep(result)
    reporting.write_handoff(os.path.join(out_dir, "handoff.csv"), rows)
    print(f"wrote {len(rows)} handoff simulations to {os.path.join(out_dir, 'handoff.csv')}")
    return EXIT_OK


def cmd_plot(args):
    out_dir = args.out or os.environ.get(OUTPUT_DIR_ENV)
    if not out_dir:
        raise _CliError(EXIT_CONFIG, "plot needs --out (the report directory)")
    try:
        written = reporting.render_plots(out_dir)
    except (FileNotFoundError, ValueError) as exc:
        raise _CliError(EXIT_CONFIG, f"plot error: {exc}") from exc
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_replay(args):
    cfg = _load_config(args.config)
    if args.replay is None:
        raise _CliError(EXIT_CONFIG, "replay needs --replay <child-seed>")
    out_dir = args.out or os.environ.get(OUTPUT_DIR_ENV) or os.path.join(cfg.output_dir, "replay")
    try:
        result = experiment.replay_run(cfg, args.replay)
    except TopologyError as exc:
        raise _CliError(EXIT_TOPOLOGY, f"topology error: {exc}") from exc
    except RunFailure as exc:
        raise _CliError(EXIT_INVARIANT, str(exc)) from exc
    if result is None:
        raise _CliError(EXIT_CONFIG, f"child seed {args.replay} does not belong to this config")
    key = _run_key(result)
    reporting.write_run_samples(os.path.join(out_dir, "runs", f"{key}.csv"), result.samples)
    reporting.write_trace(os.path.join(out_dir, "traces", f"{key}.csv"), result.trace)
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
        return args.handler(args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
