"""The four benchmark workloads, the measured flow of one repetition, and output checks.

Each workload is a closed-loop batch job driven through the public API the
way the `run`, `handoff` and `plot` commands drive it. The workload seed is
the scenario's `master_seed`, so one seed always yields the same inputs.
Every report is written under one fixed relative directory per workload:
`report.json` embeds the config (and its hash) including `output_dir`, so a
fixed directory keeps the digests independent of where the checkout lives.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass

from mcastmob import config, experiment, reporting, routing
from mcastmob.cli import _write_report
from mcastmob.config import HandoffBlock, ScenarioConfig, TopologySpec, stable_seed
from mcastmob.metrics import REFERENCE
from mcastmob.topology import GeneratorParams

WORK_DIR = ".perfbench_work"
DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "run": execute_scenario + run reports; "handoff": + handoff_sweep
    plot: bool  # render the SVG plots after the run reports
    digest_gated: bool  # False: the digest is recorded as information only
    why: str

    @property
    def out_dir(self):
        return f"{WORK_DIR}/{self.name}/report"

    @property
    def config_path(self):
        return f"{WORK_DIR}/{self.name}/config.json"

    def config(self, seed, tiny=False) -> ScenarioConfig:
        """The scenario for `seed`; `tiny` shrinks it for the self-test."""
        if self.name == "large_topology":
            name = "ts10000"
            nodes = 300 if tiny else 10_000
            spec = TopologySpec(
                name=name,
                topo_type="transit_stub",
                generator=GeneratorParams(
                    kind="transit_stub", node_count=nodes, target_avg_degree=3.7,
                    seed=stable_seed(seed, "topology", name),
                ),
            )
            return ScenarioConfig(
                topologies=(spec,), name="large_topology", master_seed=seed,
                seeds_per_scenario=2 if tiny else 10, moves_per_run=10 if tiny else 100,
                output_dir=self.out_dir,
            )
        handoff = None
        if self.kind == "handoff":
            handoff = HandoffBlock(
                message_loss_rate=0.05 if self.name == "handoff_lossy" else 0.0,
                max_moves=2 if tiny else 20,
            )
        return config.reference_suite_config(
            master_seed=seed,
            seeds=1 if tiny or handoff else 10,
            moves=10 if tiny else 100,
            output_dir=self.out_dir,
            handoff=handoff,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "suite_report", "run", True, True,
            "the paper's main r/L/B-L experiment (run + plot, 39,000 steps); "
            "work spread over oracle, routing, movement, metrics and reports",
        ),
        Workload(
            "large_topology", "run", False, True,
            "one 10,000-node transit-stub topology: BFS-bound, cached distance "
            "vectors set memory; almost no reporting or handoff work",
        ),
        Workload(
            "handoff_clean", "handoff", False, True,
            "lossless handoff sweep (3,108 handoffs at seed 7): short event queues "
            "and one fresh path oracle per run; handoff.csv is byte-exact",
        ),
        Workload(
            "handoff_lossy", "handoff", False, False,
            "the same sweep at 5% per-hop loss: soft-state refresh waits make the "
            "event loop ~95% of host time, with almost no oracle work",
        ),
    )
}


class Checkpoints:
    """Cut one flow into short intervals at fixed points.

    A mark is taken between the flow's phases and, once installed, on entry
    to every topology build, path-oracle construction, single run and
    handoff simulation that `experiment` makes and to every tree join (one
    per move). The flow is deterministic, so the k-th interval is the same
    work in every repetition, and run.py can take each interval's fastest
    time over the repetitions.
    """

    CUTS = (
        (experiment, "build_topology"),
        (experiment, "PathOracle"),
        (experiment, "run_single"),
        (experiment, "simulate_handoff"),
        (experiment, "simulate_mip_handoff"),
        (routing.MulticastTree, "join"),
    )

    def __init__(self):
        self.times = []  # perf_counter at the start of each interval
        self.phases = []  # (index into times, phase) where a phase begins
        self._saved = {}

    def mark(self, phase=None):
        if phase is not None:
            self.phases.append((len(self.times), phase))
        self.times.append(time.perf_counter())

    def install(self):
        stamp, clock = self.times.append, time.perf_counter
        for owner, name in self.CUTS:
            fn = self._saved[owner, name] = getattr(owner, name)

            def cut(*args, _fn=fn, **kwargs):
                stamp(clock())
                return _fn(*args, **kwargs)

            setattr(owner, name, cut)

    def uninstall(self):
        for (owner, name), fn in self._saved.items():
            setattr(owner, name, fn)
        self._saved.clear()

    def intervals(self):
        """{phase: [seconds of each interval]}, from each mark to the next."""
        out = {}
        bounds = self.phases + [(len(self.times) - 1, None)]
        for (start, phase), (end, _) in zip(bounds, bounds[1:]):
            t = self.times[start:end + 1]
            out[phase] = [b - a for a, b in zip(t, t[1:])]
        return out


@dataclass
class FlowResult:
    result: experiment.ExperimentResult
    rows: list | None
    intervals: dict  # {phase: [seconds]}: phases load, exec, sweep, report

    @property
    def wall_s(self):  # config load to the last report byte
        return sum(sum(v) for v in self.intervals.values())


def run_flow(workload: Workload, cuts: Checkpoints) -> FlowResult:
    """One repetition: config load, simulation, reports. Timed, not checked."""
    cuts.mark("load")
    cfg = config.load(workload.config_path)
    cuts.mark("exec")
    result = experiment.execute_scenario(cfg, workers=1)
    rows = None
    if workload.kind == "handoff":
        cuts.mark("sweep")
        rows = experiment.handoff_sweep(result)
        cuts.mark("report")
        reporting.write_handoff(os.path.join(workload.out_dir, "handoff.csv"), rows)
    else:
        cuts.mark("report")
        _write_report(workload.out_dir, result)
        if workload.plot:
            reporting.render_plots(workload.out_dir)
    cuts.mark()
    return FlowResult(result, rows, cuts.intervals())


# A fixed pure-Python job, independent of the program: eight breadth-first
# searches over a fixed 1,000-node graph, about 1.4 ms at the reference speed.
_CALIBRATION_GRAPH = [[(i - 1) % 1000, (i + 1) % 1000, (7 * i + 3) % 1000] for i in range(1000)]
CALIBRATION_REF_S = 1.4e-3


def calibration_s() -> float:
    """Host seconds of one pass of the calibration job."""
    t0 = time.perf_counter()
    for source in range(8):
        dist = [-1] * len(_CALIBRATION_GRAPH)
        dist[source] = 0
        queue = [source]
        for u in queue:
            du = dist[u] + 1
            for v in _CALIBRATION_GRAPH[u]:
                if dist[v] < 0:
                    dist[v] = du
                    queue.append(v)
    return time.perf_counter() - t0


def setup_once(workload: Workload) -> float:
    """Config load plus topology build/generation, the benchmark's set-up."""
    t0 = time.perf_counter()
    cfg = config.load(workload.config_path)
    for spec in cfg.topologies:
        experiment.build_topology(spec, cfg.master_seed)
    return time.perf_counter() - t0


def report_digest(out_dir):
    """sha256 over every report file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    files = []
    for dirpath, _, names in os.walk(out_dir):
        files.extend(os.path.join(dirpath, n) for n in names)
    for path in sorted(files, key=lambda p: os.path.relpath(p, out_dir)):
        rel = os.path.relpath(path, out_dir).replace(os.sep, "/")
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def check_digest(workload, seed, digest, table=DIGESTS_FILE):
    """(passed, note): the report digest against the one recorded for this seed.

    A seed without a recorded digest passes on the property checks alone; a
    workload that is not digest-gated only reports a difference.
    """
    try:
        with open(table, encoding="utf-8") as fh:
            recorded = json.load(fh).get(workload.name, {}).get(str(seed))
    except FileNotFoundError:
        recorded = None
    if recorded is None:
        return True, f"not recorded for seed {seed}; property checks only"
    if recorded == digest:
        return True, "matches the recorded digest"
    if not workload.digest_gated:
        return True, f"differs from the recorded {recorded} (information only)"
    return False, f"DIFFERS from the recorded {recorded}"


def tree_handoffs(result):
    """Moves that change location, each one tree join plus one prune."""
    return sum(
        sum(1 for a, b in zip(run.trace.steps, run.trace.steps[1:]) if a != b)
        for run in result.runs
    )


def expected_handoff_rows(result):
    """handoff.csv row count implied by the traces, independent of the simulator."""
    block = result.config.handoff
    per_move = len(block.strategies) + (1 if block.include_mobile_ip else 0)
    moves = 0
    for run in result.runs:
        if run.record.run_index >= block.runs:
            continue
        steps = run.trace.steps
        limit = min(len(steps) - 1, block.max_moves)
        moves += sum(1 for i in range(1, limit + 1) if steps[i - 1] != steps[i])
    return moves * per_move


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_run_report(out_dir, cfg):
    """Properties every correct run report has; returns a list of problems.

    Checked on the written files: one samples file per run with one row per
    visit, c >= 1, the triangle inequality a + b >= c (c is the unicast
    shortest path), non-negative link counts whose running balance never goes
    negative, and run_stats.csv's mean_r equal to the mean recomputed from
    the samples.
    """
    problems = []
    runs = len(cfg.topologies) * len(cfg.movement_models) * cfg.seeds_per_scenario
    stats = _read_csv(os.path.join(out_dir, "run_stats.csv"))
    if len(stats) != runs:
        problems.append(f"run_stats.csv has {len(stats)} rows, expected {runs}")
    for row in stats:
        key = f"{row['topology']}__{row['model']}__run{int(row['run']):02d}"
        samples = _read_csv(os.path.join(out_dir, "runs", f"{key}.csv"))
        if len(samples) != cfg.moves_per_run:
            problems.append(f"{key}: {len(samples)} samples, expected {cfg.moves_per_run}")
            continue
        live = 0
        ratios = []
        for i, s in enumerate(samples):
            a, b, c = int(s["a"]), int(s["b"]), int(s["c"])
            added, removed = int(s["added"]), int(s["removed"])
            live += added - removed
            if int(s["step"]) != i or c < 1 or a + b < c or min(added, removed) < 0 or live < 0:
                problems.append(f"{key}: bad sample {s}")
                break
            ratios.append((a + b) / c)
        mean_r = sum(ratios) / len(ratios)
        if not math.isclose(float(row["mean_r"]), mean_r, rel_tol=1e-5):
            problems.append(f"{key}: run_stats mean_r {row['mean_r']} != samples {mean_r:.6g}")
        if len(problems) > 10:
            break
    return problems


def check_handoff_rows(out_dir, result, rows, lossless):
    """Properties every correct handoff kernel keeps; returns a list of problems."""
    problems = []
    expected = expected_handoff_rows(result)
    if len(rows) != expected:
        problems.append(f"{len(rows)} handoff rows, expected {expected}")
    with open(os.path.join(out_dir, "handoff.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) != len(rows) + 1:
        problems.append(f"handoff.csv has {len(lines) - 1} rows for {len(rows)} handoffs")
    for row in rows:
        rep = row.report
        where = f"{row.topology}/{row.model}/step{row.step}/{row.strategy}"
        lost = rep.packets_emitted - rep.packets_delivered
        if rep.packets_lost != lost or lost < 0:
            problems.append(f"{where}: lost {rep.packets_lost} != emitted - delivered {lost}")
        if rep.packets_duplicated > len(rep.deliveries):
            problems.append(f"{where}: duplicates exceed logged deliveries")
        if not (rep.handoff_latency >= 0):  # also rejects nan
            problems.append(f"{where}: latency {rep.handoff_latency}")
        if lossless and (lost or math.isinf(rep.handoff_latency)):
            problems.append(f"{where}: a lossless make-before-break handoff lost packets")
        if len(problems) > 10:
            break
    return problems


def context(result):
    """Simulated headline averages next to the published ones (context only)."""
    agg = result.aggregate
    out = {name: (agg.overall(name), REFERENCE[name]) for name in ("mean_r", "mean_L", "b_over_l")}
    out["bw_ratio"] = (agg.overall_bw_ratio(), REFERENCE["total_ab"] / REFERENCE["total_c"])
    return out
