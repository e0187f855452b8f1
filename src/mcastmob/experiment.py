"""Scenario execution: seed chains, endpoint draws, runs, and handoff sweeps.

Every run gets a child seed hashed from (master seed, topology, model, run
index), so any single run can be replayed from its printed seed without
re-executing the rest of the matrix. Runs are independent jobs; with
workers > 1 they execute in a process pool, grouped by (topology, model)
so each worker reuses one shortest-path cache.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import metrics, movement, routing
from .config import ScenarioConfig, stable_seed
from .handoff import HandoffConfig, HandoffReport, simulate_handoff, simulate_mip_handoff
from .metrics import RunRecord
from .movement import MovementModel, MovementTrace
from .routing import StepSample
from .topology import PathOracle, Topology, generate, load_edge_list


class RunFailure(Exception):
    """A run violated a simulation invariant or its trace could not continue.

    Carries the child seed for replay.
    """

    def __init__(self, topology, model, run_index, child_seed, cause):
        super().__init__(
            f"run {topology}/{model}/run{run_index} failed "
            f"(child seed {child_seed}): {cause}"
        )
        self.topology = topology
        self.model = model
        self.run_index = run_index
        self.child_seed = child_seed


@dataclass(frozen=True)
class RunResult:
    record: RunRecord
    cn: int
    ha: int
    trace: MovementTrace
    samples: tuple[StepSample, ...]

    @property
    def key(self):
        return self.record.topology, self.record.model, self.record.run_index


@dataclass(frozen=True)
class ExperimentResult:
    config: ScenarioConfig
    topologies: dict[str, Topology]
    runs: tuple[RunResult, ...]
    aggregate: metrics.AggregateStats

    @property
    def records(self):
        return [r.record for r in self.runs]


def build_topology(spec, master_seed) -> Topology:
    """Load or generate the topology named by a TopologySpec."""
    if spec.file is not None:
        with open(spec.file, encoding="utf-8") as fh:
            return load_edge_list(fh.read(), name=spec.name)
    return generate(spec.generator, name=spec.name)


def child_seed(master_seed, topology_name, model, run_index) -> int:
    return stable_seed(master_seed, "run", topology_name, model, run_index)


def run_single(topo, oracle, topo_type, model_kind, cluster_radius, moves, seed, run_index,
               endpoints=None) -> RunResult:
    """Execute one seeded run: draw CN/HA, generate the trace, walk the tree.

    `endpoints` pins (cn, ha) for the per_topology endpoint policy;
    otherwise both are drawn from the child-seed stream.
    """
    rng = random.Random(seed)
    cn, ha = endpoints or _draw_endpoints(rng, topo.n)
    trace_seed = rng.getrandbits(64)
    trace = movement.generate_trace(
        topo,
        MovementModel(model_kind, cluster_radius),
        frozenset({cn}),
        moves,
        trace_seed,
    )
    samples = routing.run_scenario(topo, oracle, cn, ha, trace)
    return RunResult(
        record=RunRecord(
            topology=topo.name,
            topo_type=topo_type,
            model=model_kind,
            nodes=topo.n,
            run_index=run_index,
            child_seed=seed,
            stats=metrics.run_stats(samples),
        ),
        cn=cn,
        ha=ha,
        trace=trace,
        samples=tuple(samples),
    )


def _draw_endpoints(rng, n):
    cn = rng.randrange(n)
    ha = rng.randrange(n)
    while ha == cn:
        ha = rng.randrange(n)
    return cn, ha


def _pair_job(args):
    """All runs for one (topology, model): executed inline or in a pool worker."""
    topo, topo_type, model_kind, cfg_fields, seeds = args
    cluster_radius, moves, master_seed, endpoint_policy = cfg_fields
    oracle = PathOracle(topo)
    endpoints = None
    if endpoint_policy == "per_topology":
        endpoints = _draw_endpoints(
            random.Random(stable_seed(master_seed, "endpoints", topo.name)), topo.n
        )
    out = []
    for run_index, seed in seeds:
        try:
            out.append(run_single(
                topo, oracle, topo_type, model_kind, cluster_radius, moves, seed, run_index,
                endpoints=endpoints,
            ))
        except (routing.SimulationInvariantError, movement.MovementError) as exc:
            raise RunFailure(topo.name, model_kind, run_index, seed, exc) from exc
    return out


def execute_scenario(cfg: ScenarioConfig, workers=1) -> ExperimentResult:
    """Run the full experiment matrix described by the config."""
    topologies = {
        spec.name: build_topology(spec, cfg.master_seed) for spec in cfg.topologies
    }
    jobs = []
    for spec in cfg.topologies:
        for model in cfg.movement_models:
            seeds = [
                (i, child_seed(cfg.master_seed, spec.name, model, i))
                for i in range(cfg.seeds_per_scenario)
            ]
            jobs.append(
                (
                    topologies[spec.name],
                    spec.topo_type,
                    model,
                    (cfg.cluster_radius, cfg.moves_per_run, cfg.master_seed,
                     cfg.endpoint_policy),
                    seeds,
                )
            )
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_pair_job, jobs))
    else:
        batches = [_pair_job(job) for job in jobs]
    runs = tuple(result for batch in batches for result in batch)
    return ExperimentResult(
        config=cfg,
        topologies=topologies,
        runs=runs,
        aggregate=metrics.aggregate([r.record for r in runs]),
    )


def replay_run(cfg: ScenarioConfig, seed) -> RunResult | None:
    """Re-execute the single run whose child seed matches, or None if unknown."""
    for spec in cfg.topologies:
        for model in cfg.movement_models:
            for i in range(cfg.seeds_per_scenario):
                if child_seed(cfg.master_seed, spec.name, model, i) == seed:
                    job = (
                        build_topology(spec, cfg.master_seed),
                        spec.topo_type,
                        model,
                        (cfg.cluster_radius, cfg.moves_per_run, cfg.master_seed,
                         cfg.endpoint_policy),
                        [(i, seed)],
                    )
                    return _pair_job(job)[0]
    return None


@dataclass(frozen=True)
class HandoffRow:
    """One CSV row of the handoff sweep."""

    topology: str
    model: str
    run_index: int
    step: int
    strategy: str
    graft_links: int
    b_hops: int
    report: HandoffReport


def handoff_sweep(result: ExperimentResult) -> list[HandoffRow]:
    """Replay traces move by move, simulating each configured strategy per move.

    The tree is advanced with the same join/prune sequence as the metrics
    run, so each handoff is simulated against the exact pre-move tree.
    """
    cfg = result.config
    block = cfg.handoff
    if block is None:
        raise ValueError("config has no handoff block")
    base = dict(
        per_hop_delay=block.per_hop_delay,
        packet_interval=block.packet_interval,
        message_loss_rate=block.message_loss_rate,
        advance_lead=block.advance_lead,
        overlap=block.overlap,
        refresh_period=block.refresh_period,
    )
    oracles = {}  # one per topology, shared by its runs
    rows = []
    for run in result.runs:
        if run.record.run_index >= block.runs:
            continue
        topo = result.topologies[run.record.topology]
        oracle = oracles.get(topo.name)
        if oracle is None:
            oracle = oracles[topo.name] = PathOracle(topo)
        steps = run.trace.steps
        tree = routing.establish(topo, oracle, run.cn, steps[0])
        limit = min(len(steps) - 1, block.max_moves)
        for i in range(1, limit + 1):
            old, new = steps[i - 1], steps[i]
            if old == new:
                continue
            b_hops = oracle.dist(run.ha, new)
            graft = -1
            for strategy in block.strategies:
                hcfg = HandoffConfig(
                    strategy=strategy,
                    seed=stable_seed(run.record.child_seed, "handoff", i, strategy),
                    **base,
                )
                rep = simulate_handoff(topo, oracle, tree, old, new, hcfg)
                graft = rep.control_path_hops
                rows.append(
                    HandoffRow(run.record.topology, run.record.model,
                               run.record.run_index, i, strategy, graft, b_hops, rep)
                )
            if block.include_mobile_ip:
                hcfg = HandoffConfig(
                    strategy="plain_join",
                    seed=stable_seed(run.record.child_seed, "handoff", i, "mobile_ip"),
                    **base,
                )
                rep = simulate_mip_handoff(oracle, run.cn, run.ha, old, new, hcfg)
                rows.append(
                    HandoffRow(run.record.topology, run.record.model,
                               run.record.run_index, i, "mobile_ip", graft, b_hops, rep)
                )
            tree.join(new)
            tree.prune(old)
    return rows
