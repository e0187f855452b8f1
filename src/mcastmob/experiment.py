"""Scenario execution: seed chains, endpoint draws, runs, and handoff sweeps.

Every run gets a child seed hashed from (master seed, topology, model, run
index), so any single run can be replayed from its printed seed without
re-executing the rest of the matrix. Runs are independent jobs; with
workers > 1 they execute in a process pool, grouped by (topology, model)
so each worker reuses one shortest-path cache.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from . import metrics, movement, routing
from .config import ScenarioConfig, stable_seed
from .handoff import HandoffReport, simulate_handoff, simulate_mip_handoff
from .metrics import RunRecord
from .movement import MovementModel, MovementTrace
from .routing import StepSample
from .topology import PathOracle, Topology, TopologyError, generate, load_edge_list


class RunFailure(Exception):
    """A run violated a simulation invariant or its trace could not continue.

    Carries the child seed for replay.
    """

    def __init__(self, topology, model, run_index, child_seed, cause):
        super().__init__(
            f"run {topology}/{model}/run{run_index} failed "
            f"(child seed {child_seed}): {cause}"
        )
        self.child_seed = child_seed


@dataclass(frozen=True)
class RunResult:
    record: RunRecord
    cn: int
    ha: int
    trace: MovementTrace
    samples: tuple[StepSample, ...]


@dataclass(frozen=True)
class ExperimentResult:
    config: ScenarioConfig
    topologies: dict[str, Topology]
    runs: tuple[RunResult, ...]
    aggregate: metrics.AggregateStats


def build_topology(spec, master_seed) -> Topology:
    """Load or generate the topology named by a TopologySpec."""
    if spec.file is not None:
        try:
            with open(spec.file, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise TopologyError(f"cannot read edge list {spec.file}: {exc}") from exc
        return load_edge_list(text, name=spec.name)
    return generate(spec.generator, name=spec.name)


def child_seed(master_seed, topology_name, model, run_index) -> int:
    return stable_seed(master_seed, "run", topology_name, model, run_index)


def run_single(cfg, spec, topo, oracle, model_kind, run_index, endpoints=None) -> RunResult:
    """Execute run `run_index` of (`spec`, `model_kind`) under `cfg`.

    Draws CN/HA from the run's child seed, generates the trace and walks the
    tree. `endpoints` pins (cn, ha) for the per_topology endpoint policy;
    otherwise both are drawn from the child-seed stream, before the trace
    seed. Raises RunFailure, with the child seed, when the trace cannot
    continue or the walk breaks an invariant.
    """
    seed = child_seed(cfg.master_seed, spec.name, model_kind, run_index)
    rng = random.Random(seed)
    cn, ha = endpoints or _draw_endpoints(rng, topo.n)
    try:
        trace = movement.generate_trace(topo, MovementModel(model_kind, cfg.cluster_radius), cn,
                                        cfg.moves_per_run, rng.getrandbits(64))
        samples = routing.run_scenario(oracle, cn, ha, trace.steps)
    except (routing.SimulationInvariantError, movement.MovementError) as exc:
        raise RunFailure(topo.name, model_kind, run_index, seed, exc) from exc
    return RunResult(
        record=RunRecord(
            topology=topo.name,
            topo_type=spec.topo_type,
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
    """Runs `run_indices` of one (topology, model), executed inline or in a pool worker."""
    cfg, spec, topo, model_kind, run_indices = args
    oracle = PathOracle(topo)
    endpoints = None
    if cfg.endpoint_policy == "per_topology":
        endpoints = _draw_endpoints(
            random.Random(stable_seed(cfg.master_seed, "endpoints", topo.name)), topo.n
        )
    return [run_single(cfg, spec, topo, oracle, model_kind, i, endpoints) for i in run_indices]


def execute_scenario(cfg: ScenarioConfig, workers=1) -> ExperimentResult:
    """Run the full experiment matrix described by the config."""
    topologies = {
        spec.name: build_topology(spec, cfg.master_seed) for spec in cfg.topologies
    }
    jobs = [
        (cfg, spec, topologies[spec.name], model, range(cfg.seeds_per_scenario))
        for spec in cfg.topologies
        for model in cfg.movement_models
    ]
    workers = min(workers, len(jobs))  # the pool forks all its workers up front
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # pulls in multiprocessing: only here
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
                    topo = build_topology(spec, cfg.master_seed)
                    return _pair_job((cfg, spec, topo, model, [i]))[0]
    return None


@dataclass(slots=True)  # not frozen: a frozen __init__ takes 4x as long, once per row
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


def trim_to_sweep(cfg: ScenarioConfig) -> ScenarioConfig:
    """`cfg` cut to the runs and moves its handoff sweep reads, with the same sweep rows.

    A run's child seed depends only on its index, and a trace draws each
    step after the one before, so the first `runs` runs of `max_moves + 1`
    steps are those of `cfg`, and so are the sweep's rows. Moves past them
    are neither walked nor checked.
    """
    block = cfg.handoff
    return replace(cfg, seeds_per_scenario=min(cfg.seeds_per_scenario, block.runs),
                   moves_per_run=min(cfg.moves_per_run, block.max_moves + 1))


def handoff_sweep(result: ExperimentResult) -> list[HandoffRow]:
    """Simulate each configured strategy on the first moves of each covered run.

    `execute_scenario` walked every move and checked the tree at every step,
    so each move's hop triple is read off the run's samples. The sweep walks
    no path and asks no path oracle anything.

    A report is a function of its hop triple (CN to fork node, fork to old,
    fork to new), the block's wire, its strategy and its seed, and depends on
    the seed only when there is loss. So the sweep simulates each (triple,
    label, seed) once, the label being the row's strategy or "mobile_ip",
    and rows of one key share the report. The triple is (C - meet, meet, L)
    for multicast, meet being the meet node's index on the old branch, and
    (A, B old, B new) for Mobile IP. At loss > 0 each row's own seed is in
    the key, so every row is simulated.
    """
    block = result.config.handoff
    if block is None:
        raise ValueError("config has no handoff block")
    memo = {}  # (triple, label, seed) -> report, shared by the whole sweep
    rows = []
    for run in result.runs:
        if run.record.run_index < block.runs:
            rows.extend(_sweep_run(run, block, memo))
    return rows


def _sweep_run(run: RunResult, block, memo) -> list[HandoffRow]:
    """The handoff sweep's rows of one run's moves 1 .. `block.max_moves`.

    Hop triples and B hops come from `run.samples`, which must be its trace's.
    Each move that changes location has a row per strategy, then a
    "mobile_ip" row if included. `memo` maps (triple, label, seed) to a
    report of this sweep under `block` (see `handoff_sweep`); a key missing
    from it is simulated, with `block` as its wire, and stored.
    """
    rec = run.record
    topology, model, run_index, run_seed = rec.topology, rec.model, rec.run_index, rec.child_seed
    steps, samples = run.trace.steps, run.samples
    if len(samples) != len(steps):
        raise ValueError(f"run {topology, model, run_index} has {len(samples)} samples for "
                         f"{len(steps)} steps")
    rows = []
    add, known = rows.append, memo.get
    lossy = block.message_loss_rate
    labels = (*block.strategies, "mobile_ip") if block.include_mobile_ip else block.strategies
    for i in range(1, min(len(steps), block.max_moves + 1)):
        if steps[i] == steps[i - 1]:
            continue
        before, after = samples[i - 1], samples[i]
        # the prune cut the meet node's index on the old branch of C links
        graft, b_hops, meet = after.added_links, after.b_hops, after.removed_links
        mcast = before.c_hops - meet, meet, graft
        mip = after.a_hops, before.b_hops, b_hops
        for label in labels:
            # without loss the seed is inert (no draw is made), so it leaves the key
            seed = stable_seed(run_seed, "handoff", i, label) if lossy else 0
            key = (mip if label == "mobile_ip" else mcast), label, seed
            rep = known(key)
            if rep is None:
                rep = memo[key] = (
                    simulate_mip_handoff(mip, block, seed=seed) if label == "mobile_ip"
                    else simulate_handoff(mcast, block, label, seed=seed))
            # a Mobile IP row carries the multicast graft length, for comparison
            add(HandoffRow(topology, model, run_index, i, label, graft, b_hops, rep))
    return rows
