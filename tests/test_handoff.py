"""Handoff simulator tests pinned to closed-form event enumerations.

The main fixture is cn=0 with the delivery branch 0-1-2-3 (old leaf 3) and
a side chain 1-4-5-6 (new location 6): graft length L=3 meeting at node 1.
With per_hop_delay=10 and packet_interval=20 the pipeline fills by t=30, so
the trigger lands on t0=60; packet k passes node 1 at 20k+10 and reaches the
old leaf at 20k+30 and the new one (once grafted) at 20k+50.
"""

import dataclasses
import hashlib
import math
import random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcastmob import config, experiment, handoff, reporting, routing
from mcastmob.config import HandoffBlock, ScenarioConfig, TopologySpec, stable_seed
from mcastmob.handoff import (
    OVERLAP_MODES,
    STRATEGIES,
    HandoffConfig,
    HandoffError,
    simulate_handoff,
    simulate_mip_handoff,
)
from mcastmob.movement import MovementTrace
from mcastmob.routing import establish
from mcastmob.topology import GeneratorParams, PathOracle

from conftest import bfs_dist, make_topology, random_connected_edges
import heap_handoff
from heap_handoff import simulate_handoff as heap_simulate_handoff
from heap_handoff import simulate_mip_handoff as heap_simulate_mip_handoff

BASE = dict(per_hop_delay=10.0, packet_interval=20.0)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(per_hop_delay=0),
            dict(packet_interval=-1),
            dict(message_loss_rate=1.0),
            dict(strategy="hope"),
            dict(overlap="sideways"),
            dict(advance_lead=-5),
            dict(refresh_period=0),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(HandoffError):
            HandoffConfig(**kwargs)


class TestBreakBeforeMake:
    def test_closed_form(self, handoff_fixture):
        topo, oracle = handoff_fixture
        cfg = HandoffConfig(overlap="break_before_make", **BASE)
        rep = simulate_handoff(oracle, 0, 3, 6, cfg)
        assert rep.trigger_ms == 60.0
        # join sent at 60 completes the graft at node 1 at t=90; the first
        # packet passing afterwards is k=4 (emitted 80), reaching node 6 at 120
        assert rep.trigger_ms + rep.handoff_latency == 120.0
        assert rep.handoff_latency == 60.0
        # emissions 2 and 3 were already past the meet and died at the old leaf
        assert rep.packets_lost == 2
        assert rep.packets_duplicated == 0
        assert rep.out_of_order == 0
        assert rep.control_messages == 3
        assert rep.control_path_hops == 3

    def test_triple_join_triples_control_traffic(self, handoff_fixture):
        topo, oracle = handoff_fixture
        plain = simulate_handoff(
            oracle, 0, 3, 6, HandoffConfig(overlap="break_before_make", **BASE)
        )
        triple = simulate_handoff(
            oracle, 0, 3, 6,
            HandoffConfig(overlap="break_before_make", strategy="triple_join", **BASE),
        )
        assert triple.control_messages == 3 * plain.control_messages
        assert triple.handoff_latency == plain.handoff_latency


class TestMakeBeforeBreak:
    def test_closed_form(self, handoff_fixture):
        topo, oracle = handoff_fixture
        cfg = HandoffConfig(overlap="make_before_break", **BASE)
        rep = simulate_handoff(oracle, 0, 3, 6, cfg)
        assert rep.handoff_latency == 60.0
        assert rep.packets_lost == 0
        # k=4 and k=5 drain down the old branch while the prune (issued at
        # 120) propagates, and both also arrive via new: two duplicates
        assert rep.packets_duplicated == 2
        seqs = [s for s, _, _ in rep.deliveries]
        assert seqs.count(4) == 2
        assert seqs.count(5) == 2
        # join 3 hops plus a prune that stops at the fork after 2 hops
        assert rep.control_messages == 5
        assert rep.packets_emitted == rep.packets_delivered

    def test_prune_stops_packets_already_below_the_meet_node(self):
        """Once the prune commits at the meet node, nothing below it forwards.

        cn 0 feeds old 5 down the chain 0-1-2-3-4-5 and new 6 hangs off node
        1. At 5 ms intervals the trigger is t0=60; the join commits at node 1
        at 70, packet 12 is the first to reach 6 (at 80), and the prune sent
        from 5 then commits at node 1 at 120. Packets 16-19 had passed node 1
        by then but are still above node 5's last link, so they never reach
        it; packet 15 was on that link and arrives at 125.
        """
        topo = make_topology("chain", 7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 6)])
        rep = simulate_handoff(PathOracle(topo), 0, 5, 6,
                               HandoffConfig(per_hop_delay=10.0, packet_interval=5.0))
        old = [(seq, t) for seq, t, via in rep.deliveries if via == "old"]
        new = [seq for seq, _, via in rep.deliveries if via == "new"]
        assert [seq for seq, _ in old] == list(range(16))
        assert old[-1] == (15, 125.0)
        assert new == list(range(12, 20))
        assert rep.packets_duplicated == 4
        assert rep.packets_lost == 0
        assert rep.packets_emitted == 20
        # join 1 hop plus a prune of 4 hops from 5 up to node 1
        assert rep.control_messages == 5

    def test_zero_loss_never_drops(self):
        rng = random.Random(99)
        for trial in range(40):
            n = rng.randrange(6, 30)
            topo = make_topology("g", n, random_connected_edges(rng, n, rng.randrange(n)))
            oracle = PathOracle(topo)
            cn = rng.randrange(n)
            nodes = [v for v in range(n) if v != cn]
            old = rng.choice(nodes)
            new = rng.choice([v for v in nodes if v != old])
            rep = simulate_handoff(
                oracle, cn, old, new,
                HandoffConfig(overlap="make_before_break", seed=trial, **BASE),
            )
            assert rep.packets_lost == 0
            assert rep.handoff_latency < math.inf


class TestAdvanceJoin:
    def test_sufficient_lead_zero_loss(self, handoff_fixture):
        topo, oracle = handoff_fixture
        # graft round trip is 2L*d = 60; lead 80 also clears L+depth = 7 hops
        cfg = HandoffConfig(strategy="advance_join", advance_lead=80.0, **BASE)
        rep = simulate_handoff(oracle, 0, 3, 6, cfg)
        assert rep.trigger_ms == 80.0
        assert rep.packets_lost == 0
        assert rep.handoff_latency <= cfg.packet_interval
        assert rep.handoff_latency == 0.0  # packets were waiting at the new BS

    def test_insufficient_lead_still_delivers(self, handoff_fixture):
        topo, oracle = handoff_fixture
        cfg = HandoffConfig(strategy="advance_join", advance_lead=10.0, **BASE)
        rep = simulate_handoff(oracle, 0, 3, 6, cfg)
        assert rep.packets_lost == 0  # make_before_break still covers the gap
        assert rep.handoff_latency > 0.0


class TestNoGraftNeeded:
    def test_new_location_already_on_tree(self, handoff_fixture):
        topo, oracle = handoff_fixture
        cfg = HandoffConfig(**BASE)
        rep = simulate_handoff(oracle, 0, 3, 2, cfg)
        assert rep.control_path_hops == 0
        assert rep.handoff_latency <= cfg.packet_interval
        assert rep.packets_lost == 0


def _script_losses(monkeypatch, lose_first, times=1):
    """Make every loss draw 0.99 (kept at rate 0.5), but a chosen link's first `times` 0.0 (lost).

    The links chosen are those where `lose_first(kind, src, dst)` is true.
    The heap reference draws from the same scripted streams.
    """

    def stream(seed, kind, src, dst):
        draws = iter([0.0] * times if lose_first(kind, src, dst) else [])
        return SimpleNamespace(random=lambda: next(draws, 0.99))

    monkeypatch.setattr(handoff, "_loss_stream", stream)
    monkeypatch.setattr(heap_handoff, "_loss_stream", stream)


class TestLossRecovery:
    def test_lost_join_recovers_after_refresh(self, handoff_fixture, monkeypatch):
        topo, oracle = handoff_fixture
        cfg = HandoffConfig(
            overlap="break_before_make", message_loss_rate=0.5, refresh_period=500.0, **BASE
        )
        _script_losses(monkeypatch, lambda kind, src, dst: kind == "join" and src == 6)

        rep = simulate_handoff(oracle, 0, 3, 6, cfg)
        # first hop dies at t=60, retries at 560; graft completes at 590 and
        # the next packet through the meet (emitted 580) lands at 620
        assert rep.trigger_ms + rep.handoff_latency == 620.0
        assert rep.handoff_latency == 560.0
        assert rep.control_messages == 4  # one lost copy, three good hops

    def test_lost_prune_leaves_duplicates_until_expiry(self, handoff_fixture, monkeypatch):
        topo, oracle = handoff_fixture
        cfg = HandoffConfig(message_loss_rate=0.5, refresh_period=400.0, **BASE)
        _script_losses(monkeypatch, lambda kind, src, dst: kind == "prune")

        rep = simulate_handoff(oracle, 0, 3, 6, cfg)
        assert rep.packets_lost == 0
        # 3 join hops, plus 2 prune hops each sent twice; without loss it is 5 and 2 duplicates
        assert rep.control_messages == 7
        assert rep.packets_duplicated == 6

    @pytest.mark.parametrize("overlap", OVERLAP_MODES)
    def test_a_join_that_never_commits_emits_until_the_give_up(self, handoff_fixture, monkeypatch,
                                                              overlap):
        """Every copy of the join's first hop is lost: no packet ever reaches new.

        Emission runs to the give-up deadline t0 + 2 refresh periods = 1060,
        plus the tail's three intervals: packets 0 .. 56 (emitted 0 .. 1120).
        """
        topo, oracle = handoff_fixture
        cfg = HandoffConfig(message_loss_rate=0.5, refresh_period=500.0, overlap=overlap, **BASE)
        _script_losses(monkeypatch, lambda kind, src, dst: kind == "join" and src == 6,
                       handoff._MAX_RETRIES)
        rep = simulate_handoff(oracle, 0, 3, 6, cfg)
        assert rep == heap_simulate_handoff(establish(oracle, 0, 3), 3, 6, cfg)
        assert rep.handoff_latency == math.inf
        assert rep.packets_emitted == 57
        assert rep.control_messages == handoff._MAX_RETRIES

    @pytest.mark.parametrize("overlap", OVERLAP_MODES)
    def test_a_registration_that_never_commits_emits_until_the_give_up(self, handoff_fixture,
                                                                      monkeypatch, overlap):
        """Mobile IP with the HA at node 1: the registration's first hop 6 -> 5 never survives."""
        topo, oracle = handoff_fixture
        cfg = HandoffConfig(message_loss_rate=0.5, refresh_period=500.0, overlap=overlap, **BASE)
        _script_losses(monkeypatch, lambda kind, src, dst: kind == "registration" and src == 6,
                       handoff._MAX_RETRIES)
        rep = simulate_mip_handoff(oracle, 0, 1, 3, 6, cfg)
        assert rep == heap_simulate_mip_handoff(oracle, 0, 1, 3, 6, cfg)
        assert rep.handoff_latency == math.inf
        assert rep.packets_emitted == 57
        assert rep.control_messages == handoff._MAX_RETRIES


class TestMonotonicity:
    def test_latency_monotone_in_graft_length(self):
        edges = [(0, 1), (1, 2), (1, 3)] + [(i, i + 1) for i in range(3, 8)]
        topo = make_topology("chain", 9, edges)
        oracle = PathOracle(topo)
        cfg = HandoffConfig(overlap="break_before_make", **BASE)
        latencies = []
        for new in range(3, 9):  # L = 1..6, meet always node 1
            rep = simulate_handoff(oracle, 0, 2, new, cfg)
            assert rep.control_path_hops == new - 2
            latencies.append(rep.handoff_latency)
        assert latencies == sorted(latencies)

    def test_mip_latency_monotone_in_b(self):
        edges = [(0, 1), (1, 2)] + [(i, i + 1) for i in range(2, 8)]
        topo = make_topology("chain", 9, edges)
        oracle = PathOracle(topo)
        cfg = HandoffConfig(overlap="break_before_make", **BASE)
        latencies = []
        for new in range(3, 9):  # B = 2..7 along the chain, old fixed at 2
            rep = simulate_mip_handoff(oracle, 0, 1, 2, new, cfg)
            assert rep.control_path_hops == new - 1
            latencies.append(rep.handoff_latency)
        assert latencies == sorted(latencies)


class TestMobileIp:
    def _topo(self):
        # cn 0-..-5 = ha; two 5-hop tunnels: old chain 6..10, new chain 11..15
        edges = [(i, i + 1) for i in range(5)]
        edges += [(5, 6)] + [(i, i + 1) for i in range(6, 10)]
        edges += [(5, 11)] + [(i, i + 1) for i in range(11, 15)]
        return make_topology("mip", 16, edges)

    def test_closed_form_b5(self):
        topo = self._topo()
        oracle = PathOracle(topo)
        cfg = HandoffConfig(**BASE)
        rep = simulate_mip_handoff(oracle, 0, 5, 10, 15, cfg)
        # trigger 140; registration crosses its 5 hops by 190; the packet
        # emitted at 140 reaches the HA right then and lands at 240
        assert rep.trigger_ms == 140.0
        assert rep.handoff_latency == 100.0
        assert rep.control_messages == 5
        assert rep.packets_lost == 0  # make_before_break default

    def test_break_mode_loses_dead_window(self):
        topo = self._topo()
        oracle = PathOracle(topo)
        rep = simulate_mip_handoff(
            oracle, 0, 5, 10, 15, HandoffConfig(overlap="break_before_make", **BASE)
        )
        # emissions 2..6 were committed to the old tunnel and the MN had left
        assert rep.packets_lost == 5
        assert rep.packets_duplicated == 0

    @pytest.mark.parametrize("loss", [0.0, 0.3])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_strategy_runs_as_a_plain_registration(self, strategy, loss):
        """No strategy moves the trigger, copies the registration or sends it early."""
        oracle = PathOracle(make_topology("y", 5, [(0, 1), (1, 2), (2, 3), (1, 4)]))
        cfg = HandoffConfig(advance_lead=200.0, message_loss_rate=loss, refresh_period=500.0,
                            seed=9, **BASE)
        plain = simulate_mip_handoff(oracle, 0, 1, 3, 4, cfg)
        assert plain.trigger_ms == 60.0
        assert simulate_mip_handoff(oracle, 0, 1, 3, 4,
                                    dataclasses.replace(cfg, strategy=strategy)) == plain

    def test_new_location_is_home_agent(self):
        topo = self._topo()
        oracle = PathOracle(topo)
        cfg = HandoffConfig(**BASE)
        rep = simulate_mip_handoff(oracle, 0, 5, 10, 5, cfg)
        assert rep.control_path_hops == 0
        assert rep.handoff_latency <= cfg.packet_interval


class TestDeterminism:
    def test_same_seed_same_report(self, handoff_fixture):
        topo, oracle = handoff_fixture
        cfg = HandoffConfig(message_loss_rate=0.3, seed=123, **BASE)
        a = simulate_handoff(oracle, 0, 3, 6, cfg)
        b = simulate_handoff(oracle, 0, 3, 6, cfg)
        assert a == b

    def test_reads_only_the_cn_vector(self, handoff_fixture):
        """The sweep's warm oracle holds the CN's vector, so a simulation searches nothing."""
        topo, oracle = handoff_fixture
        simulate_handoff(oracle, 0, 3, 6, HandoffConfig(**BASE))
        assert set(oracle._dist) == {0}


class TestPreconditions:
    def test_old_must_not_be_the_cn(self, handoff_fixture):
        topo, oracle = handoff_fixture
        with pytest.raises(HandoffError, match="correspondent"):
            simulate_handoff(oracle, 0, 0, 6, HandoffConfig(**BASE))
        with pytest.raises(HandoffError, match="correspondent"):
            simulate_mip_handoff(oracle, 0, 1, 0, 6, HandoffConfig(**BASE))

    def test_rejects_same_location(self, handoff_fixture):
        topo, oracle = handoff_fixture
        with pytest.raises(HandoffError, match="distinct"):
            simulate_handoff(oracle, 0, 3, 3, HandoffConfig(**BASE))
        with pytest.raises(HandoffError, match="distinct"):
            simulate_mip_handoff(oracle, 0, 1, 3, 3, HandoffConfig(**BASE))

    def test_reference_rejects_a_branch_that_repeats_a_node(self, handoff_fixture):
        """The event-queue reference refuses a looped branch before its queue can grow."""
        topo, oracle = handoff_fixture
        tree = establish(oracle, 0, 3)
        tree.branch = [3, 2, 1, 2, 1, 0]
        with pytest.raises(HandoffError, match="repeats a node"):
            heap_simulate_handoff(tree, 3, 6, HandoffConfig(**BASE))

    def test_rejects_cn_target(self, handoff_fixture):
        topo, oracle = handoff_fixture
        with pytest.raises(HandoffError, match="correspondent"):
            simulate_handoff(oracle, 0, 3, 0, HandoffConfig(**BASE))
        with pytest.raises(HandoffError, match="correspondent"):
            simulate_mip_handoff(oracle, 0, 1, 3, 0, HandoffConfig(**BASE))


@pytest.mark.parametrize("loss", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("overlap", OVERLAP_MODES)
@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_kernel_properties(strategy, overlap, loss, seed):
    """Delivery times, loss and duplicate accounting of both simulators on random graphs."""
    rng = random.Random(seed)
    n = rng.randrange(4, 30)
    topo = make_topology("g", n, random_connected_edges(rng, n, rng.randrange(n)))
    oracle = PathOracle(topo)
    adj = {u: list(nbrs) for u, nbrs in enumerate(topo.adj)}
    cn, ha = rng.randrange(n), rng.randrange(n)
    nodes = [v for v in range(n) if v != cn]
    old = rng.choice(nodes)
    new = rng.choice([v for v in nodes if v != old])
    cfg = HandoffConfig(
        strategy=strategy, overlap=overlap, message_loss_rate=loss,
        advance_lead=rng.choice([0.0, 40.0, 100.0]), refresh_period=500.0, seed=seed, **BASE,
    )
    from_cn, from_ha = bfs_dist(adj, cn), bfs_dist(adj, ha)
    mcast = simulate_handoff(oracle, cn, old, new, cfg)
    mip = simulate_mip_handoff(oracle, cn, ha, old, new, cfg)
    for rep, hops in (
        (mcast, {"old": from_cn[old], "new": from_cn[new]}),
        (mip, {"old": from_cn[ha] + from_ha[old], "new": from_cn[ha] + from_ha[new]}),
    ):
        # data is never re-sent, so every delivery took the plain path delay
        for seq, t, via in rep.deliveries:
            assert t == seq * cfg.packet_interval + hops[via] * cfg.per_hop_delay
        distinct = {seq for seq, _, _ in rep.deliveries}
        assert rep.packets_delivered == len(distinct)
        assert rep.packets_duplicated == len(rep.deliveries) - len(distinct)
        assert rep.packets_lost == rep.packets_emitted - rep.packets_delivered >= 0
        if loss == 0:
            assert rep.handoff_latency < math.inf
            if overlap == "make_before_break":
                assert rep.packets_lost == 0
    assert simulate_handoff(oracle, cn, old, new, cfg) == mcast
    assert simulate_mip_handoff(oracle, cn, ha, old, new, cfg) == mip


def _ts50_r50_sweep(block):
    """The handoff sweep of ts50 and r50 at master seed 7, one run of 21 moves each."""
    specs = tuple(
        TopologySpec(
            name=name, topo_type=ttype,
            generator=GeneratorParams(kind, nodes, deg, seed=stable_seed(7, "topology", name)),
        )
        for name, ttype, kind, nodes, deg in config.REFERENCE_SUITE
        if name in ("ts50", "r50")
    )
    cfg = ScenarioConfig(
        topologies=specs, master_seed=7, seeds_per_scenario=1, moves_per_run=21, handoff=block
    )
    return experiment.handoff_sweep(experiment.execute_scenario(cfg))


def _deliveries_sha256(rows):
    deliveries = hashlib.sha256()
    for row in rows:
        deliveries.update(repr(row.report.deliveries).encode())
    return deliveries.hexdigest()


def test_lossy_sweep_csv_is_pinned(tmp_path):
    """handoff.csv of a small lossy sweep, byte for byte.

    Pins the seeded loss draws: one stream per (kind, link), seeded from
    "seed:kind:src:dst" and consumed in the order that link is crossed. Each
    data or registration hop draws once, and each join or prune hop draws
    once per copy until a copy survives.
    """
    rows = _ts50_r50_sweep(HandoffBlock(
        message_loss_rate=0.1, refresh_period=500.0, overlap="break_before_make"
    ))
    assert len(rows) == 476
    path = tmp_path / "handoff.csv"
    reporting.write_handoff(str(path), rows)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "644bd0c98a662a0511103a6172891c5680be8a4d932f7d11b07d97e3f475eb3e"
    )


def test_lossy_make_before_break_sweep_csv_is_pinned(tmp_path):
    """The sweep above under make_before_break, so prunes run under loss too.

    315 of its 357 multicast rows send prune hops. Pins handoff.csv and the
    delivery log of every row, whose duplicates last until the prune commits.
    """
    rows = _ts50_r50_sweep(HandoffBlock(message_loss_rate=0.1, refresh_period=500.0))
    assert len(rows) == 476
    path = tmp_path / "handoff.csv"
    reporting.write_handoff(str(path), rows)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "f9ba69fa622b30e11636019a1e891d512205168fd69325c0e2240ef6408d533e"
    )
    assert _deliveries_sha256(rows) == (
        "de2fe1d94817e3d42b733b1fd037e0f0afe28b6449fd66c1b33f9a63c4c8eb9e"
    )


def test_lossy_sweep_at_the_default_refresh_period_is_pinned(tmp_path):
    """The sweep at 5% loss and the default 60 s refresh period, log included.

    A lost join or registration waits out a whole refresh period, so 37 rows
    emit more than 100 packets (133,658 in all) and one gives up at 6,010.
    Most of those packets go out while no new arrival can start the tail.
    """
    rows = _ts50_r50_sweep(HandoffBlock(message_loss_rate=0.05))
    assert len(rows) == 476
    emitted = [row.report.packets_emitted for row in rows]
    assert (sum(emitted), sum(e > 100 for e in emitted), max(emitted)) == (133_658, 37, 6_010)
    path = tmp_path / "handoff.csv"
    reporting.write_handoff(str(path), rows)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "256bfe47f68d98fb603767ed90e2b52bf04b910d819e050bf3bbbda5fdf89982"
    )
    assert _deliveries_sha256(rows) == (
        "d98f774fa908d38910b994f73d1c4a113103b96c3b3a9dfaa639eded94eb5a75"
    )


def test_searches_only_from_the_cn_and_the_ha(monkeypatch):
    """Mobile IP reads every path from the HA's vector; a sweep adds only the CN's."""
    sources = set()
    dist_from = PathOracle.dist_from

    def counted(oracle, source):
        sources.add(source)
        return dist_from(oracle, source)

    rng = random.Random(23)
    topo = make_topology("g", 40, random_connected_edges(rng, 40, 30))
    monkeypatch.setattr(PathOracle, "dist_from", counted)
    oracle = PathOracle(topo)
    for old, new in ((3, 17), (17, 29), (29, 3), (3, 11)):
        simulate_mip_handoff(oracle, 5, 11, old, new, HandoffConfig(**BASE))
    assert sources == {11}

    monkeypatch.setattr(PathOracle, "dist_from", dist_from)
    spec = TopologySpec(name="ts50", topo_type="transit_stub",
                        generator=GeneratorParams("transit_stub", 50, 3.7, seed=3))
    cfg = ScenarioConfig(topologies=(spec,), master_seed=7, seeds_per_scenario=2,
                         moves_per_run=21, handoff=HandoffBlock(runs=2))
    result = experiment.execute_scenario(cfg)
    monkeypatch.setattr(PathOracle, "dist_from", counted)
    for run in result.runs:
        sources.clear()
        rows = experiment._sweep_run(PathOracle(result.topologies["ts50"]), run, cfg.handoff,
                                       {})
        assert len({row.report.control_path_hops for row in rows}) > 1
        assert sources == {run.cn, run.ha}


def _fresh_reports(oracle, run, block):
    """The sweep's reports of one run, each from its own reference call and real seed.

    The tree is walked here, join then prune per move, as the run walks it,
    and each move is simulated on it by `heap_handoff`, the event-queue
    reference, which reads the tree and not the oracle's paths.
    """
    reports = []
    steps = run.trace.steps[:block.max_moves + 1]
    tree = establish(oracle, run.cn, steps[0])
    for i, (old, new) in enumerate(zip(steps, steps[1:]), start=1):
        if old == new:
            continue
        for strategy in block.strategies:
            seed = stable_seed(run.record.child_seed, "handoff", i, strategy)
            reports.append(heap_simulate_handoff(tree, old, new,
                                                 block.handoff_config(strategy, seed)))
        if block.include_mobile_ip:
            seed = stable_seed(run.record.child_seed, "handoff", i, "mobile_ip")
            reports.append(heap_simulate_mip_handoff(oracle, run.cn, run.ha, old, new,
                                                     block.handoff_config("plain_join", seed)))
        tree.join(new)
        tree.prune(old)
    return reports


@pytest.mark.parametrize("loss", [0.0, 0.1])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9),
       strategies=st.lists(st.sampled_from(STRATEGIES), min_size=1, max_size=3, unique=True),
       overlap=st.sampled_from(OVERLAP_MODES),
       lead=st.sampled_from([0.0, 40.0, 100.0]))
def test_sweep_rows_equal_the_reference_on_the_walked_tree(loss, seed, strategies, overlap, lead):
    """No tree is handed to the simulator, yet every row is the walked tree's report.

    On a random graph and trace, each sweep row equals the event-queue
    reference run on a tree walked join then prune, and the old branch and
    graft walk that `simulate_handoff` reads off the oracle for each move are
    those `establish` gives.
    """
    rng = random.Random(seed)
    n = rng.randrange(3, 20)
    topo = make_topology("g", n, random_connected_edges(rng, n, rng.randrange(n)))
    oracle = PathOracle(topo)
    cn, ha = rng.sample(range(n), 2)
    steps = [rng.choice([v for v in range(n) if v != cn])]
    for _ in range(rng.randrange(1, 12)):  # a repeat is a move that stays put
        steps.append(rng.choice([steps[-1]] + [v for v in range(n) if v != cn]))
    run = experiment.run_single(topo, oracle, "measured", "random", cluster_radius=2, moves=1,
                                seed=seed, run_index=0, endpoints=(cn, ha))
    run = dataclasses.replace(run, trace=MovementTrace(tuple(steps)),
                              samples=tuple(routing.run_scenario(oracle, cn, ha, steps)))
    block = HandoffBlock(message_loss_rate=loss, refresh_period=500.0, strategies=tuple(strategies),
                         overlap=overlap, advance_lead=lead, max_moves=len(steps))
    rows = experiment._sweep_run(oracle, run, block, {})
    assert [row.report for row in rows] == _fresh_reports(oracle, run, block)
    shortest_path = oracle.shortest_path
    for old, new in zip(steps, steps[1:]):
        if old != new:
            tree = establish(oracle, cn, old)
            expected = [tree.branch, shortest_path(new, cn, stop=tree.nodes)]
            walked = []

            def recorded(*args, **kwargs):
                walked.append(shortest_path(*args, **kwargs))
                return walked[-1]

            with mock.patch.object(oracle, "shortest_path", recorded):
                simulate_handoff(oracle, cn, old, new, HandoffConfig())
            assert walked == expected


@pytest.mark.parametrize("loss", [0.0, 0.1])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_sweep_reads_each_shape_off_the_run_samples(loss, seed):
    """Every memo key, L and B hop count of a sweep equals the one of the walked paths.

    On a random graph and trace (with repeats, ties at the meet node and
    moves along the old branch), the reference walks each move's old branch
    and graft walk and reads each distance from the oracle. The sweep reads
    them off the run's samples and asks the oracle for no path outside its
    simulations. Both architectures key a report by the hop triple (CN to
    fork node, fork to old, fork to new) and the row's label, so a Mobile IP
    row and a plain_join row of one triple stay apart.
    """
    rng = random.Random(seed)
    n = rng.randrange(3, 20)
    topo = make_topology("g", n, random_connected_edges(rng, n, rng.randrange(n)))
    oracle = PathOracle(topo)
    cn, ha = rng.sample(range(n), 2)
    steps = [rng.choice([v for v in range(n) if v != cn])]
    for _ in range(rng.randrange(1, 12)):
        steps.append(rng.choice([steps[-1]] + [v for v in range(n) if v != cn]))
    run = experiment.run_single(topo, oracle, "measured", "random", cluster_radius=2, moves=1,
                                seed=seed, run_index=0, endpoints=(cn, ha))
    run = dataclasses.replace(run, trace=MovementTrace(tuple(steps)),
                              samples=tuple(routing.run_scenario(oracle, cn, ha, steps)))
    block = HandoffBlock(message_loss_rate=loss, max_moves=len(steps))
    memo, simulating, outside = {}, [], []
    shortest_path = oracle.shortest_path

    def query(*args, **kwargs):
        if not simulating:
            outside.append(args)
        return shortest_path(*args, **kwargs)

    def inside(simulate):
        def simulated(*args):
            simulating.append(simulate)
            try:
                return simulate(*args)
            finally:
                simulating.pop()
        return simulated

    with mock.patch.object(oracle, "shortest_path", query), \
            mock.patch.object(experiment, "simulate_handoff", inside(simulate_handoff)), \
            mock.patch.object(experiment, "simulate_mip_handoff", inside(simulate_mip_handoff)):
        rows = experiment._sweep_run(oracle, run, block, memo)
    assert outside == []
    from_ha = oracle.dist_from(ha)
    keys, graft_links, b_hops = [], [], []
    for i, (old, new) in enumerate(zip(steps, steps[1:]), start=1):
        if old == new:
            continue
        path_old = oracle.shortest_path(old, cn)
        walk = oracle.shortest_path(new, cn, stop=path_old)
        meet = path_old.index(walk[-1])
        mcast = len(path_old) - 1 - meet, meet, len(walk) - 1
        mip = from_ha[cn], from_ha[old], from_ha[new]
        for triple, label in [(mcast, s) for s in block.strategies] + [(mip, "mobile_ip")]:
            row_seed = stable_seed(run.record.child_seed, "handoff", i, label) if loss else 0
            keys.append((triple, label, row_seed))
            graft_links.append(len(walk) - 1)  # Mobile IP rows repeat the multicast L
            b_hops.append(from_ha[new])
    assert list(memo) == list(dict.fromkeys(keys))
    assert [row.graft_links for row in rows] == graft_links
    assert [row.b_hops for row in rows] == b_hops
    with pytest.raises(ValueError, match="samples for"):
        experiment._sweep_run(oracle, dataclasses.replace(run, samples=run.samples[:-1]), block, {})


def test_sweep_keeps_a_mobile_ip_row_apart_from_a_multicast_row_of_its_triple():
    """With the HA at the meet node, both rows of move 3 -> 4 have the hop triple (1, 2, 1).

    Under make_before_break only the multicast handoff prunes, and its
    packets go down both legs, so the two reports differ and the memo keeps
    both under their labels.
    """
    topo = make_topology("y", 5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    oracle = PathOracle(topo)
    run = experiment.run_single(topo, oracle, "measured", "random", cluster_radius=6, moves=1,
                                seed=5, run_index=0, endpoints=(0, 1))
    run = dataclasses.replace(run, trace=MovementTrace((3, 4)),
                              samples=tuple(routing.run_scenario(oracle, 0, 1, (3, 4))))
    memo = {}
    block = HandoffBlock(strategies=("plain_join",), max_moves=1)
    mcast, mip = (row.report for row in experiment._sweep_run(oracle, run, block, memo))
    assert list(memo) == [((1, 2, 1), "plain_join", 0), ((1, 2, 1), "mobile_ip", 0)]
    assert mcast != mip
    assert mcast == simulate_handoff(oracle, 0, 3, 4, block.handoff_config("plain_join", 0))
    assert mip == simulate_mip_handoff(oracle, 0, 1, 3, 4, block.handoff_config("plain_join", 0))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9),
       delay=st.sampled_from([0.3, 3.3, 7.5, 10.0, 20.0]),
       interval=st.sampled_from([0.3, 3.3, 5.0, 10.0, 20.0]),
       refresh=st.sampled_from([7.0, 500.0]))
def test_multicast_equals_mobile_ip_with_the_home_agent_at_the_meet_node(seed, delay, interval,
                                                                        refresh):
    """Without loss, under break_before_make and plain_join, only the legs make a handoff.

    A multicast handoff's legs fork at the meet node, and so do those of the
    Mobile IP handoff whose HA is that node: CN to fork, fork to old, fork
    to new have the same hops. Without a prune, a packet that goes down both
    legs after the commit is no longer at old when it arrives there, so
    every report field, the delivery log included, is the same.
    """
    rng = random.Random(seed)
    n = rng.randrange(3, 30)
    oracle = PathOracle(make_topology("g", n, random_connected_edges(rng, n, rng.randrange(n))))
    cn = rng.randrange(n)
    old, new = rng.sample([v for v in range(n) if v != cn], 2)
    meet = oracle.shortest_path(new, cn, stop=oracle.shortest_path(old, cn))[-1]
    cfg = HandoffConfig(per_hop_delay=delay, packet_interval=interval,
                        overlap="break_before_make", refresh_period=refresh)
    assert (simulate_handoff(oracle, cn, old, new, cfg)
            == simulate_mip_handoff(oracle, cn, meet, old, new, cfg))


@pytest.mark.parametrize("advance_lead", [0.0, 60.0])
@pytest.mark.parametrize("overlap", OVERLAP_MODES)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9),
       nodes=st.integers(min_value=6, max_value=24),
       degree=st.floats(min_value=2.0, max_value=4.0))
def test_lossless_sweep_shares_reports_only_between_equal_shapes(overlap, advance_lead, seed,
                                                                  nodes, degree):
    """Every row of a lossless sweep equals a fresh simulation of its own handoff."""
    spec = TopologySpec(name="g", topo_type="random",
                        generator=GeneratorParams("flat_random", nodes, degree, seed=seed))
    block = HandoffBlock(overlap=overlap, advance_lead=advance_lead, max_moves=10, runs=3)
    cfg = ScenarioConfig(topologies=(spec,), master_seed=seed, seeds_per_scenario=3,
                         moves_per_run=12, handoff=block)
    result = experiment.execute_scenario(cfg)
    rows = experiment.handoff_sweep(result)
    oracle = PathOracle(result.topologies["g"])
    expected = [rep for run in result.runs for rep in _fresh_reports(oracle, run, block)]
    assert [row.report for row in rows] == expected


def test_sweep_shares_one_simulation_between_mirror_image_ties(monkeypatch):
    """Moves 2 -> 3 and 3 -> 2 are one shape, whichever child of the meet node has the lower id.

    cn 0 forwards through 1 to the leaves 2 and 3, both two hops away, so a
    packet reaches the old and the new location at the same instant. The
    delivery log lists the old copy first, so both moves share one
    simulation per strategy.
    """
    calls = []
    real = experiment.simulate_handoff

    def counted(*args):
        calls.append(args)
        return real(*args)

    topo = make_topology("fork", 4, [(0, 1), (1, 2), (1, 3)])
    oracle = PathOracle(topo)
    run = experiment.run_single(topo, oracle, "measured", "random", cluster_radius=6, moves=2,
                                seed=5, run_index=0, endpoints=(0, 1))
    run = dataclasses.replace(run, trace=MovementTrace((2, 3, 2)),
                              samples=tuple(routing.run_scenario(oracle, 0, 1, (2, 3, 2))))
    block = HandoffBlock(max_moves=2)
    monkeypatch.setattr(experiment, "simulate_handoff", counted)
    rows = experiment._sweep_run(oracle, run, block, {})
    assert len(calls) == len(block.strategies)
    assert [row.report for row in rows] == _fresh_reports(oracle, run, block)
    for step in (1, 2):
        log = next(r.report for r in rows if r.step == step and r.strategy == "plain_join").deliveries
        ties = [(a, b) for a, b in zip(log, log[1:]) if a[:2] == b[:2]]
        assert ties and all((a[2], b[2]) == ("old", "new") for a, b in ties)


def test_sweep_shares_the_forwarding_order_when_no_copies_tie(monkeypatch):
    """Moves 1 and 3 differ only in which child of node 1 has the lower id.

    cn 0 forwards through 1; move 1 leaves 3 (two hops below 1) for 4 (one
    hop below 1), and move 3 leaves 6 (two hops below 1, through 5) for 4
    again. A packet's two copies never reach old and new together, so the
    forwarding order at node 1 cannot change the report and both moves
    share one simulation per strategy.
    """
    calls = []
    real = experiment.simulate_handoff

    def counted(*args):
        calls.append(args)
        return real(*args)

    topo = make_topology("fork", 7, [(0, 1), (1, 2), (2, 3), (1, 4), (1, 5), (5, 6)])
    oracle = PathOracle(topo)
    run = experiment.run_single(topo, oracle, "measured", "random", cluster_radius=6, moves=3,
                                seed=5, run_index=0, endpoints=(0, 1))
    run = dataclasses.replace(run, trace=MovementTrace((3, 4, 6, 4)),
                              samples=tuple(routing.run_scenario(oracle, 0, 1, (3, 4, 6, 4))))
    block = HandoffBlock(max_moves=3)
    monkeypatch.setattr(experiment, "simulate_handoff", counted)
    rows = experiment._sweep_run(oracle, run, block, {})
    assert len(calls) == 2 * len(block.strategies)
    assert [row.report for row in rows] == _fresh_reports(oracle, run, block)


@pytest.mark.parametrize("loss", [0.05, 0.0])
def test_sweep_simulates_each_lossless_shape_once(monkeypatch, loss):
    calls = []
    for name in ("simulate_handoff", "simulate_mip_handoff"):
        real = getattr(experiment, name)

        def counted(*args, _real=real):
            calls.append(args)
            return _real(*args)

        monkeypatch.setattr(experiment, name, counted)
    spec = TopologySpec(name="ts50", topo_type="transit_stub",
                        generator=GeneratorParams("transit_stub", 50, 3.7, seed=3))
    cfg = ScenarioConfig(topologies=(spec,), master_seed=7, seeds_per_scenario=2,
                         moves_per_run=21,
                         handoff=HandoffBlock(message_loss_rate=loss, refresh_period=500.0, runs=2))
    rows = experiment.handoff_sweep(experiment.execute_scenario(cfg))
    if loss:
        assert len(calls) == len(rows)
    else:
        assert len(calls) < len(rows)


def test_lossless_kernel_draws_nothing(monkeypatch, handoff_fixture):
    """At loss 0 no hop consults the RNG, so the seed cannot reach the report."""
    class NoDraws(random.Random):
        def random(self):
            raise AssertionError("a loss draw at rate 0")

    monkeypatch.setattr(handoff, "random", SimpleNamespace(Random=NoDraws))
    topo, oracle = handoff_fixture
    for strategy in STRATEGIES:
        cfg = HandoffConfig(strategy=strategy, advance_lead=40.0, seed=3, **BASE)
        assert simulate_handoff(oracle, 0, 3, 6, cfg) == simulate_handoff(
            oracle, 0, 3, 6, dataclasses.replace(cfg, seed=4))
        simulate_mip_handoff(oracle, 0, 1, 3, 6, cfg)


def _tie_chain():
    """The chain 0-1-2-3-4 plus the link 1-5: old 4 is three hops below node 1, new 5 one."""
    return PathOracle(make_topology("tie", 6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)]))


@pytest.mark.parametrize("interval, first, second, out_of_order, duplicates, emitted", [
    # I > d: the later-emitted packet's chain reaches back to its emission first
    (20.0, (4, 100.0, "new"), (3, 100.0, "old"), 1, 1, 9),
    # I <= d: the earlier-emitted packet goes first
    (10.0, (4, 80.0, "old"), (6, 80.0, "new"), 1, 2, 12),
    (5.0, (6, 70.0, "old"), (10, 70.0, "new"), 3, 4, 18),
])
def test_same_instant_deliveries_come_out_in_closed_form_order(interval, first, second,
                                                               out_of_order, duplicates, emitted):
    """An old and a new packet that reach the mobile at one instant, in a fixed order.

    The two copies are traced back hop by hop (one hop is `per_hop_delay`
    earlier, and past the CN each step is the previous emission); the packet
    whose ancestor is earlier is delivered first.
    """
    oracle = _tie_chain()
    rep = simulate_handoff(oracle, 0, 4, 5,
                           HandoffConfig(per_hop_delay=10.0, packet_interval=interval))
    log = list(rep.deliveries)
    assert log.index(first) + 1 == log.index(second)
    if interval == 20.0:
        assert log.index((5, 120.0, "new")) + 1 == log.index((4, 120.0, "old"))
    assert rep.out_of_order == out_of_order
    assert rep.packets_duplicated == duplicates
    assert rep.packets_emitted == emitted
    assert rep.control_messages == 4


@pytest.mark.parametrize("interval, first, second", [
    (20.0, (4, 100.0, "new"), (3, 100.0, "old")),
    (10.0, (4, 80.0, "old"), (6, 80.0, "new")),
])
def test_mobile_ip_same_instant_deliveries_come_out_in_closed_form_order(interval, first, second):
    """The Mobile IP tunnels of the chain above, with cn 0 and the HA at node 1."""
    rep = simulate_mip_handoff(_tie_chain(), 0, 1, 4, 5,
                               HandoffConfig(per_hop_delay=10.0, packet_interval=interval))
    log = list(rep.deliveries)
    assert log.index(first) + 1 == log.index(second)
    assert rep.out_of_order == 1


@pytest.mark.parametrize("simulate", [
    lambda oracle, cfg: simulate_handoff(oracle, 0, 4, 5, cfg),
    lambda oracle, cfg: simulate_mip_handoff(oracle, 0, 1, 4, 5, cfg),
], ids=["multicast", "mobile_ip"])
def test_same_instant_order_does_not_follow_float_rounding(simulate):
    """The chain's d = 10, I = 5 timeline scaled to d = 2.2, I = 1.1 keeps its order.

    The scaled times carry rounding noise (packet 7 leaves the CN at
    7.699999999999999 while packet 5 is one hop out at 7.7), yet ties are
    decided by the closed rule alone, so the log lists the same packets
    through the same locations and every counter is the same.
    """
    oracle = _tie_chain()
    exact, scaled = (simulate(oracle, HandoffConfig(per_hop_delay=d, packet_interval=i))
                     for d, i in ((10.0, 5.0), (2.2, 1.1)))
    assert [(seq, via) for seq, _, via in scaled.deliveries] == [
        (seq, via) for seq, _, via in exact.deliveries]
    assert scaled.out_of_order == exact.out_of_order == 3
    assert scaled.packets_duplicated == exact.packets_duplicated
    assert scaled.packets_emitted == exact.packets_emitted


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9),
       loss=st.sampled_from([0.0, 0.1, 0.5, 0.9]),
       strategy=st.sampled_from(STRATEGIES),
       overlap=st.sampled_from(OVERLAP_MODES),
       lead=st.sampled_from([0.0, 40.0, 100.0]),
       refresh=st.sampled_from([7.0, 120.0, 500.0]),
       delay=st.sampled_from([0.1, 0.3, 3.3, 7.5, 10.0, 20.0]),
       interval=st.sampled_from([0.3, 3.3, 5.0, 7.5, 10.0, 20.0]))
def test_pass_equals_the_heap_kernel(seed, loss, strategy, overlap, lead, refresh, delay, interval):
    """Every report of both simulators equals the event-queue reference's, log included."""
    rng = random.Random(seed)
    n = rng.randrange(3, 16)
    topo = make_topology("g", n, random_connected_edges(rng, n, rng.randrange(n)))
    oracle = PathOracle(topo)
    cn, ha = rng.randrange(n), rng.randrange(n)
    nodes = [v for v in range(n) if v != cn]
    old = rng.choice(nodes)
    new = rng.choice([v for v in nodes if v != old])
    cfg = HandoffConfig(per_hop_delay=delay, packet_interval=interval, message_loss_rate=loss,
                        strategy=strategy, advance_lead=lead, overlap=overlap,
                        refresh_period=refresh, seed=seed)
    assert (simulate_handoff(oracle, cn, old, new, cfg)
            == heap_simulate_handoff(establish(oracle, cn, old), old, new, cfg))
    assert (simulate_mip_handoff(oracle, cn, ha, old, new, cfg)
            == heap_simulate_mip_handoff(oracle, cn, ha, old, new, cfg))
