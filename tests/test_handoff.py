"""Handoff simulator tests pinned to closed-form event enumerations.

The main fixture is cn=0 with the delivery branch 0-1-2-3 (old leaf 3) and
a side chain 1-4-5-6 (new location 6): graft length L=3 meeting at node 1.
With per_hop_delay=10 and packet_interval=20 the pipeline fills by t=30, so
the trigger lands on t0=60; packet k passes node 1 at 20k+10 and reaches the
old leaf at 20k+30 and the new one (once grafted) at 20k+50.
"""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcastmob import config, experiment, reporting
from mcastmob.config import HandoffBlock, ScenarioConfig, TopologySpec, stable_seed
from mcastmob.handoff import (
    OVERLAP_MODES,
    STRATEGIES,
    HandoffConfig,
    HandoffError,
    simulate_handoff,
    simulate_mip_handoff,
)
from mcastmob.routing import establish
from mcastmob.topology import GeneratorParams, PathOracle, Topology

from conftest import bfs_dist, random_connected_edges

BASE = dict(per_hop_delay=10.0, packet_interval=20.0)


def _fixture_tree(handoff_fixture):
    topo, oracle = handoff_fixture
    return topo, oracle, establish(topo, oracle, 0, 3)


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
        topo, oracle, tree = _fixture_tree(handoff_fixture)
        cfg = HandoffConfig(overlap="break_before_make", **BASE)
        rep = simulate_handoff(topo, oracle, tree, 3, 6, cfg)
        assert rep.trigger_ms == 60.0
        # join sent at 60 completes the graft at node 1 at t=90; the first
        # packet passing afterwards is k=4 (emitted 80), reaching node 6 at 120
        assert rep.first_new_delivery_ms == 120.0
        assert rep.handoff_latency == 60.0
        # emissions 2 and 3 were already past the meet and died at the old leaf
        assert rep.packets_lost == 2
        assert rep.packets_duplicated == 0
        assert rep.out_of_order == 0
        assert rep.control_messages == 3
        assert rep.control_path_hops == 3

    def test_triple_join_triples_control_traffic(self, handoff_fixture):
        topo, oracle, tree = _fixture_tree(handoff_fixture)
        plain = simulate_handoff(
            topo, oracle, tree, 3, 6, HandoffConfig(overlap="break_before_make", **BASE)
        )
        triple = simulate_handoff(
            topo, oracle, tree, 3, 6,
            HandoffConfig(overlap="break_before_make", strategy="triple_join", **BASE),
        )
        assert triple.control_messages == 3 * plain.control_messages
        assert triple.handoff_latency == plain.handoff_latency


class TestMakeBeforeBreak:
    def test_closed_form(self, handoff_fixture):
        topo, oracle, tree = _fixture_tree(handoff_fixture)
        cfg = HandoffConfig(overlap="make_before_break", **BASE)
        rep = simulate_handoff(topo, oracle, tree, 3, 6, cfg)
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

    def test_zero_loss_never_drops(self):
        rng = random.Random(99)
        for trial in range(40):
            n = rng.randrange(6, 30)
            topo = Topology.from_edges("g", n, random_connected_edges(rng, n, rng.randrange(n)))
            oracle = PathOracle(topo)
            cn = rng.randrange(n)
            nodes = [v for v in range(n) if v != cn]
            old = rng.choice(nodes)
            new = rng.choice([v for v in nodes if v != old])
            tree = establish(topo, oracle, cn, old)
            rep = simulate_handoff(
                topo, oracle, tree, old, new,
                HandoffConfig(overlap="make_before_break", seed=trial, **BASE),
            )
            assert rep.packets_lost == 0
            assert rep.handoff_latency < math.inf


class TestAdvanceJoin:
    def test_sufficient_lead_zero_loss(self, handoff_fixture):
        topo, oracle, tree = _fixture_tree(handoff_fixture)
        # graft round trip is 2L*d = 60; lead 80 also clears L+depth = 7 hops
        cfg = HandoffConfig(strategy="advance_join", advance_lead=80.0, **BASE)
        rep = simulate_handoff(topo, oracle, tree, 3, 6, cfg)
        assert rep.trigger_ms == 80.0
        assert rep.packets_lost == 0
        assert rep.handoff_latency <= cfg.packet_interval
        assert rep.handoff_latency == 0.0  # packets were waiting at the new BS

    def test_insufficient_lead_still_delivers(self, handoff_fixture):
        topo, oracle, tree = _fixture_tree(handoff_fixture)
        cfg = HandoffConfig(strategy="advance_join", advance_lead=10.0, **BASE)
        rep = simulate_handoff(topo, oracle, tree, 3, 6, cfg)
        assert rep.packets_lost == 0  # make_before_break still covers the gap
        assert rep.handoff_latency > 0.0


class TestNoGraftNeeded:
    def test_new_location_already_on_tree(self, handoff_fixture):
        topo, oracle, tree = _fixture_tree(handoff_fixture)
        cfg = HandoffConfig(**BASE)
        rep = simulate_handoff(topo, oracle, tree, 3, 2, cfg)
        assert rep.control_path_hops == 0
        assert rep.handoff_latency <= cfg.packet_interval
        assert rep.packets_lost == 0


class TestLossRecovery:
    def test_lost_join_recovers_after_refresh(self, handoff_fixture):
        topo, oracle, tree = _fixture_tree(handoff_fixture)
        cfg = HandoffConfig(
            overlap="break_before_make", message_loss_rate=0.5, refresh_period=500.0, **BASE
        )
        lost_first = lambda kind, src, dst, attempt: kind == "join" and attempt == 0 and src == 6

        rep = simulate_handoff(topo, oracle, tree, 3, 6, cfg, loss_fn=lost_first)
        # first hop dies at t=60, retries at 560; graft completes at 590 and
        # the next packet through the meet (emitted 580) lands at 620
        assert rep.first_new_delivery_ms == 620.0
        assert rep.handoff_latency == 560.0
        assert rep.control_messages == 4  # one lost copy, three good hops

    def test_lost_prune_leaves_duplicates_until_expiry(self, handoff_fixture):
        topo, oracle, tree = _fixture_tree(handoff_fixture)
        cfg = HandoffConfig(message_loss_rate=0.5, refresh_period=400.0, **BASE)
        lose_prunes = lambda kind, src, dst, attempt: kind == "prune" and attempt == 0

        rep = simulate_handoff(topo, oracle, tree, 3, 6, cfg, loss_fn=lose_prunes)
        assert rep.packets_lost == 0
        assert rep.control_messages >= 5  # retried prune hops add traffic


class TestMonotonicity:
    def test_latency_monotone_in_graft_length(self):
        edges = [(0, 1), (1, 2), (1, 3)] + [(i, i + 1) for i in range(3, 8)]
        topo = Topology.from_edges("chain", 9, edges)
        oracle = PathOracle(topo)
        cfg = HandoffConfig(overlap="break_before_make", **BASE)
        latencies = []
        for new in range(3, 9):  # L = 1..6, meet always node 1
            tree = establish(topo, oracle, 0, 2)
            rep = simulate_handoff(topo, oracle, tree, 2, new, cfg)
            assert rep.control_path_hops == new - 2
            latencies.append(rep.handoff_latency)
        assert latencies == sorted(latencies)

    def test_mip_latency_monotone_in_b(self):
        edges = [(0, 1), (1, 2)] + [(i, i + 1) for i in range(2, 8)]
        topo = Topology.from_edges("chain", 9, edges)
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
        return Topology.from_edges("mip", 16, edges)

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

    def test_new_location_is_home_agent(self):
        topo = self._topo()
        oracle = PathOracle(topo)
        cfg = HandoffConfig(**BASE)
        rep = simulate_mip_handoff(oracle, 0, 5, 10, 5, cfg)
        assert rep.control_path_hops == 0
        assert rep.handoff_latency <= cfg.packet_interval


class TestDeterminism:
    def test_same_seed_same_report(self, handoff_fixture):
        topo, oracle, tree = _fixture_tree(handoff_fixture)
        cfg = HandoffConfig(message_loss_rate=0.3, seed=123, **BASE)
        a = simulate_handoff(topo, oracle, tree, 3, 6, cfg)
        b = simulate_handoff(topo, oracle, tree, 3, 6, cfg)
        assert a == b

    def test_tree_not_mutated(self, handoff_fixture):
        topo, oracle, tree = _fixture_tree(handoff_fixture)
        before = (dict(tree.parent), set(tree.on_tree), set(tree.leaves))
        simulate_handoff(topo, oracle, tree, 3, 6, HandoffConfig(**BASE))
        assert (tree.parent, tree.on_tree, tree.leaves) == before


class TestPreconditions:
    def test_old_must_be_sole_leaf(self, handoff_fixture):
        topo, oracle, tree = _fixture_tree(handoff_fixture)
        tree.join(2)
        with pytest.raises(HandoffError, match="only joined leaf"):
            simulate_handoff(topo, oracle, tree, 3, 6, HandoffConfig(**BASE))

    def test_rejects_same_location(self, handoff_fixture):
        topo, oracle, tree = _fixture_tree(handoff_fixture)
        with pytest.raises(HandoffError, match="distinct"):
            simulate_handoff(topo, oracle, tree, 3, 3, HandoffConfig(**BASE))

    def test_rejects_cn_target(self, handoff_fixture):
        topo, oracle, tree = _fixture_tree(handoff_fixture)
        with pytest.raises(HandoffError, match="correspondent"):
            simulate_handoff(topo, oracle, tree, 3, 0, HandoffConfig(**BASE))
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
    topo = Topology.from_edges("g", n, random_connected_edges(rng, n, rng.randrange(n)))
    oracle = PathOracle(topo)
    adj = {u: list(nbrs) for u, nbrs in enumerate(topo.adj)}
    cn, ha = rng.randrange(n), rng.randrange(n)
    nodes = [v for v in range(n) if v != cn]
    old = rng.choice(nodes)
    new = rng.choice([v for v in nodes if v != old])
    tree = establish(topo, oracle, cn, old)
    before = (dict(tree.parent), set(tree.on_tree), set(tree.leaves))
    cfg = HandoffConfig(
        strategy=strategy, overlap=overlap, message_loss_rate=loss,
        advance_lead=rng.choice([0.0, 40.0, 100.0]), refresh_period=500.0, seed=seed, **BASE,
    )
    from_cn, from_ha = bfs_dist(adj, cn), bfs_dist(adj, ha)
    mcast = simulate_handoff(topo, oracle, tree, old, new, cfg)
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
    assert (tree.parent, tree.on_tree, tree.leaves) == before
    assert simulate_handoff(topo, oracle, tree, old, new, cfg) == mcast
    assert simulate_mip_handoff(oracle, cn, ha, old, new, cfg) == mip


def test_lossy_sweep_csv_is_pinned(tmp_path):
    """handoff.csv of a small lossy sweep, byte for byte.

    Pins the order of the seeded loss draws: one per data hop at the sending
    node's event, one per registration hop, and up to three per join or
    prune hop until a copy survives.
    """
    specs = tuple(
        TopologySpec(
            name=name, topo_type=ttype,
            generator=GeneratorParams(kind, nodes, deg, seed=stable_seed(7, "topology", name)),
        )
        for name, ttype, kind, nodes, deg in config.REFERENCE_SUITE
        if name in ("ts50", "r50")
    )
    cfg = ScenarioConfig(
        topologies=specs, master_seed=7, seeds_per_scenario=1, moves_per_run=21,
        handoff=HandoffBlock(
            message_loss_rate=0.1, refresh_period=500.0, overlap="break_before_make"
        ),
    )
    rows = experiment.handoff_sweep(experiment.execute_scenario(cfg))
    assert len(rows) == 476
    path = tmp_path / "handoff.csv"
    reporting.write_handoff(str(path), rows)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "c6bfa06f140ac9576cc9d834a3587bd247c9aa7ddad2b486dd83eb1d4e942754"
    )
