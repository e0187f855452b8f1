"""Handoff simulator tests pinned to closed-form event enumerations.

A simulator takes a handoff's hop triple. The main one, `SHAPE`, is cn=0
with the delivery branch 0-1-2-3 (old leaf 3) and a side chain 1-4-5-6 (new
location 6): one hop from the CN to the meet node 1, two from there to old,
and a graft of length L=3. The join's first hop, 6 -> 5, is the new leg's
link 2, as a leg's links are counted from the fork node down. With
per_hop_delay=10 and packet_interval=20 the pipeline fills by t=30, so the
trigger lands on t0=60; packet k passes node 1 at 20k+10 and reaches the
old leaf at 20k+30 and the new one (once grafted) at 20k+50. With the HA at
node 1, Mobile IP has the same triple.
"""

import copy
import csv
import dataclasses
import functools
import hashlib
import io
import math
import os
import random
import tempfile
from types import SimpleNamespace

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
from mcastmob.metrics import RunRecord, run_stats
from mcastmob.movement import MovementTrace
from mcastmob.routing import establish
from mcastmob.topology import GeneratorParams, PathOracle

from conftest import bfs_dist, lossless_handoff_model, make_topology, random_connected_edges
import heap_handoff
from heap_handoff import simulate_handoff as heap_simulate_handoff
from heap_handoff import simulate_mip_handoff as heap_simulate_mip_handoff

BASE = dict(per_hop_delay=10.0, packet_interval=20.0)
SHAPE = (1, 2, 3)


def _shapes(oracle, cn, ha, old, new):
    """The multicast and the Mobile IP hop triples of the move old -> new, walked here.

    The multicast triple reads the branch `establish` builds to old and the
    graft walk from new; the Mobile IP one, (A, B old, B new), reads `bfs_dist`.
    """
    branch = establish(oracle, cn, old).branch
    walk = oracle.shortest_path(new, cn, stop=branch)
    meet = branch.index(walk[-1])
    from_ha = bfs_dist(oracle.topo.adj, ha)
    return (len(branch) - 1 - meet, meet, len(walk) - 1), (from_ha[cn], from_ha[old], from_ha[new])


def _random_move(rng, n_min, n_max):
    """A random graph's oracle and a move old -> new on it, with cn and ha."""
    n = rng.randrange(n_min, n_max)
    oracle = PathOracle(make_topology("g", n, random_connected_edges(rng, n, rng.randrange(n))))
    cn, ha = rng.randrange(n), rng.randrange(n)
    nodes = [v for v in range(n) if v != cn]
    old = rng.choice(nodes)
    new = rng.choice([v for v in nodes if v != old])
    return oracle, cn, ha, old, new


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(per_hop_delay=0),
            dict(packet_interval=-1),
            dict(message_loss_rate=1.0),
            dict(refresh_period=math.inf),
            dict(overlap="sideways"),
            dict(advance_lead=-5),
            dict(refresh_period=0),
            dict(packet_interval=1e-5),
            dict(per_hop_delay=1e300),
            dict(advance_lead=1e9),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(HandoffError):
            HandoffConfig(**kwargs)

    @pytest.mark.parametrize("name", ["per_hop_delay", "packet_interval", "refresh_period",
                                      "advance_lead"])
    def test_an_infinite_setting_is_rejected_as_not_finite(self, name):
        with pytest.raises(HandoffError, match="finite"):
            HandoffConfig(**{name: math.inf})

    def test_the_longest_setting_is_at_most_a_million_packet_intervals(self):
        for name in ("per_hop_delay", "refresh_period", "advance_lead"):
            HandoffConfig(**{name: 1e6}, packet_interval=1.0)
            with pytest.raises(HandoffError, match="1,000,000 packet intervals"):
                HandoffConfig(**{name: 1e6 + 1}, packet_interval=1.0)


class TestBreakBeforeMake:
    def test_closed_form(self):
        cfg = HandoffConfig(overlap="break_before_make", **BASE)
        rep = simulate_handoff(SHAPE, cfg)
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

    def test_triple_join_triples_control_traffic(self):
        cfg = HandoffConfig(overlap="break_before_make", **BASE)
        plain, triple = (simulate_handoff(SHAPE, cfg, s) for s in ("plain_join", "triple_join"))
        assert triple.control_messages == 3 * plain.control_messages
        assert triple.handoff_latency == plain.handoff_latency


class TestMakeBeforeBreak:
    def test_closed_form(self):
        cfg = HandoffConfig(overlap="make_before_break", **BASE)
        rep = simulate_handoff(SHAPE, cfg)
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
        1: the triple (1, 4, 1). At 5 ms intervals the trigger is t0=60; the
        join commits at node 1 at 70, packet 12 is the first to reach 6 (at
        80), and the prune sent from 5 then commits at node 1 at 120. Packets
        16-19 had passed node 1 by then but are still above node 5's last
        link, so they never reach it; packet 15 was on that link and arrives
        at 125.
        """
        rep = simulate_handoff((1, 4, 1), HandoffConfig(per_hop_delay=10.0, packet_interval=5.0))
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
            oracle, cn, ha, old, new = _random_move(rng, 6, 30)
            mcast, _ = _shapes(oracle, cn, ha, old, new)
            rep = simulate_handoff(mcast, HandoffConfig(overlap="make_before_break", **BASE),
                                   seed=trial)
            assert rep.packets_lost == 0
            assert rep.handoff_latency < math.inf


class TestAdvanceJoin:
    def test_sufficient_lead_zero_loss(self):
        # graft round trip is 2L*d = 60; lead 80 also clears L+depth = 7 hops
        cfg = HandoffConfig(advance_lead=80.0, **BASE)
        rep = simulate_handoff(SHAPE, cfg, "advance_join")
        assert rep.trigger_ms == 80.0
        assert rep.packets_lost == 0
        assert rep.handoff_latency <= cfg.packet_interval
        assert rep.handoff_latency == 0.0  # packets were waiting at the new BS

    def test_insufficient_lead_still_delivers(self):
        rep = simulate_handoff(SHAPE, HandoffConfig(advance_lead=10.0, **BASE), "advance_join")
        assert rep.packets_lost == 0  # make_before_break still covers the gap
        assert rep.handoff_latency > 0.0


class TestNoGraftNeeded:
    def test_new_location_already_on_tree(self):
        """Old 3 to new 2 on the branch 0-1-2-3: new is the meet node, L = 0."""
        cfg = HandoffConfig(**BASE)
        rep = simulate_handoff((2, 1, 0), cfg)
        assert rep.handoff_latency <= cfg.packet_interval
        assert rep.packets_lost == 0


def _script_losses(monkeypatch, lose_first, times=1):
    """Make every loss draw 0.99 (kept at rate 0.5), but a chosen link's first `times` 0.0 (lost).

    The links chosen are those where `lose_first(kind, leg, hop)` is true.
    The heap reference draws from the same scripted streams.
    """

    def stream(seed, kind, leg, hop):
        draws = iter([0.0] * times if lose_first(kind, leg, hop) else [])
        return SimpleNamespace(random=lambda: next(draws, 0.99))

    monkeypatch.setattr(handoff, "_loss_stream", stream)
    monkeypatch.setattr(heap_handoff, "_loss_stream", stream)


def _first_hop_up_new(control):
    """The first hop of a `control` message up `SHAPE`'s new leg: 6 -> 5, the leg's link 2."""
    return lambda kind, leg, hop: (kind, leg, hop) == (control, "new", 2)


class TestLossRecovery:
    def test_lost_join_recovers_after_refresh(self, monkeypatch):
        cfg = HandoffConfig(
            overlap="break_before_make", message_loss_rate=0.5, refresh_period=500.0, **BASE
        )
        _script_losses(monkeypatch, _first_hop_up_new("join"))

        rep = simulate_handoff(SHAPE, cfg)
        # first hop dies at t=60, retries at 560; graft completes at 590 and
        # the next packet through the meet (emitted 580) lands at 620
        assert rep.trigger_ms + rep.handoff_latency == 620.0
        assert rep.handoff_latency == 560.0
        assert rep.control_messages == 4  # one lost copy, three good hops

    def test_lost_prune_leaves_duplicates_until_expiry(self, monkeypatch):
        cfg = HandoffConfig(message_loss_rate=0.5, refresh_period=400.0, **BASE)
        _script_losses(monkeypatch, lambda kind, leg, hop: kind == "prune")

        rep = simulate_handoff(SHAPE, cfg)
        assert rep.packets_lost == 0
        # 3 join hops, plus 2 prune hops each sent twice; without loss it is 5 and 2 duplicates
        assert rep.control_messages == 7
        assert rep.packets_duplicated == 6

    @pytest.mark.parametrize("overlap", OVERLAP_MODES)
    def test_a_join_that_never_commits_emits_until_the_give_up(self, monkeypatch, overlap):
        """Every copy of the join's first hop is lost: no packet ever reaches new.

        Emission runs to the give-up deadline t0 + 2 refresh periods = 1060,
        plus the tail's three intervals: packets 0 .. 56 (emitted 0 .. 1120).
        """
        cfg = HandoffConfig(message_loss_rate=0.5, refresh_period=500.0, overlap=overlap, **BASE)
        _script_losses(monkeypatch, _first_hop_up_new("join"), handoff._MAX_RETRIES)
        rep = simulate_handoff(SHAPE, cfg)
        assert (rep, rep.deliveries) == heap_simulate_handoff(SHAPE, cfg)
        assert rep.handoff_latency == math.inf
        assert rep.packets_emitted == 57
        assert rep.control_messages == handoff._MAX_RETRIES

    @pytest.mark.parametrize("overlap", OVERLAP_MODES)
    def test_a_registration_that_never_commits_emits_until_the_give_up(self, monkeypatch,
                                                                      overlap):
        """Mobile IP with the HA at node 1: the registration's first hop 6 -> 5 never survives."""
        cfg = HandoffConfig(message_loss_rate=0.5, refresh_period=500.0, overlap=overlap, **BASE)
        _script_losses(monkeypatch, _first_hop_up_new("registration"), handoff._MAX_RETRIES)
        rep = simulate_mip_handoff(SHAPE, cfg)
        assert (rep, rep.deliveries) == heap_simulate_mip_handoff(SHAPE, cfg)
        assert rep.handoff_latency == math.inf
        assert rep.packets_emitted == 57
        assert rep.control_messages == handoff._MAX_RETRIES


@pytest.mark.parametrize("delay, label, seed, emitted", [
    (20.0, "plain_join", 10, 21), (20.0, "mobile_ip", 58, 21),
    (10.0, "plain_join", 10, 17), (10.0, "mobile_ip", 23, 17)])
def test_a_first_arrival_at_the_last_emission_the_give_up_allows(delay, label, seed, emitted):
    """The first delivery through new lands on the give-up bound's last emission.

    Triple (1, 1, 1) at 20 ms intervals and a 100 ms refresh period: the
    give-up bound with its tail, t0 + 200 + 60, lets out packets up to the one
    emitted at t0 + 260. With per_hop_delay 20 (t0 = 80) the earlier-emitted
    arrival goes first, so the tail follows it: packets 0 .. 20. With
    per_hop_delay 10 (t0 = 60) the emission goes first, and emission stops at
    the give-up bound: packets 0 .. 16.
    """
    cfg = HandoffConfig(per_hop_delay=delay, packet_interval=20.0, message_loss_rate=0.5,
                        refresh_period=100.0)
    if label == "mobile_ip":
        rep, reference = (simulate_mip_handoff((1, 1, 1), cfg, seed),
                          heap_simulate_mip_handoff((1, 1, 1), cfg, seed))
    else:
        rep, reference = (simulate_handoff((1, 1, 1), cfg, label, seed),
                          heap_simulate_handoff((1, 1, 1), cfg, label, seed))
    assert (rep, rep.deliveries) == reference
    assert rep.handoff_latency == 260.0
    assert rep.packets_emitted == emitted


def test_a_draw_at_the_rate_is_not_a_loss(monkeypatch):
    """A crossing is lost iff its draw is below the rate: with every draw at it, none is."""
    def stream(seed, kind, leg, hop):
        return SimpleNamespace(random=lambda: 0.5)

    monkeypatch.setattr(handoff, "_loss_stream", stream)
    monkeypatch.setattr(heap_handoff, "_loss_stream", stream)
    for overlap in OVERLAP_MODES:
        lossless = HandoffConfig(overlap=overlap, **BASE)
        at_rate = HandoffConfig(overlap=overlap, message_loss_rate=0.5, **BASE)
        for strategy in STRATEGIES:
            rep = simulate_handoff(SHAPE, at_rate, strategy)
            assert rep == simulate_handoff(SHAPE, lossless, strategy)
            assert (rep, rep.deliveries) == heap_simulate_handoff(SHAPE, at_rate, strategy)
        rep = simulate_mip_handoff(SHAPE, at_rate)
        assert rep == simulate_mip_handoff(SHAPE, lossless)
        assert (rep, rep.deliveries) == heap_simulate_mip_handoff(SHAPE, at_rate)


class TestMonotonicity:
    def test_latency_monotone_in_graft_length(self):
        """Old one hop below the meet node, which is one below the CN; L = 1..6."""
        cfg = HandoffConfig(overlap="break_before_make", **BASE)
        latencies = []
        for graft in range(1, 7):
            latencies.append(simulate_handoff((1, 1, graft), cfg).handoff_latency)
        assert latencies == sorted(latencies)

    def test_mip_latency_monotone_in_b(self):
        """The HA one hop from the CN and from old; B = 2..7."""
        cfg = HandoffConfig(overlap="break_before_make", **BASE)
        latencies = []
        for b_new in range(2, 8):
            latencies.append(simulate_mip_handoff((1, 1, b_new), cfg).handoff_latency)
        assert latencies == sorted(latencies)


class TestMobileIp:
    # cn 0-..-5 = ha; two 5-hop tunnels from the HA, to old 10 and to new 15
    B5 = (5, 5, 5)

    def test_closed_form_b5(self):
        cfg = HandoffConfig(**BASE)
        rep = simulate_mip_handoff(self.B5, cfg)
        # trigger 140; registration crosses its 5 hops by 190; the packet
        # emitted at 140 reaches the HA right then and lands at 240
        assert rep.trigger_ms == 140.0
        assert rep.handoff_latency == 100.0
        assert rep.control_messages == 5
        assert rep.packets_lost == 0  # make_before_break default

    def test_break_mode_loses_dead_window(self):
        rep = simulate_mip_handoff(self.B5, HandoffConfig(overlap="break_before_make", **BASE))
        # emissions 2..6 were committed to the old tunnel and the MN had left
        assert rep.packets_lost == 5
        assert rep.packets_duplicated == 0

    @pytest.mark.parametrize("loss", [0.0, 0.3])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_strategy_runs_as_a_plain_registration(self, strategy, loss):
        """A sweep's Mobile IP row is the same whichever strategy the block sweeps.

        Mobile IP takes no strategy, so none moves the trigger, copies the
        registration or sends it early: the row is the plain registration of
        its triple under the block's wire and the row's seed.
        """
        run = _y_run()
        block = HandoffBlock(advance_lead=200.0, message_loss_rate=loss, refresh_period=500.0,
                             strategies=(strategy,), max_moves=1, **BASE)
        *_, mip = experiment._sweep_run(run, block, {})
        seed = stable_seed(run.record.child_seed, "handoff", 1, "mobile_ip") if loss else 0
        assert mip.report == simulate_mip_handoff((1, 2, 1), block, seed=seed)
        assert mip.report.trigger_ms == 60.0

    def test_new_location_is_home_agent(self):
        cfg = HandoffConfig(**BASE)
        rep = simulate_mip_handoff((5, 5, 0), cfg)
        assert rep.handoff_latency <= cfg.packet_interval


class TestDeterminism:
    def test_same_seed_same_report(self):
        cfg = HandoffConfig(message_loss_rate=0.3, **BASE)
        assert simulate_handoff(SHAPE, cfg, seed=123) == simulate_handoff(SHAPE, cfg, seed=123)

    def test_the_default_seed_is_0(self):
        cfg = HandoffConfig(message_loss_rate=0.3, **BASE)
        assert simulate_handoff(SHAPE, cfg) == simulate_handoff(SHAPE, cfg, seed=0)
        assert simulate_mip_handoff(SHAPE, cfg) == simulate_mip_handoff(SHAPE, cfg, seed=0)


@pytest.mark.parametrize("loss", [0.0, 0.3])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_block_simulates_as_the_config_of_its_wire(strategy, loss):
    """A sweep block and a config with the same six wire fields give the same reports."""
    block = HandoffBlock(per_hop_delay=7.5, packet_interval=5.0, message_loss_rate=loss,
                         advance_lead=40.0, overlap="break_before_make", refresh_period=500.0)
    wire = HandoffConfig(**{f.name: getattr(block, f.name)
                            for f in dataclasses.fields(HandoffConfig)})
    assert simulate_handoff(SHAPE, block, strategy, seed=9) == simulate_handoff(
        SHAPE, wire, strategy, seed=9)
    assert simulate_mip_handoff(SHAPE, block, seed=9) == simulate_mip_handoff(SHAPE, wire, seed=9)


def test_the_wire_has_one_default_lead():
    """The simulators' default wire is the sweep block's: one advance_lead, 100 ms."""
    assert HandoffConfig().advance_lead == HandoffBlock().advance_lead == 100.0


def test_an_unknown_strategy_argument_is_rejected():
    with pytest.raises(HandoffError, match="unknown strategy 'hope'"):
        simulate_handoff(SHAPE, HandoffConfig(**BASE), "hope")


class TestPreconditions:
    def test_old_must_not_be_the_cn(self):
        with pytest.raises(HandoffError, match="correspondent"):
            simulate_handoff((0, 0, 3), HandoffConfig(**BASE))
        with pytest.raises(HandoffError, match="correspondent"):
            simulate_mip_handoff((0, 0, 3), HandoffConfig(**BASE))

    def test_rejects_same_location(self):
        with pytest.raises(HandoffError, match="distinct"):
            simulate_handoff((3, 0, 0), HandoffConfig(**BASE))
        with pytest.raises(HandoffError, match="distinct"):
            simulate_mip_handoff((3, 0, 0), HandoffConfig(**BASE))

    def test_rejects_cn_target(self):
        with pytest.raises(HandoffError, match="correspondent"):
            simulate_handoff((0, 3, 0), HandoffConfig(**BASE))
        with pytest.raises(HandoffError, match="correspondent"):
            simulate_mip_handoff((0, 3, 0), HandoffConfig(**BASE))

    @pytest.mark.parametrize("shape", [(1, 2), (1, 2, 3, 4), (-1, 2, 3), (1, -2, 3), (1, 2, -3),
                                       (1, 2.0, 3), (True, 2, 3), (1, True, 3), (1, 2, False),
                                       [1, 2, 3], None])
    def test_rejects_a_shape_that_is_not_three_hop_counts(self, shape):
        for simulate in (simulate_handoff, simulate_mip_handoff):
            with pytest.raises(HandoffError, match="three hop counts"):
                simulate(shape, HandoffConfig(**BASE))


@pytest.mark.parametrize("loss", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("overlap", OVERLAP_MODES)
@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_kernel_properties(strategy, overlap, loss, seed):
    """Delivery times, loss and duplicate accounting of both simulators on random graphs."""
    rng = random.Random(seed)
    oracle, cn, ha, old, new = _random_move(rng, 4, 30)
    cfg = HandoffConfig(
        overlap=overlap, message_loss_rate=loss, advance_lead=rng.choice([0.0, 40.0, 100.0]),
        refresh_period=500.0, **BASE,
    )
    adj = oracle.topo.adj
    from_cn, from_ha = bfs_dist(adj, cn), bfs_dist(adj, ha)
    mcast_shape, mip_shape = _shapes(oracle, cn, ha, old, new)
    mcast = simulate_handoff(mcast_shape, cfg, strategy, seed)
    mip = simulate_mip_handoff(mip_shape, cfg, seed)
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
    assert simulate_handoff(mcast_shape, cfg, strategy, seed) == mcast
    assert simulate_mip_handoff(mip_shape, cfg, seed) == mip


def _recount(log):
    """(first deliveries, duplicates, first deliveries below the highest seq before them)."""
    delivered, top, late = set(), -1, 0
    for seq, _, _ in log:
        if seq not in delivered:
            delivered.add(seq)
            late += seq < top
            top = max(top, seq)
    return len(delivered), len(log) - len(delivered), late


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9),
       shape=st.tuples(*[st.integers(min_value=0, max_value=9)] * 3).filter(
           lambda s: s[0] + s[1] and s[0] + s[2] and s[1] + s[2]),
       loss=st.sampled_from([0.0, 0.05, 0.3, 0.6]),
       strategy=st.sampled_from(STRATEGIES),
       overlap=st.sampled_from(OVERLAP_MODES),
       lead=st.sampled_from([0.0, 40.0, 100.0]),
       refresh=st.sampled_from([7.0, 120.0, 500.0]),
       delay=st.sampled_from([0.3, 3.3, 5.0, 10.0, 20.0]),
       interval=st.sampled_from([0.3, 3.3, 5.0, 10.0, 20.0]))
def test_counters_recount_from_the_delivery_log(seed, shape, loss, strategy, overlap, lead,
                                                refresh, delay, interval):
    """Each counter, taken off the arrival lists, is what a walk of `deliveries` counts."""
    cfg = HandoffConfig(per_hop_delay=delay, packet_interval=interval, message_loss_rate=loss,
                        advance_lead=lead, overlap=overlap, refresh_period=refresh)
    for rep in (simulate_handoff(shape, cfg, strategy, seed),
                simulate_mip_handoff(shape, cfg, seed)):
        assert (rep.packets_delivered, rep.packets_duplicated, rep.out_of_order) == _recount(
            rep.deliveries)


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

    Pins the seeded loss draws: one stream per (kind, leg, hop), seeded from
    "seed:kind:leg:hop" and consumed in the order that link is crossed. Each
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
        "d28fb6bdbcad540a7f59c5fd3a0ea21137b7afb1df3afa3b5019e4b650374430"
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
        "f9c28ae7a740c8310d023d20c85a71c8f61a23dbc4c19fe22fd3ed2f7849d7fa"
    )
    assert _deliveries_sha256(rows) == (
        "78107ebd824294fb8605506cfcb0ae628a0f4c3e51a4968f23a987d5cb31ef37"
    )


def test_lossy_sweep_at_the_default_refresh_period_is_pinned(tmp_path):
    """The sweep at 5% loss and the default 60 s refresh period, log included.

    A lost join or registration waits out a whole refresh period, so 43 rows
    emit more than 100 packets (142,702 in all) and one gives up at 6,011.
    Most of those packets go out while no new arrival can start the tail.
    """
    rows = _ts50_r50_sweep(HandoffBlock(message_loss_rate=0.05))
    assert len(rows) == 476
    emitted = [row.report.packets_emitted for row in rows]
    assert (sum(emitted), sum(e > 100 for e in emitted), max(emitted)) == (142_702, 43, 6_011)
    path = tmp_path / "handoff.csv"
    reporting.write_handoff(str(path), rows)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "4fb16ada88cdace4dbcce187bf50c3674b5cd0159709e9185855baf25f7e0626"
    )
    assert _deliveries_sha256(rows) == (
        "cc9be39bd1c1b0430f9f9ab16ad5c2642f7d01073b8f03dba433fbd323bbfff6"
    )


def test_lossy_sweep_with_the_earlier_emitted_first_is_pinned(tmp_path):
    """The make_before_break sweep above with per_hop_delay 20 > packet_interval 10.

    Every other pinned sweep has per_hop_delay < packet_interval, so this one
    pins the same-instant rule's other branch: of two packets that meet at
    one instant the earlier-emitted goes first, in the tail's start and in
    `out_of_order`. Its 476 rows have 201 late deliveries.
    """
    rows = _ts50_r50_sweep(HandoffBlock(per_hop_delay=20.0, packet_interval=10.0,
                                        message_loss_rate=0.1, refresh_period=500.0))
    assert len(rows) == 476
    assert sum(row.report.out_of_order for row in rows) == 201
    path = tmp_path / "handoff.csv"
    reporting.write_handoff(str(path), rows)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "1d7ede8d4e47f4c0ced6f4644533e28487cfc616f91d223e644a03b1bc5f63cb"
    )
    assert _deliveries_sha256(rows) == (
        "53720f262125db71581c0298151b366ed182407d894d13cbfa5f5fe9246b99be"
    )


def _csv_module_handoff(rows):
    """handoff.csv's bytes as the csv module writes them, each cell formatted per row."""
    buf = io.StringIO()
    table = csv.writer(buf, lineterminator="\n")
    table.writerow(reporting.HANDOFF_COLUMNS)
    table.writerows(
        (row.topology, row.model, row.run_index, row.step, row.strategy, row.graft_links,
         row.b_hops, reporting.fmt(row.report.handoff_latency), row.report.packets_lost,
         row.report.packets_duplicated, row.report.out_of_order, row.report.control_messages)
        for row in rows)
    return buf.getvalue().encode()


_COUNTS = st.integers(min_value=0, max_value=2) | st.integers(min_value=0, max_value=10**7)
_LATENCIES = st.one_of(
    st.sampled_from([math.inf, 0.0, 40.0, 0.3, 2.8e-17, 1234567.25, 1e15 - 1, 1e15, 1e15 + 2,
                     999999999999999.9, 2.0**53]),
    st.integers(min_value=0, max_value=10**16).map(float),
    st.floats(min_value=0, allow_nan=False),
)


@st.composite
def _handoff_rows(draw):
    """Rows that share reports, and rows that hold equal but distinct reports."""
    reports = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        if reports and draw(st.booleans()):
            reports.append(copy.copy(draw(st.sampled_from(reports))))
            continue
        reports.append(handoff.HandoffReport(
            trigger_ms=60.0, handoff_latency=draw(_LATENCIES), packets_lost=draw(_COUNTS),
            packets_duplicated=draw(_COUNTS), out_of_order=draw(_COUNTS),
            control_messages=draw(_COUNTS), packets_emitted=0, packets_delivered=0,
            arrivals=((), ()), unit=1, interval=20, depths=(0, 0), earlier_first=False))
    labels = st.from_regex(r"[A-Za-z0-9_.-]+", fullmatch=True)
    return [experiment.HandoffRow(
        draw(labels), draw(st.sampled_from(["random", "neighbor", "cluster"])), draw(_COUNTS),
        draw(_COUNTS), draw(st.sampled_from(STRATEGIES + ("mobile_ip",))), draw(_COUNTS),
        draw(_COUNTS), draw(st.sampled_from(reports)),
    ) for _ in range(draw(st.integers(min_value=0, max_value=12)))]


@settings(max_examples=200, deadline=None)
@given(rows=_handoff_rows())
def test_handoff_csv_equals_the_csv_module_rendering(rows):
    """`write_handoff`'s bytes are the csv module's, whether rows share a report or hold copies."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report", "handoff.csv")
        reporting.write_handoff(path, rows)
        with open(path, "rb") as fh:
            assert fh.read() == _csv_module_handoff(rows)


def test_an_empty_sweep_writes_the_header_alone(tmp_path):
    path = tmp_path / "handoff.csv"
    reporting.write_handoff(str(path), [])
    assert path.read_bytes() == (",".join(reporting.HANDOFF_COLUMNS) + "\n").encode()


def _small_sweep(loss):
    """A config of one 50-node transit-stub topology, two runs of 21 moves, swept at `loss`."""
    spec = TopologySpec(name="ts50", topo_type="transit_stub",
                        generator=GeneratorParams("transit_stub", 50, 3.7, seed=3))
    return ScenarioConfig(topologies=(spec,), master_seed=7, seeds_per_scenario=2,
                          moves_per_run=21,
                          handoff=HandoffBlock(message_loss_rate=loss, refresh_period=500.0,
                                               runs=2))


@pytest.mark.parametrize("loss", [0.0, 0.05])
def test_sweep_makes_no_path_oracle_query(monkeypatch, loss):
    """Each move's hop triple comes off the run's samples: the sweep searches nothing."""
    result = experiment.execute_scenario(_small_sweep(loss))

    def query(*args, **kwargs):
        raise AssertionError("the sweep queried a path oracle")

    monkeypatch.setattr(PathOracle, "dist_from", query)
    monkeypatch.setattr(PathOracle, "shortest_path", query)
    rows = experiment.handoff_sweep(result)
    assert len({row.graft_links for row in rows}) > 1


def test_loss_streams_are_positional_and_draw_at_the_rate(monkeypatch):
    """Under loss, each simulation seeds its streams from distinct `seed:kind:leg:hop` strings.

    Every stream made by one simulation has its own seed string, which names
    a link of that simulation's legs, so no two legs or kinds share draws.
    Pooled over the sweep, the share of draws below the loss rate is within
    4 binomial standard deviations of the rate.
    """
    cfg = _small_sweep(0.2)
    result = experiment.execute_scenario(cfg)
    rate = cfg.handoff.message_loss_rate
    sims, tally = [], [0, 0]  # per simulation: (shape, seed strings); draws, draws below rate

    class Counted(random.Random):
        def __init__(self, seed):
            sims[-1][1].append(seed)
            super().__init__(seed)

        def random(self):
            u = super().random()
            tally[0] += 1
            tally[1] += u < rate
            return u

    for name in ("simulate_handoff", "simulate_mip_handoff"):
        def simulated(shape, *args, _real=getattr(experiment, name), **kwargs):
            sims.append((shape, []))
            return _real(shape, *args, **kwargs)

        monkeypatch.setattr(experiment, name, simulated)
    monkeypatch.setattr(handoff, "random", SimpleNamespace(Random=Counted))
    rows = experiment.handoff_sweep(result)
    assert len(sims) == len(rows)
    for shape, seeds in sims:
        assert len(set(seeds)) == len(seeds), f"two streams of {shape} share a seed string"
        legs = dict(zip(("above", "old", "new"), shape))
        for seed in seeds:
            _, kind, leg, hop = seed.split(":")
            assert kind in ("data", "join", "prune", "registration")
            assert 0 <= int(hop) < legs[leg]
    draws, below = tally
    assert draws > 10_000
    assert abs(below - rate * draws) <= 4 * math.sqrt(draws * rate * (1 - rate))


# The law tests run one handoff, (above, old, new) = LAW_SHAPE at 20% loss and a 200 ms
# refresh period, over fixed seeds, each label on seeds of its own. Each pools a count over
# the seeds and compares it with its closed form, within 4 standard deviations. They read
# reports only, never a stream, so they hold for any draw scheme with the same law.
LAW_SHAPE, LAW_RATE, LAW_SEEDS = (2, 2, 3), 0.2, 2000
LAW_LABELS = STRATEGIES + ("mobile_ip",)


@functools.cache
def _law_reports(overlap):
    """label -> its reports of LAW_SHAPE under `overlap`, one per seed."""
    cfg = HandoffConfig(message_loss_rate=LAW_RATE, refresh_period=200.0, overlap=overlap, **BASE)
    return {label: [simulate_mip_handoff(LAW_SHAPE, cfg, seed) if label == "mobile_ip"
                    else simulate_handoff(LAW_SHAPE, cfg, label, seed)
                    for seed in range(j * LAW_SEEDS, (j + 1) * LAW_SEEDS)]
            for j, label in enumerate(LAW_LABELS)}


def _assert_control_law(reps, copies, hops):
    """Total control_messages of `reps`, whose control hops number `hops` in all.

    Each hop is tried until one of its `copies` survives, so its tries are
    geometric with success q = 1 - p^copies: mean 1/q, variance (1 - q)/q².
    (A hop gives up after 25 tries, with chance p^(25·copies): nil here.)
    """
    q = 1 - LAW_RATE ** copies
    observed = sum(rep.control_messages for rep in reps)
    mean, variance = copies * hops / q, copies ** 2 * hops * (1 - q) / q ** 2
    assert abs(observed - mean) <= 4 * math.sqrt(variance), (observed, mean, variance)


@pytest.mark.parametrize("label", LAW_LABELS)
def test_control_hop_tries_are_geometric_in_the_copies_lost(label):
    """Under break_before_make nothing prunes: the join or registration's `new` hops alone."""
    reps = _law_reports("break_before_make")[label]
    _assert_control_law(reps, 3 if label == "triple_join" else 1, LAW_SHAPE[2] * len(reps))


@pytest.mark.parametrize("label", LAW_LABELS)
def test_a_prune_is_sent_only_after_a_first_arrival_through_new(label):
    """Under make_before_break a multicast row adds the prune's `old` hops iff its latency is finite.

    Mobile IP never prunes. Counting the prune on every row would be wrong
    by far more than 4 standard deviations: many rows never deliver through
    new before the give-up bound.
    """
    reps = _law_reports("make_before_break")[label]
    arrived = sum(rep.handoff_latency < math.inf for rep in reps)
    if label != "triple_join":  # its joins almost never fail: rows without an arrival are few
        assert arrived < 0.95 * len(reps)
    _, old, new = LAW_SHAPE
    hops = new * len(reps) + (old * arrived if label != "mobile_ip" else 0)
    _assert_control_law(reps, 3 if label == "triple_join" else 1, hops)


@pytest.mark.parametrize("leg", ["old", "new"])
def test_a_packet_survives_k_lossy_links_with_one_minus_the_rate_to_the_k(leg):
    """Packets survive k links with chance (1 - p)^k, pooled over every label under make_before_break.

    "old": the packets that reach the old location before the trigger, seq
    below (trigger - old depth) / interval rounded up, cross above + old
    links; nothing stops them. "new": the packets emitted after the first
    arrival through new, seqs first + 1 .. emitted - 1, are past the commit
    at F and cross above + new links. Whether a seq is the first arrival
    depends on no later packet's draws, so their fates are not selected.
    """
    above, old, new = LAW_SHAPE
    interval, delay = BASE["packet_interval"], BASE["per_hop_delay"]
    crossed = survived = 0
    for reps in _law_reports("make_before_break").values():
        for rep in reps:
            old_seqs, new_seqs = rep.arrivals
            if leg == "old":
                before = math.ceil((rep.trigger_ms - (above + old) * delay) / interval)
                crossed += before
                survived += sum(seq < before for seq in old_seqs)
            elif new_seqs:
                crossed += rep.packets_emitted - 1 - new_seqs[0]
                survived += len(new_seqs) - 1
    s = (1 - LAW_RATE) ** (above + (old if leg == "old" else new))
    assert crossed > 10_000
    assert abs(survived - s * crossed) <= 4 * math.sqrt(crossed * s * (1 - s)), (survived, crossed)


def _fresh_rows(oracle, run, block):
    """The sweep's rows of one run, each from its own reference call and seed.

    A row is (topology, model, run, step, strategy, L, B, report, log). The
    tree is walked here, join then prune per move, as the run walks it.
    Each move's multicast triple is read off that tree and the walk
    `shortest_path` takes from new, its Mobile IP triple and B off
    `bfs_dist`, and each is simulated by `heap_handoff`, the event-queue
    reference.
    """
    rows = []
    rec = run.record
    steps = run.trace.steps[:block.max_moves + 1]
    cn, adj = run.cn, oracle.topo.adj
    from_ha = bfs_dist(adj, run.ha)
    tree = establish(oracle, cn, steps[0])
    for i, (old, new) in enumerate(zip(steps, steps[1:]), start=1):
        if old == new:
            continue
        walk = oracle.shortest_path(new, cn, stop=tree.nodes)
        meet = tree.branch.index(walk[-1])
        mcast = len(tree.branch) - 1 - meet, meet, len(walk) - 1
        where = rec.topology, rec.model, rec.run_index, i
        for strategy in block.strategies:
            seed = stable_seed(rec.child_seed, "handoff", i, strategy)
            rows.append((*where, strategy, len(walk) - 1, from_ha[new],
                         *heap_simulate_handoff(mcast, block, strategy, seed)))
        if block.include_mobile_ip:
            seed = stable_seed(rec.child_seed, "handoff", i, "mobile_ip")
            rows.append((*where, "mobile_ip", len(walk) - 1, from_ha[new],
                         *heap_simulate_mip_handoff((from_ha[cn], from_ha[old], from_ha[new]),
                                                    block, seed)))
        tree.join(new)
        tree.prune(old)
    return rows


def _fresh_reports(oracle, run, block):
    """The (report, log) pairs of `_fresh_rows`."""
    return [row[-2:] for row in _fresh_rows(oracle, run, block)]


def _walked_run(oracle, cn, ha, steps, seed):
    """Run 0 walking `steps` with CN `cn` and HA `ha`, built as `run_single` builds a run."""
    samples = tuple(routing.run_scenario(oracle, cn, ha, steps))
    topo = oracle.topo
    record = RunRecord(topo.name, "measured", "random", topo.n, 0, seed, run_stats(samples))
    return experiment.RunResult(record, cn, ha, MovementTrace(tuple(steps)), samples)


def _random_run(seed, n_max=20):
    """A random graph's oracle and a run on it with a random trace (repeats included)."""
    rng = random.Random(seed)
    n = rng.randrange(3, n_max)
    topo = make_topology("g", n, random_connected_edges(rng, n, rng.randrange(n)))
    oracle = PathOracle(topo)
    cn, ha = rng.sample(range(n), 2)
    steps = [rng.choice([v for v in range(n) if v != cn])]
    for _ in range(rng.randrange(1, 12)):  # a repeat is a move that stays put
        steps.append(rng.choice([steps[-1]] + [v for v in range(n) if v != cn]))
    return oracle, _walked_run(oracle, cn, ha, steps, seed)


@pytest.mark.parametrize("loss", [0.0, 0.1])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9),
       strategies=st.lists(st.sampled_from(STRATEGIES), min_size=1, max_size=3, unique=True),
       overlap=st.sampled_from(OVERLAP_MODES),
       lead=st.sampled_from([0.0, 40.0, 100.0]),
       mobile_ip=st.booleans(),
       data=st.data())
def test_sweep_rows_equal_the_reference_on_the_walked_tree(loss, seed, strategies, overlap, lead,
                                                           mobile_ip, data):
    """No tree is handed to the simulator, yet every row is the walked tree's report.

    On a random graph and trace, each sweep row equals the event-queue
    reference run on the hop triple of a tree walked join then prune, so the
    sweep's reading of each triple off the run's samples is checked too.
    Each row's coordinates, L and B are the reference's as well, with or
    without Mobile IP, and with the sweep cut short of the trace or not.
    """
    oracle, run = _random_run(seed)
    max_moves = data.draw(st.integers(min_value=1, max_value=len(run.trace.steps) + 2))
    block = HandoffBlock(message_loss_rate=loss, refresh_period=500.0, strategies=tuple(strategies),
                         overlap=overlap, advance_lead=lead, include_mobile_ip=mobile_ip,
                         max_moves=max_moves)
    rows = experiment._sweep_run(run, block, {})
    assert [(row.topology, row.model, row.run_index, row.step, row.strategy, row.graft_links,
             row.b_hops, row.report, row.report.deliveries)
            for row in rows] == _fresh_rows(oracle, run, block)


@pytest.mark.parametrize("loss", [0.0, 0.1])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_sweep_reads_each_shape_off_the_run_samples(loss, seed):
    """Every memo key, L and B hop count of a sweep equals the one of the walked paths.

    On a random graph and trace (with repeats, ties at the meet node and
    moves along the old branch), the reference walks each move's old branch
    and graft walk and reads each distance from the oracle. The sweep reads
    them off the run's samples. Both architectures key a report by the hop
    triple (CN to fork node, fork to old, fork to new) and the row's label,
    so a Mobile IP row and a plain_join row of one triple stay apart.
    """
    oracle, run = _random_run(seed)
    cn, ha, steps = run.cn, run.ha, run.trace.steps
    block = HandoffBlock(message_loss_rate=loss, max_moves=len(steps))
    memo = {}
    rows = experiment._sweep_run(run, block, memo)
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
        experiment._sweep_run(dataclasses.replace(run, samples=run.samples[:-1]), block, {})


def _y_run():
    """cn 0 above node 1, the HA, which forks to old 3 (through 2) and to new 4: move 3 -> 4.

    Both architectures' hop triples are (1, 2, 1).
    """
    topo = make_topology("y", 5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    oracle = PathOracle(topo)
    return _walked_run(oracle, 0, 1, (3, 4), seed=5)


def test_sweep_keeps_a_mobile_ip_row_apart_from_a_multicast_row_of_its_triple():
    """With the HA at the meet node, both rows of move 3 -> 4 have the hop triple (1, 2, 1).

    Under make_before_break only the multicast handoff prunes, and its
    packets go down both legs, so the two reports differ and the memo keeps
    both under their labels.
    """
    memo = {}
    block = HandoffBlock(strategies=("plain_join",), max_moves=1)
    mcast, mip = (row.report for row in experiment._sweep_run(_y_run(), block, memo))
    assert list(memo) == [((1, 2, 1), "plain_join", 0), ((1, 2, 1), "mobile_ip", 0)]
    assert mcast != mip
    assert mcast == simulate_handoff((1, 2, 1), block)
    assert mip == simulate_mip_handoff((1, 2, 1), block)


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
    to new have the same hops, read here off a random graph. Without a
    prune, a packet that goes down both legs after the commit is no longer
    at old when it arrives there, so every report field, the delivery log
    included, is the same.
    """
    rng = random.Random(seed)
    oracle, cn, _, old, new = _random_move(rng, 3, 30)
    meet = oracle.shortest_path(new, cn, stop=oracle.shortest_path(old, cn))[-1]
    mcast, mip = _shapes(oracle, cn, meet, old, new)
    assert mcast == mip
    cfg = HandoffConfig(per_hop_delay=delay, packet_interval=interval,
                        overlap="break_before_make", refresh_period=refresh)
    assert simulate_handoff(mcast, cfg) == simulate_mip_handoff(mip, cfg)


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
    expected = [pair for run in result.runs for pair in _fresh_reports(oracle, run, block)]
    assert [(row.report, row.report.deliveries) for row in rows] == expected


@pytest.mark.parametrize("loss, max_moves, simulations", [(0.0, 20, 616), (0.05, 2, 308)])
def test_the_benchmark_sweep_equals_the_heap_row_by_row(monkeypatch, loss, max_moves, simulations):
    """The reference suite's sweep at seed 7, one run per scenario, equals the reference.

    Lossless with the default block, this is the `handoff_clean` benchmark's
    sweep: 3,108 rows from 616 simulations. At 5% loss every row is its own
    simulation. Each simulation the sweep makes is run again by
    `heap_handoff`, and every row's report and log equal that run's.
    """
    calls = {}  # id(report) -> the reference's (report, log) of the same arguments
    for name in ("simulate_handoff", "simulate_mip_handoff"):
        def recorded(*args, _real=getattr(experiment, name),
                     _heap=getattr(heap_handoff, name), **kwargs):
            rep = _real(*args, **kwargs)
            calls[id(rep)] = rep, _heap(*args, **kwargs)
            return rep

        monkeypatch.setattr(experiment, name, recorded)
    cfg = config.reference_suite_config(
        master_seed=7, seeds=1, handoff=HandoffBlock(message_loss_rate=loss, max_moves=max_moves))
    rows = experiment.handoff_sweep(experiment.execute_scenario(experiment.trim_to_sweep(cfg)))
    assert len(calls) == simulations
    assert len(rows) == (3108 if max_moves == 20 else simulations)
    assert [(row.report, row.report.deliveries) for row in rows] == [
        calls[id(row.report)][1] for row in rows]


def test_sweep_shares_one_simulation_between_mirror_image_ties(monkeypatch):
    """Moves 2 -> 3 and 3 -> 2 are one shape, whichever child of the meet node has the lower id.

    cn 0 forwards through 1 to the leaves 2 and 3, both two hops away, so a
    packet reaches the old and the new location at the same instant. The
    delivery log lists the old copy first, so both moves share one
    simulation per strategy.
    """
    calls = []
    real = experiment.simulate_handoff

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    topo = make_topology("fork", 4, [(0, 1), (1, 2), (1, 3)])
    oracle = PathOracle(topo)
    run = _walked_run(oracle, 0, 1, (2, 3, 2), seed=5)
    block = HandoffBlock(max_moves=2)
    monkeypatch.setattr(experiment, "simulate_handoff", counted)
    rows = experiment._sweep_run(run, block, {})
    assert len(calls) == len(block.strategies)
    expected = _fresh_reports(oracle, run, block)
    assert [(row.report, row.report.deliveries) for row in rows] == expected
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

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    topo = make_topology("fork", 7, [(0, 1), (1, 2), (2, 3), (1, 4), (1, 5), (5, 6)])
    oracle = PathOracle(topo)
    run = _walked_run(oracle, 0, 1, (3, 4, 6, 4), seed=5)
    block = HandoffBlock(max_moves=3)
    monkeypatch.setattr(experiment, "simulate_handoff", counted)
    rows = experiment._sweep_run(run, block, {})
    assert len(calls) == 2 * len(block.strategies)
    expected = _fresh_reports(oracle, run, block)
    assert [(row.report, row.report.deliveries) for row in rows] == expected


@pytest.mark.parametrize("loss", [0.05, 0.0])
def test_sweep_simulates_each_lossless_shape_once(monkeypatch, loss):
    calls = []
    for name in ("simulate_handoff", "simulate_mip_handoff"):
        real = getattr(experiment, name)

        def counted(*args, _real=real, **kwargs):
            calls.append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(experiment, name, counted)
    rows = experiment.handoff_sweep(experiment.execute_scenario(_small_sweep(loss)))
    if loss:
        assert len(calls) == len(rows)
    else:
        assert len(calls) < len(rows)


def test_lossless_kernel_draws_nothing(monkeypatch):
    """At loss 0 no hop consults the RNG, so the seed cannot reach the report."""
    class NoDraws(random.Random):
        def random(self):
            raise AssertionError("a loss draw at rate 0")

    monkeypatch.setattr(handoff, "random", SimpleNamespace(Random=NoDraws))
    cfg = HandoffConfig(advance_lead=40.0, **BASE)
    for strategy in STRATEGIES:
        assert simulate_handoff(SHAPE, cfg, strategy, seed=3) == simulate_handoff(
            SHAPE, cfg, strategy, seed=4)
    simulate_mip_handoff(SHAPE, cfg, seed=3)


# The chain 0-1-2-3-4 plus the link 1-5, cn 0: old 4 is three hops below node 1,
# new 5 one. With the HA at node 1, Mobile IP has the same triple.
TIE = (1, 3, 1)


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
    rep = simulate_handoff(TIE, HandoffConfig(per_hop_delay=10.0, packet_interval=interval))
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
    rep = simulate_mip_handoff(TIE, HandoffConfig(per_hop_delay=10.0, packet_interval=interval))
    log = list(rep.deliveries)
    assert log.index(first) + 1 == log.index(second)
    assert rep.out_of_order == 1


@pytest.mark.parametrize("simulate", [simulate_handoff, simulate_mip_handoff],
                         ids=["multicast", "mobile_ip"])
def test_same_instant_order_does_not_follow_float_rounding(simulate):
    """The chain's d = 10, I = 5 timeline scaled to d = 2.2, I = 1.1 keeps its order.

    The scaled times carry rounding noise (packet 7 leaves the CN at
    7.699999999999999 while packet 5 is one hop out at 7.7), yet ties are
    decided by the closed rule alone, so the log lists the same packets
    through the same locations and every counter is the same.
    """
    exact, scaled = (simulate(TIE, HandoffConfig(per_hop_delay=d, packet_interval=i))
                     for d, i in ((10.0, 5.0), (2.2, 1.1)))
    assert [(seq, via) for seq, _, via in scaled.deliveries] == [
        (seq, via) for seq, _, via in exact.deliveries]
    assert scaled.out_of_order == exact.out_of_order == 3
    assert scaled.packets_duplicated == exact.packets_duplicated
    assert scaled.packets_emitted == exact.packets_emitted


@pytest.mark.parametrize("simulate", [simulate_handoff, simulate_mip_handoff],
                         ids=["multicast", "mobile_ip"])
def test_an_inexact_timeline_commits_as_its_exact_twin(simulate):
    """With d = I the chain's packet 2 reaches F at the commit instant and takes the new leg.

    At 1.1 ms the float sums of that instant's two sides round apart, but
    times are exact ticks, so 1.1 ms reports what 10 ms does: the first
    packet through new two intervals after the trigger, and 12 emitted.
    """
    for step in (10.0, 1.1):
        rep = simulate(TIE, HandoffConfig(per_hop_delay=step, packet_interval=step))
        assert rep.handoff_latency / step == 2.0
        assert rep.packets_emitted == 12


def _outcome(rep):
    """A report's counters and the (seq, via) order of its log."""
    return (rep.packets_lost, rep.packets_duplicated, rep.out_of_order, rep.control_messages,
            rep.packets_emitted, rep.packets_delivered,
            [(seq, via) for seq, _, via in rep.deliveries])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9),
       scale=st.floats(min_value=1e-6, max_value=1e6),
       powers=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(4, 8), st.integers(-1, 7)),
       loss=st.sampled_from([0.0, 0.2]),
       strategy=st.sampled_from(STRATEGIES),
       overlap=st.sampled_from(OVERLAP_MODES))
def test_a_timeline_scaled_by_any_float_is_its_integer_twin_scaled(seed, scale, powers, loss,
                                                                    strategy, overlap):
    """Settings u·(2^i, 2^j, 2^k, 2^l) give the reports of (2^i, 2^j, 2^k, 2^l), times × u.

    The four are per_hop_delay, packet_interval, refresh_period and
    advance_lead (l = -1 stands for a lead of 0). Every counter and the
    log's order are the integer twin's, and every time is the twin's
    time × u, rounded once: no float sum of the scaled timeline decides an
    order.
    """
    mcast, mip = _shapes(*_random_move(random.Random(seed), 3, 12))
    twin = dict(zip(("per_hop_delay", "packet_interval", "refresh_period", "advance_lead"),
                    (2.0 ** p if p >= 0 else 0.0 for p in powers)))
    scaled = {name: value * scale for name, value in twin.items()}
    for simulate, shape, args in ((simulate_handoff, mcast, (strategy,)),
                                  (simulate_mip_handoff, mip, ())):
        exact, rep = (simulate(shape, HandoffConfig(message_loss_rate=loss, overlap=overlap,
                                                    **wire), *args, seed=seed)
                      for wire in (twin, scaled))
        assert _outcome(rep) == _outcome(exact)
        assert rep.trigger_ms == exact.trigger_ms * scale
        assert rep.handoff_latency == exact.handoff_latency * scale
        assert [t for _, t, _ in rep.deliveries] == [t * scale for _, t, _ in exact.deliveries]


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
    mcast, mip = _shapes(*_random_move(random.Random(seed), 3, 16))
    cfg = HandoffConfig(per_hop_delay=delay, packet_interval=interval, message_loss_rate=loss,
                        advance_lead=lead, overlap=overlap, refresh_period=refresh)
    rep = simulate_handoff(mcast, cfg, strategy, seed)
    mip_rep = simulate_mip_handoff(mip, cfg, seed)
    assert (rep, rep.deliveries) == heap_simulate_handoff(mcast, cfg, strategy, seed)
    assert (mip_rep, mip_rep.deliveries) == heap_simulate_mip_handoff(mip, cfg, seed)


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(*[st.integers(min_value=0, max_value=6)] * 3).filter(
           lambda s: s[0] + s[1] and s[0] + s[2] and s[1] + s[2]),
       overlap=st.sampled_from(OVERLAP_MODES),
       lead=st.sampled_from([0.0, 40.0, 100.0, 250.0]),
       refresh=st.sampled_from([7.0, 50.0, 120.0, 500.0, 60_000.0]),
       delay=st.sampled_from([0.1, 0.3, 3.3, 7.5, 10.0, 20.0, 40.0]),
       interval=st.sampled_from([0.3, 3.3, 5.0, 7.5, 10.0, 20.0]))
def test_lossless_reports_equal_the_closed_form_model(shape, overlap, lead, refresh, delay,
                                                      interval):
    """Every lossless report of both simulators equals `lossless_handoff_model`, log included."""
    cfg = HandoffConfig(per_hop_delay=delay, packet_interval=interval, advance_lead=lead,
                        overlap=overlap, refresh_period=refresh)
    for strategy in STRATEGIES:
        rep = simulate_handoff(shape, cfg, strategy)
        assert (rep, rep.deliveries) == lossless_handoff_model(shape, cfg, strategy)
    rep = simulate_mip_handoff(shape, cfg)
    assert (rep, rep.deliveries) == lossless_handoff_model(shape, cfg, "mobile_ip")


def test_the_lossless_benchmark_sweep_equals_the_model(monkeypatch):
    """All 3,108 rows of the reference suite's lossless sweep at seed 7 equal the model."""
    shapes = {}  # id(report) -> the hop triple it was simulated for
    for name in ("simulate_handoff", "simulate_mip_handoff"):
        def recorded(shape, *args, _real=getattr(experiment, name), **kwargs):
            rep = _real(shape, *args, **kwargs)
            shapes[id(rep)] = shape
            return rep

        monkeypatch.setattr(experiment, name, recorded)
    block = HandoffBlock()
    cfg = config.reference_suite_config(master_seed=7, seeds=1, handoff=block)
    rows = experiment.handoff_sweep(experiment.execute_scenario(experiment.trim_to_sweep(cfg)))
    assert len(rows) == 3108
    for row in rows:
        rep = row.report
        model = lossless_handoff_model(shapes[id(rep)], block, row.strategy)
        assert (rep, rep.deliveries) == model
