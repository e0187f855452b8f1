"""Packet-level discrete-event simulation of a single handoff.

Simulates the join/prune dynamics on the delivery tree, and the Mobile IP
registration baseline, with a fixed per-link delay and independent per-hop
loss on both data and control transmissions. Wireless attachment is
instantaneous and lossless: the mobile and its base station are co-located
(each base station is a router), so latency is a pure function of wired hop
counts, mirroring the hop-count route analysis.

Timeline conventions: the correspondent node emits a data packet every
`packet_interval` ms starting at t=0; the handoff trigger (the moment the
mobile relocates) is placed on an emission boundary after the delivery
pipeline has filled. State changes (join/prune arrivals, registrations)
apply before same-instant data forwarding. A control hop that loses all its
copies is re-sent one refresh period later, which is how soft state recovers
a lost join.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass

STRATEGIES = ("plain_join", "triple_join", "advance_join")
OVERLAP_MODES = ("make_before_break", "break_before_make")

_CONTROL = 0  # heap priority: state changes beat same-time data
_DATA = 1
_MAX_RETRIES = 25  # stop re-sending a control hop after this many losses
_TAIL_INTERVALS = 3  # emissions kept flowing after the first delivery via new
_GIVE_UP_REFRESH = 2.0  # abort window (in refresh periods) when the graft never completes


class HandoffError(Exception):
    """Invalid handoff configuration or preconditions."""


@dataclass(frozen=True)
class HandoffConfig:
    """Wire-level knobs for one handoff simulation. Times are milliseconds."""

    per_hop_delay: float = 10.0
    packet_interval: float = 20.0
    message_loss_rate: float = 0.0
    strategy: str = "plain_join"
    advance_lead: float = 0.0
    overlap: str = "make_before_break"
    refresh_period: float = 60_000.0
    seed: int = 0

    def __post_init__(self):
        if self.per_hop_delay <= 0 or self.packet_interval <= 0 or self.refresh_period <= 0:
            raise HandoffError("delays, intervals and refresh period must be positive")
        if not (0.0 <= self.message_loss_rate < 1.0):
            raise HandoffError("message_loss_rate must be in [0, 1)")
        if self.strategy not in STRATEGIES:
            raise HandoffError(f"unknown strategy {self.strategy!r}")
        if self.overlap not in OVERLAP_MODES:
            raise HandoffError(f"unknown overlap mode {self.overlap!r}")
        if self.advance_lead < 0:
            raise HandoffError("advance_lead must be >= 0")


@dataclass(frozen=True)
class HandoffReport:
    """Outcome of one simulated handoff.

    handoff_latency is the time from the relocation trigger to the first
    packet delivered through the new attachment point (inf when it never
    happens within the simulated window). control_path_hops is the graft
    length L for the multicast architecture and the registration distance B
    for Mobile IP. deliveries logs every packet handed to the mobile as
    (seq, time_ms, "old"/"new"), duplicates included.
    """

    strategy: str
    trigger_ms: float
    handoff_latency: float
    packets_lost: int
    packets_duplicated: int
    out_of_order: int
    control_messages: int
    control_path_hops: int
    packets_emitted: int
    packets_delivered: int
    first_new_delivery_ms: float | None
    deliveries: tuple[tuple[int, float, str], ...]


class _Kernel:
    """The event machinery both simulators share.

    It owns the heap of (time, priority, insertion order), CN emission up to
    the tail or give-up deadline, the seeded per-hop loss draw, control
    sends with their refresh-period re-sends, and delivery bookkeeping gated
    by attachment. A simulator starts its control chain with `push` and
    passes `run` a `launch(t, seq)` that sends packet `seq` out of the CN
    with `hop`. Scheduled callables are called as fn(t, *args).
    """

    def __init__(self, cfg: HandoffConfig, t0, copies, loss_fn):
        self.cfg = cfg
        self.t0 = t0
        self.copies = copies  # copies sent per control hop
        self.loss_fn = loss_fn
        self.rng = random.Random(cfg.seed)
        self.heap = []
        self.order = 0
        self.emitted = 0
        self.control = 0
        self.delivered: dict[int, float] = {}
        self.log: list[tuple[int, float, str]] = []
        self.duplicates = 0
        self.out_of_order = 0
        self.max_seq = -1
        self.first_new: float | None = None
        self.on_first_new = None

    def push(self, time, prio, fn, *args):
        heapq.heappush(self.heap, (time, prio, self.order, fn, args))
        self.order += 1

    def lost(self, kind, src, dst, attempt=0, copies=1):
        """True when every copy of a hop is lost; one draw per copy until one survives."""
        if self.loss_fn is not None:
            return self.loss_fn(kind, src, dst, attempt)
        rate = self.cfg.message_loss_rate
        if copies == 1:
            return self.rng.random() < rate
        return all(self.rng.random() < rate for _ in range(copies))

    def hop(self, t, src, dst, fn, *args):
        """A data packet crosses src -> dst unless lost; fn(t', *args) runs on arrival."""
        if not self.lost("data", src, dst):
            self.push(t + self.cfg.per_hop_delay, _DATA, fn, *args)

    def send(self, t, kind, src, dst, attempt, on_arrive, *args):
        """A control hop; re-sent a refresh period later while every copy is lost."""
        self.control += self.copies
        if not self.lost(kind, src, dst, attempt, self.copies):
            self.push(t + self.cfg.per_hop_delay, _CONTROL, on_arrive, *args)
        elif attempt + 1 < _MAX_RETRIES:
            self.push(t + self.cfg.refresh_period, _CONTROL, self.send,
                      kind, src, dst, attempt + 1, on_arrive, *args)

    def relay(self, t, kind, path, idx, on_hop):
        """Control message `kind` has reached path[idx]: on_hop(t, idx), then the next hop."""
        on_hop(t, idx)
        if idx + 1 < len(path):
            self.send(t, kind, path[idx], path[idx + 1], 0, self.relay, kind, path, idx + 1, on_hop)

    def deliver(self, t, seq, via):
        """Hand packet `seq` to the mobile through "old" or "new" if attached there."""
        if via == "new":
            if t < self.t0:
                return
        elif t >= self.t0 and self.cfg.overlap != "make_before_break":
            return
        self.log.append((seq, t, via))
        if seq in self.delivered:
            self.duplicates += 1
        else:
            if seq < self.max_seq:
                self.out_of_order += 1
            self.max_seq = max(self.max_seq, seq)
            self.delivered[seq] = t
        if via == "new" and self.first_new is None:
            self.first_new = t
            if self.on_first_new is not None:
                self.on_first_new(t)

    def _emit(self, t, seq, launch):
        self.emitted += 1
        launch(t, seq)
        interval = self.cfg.packet_interval
        if self.first_new is not None:
            deadline = self.first_new + _TAIL_INTERVALS * interval
        else:
            deadline = self.t0 + _GIVE_UP_REFRESH * self.cfg.refresh_period + _TAIL_INTERVALS * interval
        if t + interval <= deadline:
            self.push(t + interval, _DATA, self._emit, seq + 1, launch)

    def run(self, launch, strategy, control_path_hops) -> HandoffReport:
        self.push(0.0, _DATA, self._emit, 0, launch)
        heap = self.heap
        while heap:
            t, _, _, fn, args = heapq.heappop(heap)
            fn(t, *args)
        first_new = self.first_new
        return HandoffReport(
            strategy=strategy,
            trigger_ms=self.t0,
            handoff_latency=first_new - self.t0 if first_new is not None else math.inf,
            packets_lost=self.emitted - len(self.delivered),
            packets_duplicated=self.duplicates,
            out_of_order=self.out_of_order,
            control_messages=self.control,
            control_path_hops=control_path_hops,
            packets_emitted=self.emitted,
            packets_delivered=len(self.delivered),
            first_new_delivery_ms=first_new,
            deliveries=tuple(self.log),
        )


def _trigger_time(cfg, warm_hops):
    # relocate on an emission boundary once the pipeline to the old location is full
    t0 = (math.floor(warm_hops * cfg.per_hop_delay / cfg.packet_interval) + 2) * cfg.packet_interval
    if cfg.strategy == "advance_join" and cfg.advance_lead > 0:
        t0 = max(t0, math.ceil(cfg.advance_lead / cfg.packet_interval) * cfg.packet_interval)
    return t0


def simulate_handoff(topo, oracle, tree, old, new, cfg, loss_fn=None) -> HandoffReport:
    """Simulate one handoff old -> new on the current delivery tree.

    Packets follow the tree's forwarding map; the join grafts the branch
    [new, ..., meet] hop by hop, and under make_before_break the first
    delivery through new starts the prune of the old branch. The tree is
    read, never mutated. `loss_fn(kind, src, dst, attempt) -> bool`
    optionally overrides the seeded per-hop loss draw (test hook).
    """
    cn = tree.cn
    if tree.leaves != {old}:
        raise HandoffError("old must be the tree's only joined leaf")
    if new == cn:
        raise HandoffError("cannot hand off to the correspondent node")
    if new == old:
        raise HandoffError("handoff requires distinct old and new locations")
    oracle._check(new)

    path_old = tree.branch_to_root(old)  # [old, ..., cn]
    walk = tree.graft_walk(new)  # [new, ..., meet]
    fwd: dict[int, set[int]] = {}
    for child in path_old[:-1]:
        fwd.setdefault(tree.parent[child], set()).add(child)
    k = _Kernel(cfg, _trigger_time(cfg, len(path_old) - 1),
                3 if cfg.strategy == "triple_join" else 1, loss_fn)

    def arrive(t, node, seq):
        # the old side is gated by attachment alone: with make_before_break the
        # mobile keeps accepting in-flight packets while the prune tears the
        # branch down, which is what makes the handoff lossless
        if node == old:
            k.deliver(t, seq, "old")
        elif node == new:
            k.deliver(t, seq, "new")
        for child in sorted(fwd.get(node, ())):
            k.hop(t, node, child, arrive, child, seq)

    def grafted(t, idx):
        if idx:
            fwd.setdefault(walk[idx], set()).add(walk[idx - 1])

    # The prune walks up toward the CN collecting the branch to remove and
    # commits the teardown only when it reaches the fork (a node with other
    # downstream state, the new location, or the CN). Packets already past
    # the fork keep draining to the old base station, so a lossless channel
    # with make_before_break never drops a packet.
    pending: list[tuple[int, int]] = []

    def prune_at(t, node, from_child=None):
        if from_child is not None:
            pending.append((node, from_child))
        live = fwd.get(node, set()) - {c for n, c in pending if n == node}
        if live or node == cn or node == new:
            for holder, child in pending:
                fwd.get(holder, set()).discard(child)
            return
        up = tree.parent[node]
        k.send(t, "prune", node, up, 0, prune_at, up, node)

    if cfg.overlap == "make_before_break":
        k.on_first_new = lambda t: k.push(t, _CONTROL, prune_at, old)
    lead = cfg.advance_lead if cfg.strategy == "advance_join" else 0.0
    k.push(k.t0 - lead, _CONTROL, k.relay, "join", walk, 0, grafted)
    return k.run(lambda t, seq: arrive(t, cn, seq), cfg.strategy, len(walk) - 1)


def simulate_mip_handoff(oracle, cn, ha, old, new, cfg, loss_fn=None) -> HandoffReport:
    """Mobile IP baseline: registration new -> HA, then packets redirect at the HA.

    Packets always travel CN -> HA, then down the tunnel to whichever
    location is registered when they reach the HA. The advance_join
    strategy has no Mobile IP analogue (registration cannot precede
    arrival) and is treated as a plain registration; copies are always 1.
    """
    for node in (cn, ha, old, new):
        oracle._check(node)
    if new == old:
        raise HandoffError("handoff requires distinct old and new locations")
    if new == cn:
        raise HandoffError("cannot hand off to the correspondent node")

    path_a = oracle.shortest_path(cn, ha)
    tunnels = {"old": oracle.shortest_path(ha, old), "new": oracle.shortest_path(ha, new)}
    reg_path = oracle.shortest_path(new, ha)
    k = _Kernel(cfg, _trigger_time(cfg, len(path_a) - 1 + len(tunnels["old"]) - 1), 1, loss_fn)
    registered = False

    def along(t, path, idx, seq, via):
        if idx + 1 < len(path):
            k.hop(t, path[idx], path[idx + 1], along, path, idx + 1, seq, via)
        elif via is None:  # at the HA: tunnel toward the registered location
            via = "new" if registered else "old"
            along(t, tunnels[via], 0, seq, via)
        else:
            k.deliver(t, seq, via)

    def registered_at(t, idx):
        nonlocal registered
        if idx == len(reg_path) - 1:
            registered = True

    k.push(k.t0, _CONTROL, k.relay, "registration", reg_path, 0, registered_at)
    return k.run(lambda t, seq: along(t, path_a, 0, seq, None), "mobile_ip", len(reg_path) - 1)
