"""The event-queue handoff simulator, kept as a reference for `mcastmob.handoff`.

This is the heap kernel the package used before its per-packet pass: one
event per packet per hop, popped by (time, control before data, rank,
insertion order). Times are exact integers of ticks, which the reference
converts itself (`_ticks`), and the report converts back to ms. A data
event's rank is its packet's seq when per_hop_delay >= packet_interval and
-seq otherwise, so of two packets at one instant the earlier-emitted goes
first exactly then; a packet's copies share a rank, and the meet node
forwards to its old-branch child first.

A handoff is given by its hop triple (`_layout`): the reference lays the
three legs out as nodes named (leg, index), the fork node being the last
node of "above", and forwards packets over that small tree. A link is
(leg, hop), hop counted from the leg's upper end. It shares only the
loss-stream seeding, `HandoffConfig` and `HandoffReport` with the package,
and takes the same arguments: the triple, the wire, the strategy
(multicast only) and the seed. Each returns (report, log). The report
keeps its log's seqs split by location and its layout's depths, as the
package's does, and the log is the heap's own (seq, time_ms, via) list, at
the times its events carried, in the order it handed packets over. A
report rebuilds its `deliveries` from its seqs and depths (a packet is at
depth h·d at seq·interval + h·d), so a test that finds both reports equal
and the package's `deliveries` equal to the log checks the pass, and that
law, against an independent event loop.
"""

from __future__ import annotations

import heapq
import math

from mcastmob.handoff import HandoffConfig, HandoffReport, _loss_stream

_CONTROL = 0  # heap priority: state changes beat same-time data
_DATA = 1
_MAX_RETRIES = 25  # stop re-sending a control hop after this many losses
_TAIL_INTERVALS = 3  # emissions kept flowing after the first delivery via new
_GIVE_UP_REFRESH = 2  # abort window (in refresh periods) when the graft never completes


def _ticks(cfg):
    """(unit, per_hop_delay, packet_interval, refresh_period, advance_lead) in ticks of 1/unit ms.

    unit is the least common multiple of the four settings' denominators as
    exact fractions, so each is a whole number of ticks and every sum of
    them is exact.
    """
    ratios = [x.as_integer_ratio() for x in (cfg.per_hop_delay, cfg.packet_interval,
                                             cfg.refresh_period, cfg.advance_lead)]
    unit = math.lcm(*(den for _, den in ratios))
    return (unit, *(num * unit // den for num, den in ratios))


class _Kernel:
    """The event machinery both simulators share.

    It owns the heap of (time, priority, rank, insertion order), CN emission
    up to the tail or give-up deadline, the per-link loss streams, the
    control relay with its refresh-period re-sends, and delivery bookkeeping
    gated by attachment. A simulator schedules each control message as a
    `relay` over its links, in crossing order, whose `on_done` commits the
    message's state change where it ends, and passes `run` a
    `launch(t, seq)` that sends packet `seq` out of the CN with `hop`.
    Scheduled callables are called as fn(t, *args).

    Without loss (rate 0) no hop makes a draw, so the seed is inert and the
    report is a function of the legs, the config and the strategy.
    """

    def __init__(self, cfg: HandoffConfig, seed, t0, copies):
        self.cfg = cfg
        self.unit, self.delay, self.interval, self.refresh, _ = _ticks(cfg)
        self.seed = seed
        self.t0 = t0
        self.copies = copies  # copies sent per control hop
        self.streams = {}  # (kind, leg, hop) -> that link's loss stream
        self.heap = []
        self.order = 0
        self.emitted = 0
        self.control = 0
        self.delivered: set[int] = set()
        self.log: list[tuple[int, int, str]] = []
        self.duplicates = 0
        self.out_of_order = 0
        self.max_seq = -1
        self.first_new: int | None = None
        self.on_first_new = None

    def push(self, time, prio, rank, fn, *args):
        heapq.heappush(self.heap, (time, prio, rank, self.order, fn, args))
        self.order += 1

    def rank(self, seq):
        """The heap rank of packet `seq`'s data events: see the module docstring."""
        return seq if self.delay >= self.interval else -seq

    def lost(self, kind, link, copies=1):
        """True when every copy of a hop is lost; one draw per copy until one survives."""
        rate = self.cfg.message_loss_rate
        if not rate:
            return False
        key = (kind, *link)
        rng = self.streams.get(key)
        if rng is None:
            rng = self.streams[key] = _loss_stream(self.seed, kind, *link)
        return all(rng.random() < rate for _ in range(copies))

    def hop(self, t, seq, link, fn, *args):
        """Packet `seq` crosses `link` unless lost; fn(t', *args) runs on arrival."""
        if not self.lost("data", link):
            self.push(t + self.delay, _DATA, self.rank(seq), fn, *args)

    def relay(self, t, kind, links, on_done, idx=0, attempt=0):
        """Control message `kind` is before links[idx]; on_done(t) runs once it crossed them all.

        A hop sends `copies` messages and is re-sent a refresh period later
        while every copy is lost.
        """
        if idx == len(links):
            on_done(t)
            return
        self.control += self.copies
        if not self.lost(kind, links[idx], self.copies):
            self.push(t + self.delay, _CONTROL, 0, self.relay, kind, links, on_done, idx + 1)
        elif attempt + 1 < _MAX_RETRIES:
            self.push(t + self.refresh, _CONTROL, 0, self.relay, kind, links, on_done,
                      idx, attempt + 1)

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
            self.delivered.add(seq)
        if via == "new" and self.first_new is None:
            self.first_new = t
            if self.on_first_new is not None:
                self.on_first_new(t)

    def _emit(self, t, seq, launch):
        self.emitted += 1
        launch(t, seq)
        interval = self.interval
        if self.first_new is not None:
            deadline = self.first_new + _TAIL_INTERVALS * interval
        else:
            deadline = self.t0 + _GIVE_UP_REFRESH * self.refresh + _TAIL_INTERVALS * interval
        if t + interval <= deadline:
            self.push(t + interval, _DATA, self.rank(seq + 1), self._emit, seq + 1, launch)

    def run(self, launch, hops) -> tuple[HandoffReport, tuple]:
        """(report, delivery log): the log in ms, in the order the heap handed the packets over.

        `hops` is the hop count from the CN to the old and to the new location.
        """
        self.push(0, _DATA, self.rank(0), self._emit, 0, launch)
        heap = self.heap
        while heap:
            t, _, _, _, fn, args = heapq.heappop(heap)
            fn(t, *args)
        first_new, unit = self.first_new, self.unit
        # (old seqs, new seqs), each in the log's order
        arrivals = tuple([seq for seq, _, via in self.log if via == loc] for loc in ("old", "new"))
        report = HandoffReport(
            trigger_ms=self.t0 / unit,
            handoff_latency=(first_new - self.t0) / unit if first_new is not None else math.inf,
            packets_lost=self.emitted - len(self.delivered),
            packets_duplicated=self.duplicates,
            out_of_order=self.out_of_order,
            control_messages=self.control,
            packets_emitted=self.emitted,
            packets_delivered=len(self.delivered),
            arrivals=arrivals,
            unit=unit,
            interval=self.interval,
            depths=tuple(h * self.delay for h in hops),
            earlier_first=self.delay >= self.interval,
        )
        return report, tuple((seq, t / unit, via) for seq, t, via in self.log)


def _trigger_time(cfg, warm_hops, lead):
    """The trigger in ticks, for a join sent `lead` ticks before it."""
    _, delay, interval, _, _ = _ticks(cfg)
    # relocate on an emission boundary once the pipeline to the old location is full
    t0 = (warm_hops * delay // interval + 2) * interval
    if lead > 0:
        t0 = max(t0, -(-lead // interval) * interval)
    return t0


def _layout(shape):
    """The legs of hop triple `shape` as node lists, each from its upper end down.

    "above" runs from the CN to the fork node F; "old" and "new" start at F.
    """
    above = [("above", i) for i in range(shape[0] + 1)]
    fork = above[-1]
    return {"above": above,
            "old": [fork] + [("old", i) for i in range(1, shape[1] + 1)],
            "new": [fork] + [("new", i) for i in range(1, shape[2] + 1)]}


def _links(nodes, leg):
    """(upper node, lower node, link) for each link of `leg`, from the top down."""
    return [(up, down, (leg, hop)) for hop, (up, down) in enumerate(zip(nodes, nodes[1:]))]


def simulate_handoff(shape, cfg, strategy="plain_join", seed=0) -> tuple[HandoffReport, tuple]:
    """Simulate the multicast handoff of hop triple (CN to meet node, meet node to old, L).

    Packets follow a forwarding map that starts as the old branch, CN to
    old. The join grafts the walk, the new leg, whole when it reaches the
    meet node (no packet enters the walk before its top link exists). Under
    make_before_break the first delivery through new starts the prune,
    which drops the old branch below the meet node when it gets there.
    """
    legs = _layout(shape)
    cn, old, new = legs["above"][0], legs["old"][-1], legs["new"][-1]
    fwd = {}  # node -> [(child, link)], in forwarding order
    for up, child, link in _links(legs["above"], "above") + _links(legs["old"], "old"):
        fwd.setdefault(up, []).append((child, link))
    lead = _ticks(cfg)[4] if strategy == "advance_join" else 0
    k = _Kernel(cfg, seed, _trigger_time(cfg, shape[0] + shape[1], lead),
                3 if strategy == "triple_join" else 1)

    def arrive(t, node, seq):
        # the old side is gated by attachment alone: with make_before_break the
        # mobile keeps accepting in-flight packets while the prune tears the
        # branch down, which is what makes the handoff lossless
        if node == old:
            k.deliver(t, seq, "old")
        elif node == new:
            k.deliver(t, seq, "new")
        for child, link in fwd.get(node, ()):
            k.hop(t, seq, link, arrive, child, seq)

    def grafted(t):
        # a grafted child goes after the old-branch one
        for up, child, link in _links(legs["new"], "new"):
            fwd.setdefault(up, []).append((child, link))

    def pruned(t):
        for up, child, link in _links(legs["old"], "old"):
            fwd[up].remove((child, link))

    up_old = [link for _, _, link in reversed(_links(legs["old"], "old"))]
    up_new = [link for _, _, link in reversed(_links(legs["new"], "new"))]
    if cfg.overlap == "make_before_break":
        k.on_first_new = lambda t: k.push(t, _CONTROL, 0, k.relay, "prune", up_old, pruned)
    k.push(k.t0 - lead, _CONTROL, 0, k.relay, "join", up_new, grafted)
    return k.run(lambda t, seq: arrive(t, cn, seq),
                 [len(legs["above"]) + len(legs[loc]) - 2 for loc in ("old", "new")])


def simulate_mip_handoff(shape, cfg, seed=0) -> tuple[HandoffReport, tuple]:
    """Mobile IP baseline of hop triple (A, B old, B new): registration new -> HA.

    Packets always travel the A links CN -> HA, then down the tunnel to
    whichever location is registered when they reach the HA. It takes no
    strategy: registration has no copies and cannot precede arrival.
    """
    a, b_old, b_new = shape
    path_a = [("above", hop) for hop in range(a)]
    tunnels = {"old": [("old", hop) for hop in range(b_old)],
               "new": [("new", hop) for hop in range(b_new)]}
    k = _Kernel(cfg, seed, _trigger_time(cfg, a + b_old, 0), 1)
    registered = False

    def along(t, links, idx, seq, via):
        if idx < len(links):
            k.hop(t, seq, links[idx], along, links, idx + 1, seq, via)
        elif via is None:  # at the HA: tunnel toward the registered location
            via = "new" if registered else "old"
            along(t, tunnels[via], 0, seq, via)
        else:
            k.deliver(t, seq, via)

    def registered_at(t):
        nonlocal registered
        registered = True

    k.push(k.t0, _CONTROL, 0, k.relay, "registration", tunnels["new"][::-1], registered_at)
    return k.run(lambda t, seq: along(t, path_a, 0, seq, None),
                 (len(path_a) + len(tunnels["old"]), len(path_a) + len(tunnels["new"])))
