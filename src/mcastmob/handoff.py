"""Packet-level simulation of a single handoff, in batches of packets taken link by link.

Simulates the join/prune dynamics on the delivery tree, and the Mobile IP
registration baseline, with a fixed per-link delay and independent per-hop
loss on both data and control transmissions. Wireless attachment is
instantaneous and lossless: the mobile and its base station are co-located
(each base station is a router), so latency is a pure function of wired hop
counts, mirroring the hop-count route analysis. Each simulator takes a
handoff's hop triple and reads no node id or path.

Timeline conventions: the correspondent node emits a data packet every
`packet_interval` ms starting at t=0; the handoff trigger (the moment the
mobile relocates) is placed on an emission boundary after the delivery
pipeline has filled. State changes (join/prune arrivals, registrations)
apply before same-instant data forwarding. A control hop that loses all its
copies is re-sent one refresh period later, which is how soft state recovers
a lost join. There is no event queue: each control message is relayed first
to get its commit time, and each packet's fate then follows from the fixed
delays, those commit times and its loss draws.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import compress, repeat

STRATEGIES = ("plain_join", "triple_join", "advance_join")
OVERLAP_MODES = ("make_before_break", "break_before_make")

_MAX_RETRIES = 25  # stop re-sending a control hop after this many losses
_TAIL_INTERVALS = 3  # emissions kept flowing after the first delivery via new
_GIVE_UP_REFRESH = 2.0  # abort window (in refresh periods) when the graft never completes


class HandoffError(Exception):
    """Invalid handoff configuration or preconditions."""


@dataclass(frozen=True)
class HandoffConfig:
    """The wire every handoff of a sweep runs on. Times are milliseconds.

    Every strategy and both architectures share it; only the strategy and
    the loss seed differ from one simulation to the next, and the
    simulators take those as arguments. `advance_lead` is how long before
    the trigger an advance_join sends its join.
    """

    per_hop_delay: float = 10.0
    packet_interval: float = 20.0
    message_loss_rate: float = 0.0
    advance_lead: float = 100.0
    overlap: str = "make_before_break"
    refresh_period: float = 60_000.0

    def __post_init__(self):
        if not all(0 < t < math.inf for t in (self.per_hop_delay, self.packet_interval,
                                             self.refresh_period)):
            raise HandoffError("delays, intervals and refresh period must be positive and finite")
        if not (0.0 <= self.message_loss_rate < 1.0):
            raise HandoffError("message_loss_rate must be in [0, 1)")
        if self.overlap not in OVERLAP_MODES:
            raise HandoffError(f"unknown overlap mode {self.overlap!r}")
        if not (0 <= self.advance_lead < math.inf):
            raise HandoffError("advance_lead must be >= 0 and finite")


@dataclass(frozen=True)
class HandoffReport:
    """Outcome of one simulated handoff.

    trigger_ms is the relocation trigger. handoff_latency is the time from it
    to the first packet delivered through the new attachment point, which
    arrives at trigger_ms + handoff_latency (inf when none arrives within the
    simulated window). deliveries logs every packet handed to the mobile as
    (seq, time_ms, "old"/"new"), duplicates included.
    """

    trigger_ms: float
    handoff_latency: float
    packets_lost: int
    packets_duplicated: int
    out_of_order: int
    control_messages: int
    packets_emitted: int
    packets_delivered: int
    deliveries: tuple[tuple[int, float, str], ...]


def _loss_stream(seed, kind, leg, hop):
    """The loss draws of `kind` messages over link `hop` of `leg`, in crossing order.

    A leg's links are numbered from its upper end: the CN for "above", the
    fork node for "old" and "new". A str seed is hashed with SHA-512, so a
    stream is the same on every run and platform, and no link's draws
    depend on another link's.
    """
    return random.Random(f"{seed}:{kind}:{leg}:{hop}")


class _Pass:
    """One handoff of either architecture, as a pass over the packets in emission order.

    The handoff is three legs of `legs` hops: packets go from the CN down
    "above" to the fork node F (the meet node, or the HA), then down "old".
    The control message walks "new" up and commits at F at `committed`; from
    then on a packet at F goes down the new leg too, or instead under
    `redirect` (Mobile IP). `emit` sends batches whose crossings of a link
    follow their sequence numbers, so they draw what single packets would.
    The pass owns the per-link loss streams, seeded from `seed`, the control
    relay and the delivery log. At loss 0 nothing draws.

    Two packets that meet at one instant (two deliveries, or a delivery and
    an emission) go earlier-emitted first iff per_hop_delay >= packet_interval;
    a packet's two copies at one instant go old first.
    """

    def __init__(self, cfg: HandoffConfig, shape, redirect, strategy, seed):
        self.cfg, self.redirect, self.seed = cfg, redirect, seed
        self.legs = dict(zip(("above", "old", "new"), shape))
        self.lead = cfg.advance_lead if strategy == "advance_join" else 0.0
        # relocate on an emission boundary once the pipeline to the old location is full,
        # and no earlier than `lead`: the control message leaves `lead` before it
        interval, warm_hops = cfg.packet_interval, shape[0] + shape[1]
        self.t0 = max((math.floor(warm_hops * cfg.per_hop_delay / interval) + 2) * interval,
                      math.ceil(self.lead / interval) * interval)
        self.copies = 3 if strategy == "triple_join" else 1  # copies sent per control hop
        self.committed = math.inf  # when the control message commits at F
        self.earlier_first = cfg.per_hop_delay >= interval
        self.streams = {}  # (kind, leg, hop) -> that link's loss stream
        self.control = 0
        self.times: list[float] = []  # emission time of each packet
        self.at_fork = [], []  # (seqs, times) of the packets at F, kept unless redirecting
        self.arrivals = {"old": [], "new": []}  # (seq, time, via) in sequence order

    def stream(self, *key):
        streams = self.streams
        return streams.get(key) or streams.setdefault(key, _loss_stream(self.seed, *key))

    def lost(self, kind, leg, hop, copies=1):
        """True when every copy of a hop is lost; one draw per copy until one survives."""
        rate = self.cfg.message_loss_rate
        if not rate:
            return False
        dropped = self.stream(kind, leg, hop).random() < rate
        return dropped and (copies == 1 or self.lost(kind, leg, hop, copies - 1))

    def relay(self, kind, leg, t):
        """When control message `kind`, sent up `leg` from its end at t, commits at F (inf: never).

        A hop sends `copies` messages, re-sent a refresh period later while all are lost.
        """
        for hop in reversed(range(self.legs[leg])):
            for _ in range(_MAX_RETRIES):
                self.control += self.copies
                if not self.lost(kind, leg, hop, self.copies):
                    break
                t += self.cfg.refresh_period
            else:
                return math.inf
            t += self.cfg.per_hop_delay
        return t

    def down(self, leg, seqs, times, stop=math.inf):
        """The survivors of the batch (seqs, times) at the top of `leg`, and their times at its end.

        It crosses one link at a time, each link's stream drawing once per packet.
        A packet at a node at or after `stop` goes no further (times rise with seq).
        """
        d, rate = self.cfg.per_hop_delay, self.cfg.message_loss_rate
        for hop in range(self.legs[leg]):
            if times and times[-1] >= stop:
                cut = bisect_left(times, stop)
                seqs, times = seqs[:cut], times[:cut]
            if rate and seqs:
                draw = self.stream("data", leg, hop).random
                kept = [draw() >= rate for _ in seqs]
                seqs, times = list(compress(seqs, kept)), compress(times, kept)
            times = [t + d for t in times]
        return seqs, times

    def arrive(self, via, seqs, times):
        """The batch (seqs, times) reached location "old" or "new"."""
        if via == "new" or self.cfg.overlap != "make_before_break":
            cut = bisect_left(times, self.t0)  # the mobile is at old before t0, at new from it
            seqs, times = (seqs[cut:], times[cut:]) if via == "new" else (seqs[:cut], times[:cut])
        self.arrivals[via] += zip(seqs, times, repeat(via))

    def launch(self, seqs, times):
        """The batch (seqs, times) leaves the CN."""
        seqs, times = self.down("above", seqs, times)
        cut = bisect_left(times, self.committed)  # from here on, packets take the new leg
        if self.redirect:
            self.arrive("old", *self.down("old", seqs[:cut], times[:cut]))
        else:
            self.at_fork[0].extend(seqs)
            self.at_fork[1].extend(times)
        self.arrive("new", *self.down("new", seqs[cut:], times[cut:]))

    def emit(self):
        """Emit packets every interval until the deadline; the first new arrival time, or None.

        No packet arrives through new before t0 or the commit carried down the
        new leg, so each emission up to the earlier of that and the give-up
        deadline, plus the tail, happens: one batch. Each later one waits for
        those before it until a first new arrival fixes the rest: one batch.
        """
        interval, times, new = self.cfg.packet_interval, self.times, self.arrivals["new"]
        give_up = self.t0 + _GIVE_UP_REFRESH * self.cfg.refresh_period
        hops = repeat(self.cfg.per_hop_delay, self.legs["new"])
        earliest = max(self.t0, reduce(operator.add, hops, self.committed))
        sure = min(earliest, give_up) + _TAIL_INTERVALS * interval  # the earliest deadline
        sent, t = 0, 0.0  # packets launched, last emission
        while True:
            times.append(t)
            while t + interval <= sure:
                t += interval
                times.append(t)
            if not new:  # this emission's deadline waits on the packets so far
                self.launch(range(sent, len(times)), times[sent:])
                sent = len(times)
            # the tail starts once the first delivery through new has happened
            first = new[0][1] if new else math.inf
            known = first < t or first == t and self.earlier_first
            if not t + interval <= (first if known else give_up) + _TAIL_INTERVALS * interval:
                break
            t += interval
        if sent < len(times):
            self.launch(range(sent, len(times)), times[sent:])
        return new[0][1] if new else None

    def report(self) -> HandoffReport:
        old, new = self.arrivals["old"], self.arrivals["new"]
        log = sorted(old + new, key=operator.itemgetter(1))  # stable: old first at one instant
        earlier_first = self.earlier_first
        for i in range(1, len(log)):  # at most one old and one new share an instant
            (seq, t, _), (prev, t_prev, _) = log[i], log[i - 1]
            if t == t_prev and seq != prev and (seq < prev) == earlier_first:
                log[i - 1], log[i] = log[i], log[i - 1]
        delivered, top, late = set(), -1, 0  # first deliveries, their highest seq, those below it
        for seq, _, _ in log:
            if seq not in delivered:
                delivered.add(seq)
                if seq < top:
                    late += 1
                else:
                    top = seq
        emitted = len(self.times)
        return HandoffReport(
            trigger_ms=self.t0,
            handoff_latency=new[0][1] - self.t0 if new else math.inf,
            packets_lost=emitted - len(delivered),
            packets_duplicated=len(log) - len(delivered),
            out_of_order=late,
            control_messages=self.control,
            packets_emitted=emitted,
            packets_delivered=len(delivered),
            deliveries=tuple(log),
        )


def _handoff(cfg, shape, kind, redirect, strategy, seed) -> HandoffReport:
    """One handoff over its three legs (see `_Pass`), started by a `kind` control message.

    `shape` is the legs' hop counts (above, old, new): three ints >= 0, with
    the mobile never at the CN and its two locations distinct. Without
    `redirect`, under make_before_break, the first delivery through new
    starts the prune; once it commits at F, no node below F on the old leg
    forwards.
    """
    if not (type(shape) is tuple and len(shape) == 3
            and all(type(h) is int and h >= 0 for h in shape)):
        raise HandoffError(f"a shape is three hop counts >= 0, not {shape!r}")
    above, old, new = shape
    if not (above + old and above + new):
        raise HandoffError("the mobile cannot be at the correspondent node")
    if not old + new:
        raise HandoffError("handoff requires distinct old and new locations")
    if strategy not in STRATEGIES:
        raise HandoffError(f"unknown strategy {strategy!r}")
    p = _Pass(cfg, shape, redirect, strategy, seed)
    p.committed = p.relay(kind, "new", p.t0 - p.lead)
    first_new = p.emit()
    if not redirect:
        prune = first_new is not None and cfg.overlap == "make_before_break"
        pruned = p.relay("prune", "old", first_new) if prune else math.inf
        # nothing else draws from the old leg's streams, so its fates can wait for the prune
        p.arrive("old", *p.down("old", *p.at_fork, pruned))
    return p.report()


def simulate_handoff(shape, cfg, strategy="plain_join", seed=0) -> HandoffReport:
    """Simulate one multicast handoff of hop triple `shape`: (CN to meet node, meet node to old, L).

    Between moves the delivery tree is the shortest path from old to the CN
    (`routing.establish`), and packets follow it. The join walks the L links
    from new toward the CN until it meets that branch at the meet node, and
    grafts the walk whole when it gets there; a packet there at or after
    that instant also goes down the walk. Under make_before_break the first
    delivery through new starts the prune; once it commits at the meet
    node, no node from there down to old forwards.

    `strategy` is one of STRATEGIES, and `seed` seeds the loss streams (see
    `_loss_stream`). The report is a function of the shape, the wire `cfg`,
    the strategy and the seed, and no node id or path is read:
    `experiment.handoff_sweep` reads each move's shape off the run's samples.
    """
    return _handoff(cfg, shape, "join", False, strategy, seed)


def simulate_mip_handoff(shape, cfg, seed=0) -> HandoffReport:
    """Mobile IP baseline of hop triple `shape`: (A, B old, B new), registration new -> HA.

    Packets always travel the A links CN -> HA, then down the tunnel to
    whichever location is registered when they reach the HA: the new one
    iff they get there at or after the registration commits. Registration
    has no copies and cannot precede arrival, so Mobile IP takes no
    strategy: the report is a function of the shape, the wire `cfg` and
    `seed`.
    """
    return _handoff(cfg, shape, "registration", True, "plain_join", seed)
