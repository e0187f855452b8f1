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
delays, those commit times and its loss draws. Times are exact integer
ticks (see `HandoffConfig`), so no float rounding orders two events.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

STRATEGIES = ("plain_join", "triple_join", "advance_join")
OVERLAP_MODES = ("make_before_break", "break_before_make")

_MAX_RETRIES = 25  # stop re-sending a control hop after this many losses
_TAIL_INTERVALS = 3  # emissions kept flowing after the first delivery via new
_GIVE_UP_REFRESH = 2  # abort window (in refresh periods) when the graft never completes
_MAX_SPAN = 1_000_000  # the longest setting, in packet intervals: a handoff emits about that many


class HandoffError(Exception):
    """Invalid handoff configuration or preconditions."""


@dataclass(frozen=True)
class HandoffConfig:
    """The wire every handoff of a sweep runs on. Times are milliseconds.

    Every strategy and both architectures share it; only the strategy and
    the loss seed differ from one simulation to the next, and the
    simulators take those as arguments. `advance_lead` is how long before
    the trigger an advance_join sends its join.

    `_ticks`, not a field, is (D, per_hop_delay, packet_interval,
    refresh_period, advance_lead), the four as whole ticks of 1/D ms: a
    float is a binary fraction, so the largest of their denominators D
    divides each of the others.
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
        if max(self.per_hop_delay, self.refresh_period, self.advance_lead) > (
                _MAX_SPAN * self.packet_interval):
            raise HandoffError(f"per_hop_delay, refresh_period and advance_lead must each be at "
                               f"most {_MAX_SPAN:,} packet intervals")
        ratios = [t.as_integer_ratio() for t in (self.per_hop_delay, self.packet_interval,
                                                 self.refresh_period, self.advance_lead)]
        unit = max(den for _, den in ratios)
        object.__setattr__(self, "_ticks", (unit, *(num * (unit // den) for num, den in ratios)))


@dataclass(slots=True)  # not frozen: a frozen __init__ costs more, once per simulation
class HandoffReport:
    """Outcome of one simulated handoff.

    trigger_ms is the relocation trigger. handoff_latency is the time from it
    to the first packet delivered through the new attachment point, which
    arrives at trigger_ms + handoff_latency (inf when none arrives within the
    simulated window). The counters come from `arrivals`, the seqs of the
    packets handed to the mobile through old and through new, each in
    sequence order. A packet leaves the CN at seq·interval and no hop waits,
    so packet seq reaches a location at seq·interval + that location's depth,
    its hop count from the CN times per_hop_delay: `interval` and `depths`
    (old, new) are in ticks of 1/unit ms. `deliveries` is built from them
    when read: every packet handed over, as (seq, time_ms, "old"/"new") in
    order, duplicates included, by `_handoff`'s same-instant rule.
    """

    trigger_ms: float
    handoff_latency: float
    packets_lost: int
    packets_duplicated: int
    out_of_order: int
    control_messages: int
    packets_emitted: int
    packets_delivered: int
    arrivals: tuple = field(repr=False)  # (old seqs, new seqs)
    unit: int = field(repr=False)
    interval: int = field(repr=False)
    depths: tuple = field(repr=False)  # (old depth, new depth)
    earlier_first: bool = field(repr=False)

    @property
    def deliveries(self) -> tuple[tuple[int, float, str], ...]:
        interval, sign = self.interval, 1 if self.earlier_first else -1
        log = sorted([(seq, seq * interval + depth, via)
                      for seqs, depth, via in zip(self.arrivals, self.depths, ("old", "new"))
                      for seq in seqs],
                     key=lambda e: (e[1], sign * e[0], e[2] == "new"))
        unit = self.unit
        return tuple([(seq, t / unit, via) for seq, t, via in log])


def _counts(old_seqs, new_seqs, interval, lag, earlier_first):
    """(packets delivered, first deliveries after a higher seq) of a report's `arrivals`.

    `lag` is the new depth minus the old one, in ticks. Each location hands
    packets over in sequence order, so only a first delivery through the
    slower location can be late: a packet the faster location did not hand
    over before, with a higher seq through the faster location before it.
    The earliest such seq is the next higher one there, `next`, which comes
    first iff (next - seq)·interval < |lag|, or = |lag| when the
    later-emitted of two packets at one instant goes first (not
    earlier_first). At lag 0 nothing is late: different seqs never meet.
    """
    slow, fast = (new_seqs, old_seqs) if lag > 0 else (old_seqs, new_seqs)
    window = abs(lag) + (not earlier_first)  # late iff (next - seq)·interval < window
    n, dup, late = len(fast), 0, 0
    for seq in slow:
        i = bisect_right(fast, seq)
        if i and fast[i - 1] == seq:
            dup += 1
        elif i < n and (fast[i] - seq) * interval < window:
            late += 1
    return len(old_seqs) + len(new_seqs) - dup, late


def _loss_stream(seed, kind, leg, hop):
    """The loss draws of `kind` messages over link `hop` of `leg`, in crossing order.

    A leg's links are numbered from its upper end: the CN for "above", the
    fork node for "old" and "new". A str seed is hashed with SHA-512, so a
    stream is the same on every run and platform, and no link's draws
    depend on another link's.
    """
    return random.Random(f"{seed}:{kind}:{leg}:{hop}")


def _draws(streams, seed, kind, leg, hop):
    """The `random` of `kind`'s stream over link `hop` of `leg`, kept in `streams` from first use."""
    draw = streams.get((kind, leg, hop))
    if draw is None:
        draw = streams[kind, leg, hop] = _loss_stream(seed, kind, leg, hop).random
    return draw


def _handoff(cfg, shape, redirect, strategy, seed) -> HandoffReport:
    """One handoff of either architecture, as a pass over the packets in emission order.

    `shape` is the legs' hop counts (above, old, new): packets go from the
    CN down "above" to the fork node F (the meet node, or the HA), then down
    "old". The join, or under `redirect` (Mobile IP) the registration, walks
    "new" up and commits at F at `committed`; from then on a packet at F goes
    down the new leg too, or instead under `redirect`. Without `redirect`,
    under make_before_break, the first delivery through new starts the prune.

    Times are ticks of `cfg._ticks`, converted to ms in the report. A batch
    is its packets' seqs alone: packet seq leaves the CN at seq·interval and
    no hop waits, so it is at depth h·d (h hops below the CN) at seq·interval
    + h·d, and a cut at an instant is one seq bound, a ceiling division:
    one per simulation for the commit at F and for the trigger at new and at
    old, and one per old-leg node for the prune's commit. Each link's loss
    stream, seeded from `seed`, draws once per packet in sequence order, so
    batches draw what single packets would; at loss 0 nothing draws. Two
    packets that meet at one instant (two deliveries, or a delivery and an
    emission) go earlier-emitted first iff per_hop_delay >= packet_interval;
    a packet's two copies at one instant go old first.

    The CN emits packets 0 .. emitted - 1. With `first` the first arrival through new, tail =
    3 intervals and last = (t0 + 2 refresh periods + tail) // interval (the last packet the
    give-up bound lets out), emitted = (first + tail) // interval + 1 if first < last·interval,
    or first = last·interval and earlier-emitted goes first; else last + 1.
    """
    if type(shape) is not tuple or len(shape) != 3:
        raise HandoffError(f"a shape is three hop counts >= 0, not {shape!r}")
    above, old_hops, new_hops = shape
    if not (type(above) is type(old_hops) is type(new_hops) is int
            and above >= 0 and old_hops >= 0 and new_hops >= 0):
        raise HandoffError(f"a shape is three hop counts >= 0, not {shape!r}")
    if not (above + old_hops and above + new_hops):
        raise HandoffError("the mobile cannot be at the correspondent node")
    if not old_hops + new_hops:
        raise HandoffError("handoff requires distinct old and new locations")
    if strategy not in STRATEGIES:
        raise HandoffError(f"unknown strategy {strategy!r}")
    unit, d, interval, refresh, lead = cfg._ticks
    rate, mbb, inf = cfg.message_loss_rate, cfg.overlap == "make_before_break", math.inf
    if strategy != "advance_join":
        lead = 0
    copies = 3 if strategy == "triple_join" else 1  # copies sent per control hop
    fork, old_depth, new_depth = above * d, (above + old_hops) * d, (above + new_hops) * d
    # relocate on an emission boundary once the pipeline to the old location is full,
    # and no earlier than `lead`: the control message leaves `lead` before it
    t0 = max((old_depth // interval + 2) * interval, -(-lead // interval) * interval)
    streams = {}  # (kind, leg, hop) -> that link's draws
    control = 0
    fork_seqs = []  # the packets F sends down the old leg
    new_seqs = []  # arrivals through new, in sequence order

    def relay(kind, leg, hops, t):
        """When `kind`, sent up `leg` at t, commits at F (inf: never); `copies` per hop and try."""
        nonlocal control
        if not rate:
            control += copies * hops
            return t + hops * d
        for hop in reversed(range(hops)):
            draw = _draws(streams, seed, kind, leg, hop)
            for _ in range(_MAX_RETRIES):
                control += copies
                if not all(draw() < rate for _ in range(copies)):  # one draw per copy
                    break
                t += refresh
            else:
                return inf
            t += d
        return t

    def down(leg, hops, seqs, stop=inf):
        """A batch's survivors down `leg`; none leaves a node at `stop`, the old leg's prune."""
        if rate:
            for hop in range(hops):
                if stop < inf:  # the lowest seq at node `hop` below F at stop or later
                    seqs = seqs[:bisect_left(seqs, -((fork + hop * d - stop) // interval))]
                if seqs:
                    draw = _draws(streams, seed, "data", leg, hop)
                    seqs = [seq for seq in seqs if draw() >= rate]
        elif hops and stop < inf:  # without loss the last node's cut is the one that binds
            seqs = seqs[:bisect_left(seqs, -((fork + (hops - 1) * d - stop) // interval))]
        return seqs

    def launch(first, end):
        """Packets first .. end - 1 leave the CN; at F from `committed` they take the new leg."""
        seqs = down("above", above, range(first, end)) if rate else range(first, end)
        cut = bisect_left(seqs, at_commit)
        fork_seqs.extend(seqs[:cut] if redirect else seqs)  # a redirect sends each packet one way
        seqs = down("new", new_hops, seqs[cut:]) if rate else seqs[cut:]
        new_seqs.extend(seqs[bisect_left(seqs, at_new):])

    committed = relay("registration" if redirect else "join", "new", new_hops, t0 - lead)
    # the lowest seqs at F at or after the commit, and at new at or after t0
    at_commit = -((fork - committed) // interval) if committed < inf else inf
    at_new = -((new_depth - t0) // interval)
    earlier_first = d >= interval
    give_up, tail = t0 + _GIVE_UP_REFRESH * refresh, _TAIL_INTERVALS * interval
    sure = min(max(t0, committed + new_hops * d), give_up) + tail  # each emission to it happens
    last = (give_up + tail) // interval  # the last emission the give-up bound allows
    sent = sure // interval + 1  # packets launched
    launch(0, sent)
    while not new_seqs and sent <= last:  # then one at a time up to the first new arrival
        launch(sent, sent + 1)
        sent += 1
    first = new_seqs[0] * interval + new_depth if new_seqs else inf
    emitted = (first + tail) // interval + 1 if (
        first < last * interval or first == last * interval and earlier_first) else last + 1
    if sent < emitted:  # seqs above every one launched: `first` stays the first new arrival
        launch(sent, emitted)
    prune = new_seqs and mbb and not redirect  # a redirect leaves the old leg nothing to prune
    pruned = relay("prune", "old", old_hops, first) if prune else inf
    # nothing else draws from the old leg's streams, so its fates can wait for the prune
    old_seqs = down("old", old_hops, fork_seqs, pruned)
    if not mbb:  # the mobile is at old before t0, at new from it
        old_seqs = old_seqs[:bisect_left(old_seqs, -((old_depth - t0) // interval))]

    delivered, late = _counts(old_seqs, new_seqs, interval, new_depth - old_depth, earlier_first)
    return HandoffReport(t0 / unit, (first - t0) / unit, emitted - delivered,  # in field order
                         len(old_seqs) + len(new_seqs) - delivered, late, control, emitted,
                         delivered, (old_seqs, new_seqs), unit, interval, (old_depth, new_depth),
                         earlier_first)


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
    return _handoff(cfg, shape, False, strategy, seed)


def simulate_mip_handoff(shape, cfg, seed=0) -> HandoffReport:
    """Mobile IP baseline of hop triple `shape`: (A, B old, B new), registration new -> HA.

    Packets always travel the A links CN -> HA, then down the tunnel to
    whichever location is registered when they reach the HA: the new one
    iff they get there at or after the registration commits. Registration
    has no copies and cannot precede arrival, so Mobile IP takes no
    strategy: the report is a function of the shape, the wire `cfg` and
    `seed`.
    """
    return _handoff(cfg, shape, True, "plain_join", seed)
