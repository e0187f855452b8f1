"""Shared fixtures and independent oracles for the test suite.

The helpers here deliberately avoid the package's own graph code: BFS and
random graph generation are re-implemented so oracle-equivalence tests mean
something, `validate_tree` checks tree path lengths against that BFS,
`run_walk_model` computes a run's samples from its own parent tree, and
`lossless_handoff_model` computes a lossless handoff from its rules alone.
Test topologies are built from their edge lists by `load_edge_list`.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import accumulate, count

import pytest
from hypothesis import Phase, settings

from mcastmob.handoff import HandoffReport
from mcastmob.topology import load_edge_list

# `tools/mutate.py` runs each mutant under this profile: a failing example
# still fails the test, but is not shrunk, so a mutant that fails every
# example costs one example, not a shrink.
settings.register_profile("mutation", phases=(Phase.explicit, Phase.reuse, Phase.generate))


def bfs_dist(adj, source):
    """Plain deque BFS over an adjacency structure; -1 for unreachable."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def lossless_handoff_model(shape, cfg, strategy):
    """(report, delivery log) of a lossless handoff, from its hop triple, wire and strategy.

    `strategy` is a multicast strategy or "mobile_ip". Written from the
    handoff's rules, not from `mcastmob.handoff`, on ticks of its own: 1/unit
    ms, unit the least common multiple of the settings' denominators.
    - Packet seq leaves the CN at seq·interval and no hop waits, so it is at
      depth h·d (h hops below the CN) at seq·interval + h·d.
    - The trigger t0 is two intervals past the last emission boundary at or
      before old's depth (when its pipeline fills), and no earlier than the
      join's lead.
    - The join (Mobile IP: the registration) leaves new at t0 - lead and
      commits at the fork node F after the new leg's hops. A packet at F at or
      after the commit takes the new leg too (Mobile IP: instead).
    - Under make_before_break the first delivery through new sends a prune up
      the old leg (multicast only). From its commit at F no old-leg node
      forwards.
    - The mobile takes packets at new from t0, and at old before t0, or at
      any time under make_before_break.
    - The CN emits one packet at a time. It emits the next iff that comes at
      most three intervals after the first delivery through new, once that
      has happened, or else after t0 + 2 refresh periods. At one instant the
      earlier-emitted of two packets goes first iff d >= interval, and a
      packet's copy at old goes before its copy at new.
    """
    above, old_hops, new_hops = shape
    ratios = [x.as_integer_ratio() for x in (cfg.per_hop_delay, cfg.packet_interval,
                                             cfg.refresh_period, cfg.advance_lead)]
    unit = math.lcm(*(den for _, den in ratios))
    d, interval, refresh, lead = (num * unit // den for num, den in ratios)
    mip, earlier_first = strategy == "mobile_ip", d >= interval
    lead = lead if strategy == "advance_join" else 0
    copies = 3 if strategy == "triple_join" else 1
    fork, old_depth, new_depth = above * d, (above + old_hops) * d, (above + new_hops) * d
    t0 = max((old_depth // interval + 2) * interval, -(-lead // interval) * interval)
    commit = t0 - lead + new_hops * d
    control = copies * new_hops

    def to_new(seq):
        return seq * interval + fork >= commit and seq * interval + new_depth >= t0

    first = next(seq for seq in count() if to_new(seq)) * interval + new_depth
    seq, give_up = 0, t0 + 2 * refresh  # seq: the packet just emitted, at seq·interval
    while True:
        t = seq * interval
        happened = first < t or first == t and earlier_first
        if t + interval > (first if happened else give_up) + 3 * interval:
            break
        seq += 1
    emitted = seq + 1
    new_seqs = [seq for seq in range(emitted) if to_new(seq)]
    pruned = math.inf
    if new_seqs and not mip and cfg.overlap == "make_before_break":
        pruned, control = first + old_hops * d, control + copies * old_hops

    def at_old(seq):
        if mip:  # the HA tunnels it to old iff it gets there before the registration
            reached = seq * interval + fork < commit
        else:
            reached = all(seq * interval + fork + h * d < pruned for h in range(old_hops))
        return reached and (cfg.overlap == "make_before_break" or seq * interval + old_depth < t0)

    old_seqs = [seq for seq in range(emitted) if at_old(seq)]
    legs = (old_seqs, old_depth, "old"), (new_seqs, new_depth, "new")
    log = sorted([(seq * interval + depth, seq, via) for seqs, depth, via in legs for seq in seqs],
                 key=lambda e: (e[0], e[1] if earlier_first else -e[1], e[2] == "new"))
    delivered, top, late = set(), -1, 0
    for _, seq, _ in log:
        late += seq not in delivered and seq < top
        delivered.add(seq)
        top = max(top, seq)
    report = HandoffReport(
        trigger_ms=t0 / unit,
        handoff_latency=(first - t0) / unit if new_seqs else math.inf,
        packets_lost=emitted - len(delivered),
        packets_duplicated=len(log) - len(delivered),
        out_of_order=late,
        control_messages=control,
        packets_emitted=emitted,
        packets_delivered=len(delivered),
        arrivals=(old_seqs, new_seqs),
        unit=unit,
        interval=interval,
        depths=(old_depth, new_depth),
        earlier_first=earlier_first,
    )
    return report, tuple((seq, t / unit, via) for t, seq, via in log)


def validate_tree(tree):
    """Full structural audit of a MulticastTree; path lengths come from bfs_dist.

    The branch [leaf, ..., CN] and the cut a pending prune will remove are
    walks over topology edges with no node repeated, the cut hangs off a
    branch node, exactly their nodes hold (S,G) state, and the branch is a
    shortest path.
    """
    cn, adj = tree.cn, tree.oracle.topo.adj
    branch = tree.branch
    cut = tree.pending[1] if tree.pending is not None else []
    assert branch[-1] == cn, f"branch {branch} does not end at the CN"
    for walk in (branch, cut):
        for a, b in zip(walk, walk[1:]):
            assert b in adj[a], f"link {a}-{b} is not a topology edge"
    assert len(set(branch + cut)) == len(branch) + len(cut), f"a node repeats in {branch}, {cut}"
    if cut:
        assert tree.pending[0] == cut[0], "the pending leaf does not head the cut"
        assert any(b in adj[cut[-1]] for b in branch), f"cut {cut} hangs off no branch node"
    assert tree.nodes == set(branch + cut), f"stale (S,G) state: {tree.nodes ^ set(branch + cut)}"
    assert len(branch) - 1 == bfs_dist(adj, cn)[branch[0]], f"branch {branch} is not shortest"


def run_walk_model(adj, cn, ha, steps):
    """(a, b, c, added, removed) hops of each step of a run, as `run_scenario` samples them.

    Every join walks the lowest-id shortest path toward the CN, so the tree
    always lies inside the CN's lowest-id parent tree, and each move is an LCA
    query in it: C = depth(new), added = depth(new) - depth(LCA(old, new)) and
    removed = depth(old) - depth(LCA(old, new)). Step 0 establishes the branch
    to steps[0]. Depths and A, B come from `bfs_dist`; the parent is the lowest
    id one level up, whatever order `adj` lists it in.
    """
    depth, from_ha = bfs_dist(adj, cn), bfs_dist(adj, ha)
    parent = {u: min(w for w in adj[u] if depth[w] == d - 1) for u, d in depth.items() if d}

    def meet(u, v):
        while depth[u] > depth[v]:
            u = parent[u]
        while depth[v] > depth[u]:
            v = parent[v]
        while u != v:
            u, v = parent[u], parent[v]
        return depth[u]

    first = steps[0]
    out = [(depth[ha], from_ha[first], depth[first], depth[first], 0)]
    for old, new in zip(steps, steps[1:]):
        top = meet(old, new)
        out.append((depth[ha], from_ha[new], depth[new], depth[new] - top, depth[old] - top))
    return out


def random_connected_edges(rng, n, extra):
    """Independent random connected graph builder: chain backbone + extras."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i - 1], order[i]))) for i in range(1, n)}
    tries = 0
    while len(edges) < n - 1 + extra and tries < 50 * (extra + 1):
        tries += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add(tuple(sorted((u, v))))
    return sorted(edges)


def make_topology(name, n, edges):
    """The topology of `edges` on nodes 0..n-1, built as the program loads edge lists."""
    topo = load_edge_list("".join(f"{u} {v}\n" for u, v in edges), name=name)
    assert topo.n == n, f"{n} nodes named, {topo.n} loaded"
    return topo


def edges_of(topo):
    """Every link once as (u, v) with u < v, in sorted order."""
    return tuple((u, v) for u, nbrs in enumerate(topo.adj) for v in nbrs if u < v)


def cluster_blocks(params):
    """The (start, stop) id blocks of a clustered generator's stub or leaf clusters, in id order.

    Written from the layout the generators promise, not from their code:
    the core takes ids 0 .. core-1, and the n - core ids past it are cut
    into max(1, round((n - core) / stub_size)) contiguous blocks whose sizes
    differ by at most one, the larger first.
    """
    n = params.node_count
    if params.kind == "transit_stub":
        core = max(1, min(round(n / (1 + params.stubs_per_transit * params.stub_size)), n // 2))
    else:
        core = max(1, min(round(math.sqrt(n) / 3), n // 4))
    rest = n - core
    count = max(1, round(rest / params.stub_size))
    stops = list(accumulate((rest // count + (i < rest % count) for i in range(count)),
                            initial=core))
    return [(lo, hi) for lo, hi in zip(stops, stops[1:]) if hi > lo]


def key_paths(doc, prefix=()):
    """The path of every key in a parsed JSON document, a list index standing for its item."""
    for key, value in doc.items():
        path = prefix + (key,)
        yield path
        if type(value) is dict:
            yield from key_paths(value, path)
        elif type(value) is list:
            for i, item in enumerate(value):
                if type(item) is dict:
                    yield from key_paths(item, path + (i,))


def group_rows(agg):
    """An AggregateStats' rows by (topology type, movement model)."""
    return {(row.topo_type, row.model): row for row in agg.rows}


@pytest.fixture
def path5():
    """Path graph 0-1-2-3-4."""
    return make_topology("path5", 5, [(i, i + 1) for i in range(4)])


@pytest.fixture
def diamond():
    """Two shortest paths 0-1-3 and 0-2-3; lowest-id tie-break picks 0-1-3."""
    return make_topology("diamond", 4, [(0, 1), (0, 2), (1, 3), (2, 3)])


@pytest.fixture
def star():
    """Hub 0 with spokes 1..4."""
    return make_topology("star", 5, [(0, i) for i in range(1, 5)])
