"""Shared fixtures and independent oracles for the test suite.

The helpers here deliberately avoid the package's own graph code: BFS and
random graph generation are re-implemented so oracle-equivalence tests mean
something, `validate_tree` checks tree path lengths against that BFS, and
`run_walk_model` computes a run's samples from its own parent tree.
Test topologies are built from their edge lists by `load_edge_list`.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import accumulate

import pytest
from hypothesis import Phase, settings

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
