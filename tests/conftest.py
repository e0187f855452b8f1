"""Shared fixtures and independent oracles for the test suite.

The helpers here deliberately avoid the package's own graph code: BFS and
graph construction are re-implemented so oracle-equivalence tests mean
something, and `validate_tree` checks tree path lengths against that BFS.
"""

from __future__ import annotations

import random
from collections import deque

import pytest

from mcastmob.topology import PathOracle, Topology


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

    Every parent link is a topology edge mirrored in the children map, every
    on-tree node (the CN and each node with a parent) supports some leaf,
    and each leaf's tree path is shortest.
    """
    cn, topo = tree.cn, tree.oracle.topo
    on_tree = set(tree.parent) | {cn}
    assert tree.leaves <= on_tree, "leaf not on tree"
    for child, up in tree.parent.items():
        assert up in topo.adj[child], f"parent link {child}->{up} is not a topology edge"
        assert child in tree.children.get(up, set()), f"children map missing {up}->{child}"
    supported = {cn}
    for leaf in tree.leaves:
        supported.update(tree.branch_to_root(leaf))  # raises on a broken or cyclic chain
    assert supported == on_tree, f"stale on-tree nodes: {on_tree - supported}"
    from_cn = bfs_dist(topo.adj, cn)
    for leaf in tree.leaves:
        assert tree.path_hops(leaf) == from_cn[leaf], f"tree path to leaf {leaf} is not shortest"


def tree_state(tree):
    """A copy of the tree's (parent, children, leaves), for before/after comparisons."""
    return dict(tree.parent), {u: set(c) for u, c in tree.children.items()}, set(tree.leaves)


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
    return Topology.from_edges(name, n, edges)


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


@pytest.fixture
def handoff_fixture():
    """cn=0 with branch 0-1-2-3 (old=3) and chain 1-4-5-6 (new=6, graft L=3)."""
    topo = make_topology("hand", 7, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (5, 6)])
    return topo, PathOracle(topo)


def oracle_of(topo):
    return PathOracle(topo)
