"""Undirected unit-weight network topologies: loading, generation, shortest paths.

Every node is a router doubling as a base station, so a topology is simply a
connected simple graph with contiguous integer ids and hop-count distances.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass

GENERATOR_KINDS = ("flat_random", "transit_stub", "tiers_like")


class TopologyError(Exception):
    """Malformed, disconnected, or otherwise invalid topology input."""


class GenerationError(TopologyError):
    """Generator parameters could not be satisfied."""


@dataclass(frozen=True)
class Topology:
    """Connected simple graph, node ids 0..n-1, implicit unit edge weights.

    `clusters` is populated by the clustered generators: one (start, stop)
    id block per stub/leaf cluster, in id order.  Immutable once built, so
    instances are safe to share across concurrent runs.
    """

    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[tuple[int, ...], ...]
    clusters: tuple[tuple[int, int], ...] = ()

    @classmethod
    def from_edges(cls, name, n, edges, clusters=()):
        if n < 2:
            raise TopologyError("a topology needs at least 2 nodes")
        seen = set()
        for u, v in edges:
            if u == v:
                raise TopologyError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise TopologyError(f"node id out of range: {u} {v} (n={n})")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise TopologyError(f"duplicate edge {key[0]} {key[1]}")
            seen.add(key)
        adj_lists = [[] for _ in range(n)]
        for u, v in seen:
            adj_lists[u].append(v)
            adj_lists[v].append(u)
        _check_connected(adj_lists, n)
        return cls(
            name=name,
            n=n,
            edges=tuple(sorted(seen)),
            adj=tuple(tuple(sorted(nbrs)) for nbrs in adj_lists),
            clusters=tuple(clusters),
        )

    @property
    def edge_count(self):
        return len(self.edges)

    @property
    def avg_degree(self):
        return 2.0 * len(self.edges) / self.n

    def has_edge(self, u, v):
        return v in self.adj[u]

    def summary(self):
        """One-line `name nodes links avg_degree` summary, e.g. "ts100 100 185 3.7"."""
        return f"{self.name} {self.n} {self.edge_count} {round(self.avg_degree, 2):g}"


def _check_connected(adj_lists, n):
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for v in adj_lists[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                queue.append(v)
    if count != n:
        missing = next(i for i, s in enumerate(seen) if not s)
        raise TopologyError(
            f"disconnected graph: only {count} of {n} nodes reachable "
            f"(node {missing} unreached)"
        )


def load_edge_list(text, name="edges"):
    """Parse a plain-text edge list into a Topology.

    One `u v` pair per line; `#` starts a comment; blank lines are skipped.
    Node count is max id + 1, so ids must be contiguous from 0 (a gap shows
    up as a disconnected-graph error).  Malformed lines, self-loops and
    duplicate edges are rejected with their line number.
    """
    edges = []
    seen = set()
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise TopologyError(f"line {lineno}: expected two node ids, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise TopologyError(f"line {lineno}: non-integer node id in {line!r}") from None
        if u < 0 or v < 0:
            raise TopologyError(f"line {lineno}: negative node id")
        if u == v:
            raise TopologyError(f"line {lineno}: self-loop at node {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise TopologyError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add(key)
        edges.append(key)
        max_id = max(max_id, u, v)
    if not edges:
        raise TopologyError("empty edge list")
    return Topology.from_edges(name, max_id + 1, edges)


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs for the synthetic topology generators.

    `stub_size` and `stubs_per_transit` only matter for the clustered kinds;
    clustered topologies number nodes sequentially within each cluster so id
    proximity has geographic meaning.
    """

    kind: str
    node_count: int
    target_avg_degree: float
    seed: int = 0
    stub_size: int = 8
    stubs_per_transit: int = 3

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise GenerationError(f"unknown generator kind {self.kind!r}")
        counts = (self.node_count, self.stub_size, self.stubs_per_transit)
        if any(type(v) is not int for v in counts):
            raise GenerationError("node_count, stub_size and stubs_per_transit must be integers")
        if self.node_count < 2:
            raise GenerationError("node_count must be >= 2")
        if self.target_avg_degree < 2:
            raise GenerationError("target_avg_degree must be >= 2 for connectivity")
        if self.stub_size < 1 or self.stubs_per_transit < 1:
            raise GenerationError("clustering knobs must be >= 1")


def generate(params, name=None):
    """Build a connected topology hitting target_avg_degree within +/-15%.

    Pure function of params: the same params yield the same edge set.
    Retries a few derived sub-seeds before declaring the parameters
    infeasible.
    """
    builders = {
        "flat_random": _flat_random,
        "transit_stub": _transit_stub,
        "tiers_like": _tiers_like,
    }
    build = builders[params.kind]
    label = name or f"{params.kind}-{params.node_count}"
    last = None
    for attempt in range(3):
        rng = random.Random(params.seed + attempt * 0x9E3779B97F4A7C15)
        try:
            edges, clusters = build(params, rng)
            topo = Topology.from_edges(label, params.node_count, edges, clusters)
        except GenerationError as exc:
            last = exc
            continue
        if abs(topo.avg_degree - params.target_avg_degree) <= 0.15 * params.target_avg_degree:
            return topo
        last = GenerationError(
            f"achieved degree {topo.avg_degree:.2f} misses target "
            f"{params.target_avg_degree:.2f} by more than 15%"
        )
    raise GenerationError(f"cannot satisfy {params}: {last}")


def _edge_budget(params):
    n = params.node_count
    target = round(params.target_avg_degree * n / 2)
    if target > n * (n - 1) // 2:
        raise GenerationError(
            f"target degree {params.target_avg_degree} needs {target} edges, "
            f"more than a {n}-node simple graph holds"
        )
    return max(target, n - 1)


def _random_tree(nodes, rng):
    # random recursive tree: guarantees connectivity of the node block
    order = list(nodes)
    rng.shuffle(order)
    return [(order[i], order[rng.randrange(i)]) for i in range(1, len(order))]


def _add_edge(edges, u, v):
    if u == v:
        return False
    key = (u, v) if u < v else (v, u)
    if key in edges:
        return False
    edges.add(key)
    return True


def _fill_uniform(edges, n, budget, rng):
    attempts = 0
    cap = 60 * budget + 10_000
    while len(edges) < budget:
        attempts += 1
        if attempts > cap:
            raise GenerationError("edge sampling stalled before reaching the budget")
        _add_edge(edges, rng.randrange(n), rng.randrange(n))


def _flat_random(params, rng):
    n = params.node_count
    budget = _edge_budget(params)
    edges = set()
    for u, v in _random_tree(range(n), rng):
        _add_edge(edges, u, v)
    _fill_uniform(edges, n, budget, rng)
    return edges, ()


def _blocks(first, total, size):
    count = max(1, round(total / size))
    base, rem = divmod(total, count)
    out = []
    at = first
    for i in range(count):
        length = base + (1 if i < rem else 0)
        out.append((at, at + length))
        at += length
    return [b for b in out if b[1] > b[0]]


def _core_edges(edges, count, rng):
    if count == 2:
        _add_edge(edges, 0, 1)
    elif count >= 3:
        for i in range(count):
            _add_edge(edges, i, (i + 1) % count)
        for _ in range(count // 4):
            _add_edge(edges, rng.randrange(count), rng.randrange(count))


def _transit_stub(params, rng):
    """Small transit core plus stub clusters, one or two uplinks per stub."""
    n = params.node_count
    budget = _edge_budget(params)
    per_transit = 1 + params.stubs_per_transit * params.stub_size
    core = max(1, min(round(n / per_transit), n // 2))
    edges = set()
    _core_edges(edges, core, rng)
    blocks = _blocks(core, n - core, params.stub_size)
    for i, (lo, hi) in enumerate(blocks):
        for u, v in _random_tree(range(lo, hi), rng):
            _add_edge(edges, u, v)
        _add_edge(edges, rng.randrange(lo, hi), i % core)
    _fill_clustered(edges, n, budget, rng, blocks, core)
    return edges, tuple(blocks)


def _tiers_like(params, rng):
    """Three-level near-tree: core ring, mid clusters, leaf clusters, sparse cross links."""
    n = params.node_count
    budget = _edge_budget(params)
    core = max(1, min(round(math.sqrt(n) / 3), n // 4))
    edges = set()
    _core_edges(edges, core, rng)
    blocks = _blocks(core, n - core, params.stub_size)
    mid = max(1, len(blocks) // 4)
    for i, (lo, hi) in enumerate(blocks):
        for j in range(lo + 1, hi):
            _add_edge(edges, lo, j)  # LAN-style star around the first id
        if i < mid:
            _add_edge(edges, rng.randrange(lo, hi), i % core)
        else:
            plo, phi = blocks[rng.randrange(mid)]
            _add_edge(edges, rng.randrange(lo, hi), rng.randrange(plo, phi))
    _fill_clustered(edges, n, budget, rng, blocks, core)
    return edges, tuple(blocks)


def _fill_clustered(edges, n, budget, rng, blocks, core):
    attempts = 0
    cap = 80 * max(budget, 1) + 10_000
    while len(edges) < budget:
        attempts += 1
        if attempts > cap:
            raise GenerationError("edge sampling stalled before reaching the budget")
        if attempts > cap // 2:
            # nearly saturated clusters: fall back to uniform placement
            _add_edge(edges, rng.randrange(n), rng.randrange(n))
            continue
        r = rng.random()
        if r < 0.85 and blocks:
            lo, hi = blocks[rng.randrange(len(blocks))]
            _add_edge(edges, rng.randrange(lo, hi), rng.randrange(lo, hi))
        elif r < 0.95 and blocks and core:
            lo, hi = blocks[rng.randrange(len(blocks))]
            _add_edge(edges, rng.randrange(lo, hi), rng.randrange(core))
        elif core >= 2:
            _add_edge(edges, rng.randrange(core), rng.randrange(core))


class PathOracle:
    """Hop distances and deterministic shortest paths over one Topology.

    Runs one breadth-first search per queried source and caches the distance
    vector, which is all the unit-weight metric needs.  Read-only after
    construction apart from the cache, so safe to share across runs.
    """

    def __init__(self, topo: Topology):
        self.topo = topo
        self._dist: dict[int, tuple[int, ...]] = {}

    def _check(self, node):
        if not isinstance(node, int) or not (0 <= node < self.topo.n):
            raise TopologyError(f"unknown node id {node!r}")

    def dist_from(self, source):
        """Distance vector from `source` to every node (cached)."""
        self._check(source)
        cached = self._dist.get(source)
        if cached is not None:
            return cached
        adj = self.topo.adj
        dist = [-1] * self.topo.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            du = dist[u] + 1
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = du
                    queue.append(v)
        vec = tuple(dist)
        self._dist[source] = vec
        return vec

    def dist(self, u, v):
        """Shortest hop count between u and v (symmetric)."""
        self._check(u)
        return self.dist_from(v)[u]

    def next_hop(self, u, v):
        """Lowest-id neighbor of u one hop closer to v; None when u == v.

        The lowest-id rule makes every shortest path, and hence every tree
        shape and added-link count, reproducible.
        """
        self._check(u)
        dist = self.dist_from(v)
        if u == v:
            return None
        want = dist[u] - 1
        for w in self.topo.adj[u]:  # adjacency is sorted, first hit is lowest id
            if dist[w] == want:
                return w
        raise TopologyError(f"no next hop from {u} toward {v}")  # unreachable when connected

    def shortest_path(self, u, v):
        """Deterministic shortest path from u to v, inclusive of both ends."""
        self._check(u)
        self._check(v)
        path = [u]
        while path[-1] != v:
            path.append(self.next_hop(path[-1], v))
        return path
