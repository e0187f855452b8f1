"""Undirected unit-weight network topologies: loading, generation, shortest paths.

Every node is a router doubling as a base station, so a topology is simply a
connected simple graph with contiguous integer ids and hop-count distances.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

GENERATOR_KINDS = ("flat_random", "transit_stub", "tiers_like")


class TopologyError(Exception):
    """Malformed, disconnected, or otherwise invalid topology input."""


class GenerationError(TopologyError):
    """Generator parameters could not be satisfied."""


@dataclass(frozen=True)
class Topology:
    """Connected simple graph, node ids 0..n-1, implicit unit edge weights.

    Immutable once built, so instances are safe to share across concurrent
    runs.
    """

    name: str
    n: int
    edge_count: int
    adj: tuple[tuple[int, ...], ...]

    @classmethod
    def _from_keys(cls, name, n, keys):
        """The topology whose links are the edge keys `u * n + v`, each with u < v."""
        # before the adjacency, whose size follows the largest id, not the links
        if len(keys) < n - 1:
            raise TopologyError(f"disconnected graph: {len(keys)} links cannot join {n} nodes")
        adj = [[] for _ in range(n)]
        ids = list(range(n))  # one int object per node, not one per link end
        for key in keys:
            u, v = divmod(key, n)
            adj[u].append(ids[v])
            adj[v].append(ids[u])
        for nbrs in adj:  # ascending, so a search meets the lowest-id neighbor first
            nbrs.sort()
        dist = _levels(adj, 0)
        if None in dist:
            raise TopologyError(
                f"disconnected graph: only {n - dist.count(None)} of {n} nodes reachable "
                f"(node {dist.index(None)} unreached)"
            )
        return cls(name, n, len(keys), tuple(map(tuple, adj)))

    @property
    def avg_degree(self):
        return 2.0 * self.edge_count / self.n

    def summary(self):
        """One-line `name nodes links avg_degree` summary, e.g. "ts100 100 185 3.7"."""
        return f"{self.name} {self.n} {self.edge_count} {round(self.avg_degree, 2):g}"


def _levels(adj, source):
    """Breadth-first hop distance from `source` to every node, None where unreached.

    The `is None` test is the cheapest per-link check of an unvisited node.
    The search stops once every node has its distance, so the last level's
    links, which can reach no new node, are never checked.
    """
    dist = [None] * len(adj)
    dist[source] = 0
    frontier = [source]
    left = len(adj) - 1  # nodes still without a distance
    d = 0
    while frontier and left:
        d += 1
        level = []
        push = level.append
        for u in frontier:
            for v in adj[u]:
                if dist[v] is None:
                    dist[v] = d
                    push(v)
        left -= len(level)
        frontier = level
    return dist


def load_edge_list(text, name="edges"):
    """Parse a plain-text edge list into a Topology.

    One `u v` pair per line; `#` starts a comment; blank lines are skipped.
    Node count is max id + 1, so ids must be contiguous from 0 (a gap shows
    up as a disconnected-graph error).  Malformed lines, self-loops and
    duplicate edges are rejected with their line number.
    """
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
        max_id = max(max_id, u, v)
    if not seen:
        raise TopologyError("empty edge list")
    n = max_id + 1  # at least 2, as every edge joins two distinct ids
    return Topology._from_keys(name, n, {u * n + v for u, v in seen})


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
        if not 2 <= self.target_avg_degree < math.inf:  # NaN fails both
            raise GenerationError("target_avg_degree must be finite and >= 2 for connectivity")
        if self.stub_size < 1 or self.stubs_per_transit < 1:
            raise GenerationError("clustering knobs must be >= 1")
        _edge_budget(self)  # a link count no simple graph of node_count nodes holds fails here


def generate(params, name=None):
    """Build the connected topology of `params`, a pure function of them.

    Every kind first lays a spanning structure of at most n + n/8 links,
    then adds links up to the budget, target_avg_degree * n / 2 rounded. So
    the average degree is at most 1/n below the target, and above it by at
    most 1/n or, where the spanning structure alone passes the budget, 12.5%.
    """
    builders = {
        "flat_random": _flat_random,
        "transit_stub": _transit_stub,
        "tiers_like": _tiers_like,
    }
    keys = builders[params.kind](params, random.Random(params.seed))
    return Topology._from_keys(name or f"{params.kind}-{params.node_count}", params.node_count, keys)


def _edge_budget(params):
    n = params.node_count
    half = params.target_avg_degree * n / 2  # inf when a finite degree overflows
    target = round(half) if half < math.inf else half
    if target > n * (n - 1) // 2:
        raise GenerationError(
            f"target degree {params.target_avg_degree} needs {target} edges, "
            f"more than a {n}-node simple graph holds"
        )
    return target  # at least n links, as the degree is at least 2


# The per-link loops below (`_random_tree`, `_fill_uniform`, `_fill_clustered`)
# inline `rng.randrange`, `rng.shuffle` and `_add_edge`: the same getrandbits
# calls on the same Random, so every edge set is unchanged.


def _random_tree(edges, n, blocks, rng, core=0):
    """Link each (lo, hi) id block by a random recursive tree, which guarantees its connectivity.

    With a core, block b then draws one of its ids, as `rng.randrange(lo, hi)`,
    and links it to core id b % core, which lies below every block.
    """
    getrandbits, add = rng.getrandbits, edges.add
    for b, (lo, hi) in enumerate(blocks):
        order = list(range(lo, hi))
        for i in range(hi - lo - 1, 0, -1):  # rng.shuffle(order)
            k = (i + 1).bit_length()
            r = getrandbits(k)
            while r > i:
                r = getrandbits(k)
            order[i], order[r] = order[r], order[i]
        for i in range(1, hi - lo):
            k = i.bit_length()
            r = getrandbits(k)
            while r >= i:
                r = getrandbits(k)
            u, v = order[i], order[r]
            add(u * n + v if u < v else v * n + u)
        if core:
            k = (hi - lo).bit_length()
            r = getrandbits(k)
            while r >= hi - lo:
                r = getrandbits(k)
            add(b % core * n + lo + r)


def _add_edge(edges, n, u, v):
    """Add the link u-v, unless it is a self-loop, as the key `u * n + v` with u < v."""
    if u != v:
        edges.add(u * n + v if u < v else v * n + u)


def _fill_uniform(edges, n, budget, rng, attempts):
    """Add uniform links until `budget` is reached, in at most `attempts` draws of a link."""
    getrandbits, add = rng.getrandbits, edges.add
    k = n.bit_length()
    for _ in range(attempts):
        if len(edges) >= budget:
            return
        u = getrandbits(k)
        while u >= n:
            u = getrandbits(k)
        v = getrandbits(k)
        while v >= n:
            v = getrandbits(k)
        if u < v:
            add(u * n + v)
        elif v < u:
            add(v * n + u)
    if len(edges) < budget:
        raise GenerationError("edge sampling stalled before reaching the budget")


def _flat_random(params, rng):
    n = params.node_count
    budget = _edge_budget(params)
    edges = set()
    _random_tree(edges, n, [(0, n)], rng)
    _fill_uniform(edges, n, budget, rng, 60 * budget + 10_000)
    return edges


def _blocks(first, total, size):
    count = max(1, round(total / size))
    base, rem = divmod(total, count)
    out = []
    at = first
    for i in range(count):
        length = base + (1 if i < rem else 0)
        out.append((at, at + length))
        at += length
    return out


def _core_edges(edges, n, count, rng):
    """A ring over the `count` core ids, then count // 4 random chords.

    A core of two is the one link 0-1, and a core of one is a self-loop, which
    `_add_edge` skips; neither draws a chord.
    """
    for i in range(count):
        _add_edge(edges, n, i, (i + 1) % count)
    for _ in range(count // 4):
        _add_edge(edges, n, rng.randrange(count), rng.randrange(count))


def _transit_stub(params, rng):
    """Small transit core plus stub clusters, one or two uplinks per stub."""
    n = params.node_count
    budget = _edge_budget(params)
    per_transit = 1 + params.stubs_per_transit * params.stub_size
    core = max(1, min(round(n / per_transit), n // 2))
    edges = set()
    _core_edges(edges, n, core, rng)
    blocks = _blocks(core, n - core, params.stub_size)
    _random_tree(edges, n, blocks, rng, core)
    _fill_clustered(edges, n, budget, rng, blocks, core, outside=0)
    return edges


def _tiers_like(params, rng):
    """Three-level near-tree: core ring, mid clusters, leaf clusters, sparse cross links."""
    n = params.node_count
    budget = _edge_budget(params)
    core = max(1, round(math.sqrt(n) / 3))  # never above n // 4 once n >= 4
    edges = set()
    _core_edges(edges, n, core, rng)
    blocks = _blocks(core, n - core, params.stub_size)
    mid = max(1, len(blocks) // 4)
    for i, (lo, hi) in enumerate(blocks):
        for j in range(lo + 1, hi):
            _add_edge(edges, n, lo, j)  # LAN-style star around the first id
        if i < mid:
            _add_edge(edges, n, rng.randrange(lo, hi), i % core)
        else:
            plo, phi = blocks[rng.randrange(mid)]
            _add_edge(edges, n, rng.randrange(lo, hi), rng.randrange(plo, phi))
    # every leaf-to-mid link lies outside the clustered class
    _fill_clustered(edges, n, budget, rng, blocks, core, outside=len(blocks) - mid)
    return edges


def _fill_clustered(edges, n, budget, rng, blocks, core, outside):
    """Add in-block, block-to-core and core links until `budget`, then uniform ones.

    The clustered class is every pair inside one block, between a block and
    the core, or inside the core; `outside` counts the links already in
    `edges` that are not in it. Once the class is full the uniform fallback
    starts at once.
    """
    getrandbits, random, add = rng.getrandbits, rng.random, edges.add
    count, kb, kc = len(blocks), len(blocks).bit_length(), core.bit_length()
    spans = [(lo, hi - lo, (hi - lo).bit_length()) for lo, hi in blocks]
    full = outside + core * (core - 1) // 2 + core * (n - core)
    full += sum(m * (m - 1) // 2 for _, m, _ in spans)
    stop = min(budget, full)
    cap = 80 * budget + 10_000
    for _ in range(cap // 2):
        if len(edges) >= stop:
            break
        r = random()
        if r < 0.95:  # `_blocks` makes at least one block, and the core has a node
            b = getrandbits(kb)
            while b >= count:
                b = getrandbits(kb)
            lo, m, k = spans[b]
            u = getrandbits(k)
            while u >= m:
                u = getrandbits(k)
            u += lo
            if r < 0.85:  # a link inside the block
                v = getrandbits(k)
                while v >= m:
                    v = getrandbits(k)
                v += lo
            else:  # an uplink to the core
                v = getrandbits(kc)
                while v >= core:
                    v = getrandbits(kc)
        elif core >= 2:
            u = getrandbits(kc)
            while u >= core:
                u = getrandbits(kc)
            v = getrandbits(kc)
            while v >= core:
                v = getrandbits(kc)
        else:
            continue
        if u < v:
            add(u * n + v)
        elif v < u:
            add(v * n + u)
    # at the budget this returns at once; else the class is full or the draws ran out
    _fill_uniform(edges, n, budget, rng, cap - cap // 2)


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
        """Distance vector from `source` to every node.

        The first call per source runs the breadth-first search; later calls
        read the cache. Every search of the oracle runs here.
        """
        self._check(source)
        cached = self._dist.get(source)
        if cached is not None:
            return cached
        vec = tuple(_levels(self.topo.adj, source))
        self._dist[source] = vec
        return vec

    def shortest_path(self, u, v, stop=()):
        """Deterministic shortest path [u, ..., v], cut at its first node on `stop`.

        Each step goes to the lowest-id neighbor one hop closer to v. `stop`
        is a shortest path that starts at v, indexed by hop distance from v:
        the walk ends at the first node w with `stop[dist(v, w)] == w`. Checks
        u and v once, then steps through `v`'s vector, read straight off the
        cache once cached: pass the fixed end as v.
        """
        self._check(u)
        dist = (self._dist.get(v) if type(v) is int else None) or self.dist_from(v)
        adj, end = self.topo.adj, len(stop)
        d, path = dist[u], [u]
        while d and (d >= end or stop[d] != u):
            d -= 1
            for w in adj[u]:  # adjacency is sorted, first hit is lowest id
                if dist[w] == d:
                    break
            else:
                raise TopologyError(f"no next hop from {u} toward {v}")  # never when connected
            path.append(u := w)
        return path
