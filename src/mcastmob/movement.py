"""Mobile-node visit sequences under random, neighbor, and cluster movement."""

from __future__ import annotations

import random
from dataclasses import dataclass

MODEL_KINDS = ("random", "neighbor", "cluster")


class MovementError(Exception):
    """No eligible next node under the model and forbidden-set constraints."""


@dataclass(frozen=True)
class MovementModel:
    """Movement kind plus the candidate-set size for the cluster model.

    cluster_radius 6 models a 7-cell-reuse layout: the mobile may hop to one
    of the six nearest ids, which in clustered topologies (sequential
    numbering per cluster) usually means the same cluster.
    """

    kind: str
    cluster_radius: int = 6

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise MovementError(f"unknown movement model {self.kind!r}")
        if self.cluster_radius < 1:
            raise MovementError("cluster_radius must be >= 1")


@dataclass(frozen=True)
class MovementTrace:
    """Ordered node visits; steps[0] is the start where the tree is established."""

    steps: tuple[int, ...]


def cluster_window(node, n, radius=6):
    """Candidate ids at circular offsets +/-1, +/-2, ... around `node`.

    Takes the `radius` nearest offsets (interleaved -1, +1, -2, +2, ..., so
    the range -ceil(radius / 2) .. floor(radius / 2) without 0), wraps
    modulo n, and never includes `node` itself. Returned sorted. The first
    n - 1 offsets already reach every other id, so no more are taken.
    """
    radius = min(radius, n - 1)
    half = radius // 2
    low, high = node - radius + half, node + half + 1
    # radius + 1 <= n consecutive ids: distinct residues, and only `node` itself is node
    window = [v % n for v in range(low, high) if v != node]
    return window if 0 <= low and high <= n else sorted(window)  # in order unless it wraps


def _moves(topo, model, forbidden, node):
    """Nodes the mobile may move to from `node` under `model`; None: every id not forbidden.

    The neighbourhood or window itself when no `forbidden` id is in it, else
    a filtered copy; in id order either way.
    """
    if model.kind == "random":
        return None
    if model.kind == "neighbor":
        near = topo.adj[node]
    else:
        near = cluster_window(node, topo.n, model.cluster_radius)
    return near if forbidden.isdisjoint(near) else [v for v in near if v not in forbidden]


def generate_trace(topo, model, forbidden, count, seed, start=None):
    """Seeded visit sequence of exactly `count` nodes.

    `forbidden` ids (typically the correspondent node) never appear. The
    start is drawn uniformly from eligible nodes unless given; a drawn start
    with no eligible move is drawn again among the nodes that have one (for
    the neighbor model a node reached by a move can always move back, so
    only the start can be trapped). Sampling is with replacement: revisits
    are allowed, and the random model may stay put. Raises MovementError
    when a step has no eligible candidate. Each draw makes the `getrandbits`
    calls of `random.Random.choice` over the candidates in id order.
    """
    if count < 1:
        raise MovementError("count must be >= 1")
    forbidden = frozenset(forbidden)
    for node in forbidden:
        if not (0 <= node < topo.n):
            raise MovementError(f"forbidden id {node} not in topology")
    skipped = sorted(forbidden)
    if len(skipped) == topo.n:
        raise MovementError("forbidden set excludes every node")
    getrandbits = random.Random(seed).getrandbits

    def choice(candidates):
        n = topo.n - len(skipped) if candidates is None else len(candidates)
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        if candidates is not None:
            return candidates[r]
        for v in skipped:  # the r-th id that is not forbidden
            if v > r:
                break
            r += 1
        return r

    if start is None:
        start = choice(None)
        if count > 1 and model.kind != "random" and not _moves(topo, model, forbidden, start):
            free = [v for v in range(topo.n)
                    if v not in forbidden and _moves(topo, model, forbidden, v)]
            if not free:
                raise MovementError(f"no eligible node has a move under {model.kind}")
            start = choice(free)
    elif not (0 <= start < topo.n) or start in forbidden:
        raise MovementError(f"invalid start node {start}")

    steps = [start]
    current = start
    for _ in range(count - 1):
        candidates = _moves(topo, model, forbidden, current)
        if candidates is not None and not candidates:
            raise MovementError(f"no eligible move from node {current} under {model.kind}")
        current = choice(candidates)
        steps.append(current)
    return MovementTrace(tuple(steps))
