"""Mobile-node visit sequences under random, neighbor, and cluster movement."""

from __future__ import annotations

import random
from dataclasses import dataclass

MODEL_KINDS = ("random", "neighbor", "cluster")


class MovementError(Exception):
    """No eligible next node under the model without visiting the correspondent node."""


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
    # radius + 1 <= n consecutive ids: distinct residues, and only `node` itself is node
    return sorted([v % n for v in range(node - radius + half, node + half + 1) if v != node])


def _moves(topo, model, cn, node):
    """Nodes the mobile may move to from `node` under `model`; None: every id but `cn`.

    The neighbourhood or window itself unless the correspondent node `cn` is
    in it, else a filtered copy; in id order either way.
    """
    if model.kind == "random":
        return None
    if model.kind == "neighbor":
        near = topo.adj[node]
    else:
        near = cluster_window(node, topo.n, model.cluster_radius)
    return [v for v in near if v != cn] if cn in near else near


def generate_trace(topo, model, cn, count, seed):
    """Seeded visit sequence of exactly `count` nodes, never the correspondent node `cn`.

    The start is drawn uniformly from the other n - 1 ids; a drawn start
    with no eligible move is drawn again among the nodes that have one (for
    the neighbor model a node reached by a move can always move back, so
    only the start can be trapped). Sampling is with replacement: revisits
    are allowed, and the random model may stay put. Raises MovementError
    when a step has no eligible candidate. Each draw makes the `getrandbits`
    calls of `random.Random.choice` over the candidates in id order.
    """
    if count < 1:
        raise MovementError("count must be >= 1")
    if not (0 <= cn < topo.n):
        raise MovementError(f"cn {cn} not in topology")
    getrandbits = random.Random(seed).getrandbits

    def choice(candidates):
        n = topo.n - 1 if candidates is None else len(candidates)
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        if candidates is not None:
            return candidates[r]
        return r + (r >= cn)  # the r-th id that is not the CN

    start = choice(None)
    if count > 1 and model.kind != "random" and not _moves(topo, model, cn, start):
        free = [v for v in range(topo.n) if v != cn and _moves(topo, model, cn, v)]
        if not free:
            raise MovementError(f"no eligible node has a move under {model.kind}")
        start = choice(free)

    steps = [start]
    current = start
    for _ in range(count - 1):
        candidates = _moves(topo, model, cn, current)
        if candidates is not None and not candidates:
            raise MovementError(f"no eligible move from node {current} under {model.kind}")
        current = choice(candidates)
        steps.append(current)
    return MovementTrace(tuple(steps))
