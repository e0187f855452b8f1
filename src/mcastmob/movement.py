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

    start: int
    steps: tuple[int, ...]
    model: MovementModel
    seed: int


def cluster_window(node, n, radius=6):
    """Candidate ids at circular offsets +/-1, +/-2, ... around `node`.

    Takes the `radius` nearest offsets (interleaved -1, +1, -2, +2, ...),
    wraps modulo n, and never includes `node` itself. Returned sorted.
    """
    offsets = []
    k = 1
    while len(offsets) < radius:
        offsets.append(-k)
        if len(offsets) < radius:
            offsets.append(k)
        k += 1
    window = {(node + off) % n for off in offsets}
    window.discard(node)
    return sorted(window)


def _moves(topo, model, eligible, forbidden, node):
    """Nodes the mobile may move to from `node` under `model`."""
    if model.kind == "random":
        return eligible
    if model.kind == "neighbor":
        return [v for v in topo.adj[node] if v not in forbidden]
    return [v for v in cluster_window(node, topo.n, model.cluster_radius) if v not in forbidden]


def generate_trace(topo, model, forbidden, count, seed, start=None):
    """Seeded visit sequence of exactly `count` nodes.

    `forbidden` ids (typically the correspondent node) never appear. The
    start is drawn uniformly from eligible nodes unless given; a drawn start
    with no eligible move is drawn again among the nodes that have one (for
    the neighbor model a node reached by a move can always move back, so
    only the start can be trapped). Sampling is with replacement: revisits
    are allowed, and the random model may stay put. Raises MovementError
    when a step has no eligible candidate.
    """
    if count < 1:
        raise MovementError("count must be >= 1")
    for node in forbidden:
        if not (0 <= node < topo.n):
            raise MovementError(f"forbidden id {node} not in topology")
    rng = random.Random(seed)
    eligible = [v for v in range(topo.n) if v not in forbidden]
    if not eligible:
        raise MovementError("forbidden set excludes every node")
    if start is None:
        start = rng.choice(eligible)
        if count > 1 and not _moves(topo, model, eligible, forbidden, start):
            free = [v for v in eligible if _moves(topo, model, eligible, forbidden, v)]
            if not free:
                raise MovementError(f"no eligible node has a move under {model.kind}")
            start = rng.choice(free)
    elif not (0 <= start < topo.n) or start in forbidden:
        raise MovementError(f"invalid start node {start}")

    steps = [start]
    current = start
    for _ in range(count - 1):
        candidates = _moves(topo, model, eligible, forbidden, current)
        if not candidates:
            raise MovementError(f"no eligible move from node {current} under {model.kind}")
        current = rng.choice(candidates)
        steps.append(current)
    return MovementTrace(start=start, steps=tuple(steps), model=model, seed=seed)


def trace_to_csv(trace):
    """CSV dump (step_index,node_id) for reproducibility audits."""
    lines = ["step_index,node_id"]
    lines.extend(f"{i},{node}" for i, node in enumerate(trace.steps))
    return "\n".join(lines) + "\n"
