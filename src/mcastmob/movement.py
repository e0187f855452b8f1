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
    if radius >= n:
        radius = n - 1
    lo, hi = node - radius + radius // 2, node + radius // 2 + 1
    if 0 <= lo and hi <= n:  # no wrap: the window is already in id order
        return [*range(lo, node), *range(node + 1, hi)]
    # radius + 1 <= n consecutive ids: distinct residues, and only `node` itself is node
    return sorted([v % n for v in range(lo, hi) if v != node])


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

    def index(n):
        """A uniform index below n, drawn as `random.Random.choice` draws it."""
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    def other_id():
        """A uniform id that is not the CN: the r-th such id."""
        r = index(topo.n - 1)
        return r + (r >= cn)

    if model.kind == "random":
        return MovementTrace(tuple([other_id() for _ in range(count)]))
    if model.kind == "neighbor":
        near = topo.adj.__getitem__
    else:
        n, radius = topo.n, model.cluster_radius
        near = lambda node: cluster_window(node, n, radius)

    def trapped(node):
        """Whether every id around `node` is the CN."""
        return all(v == cn for v in near(node))

    current = other_id()
    if count > 1 and trapped(current):
        free = [v for v in range(topo.n) if v != cn and not trapped(v)]
        if not free:
            raise MovementError(f"no eligible node has a move under {model.kind}")
        current = free[index(len(free))]
    steps = [current]
    for _ in range(count - 1):
        moves = near(current)
        if cn in moves:  # else the neighbourhood or window itself, in id order
            moves = [v for v in moves if v != cn]
        if not moves:
            raise MovementError(f"no eligible move from node {current} under {model.kind}")
        current = moves[index(len(moves))]
        steps.append(current)
    return MovementTrace(tuple(steps))
