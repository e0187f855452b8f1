"""Source-specific multicast tree maintenance and the triangle-routing baseline.

The delivery tree is rooted at the correspondent node (CN). The mobile joins
it by walking the deterministic shortest path from its new attachment point
toward the CN and grafting at the first on-tree router; pruning removes the
branch that no longer leads to the mobile. Because every branch is a suffix
of the same deterministic walk, the tree path from the CN to any leaf always
equals the unicast shortest path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .topology import PathOracle


class SimulationInvariantError(Exception):
    """A structural or accounting invariant of the delivery tree was violated."""


@dataclass(slots=True)
class StepSample:
    """Per-visit measurement; a run's sample i is its step i.

    a_hops: CN -> home agent, b_hops: home agent -> mobile, c_hops: CN ->
    mobile through the tree. added/removed count the links grafted and
    pruned by this step. Sample 0 is the establishment: it carries the
    initial branch length in added_links and is excluded from handoff
    statistics.

    Not frozen: a frozen dataclass sets every field through
    `object.__setattr__`, about three times the cost of this slotted one,
    once per simulated step. Nothing mutates a sample after `run_scenario`.
    """

    a_hops: int
    b_hops: int
    c_hops: int
    added_links: int
    removed_links: int


class MulticastTree:
    """Mutable (S,G) state: the branch from the CN to the leaf, `path`.

    `path[d]` is the branch node at depth d, so `path[0]` is the CN and
    `path[-1]` the leaf. Every join walks the shortest path toward the CN,
    so between moves the tree is that one branch, and a node u is on it
    exactly when `path[depth[u]] == u`, `depth` being the CN's distance
    vector, read once when the tree is built. From a join to its prune,
    `pending` holds the old leaf and the cut (the old branch below the meet
    node, leaf first), which still holds state.

    Single-run object: one simulation thread mutates it at a time. The
    oracle, and through it the topology, is read-only shared.
    """

    def __init__(self, cn, oracle: PathOracle):
        self.cn = cn
        self.oracle = oracle
        self.depth = oracle.dist_from(cn)
        self.path = [cn]
        self.pending = None  # (old leaf, cut) until the prune

    @property
    def branch(self):
        """The branch leaf first: [leaf, ..., CN]."""
        return self.path[::-1]

    @property
    def edge_count(self):
        return len(self.path) - 1 + (len(self.pending[1]) if self.pending else 0)

    def join(self, new_location) -> int:
        """Graft a branch from new_location toward the CN; returns added links L.

        Walks the deterministic shortest path until the first node on the
        branch, the meet node, and grafts the walk below it. A location
        already on the branch just becomes its leaf (L = 0).
        """
        if new_location == self.cn:
            raise SimulationInvariantError("mobile cannot join at the correspondent node")
        if self.pending is not None:
            raise SimulationInvariantError(f"join before the prune of {self.pending[0]}")
        path = self.path
        walk = self.oracle.shortest_path(new_location, self.cn, stop=path)
        meet = self.depth[walk[-1]]  # the walk ends on the branch: walk[-1] == path[meet]
        if len(path) > 1:  # the first join has no old leaf
            self.pending = path[-1], path[:meet:-1]
        path[meet:] = walk[::-1]
        return len(walk) - 1

    def prune(self, old_location) -> int:
        """Tear down the cut the last join left below old_location; returns removed links."""
        leaf, cut = self.pending or (None, ())
        if leaf != old_location:
            raise SimulationInvariantError(f"prune of non-leaf node {old_location}")
        self.pending = None
        return len(cut)

    def path_hops(self, leaf) -> int:
        """Tree hop count from the CN to `leaf`; equals their shortest-path distance."""
        if leaf != self.path[-1]:
            raise SimulationInvariantError(f"{leaf} is not a joined leaf")
        return len(self.path) - 1


def establish(oracle, cn, first_location) -> MulticastTree:
    """Initial (CN, G) join: the tree becomes the branch CN -> first_location."""
    tree = MulticastTree(cn, oracle)
    tree.join(first_location)
    return tree


def run_scenario(oracle, cn, ha, steps):
    """Drive one sequence of visits and record a StepSample per visit.

    Sample 0 is the establishment at steps[0]; each later sample is a
    handoff (join the new location, then prune the old). Cheap invariants
    (tree path equals shortest path; added minus removed links equals the
    live edge count) are checked every step and raise
    SimulationInvariantError so a bad run can never be reported silently.
    The CN's and the HA's distance vectors are read once per run, through
    the checked `dist_from`, and indexed per step: each step's location was
    checked by its join's `shortest_path`, or equals the previous one. C is
    the length of the tree's path. Between moves the tree is the branch
    `establish` builds to the mobile's location. Both invariant errors end
    with that branch, leaf first.
    """
    oracle._check(cn)
    oracle._check(ha)
    if cn == ha:
        raise SimulationInvariantError("correspondent node and home agent must differ")
    if cn in steps:
        raise SimulationInvariantError("trace visits the correspondent node")

    tree = establish(oracle, cn, steps[0])
    from_cn, from_ha = oracle.dist_from(cn), oracle.dist_from(ha)
    a_hops, first = from_cn[ha], steps[0]
    total_added, total_removed = tree.edge_count, 0
    samples = [StepSample(a_hops, from_ha[first], len(tree.path) - 1, total_added, 0)]
    join, prune = tree.join, tree.prune
    for i, (old, new) in enumerate(zip(steps, steps[1:]), 1):
        if new == old:
            added = removed = 0
        else:
            added = join(new)
            removed = prune(old)
        total_added += added
        total_removed += removed
        if total_added - total_removed != tree.edge_count:
            raise SimulationInvariantError(
                f"link accounting broken at step {i}: added {total_added}, "
                f"removed {total_removed}, tree {tree.edge_count}, branch {tree.branch}"
            )
        c_hops, shortest = len(tree.path) - 1, from_cn[new]
        if c_hops != shortest:
            raise SimulationInvariantError(
                f"tree path {c_hops} != shortest path {shortest} at step {i}, branch {tree.branch}"
            )
        samples.append(StepSample(a_hops, from_ha[new], c_hops, added, removed))
    return samples
