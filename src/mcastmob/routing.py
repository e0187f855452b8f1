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
    """Mutable (S,G) state: the branch [leaf, ..., CN] and the nodes holding state.

    Every join walks the shortest path toward the CN, so between moves the
    tree is one branch. From a join to its prune, `pending` holds the old
    leaf and the cut (the old branch below the meet node), still in `nodes`.

    Single-run object: one simulation thread mutates it at a time. The
    oracle, and through it the topology, is read-only shared.
    """

    def __init__(self, cn, oracle: PathOracle):
        oracle._check(cn)
        self.cn = cn
        self.oracle = oracle
        self.branch = [cn]
        self.nodes = {cn}
        self.pending = None  # (old leaf, cut) until the prune

    @property
    def edge_count(self):
        return len(self.nodes) - 1

    def join(self, new_location) -> int:
        """Graft a branch from new_location toward the CN; returns added links L.

        Walks the deterministic shortest path until the first node already
        holding (S,G) state, the meet node. A location already on the branch
        just becomes its leaf (L = 0).
        """
        if new_location == self.cn:
            raise SimulationInvariantError("mobile cannot join at the correspondent node")
        if self.pending is not None:
            raise SimulationInvariantError(f"join before the prune of {self.pending[0]}")
        walk = self.oracle.shortest_path(new_location, self.cn, stop=self.nodes)
        old = self.branch
        try:
            meet = old.index(walk[-1])
        except ValueError:
            raise SimulationInvariantError(f"graft walk stops off the branch at {walk[-1]}") from None
        self.branch = walk[:-1] + old[meet:]
        if old[0] != self.cn:  # the first join has no old leaf
            self.pending = old[0], old[:meet]
        self.nodes.update(walk)
        return len(walk) - 1

    def prune(self, old_location) -> int:
        """Tear down the cut the last join left below old_location; returns removed links."""
        leaf, cut = self.pending or (None, ())
        if leaf != old_location:
            raise SimulationInvariantError(f"prune of non-leaf node {old_location}")
        self.nodes.difference_update(cut)
        self.pending = None
        return len(cut)

    def path_hops(self, leaf) -> int:
        """Tree hop count from the CN to `leaf`; equals their shortest-path distance."""
        if leaf != self.branch[0]:
            raise SimulationInvariantError(f"{leaf} is not a joined leaf")
        return len(self.branch) - 1


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
    checked by its join's `shortest_path`, or equals the previous one.
    Between moves the tree is the branch `establish` builds to the mobile's
    location, so the handoff sweep reads it off the oracle. Both invariant
    errors end with that branch.
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
    samples = [StepSample(a_hops, from_ha[first], tree.path_hops(first), total_added, 0)]
    for i in range(1, len(steps)):
        old, new = steps[i - 1], steps[i]
        if new == old:
            added = removed = 0
        else:
            added = tree.join(new)
            removed = tree.prune(old)
        total_added += added
        total_removed += removed
        if total_added - total_removed != tree.edge_count:
            raise SimulationInvariantError(
                f"link accounting broken at step {i}: added {total_added}, "
                f"removed {total_removed}, tree {tree.edge_count}, branch {tree.branch}"
            )
        c_hops, shortest = tree.path_hops(new), from_cn[new]
        if c_hops != shortest:
            raise SimulationInvariantError(
                f"tree path {c_hops} != shortest path {shortest} at step {i}, branch {tree.branch}"
            )
        samples.append(StepSample(a_hops, from_ha[new], c_hops, added, removed))
    return samples
