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

from .movement import MovementTrace
from .topology import PathOracle, Topology


class SimulationInvariantError(Exception):
    """A structural or accounting invariant of the delivery tree was violated."""


@dataclass(frozen=True)
class StepSample:
    """Per-visit measurement.

    a_hops: CN -> home agent, b_hops: home agent -> mobile, c_hops: CN ->
    mobile through the tree. added/removed count the links grafted and
    pruned by this step; the establishment sample carries the initial
    branch length in added_links and is excluded from handoff statistics.
    """

    step: int
    a_hops: int
    b_hops: int
    c_hops: int
    added_links: int
    removed_links: int
    establishment: bool = False


class MulticastTree:
    """Mutable (S,G) state: parent map rooted at the CN plus the joined leaves.

    Single-run object: one simulation thread mutates it at a time. The
    oracle reference is read-only shared.
    """

    def __init__(self, cn, topo: Topology, oracle: PathOracle):
        oracle._check(cn)
        self.cn = cn
        self.topo = topo
        self.oracle = oracle
        self.parent: dict[int, int] = {}
        self.children: dict[int, set[int]] = {}
        self.on_tree: set[int] = {cn}
        self.leaves: set[int] = set()

    @property
    def edge_count(self):
        return len(self.parent)

    def join(self, new_location) -> int:
        """Graft a branch from new_location toward the CN; returns added links L.

        Walks the deterministic shortest path until the first node already
        holding (S,G) state. A location already on the tree just becomes a
        leaf (L = 0).
        """
        self.oracle._check(new_location)
        if new_location == self.cn:
            raise SimulationInvariantError("mobile cannot join at the correspondent node")
        walk = self.graft_walk(new_location)
        for child, up in zip(walk, walk[1:]):
            self.parent[child] = up
            self.children.setdefault(up, set()).add(child)
            self.on_tree.add(child)
        self.leaves.add(new_location)
        return len(walk) - 1

    def graft_walk(self, node):
        """The branch a join from `node` would graft: [node, ..., first on-tree node].

        Read-only; [node] when `node` already holds (S,G) state.
        """
        walk = [node]
        while walk[-1] not in self.on_tree:
            walk.append(self.oracle.next_hop(walk[-1], self.cn))
        return walk

    def prune(self, old_location) -> int:
        """Tear down the branch below old_location; returns removed links.

        Walks upstream removing nodes that are neither leaves nor ancestors
        of a leaf, stopping at the first fork, leaf, or the CN.
        """
        if old_location not in self.leaves:
            raise SimulationInvariantError(f"prune of non-leaf node {old_location}")
        self.leaves.discard(old_location)
        removed = 0
        node = old_location
        while node != self.cn and node not in self.leaves and not self.children.get(node):
            up = self.parent.pop(node)
            self.children[up].discard(node)
            self.on_tree.discard(node)
            removed += 1
            node = up
        return removed

    def path_hops(self, leaf) -> int:
        """Tree hop count from the CN to `leaf`; equals dist(CN, leaf)."""
        if leaf not in self.leaves:
            raise SimulationInvariantError(f"{leaf} is not a joined leaf")
        return len(self.branch_to_root(leaf)) - 1

    def branch_to_root(self, node):
        """Parent chain [node, ..., CN]; raises if the chain is broken or cyclic."""
        path = [node]
        while path[-1] != self.cn:
            up = self.parent.get(path[-1])
            if up is None or len(path) > self.topo.n:
                raise SimulationInvariantError(f"broken parent chain from node {node}")
            path.append(up)
        return path


def establish(topo, oracle, cn, first_location) -> MulticastTree:
    """Initial (CN, G) join: the tree becomes the branch CN -> first_location."""
    if cn == first_location:
        raise SimulationInvariantError("mobile cannot start at the correspondent node")
    tree = MulticastTree(cn, topo, oracle)
    tree.join(first_location)
    return tree


def run_scenario(topo, oracle, cn, ha, trace: MovementTrace):
    """Drive one full movement trace and record a StepSample per visit.

    Sample 0 is the establishment at trace.steps[0]; each later sample is a
    handoff (join the new location, then prune the old). Cheap invariants
    (tree path equals shortest path; added minus removed links equals the
    live edge count) are checked every step and raise
    SimulationInvariantError so a bad run can never be reported silently.
    """
    steps = trace.steps
    oracle._check(cn)
    oracle._check(ha)
    if cn == ha:
        raise SimulationInvariantError("correspondent node and home agent must differ")
    if cn in steps:
        raise SimulationInvariantError("trace visits the correspondent node")

    tree = establish(topo, oracle, cn, steps[0])
    a_hops = oracle.dist(cn, ha)
    samples = [
        StepSample(
            step=0,
            a_hops=a_hops,
            b_hops=oracle.dist(ha, steps[0]),
            c_hops=tree.path_hops(steps[0]),
            added_links=tree.edge_count,
            removed_links=0,
            establishment=True,
        )
    ]
    total_added = tree.edge_count
    total_removed = 0
    for i in range(1, len(steps)):
        old, new = steps[i - 1], steps[i]
        if new == old:
            added = removed = 0
        else:
            added = tree.join(new)
            removed = tree.prune(old)
        total_added += added
        total_removed += removed
        if total_removed > total_added or total_added - total_removed != tree.edge_count:
            raise SimulationInvariantError(
                f"link accounting broken at step {i}: "
                f"added {total_added}, removed {total_removed}, tree {tree.edge_count}"
            )
        c_hops = tree.path_hops(new)
        if c_hops != oracle.dist(cn, new):
            raise SimulationInvariantError(
                f"tree path {c_hops} != shortest path {oracle.dist(cn, new)} at step {i}"
            )
        samples.append(
            StepSample(
                step=i,
                a_hops=a_hops,
                b_hops=oracle.dist(ha, new),
                c_hops=c_hops,
                added_links=added,
                removed_links=removed,
            )
        )
    return samples


def validate_tree(tree: MulticastTree):
    """Full structural audit; raises SimulationInvariantError on any breach.

    Checks rootedness/acyclicity of the parent map, that every parent link
    is a topology edge, that every on-tree node supports some leaf, and
    that each leaf's tree path length equals the shortest-path distance.
    """
    cn = tree.cn
    if set(tree.parent) != tree.on_tree - {cn}:
        raise SimulationInvariantError("parent map does not cover on-tree nodes")
    if not tree.leaves <= tree.on_tree:
        raise SimulationInvariantError("leaf not on tree")
    for child, up in tree.parent.items():
        if not tree.topo.has_edge(child, up):
            raise SimulationInvariantError(f"parent link {child}->{up} is not a topology edge")
        if child not in tree.children.get(up, set()):
            raise SimulationInvariantError(f"children map missing {up}->{child}")
    supported = {cn}
    for leaf in tree.leaves:
        supported.update(tree.branch_to_root(leaf))
    if supported != tree.on_tree:
        stale = tree.on_tree - supported
        raise SimulationInvariantError(f"stale on-tree nodes not supporting any leaf: {stale}")
    for leaf in tree.leaves:
        if tree.path_hops(leaf) != tree.oracle.dist(cn, leaf):
            raise SimulationInvariantError(f"tree path to leaf {leaf} is not shortest")


def samples_to_csv(samples):
    """CSV dump with columns step,a,b,c,added,removed."""
    lines = ["step,a,b,c,added,removed"]
    lines.extend(
        f"{s.step},{s.a_hops},{s.b_hops},{s.c_hops},{s.added_links},{s.removed_links}"
        for s in samples
    )
    return "\n".join(lines) + "\n"
