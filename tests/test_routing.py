"""Multicast tree mechanics: establish, join, prune, and scenario accounting."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcastmob.movement import MovementModel, MovementTrace, generate_trace
from mcastmob.routing import (
    SimulationInvariantError,
    establish,
    run_scenario,
    samples_to_csv,
    validate_tree,
)
from mcastmob.topology import PathOracle, Topology

from conftest import bfs_dist, random_connected_edges


def _tree_on(topo, cn, loc):
    return establish(topo, PathOracle(topo), cn, loc)


class TestEstablish:
    def test_path_graph(self, path5):
        tree = _tree_on(path5, 0, 2)
        assert tree.on_tree == {0, 1, 2}
        assert tree.parent == {2: 1, 1: 0}
        assert tree.leaves == {2}

    def test_adjacent(self, path5):
        tree = _tree_on(path5, 1, 2)
        assert tree.edge_count == 1
        assert tree.parent == {2: 1}

    def test_diamond_tie_break(self, diamond):
        tree = _tree_on(diamond, 0, 3)
        assert tree.parent == {3: 1, 1: 0}

    def test_at_cn_rejected(self, path5):
        with pytest.raises(SimulationInvariantError):
            _tree_on(path5, 2, 2)


class TestJoin:
    def test_two_hop_graft_then_on_path_move(self):
        # chain cn=0 -1 -3 -2: moving 1 -> 2 grafts two links; moving
        # 2 -> 3 lands on the existing branch, adding none
        topo = Topology.from_edges("fig", 4, [(0, 1), (1, 3), (3, 2)])
        tree = _tree_on(topo, 0, 1)
        assert tree.join(2) == 2
        assert tree.prune(1) == 0  # old location is now interior
        assert tree.join(3) == 0
        assert tree.prune(2) == 1

    def test_join_at_on_tree_node(self, path5):
        tree = _tree_on(path5, 0, 4)
        assert tree.join(2) == 0
        assert tree.leaves == {4, 2}

    def test_star_graft_single_link(self, star):
        # cn is spoke 1, current branch reaches spoke 2 through the hub
        tree = _tree_on(star, 1, 2)
        assert tree.join(3) == 1
        assert tree.parent[3] == 0

    def test_graft_walk_is_read_only(self):
        topo = Topology.from_edges("fig", 4, [(0, 1), (1, 3), (3, 2)])
        tree = _tree_on(topo, 0, 1)
        before = (dict(tree.parent), set(tree.on_tree), set(tree.leaves))
        assert tree.graft_walk(2) == [2, 3, 1]
        assert tree.graft_walk(1) == [1]
        assert (tree.parent, tree.on_tree, tree.leaves) == before
        assert tree.join(2) == 2

    def test_join_at_cn_rejected(self, path5):
        tree = _tree_on(path5, 0, 4)
        with pytest.raises(SimulationInvariantError):
            tree.join(0)


class TestPrune:
    def test_full_teardown(self, path5):
        tree = _tree_on(path5, 0, 4)
        tree.leaves.add(4)
        assert tree.prune(4) == 4
        assert tree.on_tree == {0}
        assert tree.edge_count == 0

    def test_fork_keeps_shared_prefix(self, star):
        tree = _tree_on(star, 1, 2)
        tree.join(3)
        assert tree.prune(2) == 1  # only the 2-hub link goes; hub feeds leaf 3
        assert tree.on_tree == {1, 0, 3}

    def test_prune_non_leaf_rejected(self, path5):
        tree = _tree_on(path5, 0, 4)
        with pytest.raises(SimulationInvariantError, match="non-leaf"):
            tree.prune(2)


class TestTreePathHops:
    def test_establish_path(self, path5):
        tree = _tree_on(path5, 0, 2)
        assert tree.path_hops(2) == 2

    def test_adjacent_leaf(self, path5):
        tree = _tree_on(path5, 3, 4)
        assert tree.path_hops(4) == 1

    def test_equals_bfs_after_random_churn(self):
        rng = random.Random(21)
        for _ in range(20):
            n = rng.randrange(8, 21)
            topo = Topology.from_edges("g", n, random_connected_edges(rng, n, n))
            oracle = PathOracle(topo)
            adj = {u: list(nbrs) for u, nbrs in enumerate(topo.adj)}
            cn = rng.randrange(n)
            spots = [v for v in range(n) if v != cn]
            loc = rng.choice(spots)
            tree = establish(topo, oracle, cn, loc)
            for _ in range(15):
                new = rng.choice(spots)
                if new != loc:
                    tree.join(new)
                    tree.prune(loc)
                    loc = new
                assert tree.path_hops(loc) == bfs_dist(adj, cn)[loc]
                validate_tree(tree)


class TestRunScenario:
    def test_stationary_trace(self, path5):
        oracle = PathOracle(path5)
        trace = MovementTrace(start=3, steps=(3, 3, 3), model=MovementModel("random"), seed=0)
        samples = run_scenario(path5, oracle, 0, 1, trace)
        assert samples[0].establishment
        assert samples[0].added_links == 3
        for s in samples[1:]:
            assert (s.added_links, s.removed_links) == (0, 0)
            assert (s.a_hops, s.b_hops, s.c_hops) == (1, 2, 3)

    def test_neighbor_moves_on_tree_topology_add_at_most_one(self):
        rng = random.Random(8)
        for _ in range(10):
            n = rng.randrange(8, 25)
            # spanning tree only: unique shortest paths
            order = list(range(n))
            rng.shuffle(order)
            edges = [(order[i], order[rng.randrange(i)]) for i in range(1, n)]
            topo = Topology.from_edges("t", n, edges)
            oracle = PathOracle(topo)
            cn = rng.randrange(n)
            trace = generate_trace(
                topo, MovementModel("neighbor"), frozenset({cn}), 25, seed=rng.randrange(10**6)
            )
            ha = rng.choice([v for v in range(n) if v != cn])
            samples = run_scenario(topo, oracle, cn, ha, trace)
            assert all(s.added_links <= 1 for s in samples[1:])

    def test_c_hops_equals_distance_everywhere(self):
        rng = random.Random(9)
        topo = Topology.from_edges("g", 20, random_connected_edges(rng, 20, 20))
        oracle = PathOracle(topo)
        adj = {u: list(nbrs) for u, nbrs in enumerate(topo.adj)}
        trace = generate_trace(topo, MovementModel("random"), frozenset({0}), 50, seed=10)
        samples = run_scenario(topo, oracle, 0, 5, trace)
        dist_cn = bfs_dist(adj, 0)
        for s, node in zip(samples, trace.steps):
            assert s.c_hops == dist_cn[node]

    def test_conservation(self):
        rng = random.Random(11)
        topo = Topology.from_edges("g", 30, random_connected_edges(rng, 30, 30))
        oracle = PathOracle(topo)
        trace = generate_trace(topo, MovementModel("random"), frozenset({2}), 60, seed=12)
        samples = run_scenario(topo, oracle, 2, 7, trace)
        added = removed = 0
        for s in samples:
            added += s.added_links
            removed += s.removed_links
            assert added >= removed
        # after the last prune exactly one branch remains
        assert added - removed == samples[-1].c_hops

    def test_r_at_least_one(self):
        rng = random.Random(13)
        topo = Topology.from_edges("g", 25, random_connected_edges(rng, 25, 20))
        oracle = PathOracle(topo)
        trace = generate_trace(topo, MovementModel("cluster"), frozenset({1}), 40, seed=14)
        for s in run_scenario(topo, oracle, 1, 9, trace):
            assert s.a_hops + s.b_hops >= s.c_hops

    def test_deterministic(self):
        rng = random.Random(15)
        topo = Topology.from_edges("g", 18, random_connected_edges(rng, 18, 12))
        oracle = PathOracle(topo)
        trace = generate_trace(topo, MovementModel("random"), frozenset({4}), 30, seed=16)
        first = run_scenario(topo, oracle, 4, 6, trace)
        second = run_scenario(topo, PathOracle(topo), 4, 6, trace)
        assert first == second

    def test_rejects_cn_in_trace(self, path5):
        trace = MovementTrace(start=0, steps=(0, 1), model=MovementModel("random"), seed=0)
        with pytest.raises(SimulationInvariantError, match="correspondent"):
            run_scenario(path5, PathOracle(path5), 0, 3, trace)

    def test_rejects_cn_equals_ha(self, path5):
        trace = MovementTrace(start=2, steps=(2, 3), model=MovementModel("random"), seed=0)
        with pytest.raises(SimulationInvariantError):
            run_scenario(path5, PathOracle(path5), 0, 0, trace)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_tree_invariants_hold_under_random_scenarios(seed):
    rng = random.Random(seed)
    n = rng.randrange(6, 30)
    topo = Topology.from_edges("g", n, random_connected_edges(rng, n, rng.randrange(0, n)))
    oracle = PathOracle(topo)
    cn = rng.randrange(n)
    spots = [v for v in range(n) if v != cn]
    loc = rng.choice(spots)
    tree = establish(topo, oracle, cn, loc)
    validate_tree(tree)
    for _ in range(12):
        new = rng.choice(spots)
        if new == loc:
            continue
        tree.join(new)
        validate_tree(tree)
        tree.prune(loc)
        validate_tree(tree)
        loc = new
        assert tree.leaves == {loc}


def test_samples_csv(path5):
    oracle = PathOracle(path5)
    trace = MovementTrace(start=4, steps=(4, 3), model=MovementModel("neighbor"), seed=0)
    samples = run_scenario(path5, oracle, 0, 1, trace)
    text = samples_to_csv(samples)
    lines = text.strip().splitlines()
    assert lines[0] == "step,a,b,c,added,removed"
    assert lines[1] == "0,1,3,4,4,0"
    assert lines[2] == "1,1,2,3,0,1"
