"""Multicast tree mechanics: establish, join, prune, and scenario accounting."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcastmob import reporting, routing
from mcastmob.config import reference_suite_config
from mcastmob.experiment import execute_scenario
from mcastmob.movement import MODEL_KINDS, MovementError, MovementModel, generate_trace
from mcastmob.routing import MulticastTree, SimulationInvariantError, establish, run_scenario
from mcastmob.topology import PathOracle

from conftest import bfs_dist, make_topology, random_connected_edges, run_walk_model, validate_tree


def _tree_on(topo, cn, loc):
    return establish(PathOracle(topo), cn, loc)


class TestEstablish:
    def test_path_graph(self, path5):
        tree = _tree_on(path5, 0, 2)
        assert tree.branch == [2, 1, 0]

    def test_adjacent(self, path5):
        tree = _tree_on(path5, 1, 2)
        assert tree.edge_count == 1
        assert tree.branch == [2, 1]

    def test_diamond_tie_break(self, diamond):
        tree = _tree_on(diamond, 0, 3)
        assert tree.branch == [3, 1, 0]

    def test_at_cn_rejected(self, path5):
        with pytest.raises(SimulationInvariantError):
            _tree_on(path5, 2, 2)


class TestJoin:
    def test_two_hop_graft_then_on_path_move(self):
        # chain cn=0 -1 -3 -2: moving 1 -> 2 grafts two links; moving
        # 2 -> 3 lands on the existing branch, adding none
        topo = make_topology("fig", 4, [(0, 1), (1, 3), (3, 2)])
        tree = _tree_on(topo, 0, 1)
        assert tree.join(2) == 2
        assert tree.prune(1) == 0  # old location is now interior
        assert tree.join(3) == 0
        assert tree.prune(2) == 1

    def test_join_at_on_tree_node(self, path5):
        tree = _tree_on(path5, 0, 4)
        assert tree.join(2) == 0
        assert tree.branch == [2, 1, 0]
        assert tree.pending == (4, [4, 3])

    def test_star_graft_single_link(self, star):
        # cn is spoke 1, current branch reaches spoke 2 through the hub
        tree = _tree_on(star, 1, 2)
        assert tree.join(3) == 1
        assert tree.branch == [3, 0, 1]

    def test_join_at_cn_rejected(self, path5):
        tree = _tree_on(path5, 0, 4)
        with pytest.raises(SimulationInvariantError):
            tree.join(0)

    def test_second_join_before_prune_rejected(self, path5):
        tree = _tree_on(path5, 0, 4)
        tree.join(2)
        with pytest.raises(SimulationInvariantError, match="join before the prune of 4"):
            tree.join(3)

    def test_corrupted_path_reaches_an_invariant_error(self, path5, monkeypatch):
        # a branch 0-2 that skips node 1 is one link short of the shortest path to 2
        def skipping(oracle, cn, first):
            tree = establish(oracle, cn, first)
            del tree.path[1]
            return tree

        monkeypatch.setattr(routing, "establish", skipping)
        with pytest.raises(SimulationInvariantError,
                           match=r"tree path 1 != shortest path 2 at step 1, branch \[2, 0\]$"):
            run_scenario(PathOracle(path5), 0, 1, (2, 2))


class TestPrune:
    def test_fork_keeps_shared_prefix(self, star):
        tree = _tree_on(star, 1, 2)
        tree.join(3)
        assert tree.prune(2) == 1  # only the 2-hub link goes; hub feeds leaf 3
        assert tree.branch == [3, 0, 1]
        assert tree.path == [1, 0, 3]

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

    def test_non_leaf_rejected(self, path5):
        tree = _tree_on(path5, 0, 4)
        with pytest.raises(SimulationInvariantError, match="2 is not a joined leaf"):
            tree.path_hops(2)

    def test_equals_bfs_after_random_churn(self):
        rng = random.Random(21)
        for _ in range(20):
            n = rng.randrange(8, 21)
            topo = make_topology("g", n, random_connected_edges(rng, n, n))
            oracle = PathOracle(topo)
            adj = {u: list(nbrs) for u, nbrs in enumerate(topo.adj)}
            cn = rng.randrange(n)
            spots = [v for v in range(n) if v != cn]
            loc = rng.choice(spots)
            tree = establish(oracle, cn, loc)
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
        samples = run_scenario(oracle, 0, 1, (3, 3, 3))
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
            topo = make_topology("t", n, edges)
            oracle = PathOracle(topo)
            cn = rng.randrange(n)
            trace = generate_trace(topo, MovementModel("neighbor"), cn, 25, seed=rng.randrange(10**6))
            ha = rng.choice([v for v in range(n) if v != cn])
            samples = run_scenario(oracle, cn, ha, trace.steps)
            assert all(s.added_links <= 1 for s in samples[1:])

    def test_c_hops_equals_distance_everywhere(self):
        rng = random.Random(9)
        topo = make_topology("g", 20, random_connected_edges(rng, 20, 20))
        oracle = PathOracle(topo)
        adj = {u: list(nbrs) for u, nbrs in enumerate(topo.adj)}
        trace = generate_trace(topo, MovementModel("random"), 0, 50, seed=10)
        samples = run_scenario(oracle, 0, 5, trace.steps)
        dist_cn = bfs_dist(adj, 0)
        for s, node in zip(samples, trace.steps):
            assert s.c_hops == dist_cn[node]

    def test_conservation(self):
        rng = random.Random(11)
        topo = make_topology("g", 30, random_connected_edges(rng, 30, 30))
        oracle = PathOracle(topo)
        trace = generate_trace(topo, MovementModel("random"), 2, 60, seed=12)
        samples = run_scenario(oracle, 2, 7, trace.steps)
        added = removed = 0
        for s in samples:
            added += s.added_links
            removed += s.removed_links
            assert added >= removed
        # after the last prune exactly one branch remains
        assert added - removed == samples[-1].c_hops

    def test_r_at_least_one(self):
        rng = random.Random(13)
        topo = make_topology("g", 25, random_connected_edges(rng, 25, 20))
        oracle = PathOracle(topo)
        trace = generate_trace(topo, MovementModel("cluster"), 1, 40, seed=14)
        for s in run_scenario(oracle, 1, 9, trace.steps):
            assert s.a_hops + s.b_hops >= s.c_hops

    def test_deterministic(self):
        rng = random.Random(15)
        topo = make_topology("g", 18, random_connected_edges(rng, 18, 12))
        oracle = PathOracle(topo)
        trace = generate_trace(topo, MovementModel("random"), 4, 30, seed=16)
        first = run_scenario(oracle, 4, 6, trace.steps)
        second = run_scenario(PathOracle(topo), 4, 6, trace.steps)
        assert first == second

    def test_searches_only_from_the_cn_and_the_ha(self, monkeypatch):
        sources = set()
        dist_from = PathOracle.dist_from

        def counted(oracle, source):
            sources.add(source)
            return dist_from(oracle, source)

        monkeypatch.setattr(PathOracle, "dist_from", counted)
        rng = random.Random(19)
        topo = make_topology("g", 40, random_connected_edges(rng, 40, 30))
        trace = generate_trace(topo, MovementModel("random"), 5, 80, seed=20)
        run_scenario(PathOracle(topo), 5, 11, trace.steps)
        assert len(set(trace.steps)) > 20
        assert sources == {5, 11}

    def test_invariant_failures_end_with_the_branch(self, path5, monkeypatch):
        # the tree is built on true vectors; those the run reads after it are one hop too far
        dist_from = PathOracle.dist_from

        def then_off_by_one(oracle, cn, first):
            tree = establish(oracle, cn, first)
            monkeypatch.setattr(PathOracle, "dist_from",
                                lambda oracle, source: [d + 1 for d in dist_from(oracle, source)])
            return tree

        monkeypatch.setattr(routing, "establish", then_off_by_one)
        with pytest.raises(SimulationInvariantError,
                           match=r"tree path 3 != shortest path 4 at step 1, branch \[3, 2, 1, 0\]$"):
            run_scenario(PathOracle(path5), 0, 1, (4, 3))
        monkeypatch.undo()
        prune = MulticastTree.prune
        monkeypatch.setattr(MulticastTree, "prune", lambda tree, old: prune(tree, old) + 1)
        with pytest.raises(SimulationInvariantError,
                           match=r"link accounting broken at step 1: .*, branch \[3, 2, 1, 0\]$"):
            run_scenario(PathOracle(path5), 0, 1, (4, 3))

    def test_rejects_cn_in_trace(self, path5):
        with pytest.raises(SimulationInvariantError, match="correspondent"):
            run_scenario(PathOracle(path5), 0, 3, (0, 1))

    def test_rejects_cn_equals_ha(self, path5):
        with pytest.raises(SimulationInvariantError):
            run_scenario(PathOracle(path5), 0, 0, (2, 3))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_tree_invariants_hold_under_random_scenarios(seed):
    rng = random.Random(seed)
    n = rng.randrange(6, 30)
    topo = make_topology("g", n, random_connected_edges(rng, n, rng.randrange(0, n)))
    oracle = PathOracle(topo)
    cn = rng.randrange(n)
    spots = [v for v in range(n) if v != cn]
    loc = rng.choice(spots)
    tree = establish(oracle, cn, loc)
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
        # between moves the tree is the branch a fresh establish builds
        fresh = establish(oracle, cn, loc)
        assert (tree.path, tree.pending) == (fresh.path, None)


def _hops(samples):
    return [(s.a_hops, s.b_hops, s.c_hops, s.added_links, s.removed_links) for s in samples]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), kind=st.sampled_from(MODEL_KINDS),
       moves=st.integers(min_value=1, max_value=40))
def test_run_scenario_equals_the_parent_tree_model(seed, kind, moves):
    """Every sample equals the independent LCA model's, under each movement model.

    The model reads an adjacency built from the edge list in shuffled order,
    so it takes the lowest-id parent by value, not by list position.
    """
    rng = random.Random(seed)
    n = rng.randrange(3, 30)
    edges = random_connected_edges(rng, n, rng.randrange(0, 2 * n))
    topo = make_topology("g", n, edges)
    cn, ha = rng.sample(range(n), 2)
    try:
        steps = generate_trace(topo, MovementModel(kind, rng.randrange(1, 8)), cn, moves,
                               rng.getrandbits(32)).steps
    except MovementError:  # under `neighbor`, every node's only move is onto the CN
        assume(False)
    rng.shuffle(edges)
    adj = {u: [] for u in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    assert _hops(run_scenario(PathOracle(topo), cn, ha, steps)) == run_walk_model(adj, cn, ha, steps)


def test_reference_suite_runs_equal_the_parent_tree_model():
    """Every run of the reference suite at one master seed, step by step."""
    result = execute_scenario(reference_suite_config(master_seed=3))
    assert len(result.runs) == 13 * 3 * 10
    for run in result.runs:
        adj = result.topologies[run.record.topology].adj
        assert _hops(run.samples) == run_walk_model(adj, run.cn, run.ha, run.trace.steps), (
            run.record.topology, run.record.model, run.record.run_index)


def test_samples_csv(path5, tmp_path):
    oracle = PathOracle(path5)
    samples = run_scenario(oracle, 0, 1, (4, 3))
    path = tmp_path / "runs" / "s.csv"
    reporting.write_run_samples(str(path), samples)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0] == "step,a,b,c,added,removed"
    assert lines[1] == "0,1,3,4,4,0"
    assert lines[2] == "1,1,2,3,0,1"
