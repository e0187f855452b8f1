"""Topology loading, generation, and shortest-path oracle tests."""

import hashlib
import itertools
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcastmob.config import reference_suite_config, stable_seed
from mcastmob.topology import (
    GenerationError,
    GeneratorParams,
    PathOracle,
    Topology,
    TopologyError,
    _add_edge,
    _fill_uniform,
    _random_tree,
    generate,
    load_edge_list,
)

from conftest import bfs_dist, cluster_blocks, edges_of, make_topology, random_connected_edges


class TestLoadEdgeList:
    def test_single_edge(self):
        topo = load_edge_list("0 1")
        assert topo.n == 2
        assert topo.edge_count == 1

    def test_five_cycle(self):
        text = "\n".join(f"{i} {(i + 1) % 5}" for i in range(5))
        topo = load_edge_list(text, name="c5")
        assert topo.avg_degree == 2.0
        assert PathOracle(topo).dist_from(0)[2] == 2

    def test_summary_rounds_the_degree_to_two_places(self):
        assert load_edge_list("0 1\n1 2", name="p3").summary() == "p3 3 2 1.33"

    def test_comments_and_blanks(self):
        topo = load_edge_list("# header\n\n0 1  # trailing\n1 2\n")
        assert topo.n == 3
        assert topo.edge_count == 2

    def test_table_sized_document(self):
        # 100 nodes, 185 edges, average degree 3.7: a path plus 86 chords
        lines = [f"{i} {i + 1}" for i in range(99)]
        lines += [f"{i} {i + 2}" for i in range(86)]
        topo = load_edge_list("\n".join(lines), name="ts100")
        assert (topo.n, topo.edge_count) == (100, 185)
        assert topo.summary() == "ts100 100 185 3.7"

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("0 1\n1 2 3", "line 2"),
            ("0 x", "non-integer"),
            ("0 0", "self-loop"),
            ("0 1\n1 0", "line 2: duplicate"),
            ("0 1\n-1 2", "negative"),
            ("", "empty"),
        ],
    )
    def test_rejects_malformed(self, text, fragment):
        with pytest.raises(TopologyError, match=fragment):
            load_edge_list(text)

    def test_rejects_disconnected(self):
        # n - 2 links: one short of a spanning tree, so the link-count guard refuses them
        with pytest.raises(TopologyError) as exc:
            load_edge_list("0 1\n2 3")
        assert str(exc.value) == "disconnected graph: 2 links cannot join 4 nodes"

    def test_edges_are_the_sorted_normalised_input(self):
        rng = random.Random(3)
        edges = random_connected_edges(rng, 30, 40)
        flipped = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        rng.shuffle(flipped)
        topo = load_edge_list("\n".join(f"{u} {v}" for u, v in flipped))
        assert edges_of(topo) == tuple(sorted(edges))
        assert topo.edge_count == len(edges)

    def test_unreached_node_is_named(self):
        # enough links to pass the link-count guard, so the search finds the gap
        with pytest.raises(TopologyError) as exc:
            load_edge_list("0 1\n1 2\n0 2\n3 4")
        assert str(exc.value) == "disconnected graph: only 3 of 5 nodes reachable (node 3 unreached)"

    def test_gap_in_ids_is_disconnected(self):
        with pytest.raises(TopologyError, match="disconnected"):
            load_edge_list("0 2\n2 3\n5 3\n4 5\n6 4")

    def test_too_few_links_fail_before_the_adjacency_is_built(self):
        # an adjacency list per id up to 10**12 would exhaust memory
        with pytest.raises(TopologyError, match="disconnected graph: 2 links cannot join"):
            load_edge_list(f"0 1\n1 {10**12}\n")


class TestFromEdges:
    def test_adjacency_sorted(self):
        topo = make_topology("t", 4, [(0, 3), (0, 1), (0, 2)])
        assert topo.adj[0] == (1, 2, 3)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), n=st.integers(min_value=2, max_value=40))
def test_keyed_build_matches_load_edge_list(seed, n):
    """The generators' keyed build and the edge-list build give the same topology."""
    rng = random.Random(seed)
    edges = random_connected_edges(rng, n, rng.randrange(0, 2 * n))
    flipped = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(flipped)
    keyed = Topology._from_keys("k", n, {u * n + v for u, v in edges})
    listed = load_edge_list("".join(f"{u} {v}\n" for u, v in flipped), name="k")
    assert (keyed.adj, keyed.edge_count, edges_of(keyed)) == (
        listed.adj, listed.edge_count, edges_of(listed))
    assert edges_of(keyed) == tuple(edges)
    assert all(list(nbrs) == sorted(nbrs) for nbrs in keyed.adj)


def reference_adjacency(n, keys):
    """Each node's neighbours in ascending id order, read off the key set `u * n + v`, u < v."""
    pairs = [divmod(key, n) for key in keys]
    return tuple(tuple(sorted([v for u, v in pairs if u == w] + [u for u, v in pairs if v == w]))
                 for w in range(n))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), n=st.integers(min_value=2, max_value=40))
def test_keyed_adjacency_equals_the_reference(seed, n):
    """Whatever order the key set iterates in, each node's neighbours come out ascending."""
    rng = random.Random(seed)
    keys = {u * n + v for u, v in random_connected_edges(rng, n, rng.randrange(0, n * n // 2 + 1))}
    topo = Topology._from_keys("k", n, keys)
    assert topo.adj == reference_adjacency(n, keys)
    assert topo.edge_count == len(keys)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), n=st.integers(min_value=2, max_value=30),
       data=st.data())
def test_edge_list_line_order_does_not_change_the_topology(seed, n, data):
    """Any permutation of an edge list's lines loads as the same `Topology`."""
    rng = random.Random(seed)
    lines = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}"
             for u, v in random_connected_edges(rng, n, rng.randrange(0, 2 * n))]
    shuffled = data.draw(st.permutations(lines))
    assert load_edge_list("\n".join(shuffled), name="p") == load_edge_list("\n".join(lines), name="p")


# sha256 of "u v\n" per edge of edges_of(generate(params)), recorded before the
# generators drew through getrandbits directly and Topology derived its edges
def _pin(kind, n, deg, seed, digest, **knobs):
    label = "-".join(map(str, (kind, n, deg, seed, *(f"{k}={v}" for k, v in knobs.items()), digest)))
    return pytest.param(GeneratorParams(kind, n, deg, seed=seed, **knobs), digest, id=label)


PINNED_EDGES = [
    _pin("flat_random", 50, 8.68, 1, "56d5f573290b700626a29c50db7f76160247fd6064126f01e9f49055753dfe08"),
    _pin("flat_random", 50, 8.68, 2, "dec1bb128047877e2436f053292d710a4552f7913072b28b1456366dc808b662"),
    _pin("flat_random", 400, 4.0, 1, "957e18774b4baa8196c0cbfe19e75f0e136f66f9e57fcacbeb9544e560321b6e"),
    _pin("flat_random", 400, 4.0, 2, "9c6a0cd0782cd4e7b3c11cd4f93b1ba372b45ad178dde6e4237b2051c98d8666"),
    _pin("transit_stub", 100, 3.7, 1, "f0c831c8638500e10060da71aa6bdeeeb6ea016b3a5e6087c80d91694bcddd9a"),
    _pin("transit_stub", 100, 3.7, 2, "01dd636490184c03fd7351dbb28f6cb29f964d56369e08bd892273b80f052f1c"),
    _pin("transit_stub", 2000, 3.7, 1, "e881b9f492ff965aecfeb44cb20c898435a3946cbb61d6ec96d595fb10a2e1c4"),
    _pin("transit_stub", 2000, 3.7, 2, "6ce4a17a9217255cde86b193ce02a989338a84b82e1ff38e6ca162bde92d3b78"),
    _pin("tiers_like", 200, 2.81, 1, "5142c18bbbd06a92de0bf98d5080e30b2c74446b9a5e4d95fe94a60ed3379a0c"),
    _pin("tiers_like", 200, 2.81, 2, "ecaa53d2cafbd1fa0519fbeb2f19b0b05ac8d049596d3d38bb928af0e823ff57"),
    _pin("tiers_like", 1000, 2.81, 1, "5661eaa353ef6bb9b59d4de5a51eec33332b460d20983b82bb5ed3574a97ad48"),
    _pin("tiers_like", 1000, 2.81, 2, "8bd766ef6e7d14231b1474fd29f6ec784c06a7e31561b0f96996026bc0fa110b"),
    # the large_topology benchmark's ts10000 at seed 7
    _pin("transit_stub", 10_000, 3.7, stable_seed(7, "topology", "ts10000"),
         "3b9f6fbc4790f273c21076c46dd914659f31047fa68cd4c636981d5c27af67a9"),
    # dense one-node and small blocks: their clustered links fill up, and _fill_clustered
    # falls back to uniform placement
    _pin("transit_stub", 30, 20.0, 1, "46c90308c9c563f7ebf5a71475f1e4d99879378bdd1239f9b4aedc6fffce799a",
         stub_size=1),
    _pin("tiers_like", 30, 6.0, 1, "ea12b34e8ff3189be9eb8aac76d2853fc4bb9cf41b48b80aca2c77160410b071",
         stub_size=1, stubs_per_transit=1),
    _pin("transit_stub", 60, 20.0, 1, "57d3ae7913648d5c85e1654c3d900585b71aee8578d13e00b646cf1bbbf154b1",
         stub_size=3),
    # r250's shape: a dense flat graph
    _pin("flat_random", 250, 49.68, 1, "fe9fa83fd75c9976cd473a47f5c2c0a2889abff549304e442d14a1b29d0270b3"),
    # one- and three-node transit cores at the default stub sizes: a core of one has no
    # link of its own, and a core of three is a ring with no chord
    _pin("transit_stub", 20, 3.7, 1, "8f662d711564d13a379c61d61554ba3b1a048908080ba4d66f8994054cbe0ec5"),
    _pin("tiers_like", 12, 2.81, 1, "15e522f40cba90980dcdb5b882ad097f22b59ea9c1fcc10bbc1fd67ec698f282"),
    _pin("transit_stub", 75, 3.7, 1, "f2d15e06eb291891670c4b7fc0d60b61bf1dd9362ed51b164b362b3053bce051"),
]


# sha256 of every reference-suite topology at one master seed, in suite order: its name
# line, then "u v\n" per edge of edges_of; recorded before the generators drew their
# stub shuffles inline and fell back from saturated clusters at once
SUITE_EDGES = {
    0: "e5b4e27e5d22ae832f9a465811ed401635f623e880326a78828e1b4014f10b87",
    1: "f605047e1d4d6907875d794d92ed67b412904bca468cd4aa487fb14e6cd4a2da",
    2: "3c358714ef2ee5523cd3089d6aa8f2d7332894219c9a6c99ea4031dc436d293d",
    3: "d30d3dd6082c16b6ac8f42ed85b6e9274b397c6e27bbc7c1d6949ef1185c2cf2",
    4: "5bb27d6e36c2f318c4980e886a5948546670101f81518919b7965832c07b1462",
    5: "3f63ba50492d0575fc137ab2c8584d41426564014e9a5e150b55515159d63053",
    6: "c5bd4a9cb5cd54eade1eacee5f2d36ed2ed5d0c8d065aecacc8f7ff331f12344",
    7: "c745e7439ce4f9cf694ec911285f7a5df9d77131c4d47f5f2057d687bf8f1d5d",
}


_EDGE_LINE = st.one_of(
    st.tuples(st.integers(-1, 9), st.integers(-1, 9)).map("{0[0]} {0[1]}".format),
    st.text(max_size=12),
)
_CHAIN_LINES = st.integers(2, 9).flatmap(lambda n: st.permutations(range(n))).map(
    lambda order: [f"{u} {v}" for u, v in zip(order, order[1:])])
# free text, free lines, and a connected chain with a few free lines after it
_EDGE_LIST_TEXT = st.one_of(
    st.text(),
    st.lists(_EDGE_LINE, max_size=20).map("\n".join),
    st.tuples(_CHAIN_LINES, st.lists(_EDGE_LINE, max_size=3)).map(
        lambda parts: "\n".join(parts[0] + parts[1])),
)


@settings(max_examples=300, deadline=None)
@given(text=_EDGE_LIST_TEXT)
def test_any_edge_list_text_loads_or_raises_topology_error(text):
    """Whatever the text, `load_edge_list` returns a connected topology or raises TopologyError."""
    try:
        topo = load_edge_list(text)
    except TopologyError:
        return
    assert isinstance(topo, Topology)
    assert topo.n >= 2 and topo.edge_count >= topo.n - 1


class TestGenerate:
    @pytest.mark.parametrize("params,digest", PINNED_EDGES)
    def test_edge_sets_are_pinned(self, params, digest):
        edges = edges_of(generate(params))
        text = "".join(f"{u} {v}\n" for u, v in edges)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("master_seed", sorted(SUITE_EDGES))
    def test_reference_suite_edge_sets_are_pinned(self, master_seed):
        digest = hashlib.sha256()
        for spec in reference_suite_config(master_seed=master_seed).topologies:
            digest.update(f"{spec.name}\n".encode())
            digest.update("".join(f"{u} {v}\n" for u, v in edges_of(generate(spec.generator))).encode())
        assert digest.hexdigest() == SUITE_EDGES[master_seed]

    def test_random_tree_orders_its_nodes_as_random_shuffle(self):
        """The inline draws are `random.Random`'s, so every tree and uplink is the same.

        Per block, the reference shuffles its ids with `random.Random.shuffle` and
        draws `randrange(i)` for each tree link; with a core it then draws the
        uplink's end as `randrange(lo, hi)` and adds it by `_add_edge`.
        """
        sizes = random.Random(0)
        cases = [(0, [size]) for size in range(1, 41)]  # one block and no core, as flat_random
        for core in range(1, 6):
            cases.append((core, list(range(1, 13))))
            cases += [(core, [sizes.randrange(1, 13) for _ in range(sizes.randrange(1, 8))])
                      for _ in range(10)]
        for (core, lengths), seed in itertools.product(cases, range(4)):
            stops = list(itertools.accumulate(lengths, initial=core or 5))
            blocks = list(zip(stops, stops[1:]))
            n = stops[-1] + 3
            rng, ref = random.Random(seed), random.Random(seed)
            edges = set()
            _random_tree(edges, n, blocks, rng, core)
            expect = set()
            for b, (lo, hi) in enumerate(blocks):
                order = list(range(lo, hi))
                ref.shuffle(order)
                for i in range(1, hi - lo):
                    u, v = sorted((order[i], order[ref.randrange(i)]))
                    expect.add(u * n + v)
                if core:
                    _add_edge(expect, n, ref.randrange(lo, hi), b % core)
            assert edges == expect and rng.getstate() == ref.getstate(), (core, lengths, seed)

    def test_flat_random_r50(self):
        params = GeneratorParams("flat_random", 50, 8.68, seed=1)
        topo = generate(params, name="r50")
        assert abs(topo.edge_count - 217) <= 0.15 * 217
        assert topo.n == 50

    def test_deterministic(self):
        params = GeneratorParams("transit_stub", 100, 3.7, seed=9)
        assert edges_of(generate(params)) == edges_of(generate(params))

    def test_an_unnamed_topology_is_named_by_its_kind_and_size(self):
        assert generate(GeneratorParams("tiers_like", 40, 2.81)).name == "tiers_like-40"
        assert generate(GeneratorParams("tiers_like", 40, 2.81), name="t").name == "t"

    def test_the_default_seed_is_0(self):
        params = GeneratorParams("flat_random", 40, 4.0)
        assert edges_of(generate(params)) == edges_of(generate(replace(params, seed=0)))

    def test_a_budget_met_on_the_last_attempt_is_not_a_stall(self):
        edges = set()
        _fill_uniform(edges, 1000, 1, random.Random(0), 1)  # its one draw is not a self-loop
        assert len(edges) == 1

    def test_different_seeds_differ(self):
        a = generate(GeneratorParams("flat_random", 40, 4.0, seed=1))
        b = generate(GeneratorParams("flat_random", 40, 4.0, seed=2))
        assert edges_of(a) != edges_of(b)

    def test_transit_stub_ts100(self):
        params = GeneratorParams("transit_stub", 100, 3.7, seed=4)
        topo = generate(params, name="ts100")
        assert abs(topo.avg_degree - 3.7) <= 0.15 * 3.7
        blocks = cluster_blocks(params)
        # clusters are contiguous id blocks covering everything past the core
        stops = [b[1] for b in blocks]
        starts = [b[0] for b in blocks]
        assert stops[-1] == topo.n
        assert starts[1:] == stops[:-1]
        # stub i has an uplink to transit node i % core, the core being ids below the first stub
        core = starts[0]
        for i, (lo, hi) in enumerate(blocks):
            assert any(i % core in topo.adj[u] for u in range(lo, hi)), (lo, hi)

    @pytest.mark.parametrize("n", [7, 11])
    def test_a_core_above_half_the_nodes_is_clamped(self, n):
        """One-node stubs, one per transit node: round(n / 2) passes n // 2, and the core keeps n // 2.

        At degree 2 the budget is met by the ring and the uplinks alone, so
        each stub node i links to core id i % core, as `cluster_blocks` lays them out.
        """
        params = GeneratorParams("transit_stub", n, 2.0, seed=1, stub_size=1, stubs_per_transit=1)
        topo = generate(params)
        blocks = cluster_blocks(params)
        core = blocks[0][0]
        assert all(i % core in topo.adj[lo] for i, (lo, _) in enumerate(blocks))

    def test_dense_one_node_stubs_run_out_of_clustered_draws(self):
        """The clustered draws end 4 links short of their class, so the draw caps set this edge set.

        Its class is the 300 core pairs and 1,875 uplinks of 25 core ids and 75
        one-node stubs; the uniform fallback adds the other 829 links.
        """
        topo = generate(GeneratorParams("transit_stub", 100, 60.0, seed=1, stub_size=1))
        text = "".join(f"{u} {v}\n" for u, v in edges_of(topo))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "95dc748c91c450e67a23d3e958d90458f5faf4c8a8be2abe421a59bcb7589674")

    def test_transit_stub_clusters_internally_connected(self):
        params = GeneratorParams("transit_stub", 120, 3.7, seed=5)
        topo = generate(params)
        for lo, hi in cluster_blocks(params):
            inside = set(range(lo, hi))
            adj = {u: [v for v in topo.adj[u] if v in inside] for u in inside}
            assert len(bfs_dist(adj, lo)) == hi - lo

    def test_tiers_like_near_tree(self):
        params = GeneratorParams("tiers_like", 1000, 2.81, seed=6)
        topo = generate(params, name="ti1000")
        assert abs(topo.avg_degree - 2.81) <= 0.15 * 2.81
        # every cluster is a LAN-style star around its first id
        for lo, hi in cluster_blocks(params):
            assert all(lo in topo.adj[j] for j in range(lo + 1, hi)), (lo, hi)

    def test_tiers_like_with_few_clusters_has_one_mid_cluster(self):
        """Below eight clusters a quarter of them rounds to 0, and one is still a mid cluster.

        The mid cluster links to the core, and every leaf cluster into it.
        """
        params = GeneratorParams("tiers_like", 40, 2.81, seed=1)
        topo = generate(params)
        (mlo, mhi), *leaves = cluster_blocks(params)
        assert len(leaves) == 4
        assert any(0 in topo.adj[u] for u in range(mlo, mhi))
        for lo, hi in leaves:
            assert any(mlo <= v < mhi for u in range(lo, hi) for v in topo.adj[u]), (lo, hi)

    def test_infeasible_degree(self):
        with pytest.raises(GenerationError):
            generate(GeneratorParams("flat_random", 10, 20.0, seed=1))

    def test_bad_params(self):
        with pytest.raises(GenerationError):
            GeneratorParams("flat_random", 1, 4.0)
        with pytest.raises(GenerationError):
            GeneratorParams("flat_random", 10, 1.5)
        with pytest.raises(GenerationError):
            GeneratorParams("mystery", 10, 3.0)
        with pytest.raises(GenerationError, match="must be finite"):
            GeneratorParams("flat_random", 10, math.inf)
        with pytest.raises(GenerationError, match="clustering knobs"):
            GeneratorParams("transit_stub", 10, 3.0, stub_size=0)
        with pytest.raises(GenerationError, match="clustering knobs"):
            GeneratorParams("transit_stub", 10, 3.0, stubs_per_transit=0)

    @pytest.mark.parametrize("kind", ["flat_random", "transit_stub", "tiers_like"])
    def test_two_nodes_pass_the_count_check_and_fail_the_budget(self, kind):
        """Two nodes are enough nodes; degree 2 asks for a second link that two nodes lack."""
        with pytest.raises(GenerationError) as exc:
            GeneratorParams(kind, 2, 2.0)
        assert str(exc.value) == (
            "target degree 2.0 needs 2 edges, more than a 2-node simple graph holds")

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(["flat_random", "transit_stub", "tiers_like"]),
        n=st.integers(min_value=3, max_value=200),
        share=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32),
        stub_size=st.integers(min_value=1, max_value=10),
        stubs_per_transit=st.integers(min_value=1, max_value=5),
    )
    def test_generated_graphs_are_valid(self, kind, n, share, seed, stub_size,
                                        stubs_per_transit):
        """Every valid parameter set builds, at the degree `generate` promises.

        The degree runs over 2 .. n - 1, every value that a simple graph of
        n nodes holds.
        """
        deg = 2 + share * (n - 3)
        topo = generate(GeneratorParams(kind, n, deg, seed=seed, stub_size=stub_size,
                                        stubs_per_transit=stubs_per_transit))
        assert topo.n == n
        # simple graph: no self loops or duplicates by construction of the edge set
        assert all(u < v for u, v in edges_of(topo))
        assert len(set(edges_of(topo))) == topo.edge_count
        # 1/n is half a link of rounding; 12.5% is a spanning structure above the budget
        assert deg - 1 / n <= topo.avg_degree <= max(deg + 1 / n, 1.125 * deg)
        # connectivity re-checked with the independent BFS
        adj = {u: list(nbrs) for u, nbrs in enumerate(topo.adj)}
        assert len(bfs_dist(adj, 0)) == n


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_dist_from_equals_the_independent_bfs(seed):
    """A search that stops once every node is reached still gives every distance.

    Up to a complete graph, where the search stops after its first level.
    """
    rng = random.Random(seed)
    n = rng.randrange(2, 30)
    topo = make_topology("g", n, random_connected_edges(rng, n, rng.randrange(0, n * n // 2 + 1)))
    oracle = PathOracle(topo)
    for s in range(n):
        expect = bfs_dist(topo.adj, s)
        assert oracle.dist_from(s) == tuple(expect[v] for v in range(n))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_a_disconnected_graph_names_its_lowest_unreached_node(seed):
    """Two parts, each connected, with enough links to pass the link-count guard."""
    rng = random.Random(seed)
    n = rng.randrange(5, 30)
    ids = list(range(n))
    rng.shuffle(ids)
    cut = rng.randrange(1, n)
    parts = sorted((ids[:cut], ids[cut:]), key=len)
    keys = set()
    for part in parts:
        for a, b in random_connected_edges(rng, len(part), rng.randrange(0, len(part))):
            u, v = sorted((part[a], part[b]))
            keys.add(u * n + v)
    for u, v in itertools.combinations(sorted(parts[1]), 2):  # the larger part has room
        if len(keys) >= n - 1:
            break
        keys.add(u * n + v)
    assert len(keys) >= n - 1
    adj = {u: [] for u in range(n)}
    for key in keys:
        u, v = divmod(key, n)
        adj[u].append(v)
        adj[v].append(u)
    reached = bfs_dist(adj, 0)
    unreached = min(set(range(n)) - set(reached))
    with pytest.raises(TopologyError) as exc:
        Topology._from_keys("g", n, keys)
    assert str(exc.value) == (f"disconnected graph: only {len(reached)} of {n} nodes reachable "
                              f"(node {unreached} unreached)")


class TestPathOracle:
    def test_dist_self_is_zero(self, path5):
        assert PathOracle(path5).dist_from(2)[2] == 0

    def test_path_graph_end_to_end(self, path5):
        oracle = PathOracle(path5)
        assert oracle.dist_from(0)[4] == 4
        assert oracle.shortest_path(0, 2) == [0, 1, 2]

    def test_shortest_path_self(self, path5):
        assert PathOracle(path5).shortest_path(3, 3) == [3]

    def test_diamond_tie_break(self, diamond):
        assert PathOracle(diamond).shortest_path(0, 3) == [0, 1, 3]

    def test_unknown_node(self, path5):
        oracle = PathOracle(path5)
        with pytest.raises(TopologyError, match="unknown node id"):
            oracle.dist_from(9)
        with pytest.raises(TopologyError, match="unknown node id"):
            oracle.shortest_path(0, 9)
        with pytest.raises(TopologyError, match="unknown"):
            oracle.shortest_path(-1, 2)

    def test_the_node_count_is_not_a_node(self, path5):
        oracle = PathOracle(path5)
        with pytest.raises(TopologyError, match="unknown node id 5"):
            oracle.dist_from(path5.n)
        with pytest.raises(TopologyError, match="unknown node id 5"):
            oracle.shortest_path(path5.n, 0)

    def test_cached_source_still_checks_its_type(self, path5):
        oracle = PathOracle(path5)
        oracle.dist_from(1)
        with pytest.raises(TopologyError, match="unknown node id 1.0"):
            oracle.dist_from(1.0)

    def test_matches_bfs_all_pairs(self):
        rng = random.Random(77)
        for _ in range(10):
            n = rng.randrange(8, 24)
            edges = random_connected_edges(rng, n, rng.randrange(0, 2 * n))
            topo = make_topology("g", n, edges)
            oracle = PathOracle(topo)
            adj = {u: list(nbrs) for u, nbrs in enumerate(topo.adj)}
            for s in range(n):
                expect = bfs_dist(adj, s)
                for t in range(n):
                    assert oracle.dist_from(t)[s] == expect[t]

    def test_path_consistency(self):
        rng = random.Random(5)
        edges = random_connected_edges(rng, 20, 25)
        topo = make_topology("g", 20, edges)
        oracle = PathOracle(topo)
        for u in range(20):
            for v in range(20):
                path = oracle.shortest_path(u, v)
                assert len(path) == oracle.dist_from(u)[v] + 1
                assert all(b in topo.adj[a] for a, b in zip(path, path[1:]))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_symmetry_and_triangle(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(5, 16)
        topo = make_topology("g", n, random_connected_edges(rng, n, n))
        oracle = PathOracle(topo)
        for u in range(n):
            for v in range(n):
                assert oracle.dist_from(u)[v] == oracle.dist_from(v)[u]
                for w in range(n):
                    assert oracle.dist_from(u)[w] <= oracle.dist_from(u)[v] + oracle.dist_from(v)[w]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9), data=st.data())
    def test_answers_do_not_depend_on_which_vectors_are_warm(self, seed, data):
        rng = random.Random(seed)
        n = rng.randrange(2, 25)
        topo = make_topology("g", n, random_connected_edges(rng, n, rng.randrange(0, 2 * n)))
        adj = {u: list(nbrs) for u, nbrs in enumerate(topo.adj)}
        expect = {s: bfs_dist(adj, s) for s in range(n)}
        oracle = PathOracle(topo)
        order = data.draw(st.permutations(range(n)))
        for s in order[: data.draw(st.integers(min_value=0, max_value=n))]:
            oracle.dist_from(s)
        for u in range(n):
            for v in range(n):
                assert oracle.dist_from(u)[v] == oracle.dist_from(v)[u] == expect[u][v]
                if u == v:
                    assert oracle.shortest_path(u, u) == [u]
                    continue
                # lowest-id neighbour one hop closer, from the independent BFS
                hop = min(w for w in topo.adj[u] if expect[v][w] == expect[v][u] - 1)
                path = oracle.shortest_path(u, v)
                assert path[:2] == [u, hop] and len(path) == expect[u][v] + 1
