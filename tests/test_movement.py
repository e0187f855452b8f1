"""Movement model behavior: candidate sets, determinism, distributions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcastmob import reporting
from mcastmob.movement import (
    MovementError,
    MovementModel,
    cluster_window,
    generate_trace,
)
from mcastmob.topology import GeneratorParams, generate

from conftest import make_topology, random_connected_edges

# chi-square critical value at the 1% significance level, 48 degrees of freedom
CHI2_99_DF48 = 73.683


def test_model_validation():
    with pytest.raises(MovementError):
        MovementModel("teleport")
    with pytest.raises(MovementError):
        MovementModel("cluster", cluster_radius=0)


def test_neighbor_from_degree_one_node(path5):
    traces = [generate_trace(path5, MovementModel("neighbor"), 4, 5, seed=s) for s in range(20)]
    from_end = [t for t in traces if t.steps[0] == 0]
    assert from_end
    assert all(t.steps[1] == 1 for t in from_end)  # only neighbor of node 0


def test_cluster_window_mid_range():
    assert cluster_window(10, 100) == [7, 8, 9, 11, 12, 13]


def test_cluster_window_wraps():
    assert cluster_window(0, 100) == [1, 2, 3, 97, 98, 99]
    # tiny graph: offsets collide and the window is everyone else
    assert cluster_window(1, 4) == [0, 2, 3]
    # a radius past n - 1 adds no id, and builds no more offsets
    assert cluster_window(1, 4, radius=10**9) == [0, 2, 3]


def test_cluster_window_equals_the_sorted_wrapped_offsets():
    """Every node, n 2..12, radius 1..n+1: the first min(radius, n - 1) offsets
    -1, +1, -2, +2, ... from the node, wrapped modulo n and sorted."""
    for n in range(2, 13):
        for radius in range(1, n + 2):
            offsets = [sign * k for k in range(1, n) for sign in (-1, 1)][:min(radius, n - 1)]
            for node in range(n):
                assert cluster_window(node, n, radius) == sorted((node + o) % n for o in offsets), (
                    node, n, radius)


def test_cluster_steps_stay_in_window():
    topo = generate(GeneratorParams("flat_random", 100, 4.0, seed=8))
    trace = generate_trace(topo, MovementModel("cluster"), 50, 200, seed=9)
    assert 50 not in trace.steps
    for prev, nxt in zip(trace.steps, trace.steps[1:]):
        offset = (nxt - prev) % 100
        assert offset in (1, 2, 3, 97, 98, 99)


def test_determinism():
    topo = generate(GeneratorParams("flat_random", 30, 4.0, seed=2))
    a = generate_trace(topo, MovementModel("random"), 3, 50, seed=42)
    b = generate_trace(topo, MovementModel("random"), 3, 50, seed=42)
    assert a == b
    c = generate_trace(topo, MovementModel("random"), 3, 50, seed=43)
    assert a.steps != c.steps


def test_forbidden_never_visited():
    topo = generate(GeneratorParams("flat_random", 30, 5.0, seed=4))
    for kind in ("random", "neighbor", "cluster"):
        for cn in (0, 7, 29):  # the lowest id, one inside and the highest
            trace = generate_trace(topo, MovementModel(kind), cn, 80, seed=5)
            assert cn not in trace.steps


def test_no_candidate_raises(path5):
    # a window of one id moves each node to the id below it, down to node 1 above the CN
    with pytest.raises(MovementError, match="no eligible move from node 1 under cluster"):
        generate_trace(path5, MovementModel("cluster", cluster_radius=1), 0, 5, seed=1)


def test_trapped_start_is_drawn_again(path5):
    # the CN at node 1 leaves node 0 without a neighbor to move to; a trace of
    # two visits, one move, needs a start that can move as much as a longer one
    eligible = [0, 2, 3, 4]
    for count in (2, 6):
        redrawn = 0
        for seed in range(40):
            trace = generate_trace(path5, MovementModel("neighbor"), 1, count, seed=seed)
            first = random.Random(seed).choice(eligible)
            if first == 0:
                redrawn += 1
                assert trace.steps[0] in (2, 3, 4)
            else:
                assert trace.steps[0] == first  # an untrapped start keeps its draw
            assert len(trace.steps) == count
            assert all(b in path5.adj[a] for a, b in zip(trace.steps, trace.steps[1:]))
        assert redrawn > 0


def test_every_start_trapped_raises(star):
    # a star centred on the CN: no spoke can move anywhere
    with pytest.raises(MovementError, match="no eligible node has a move"):
        generate_trace(star, MovementModel("neighbor"), 0, 3, seed=1)
    trace = generate_trace(star, MovementModel("neighbor"), 0, 1, seed=1)
    assert len(trace.steps) == 1


def test_count_one_is_just_the_start(path5):
    for seed in range(10):
        trace = generate_trace(path5, MovementModel("random"), 2, 1, seed=seed)
        assert trace.steps == (random.Random(seed).choice([0, 1, 3, 4]),)


@pytest.mark.parametrize("cn, count, message", [
    (1, 0, "count must be >= 1"),
    (5, 3, "cn 5 not in topology"),
    (-1, 3, "cn -1 not in topology"),
])
def test_bad_trace_arguments(path5, cn, count, message):
    with pytest.raises(MovementError, match=message):
        generate_trace(path5, MovementModel("random"), cn, count, seed=1)


def test_random_model_visits_uniformly():
    topo = generate(GeneratorParams("flat_random", 50, 6.0, seed=10))
    trace = generate_trace(topo, MovementModel("random"), 25, 10_000, seed=12)
    counts = [0] * 50
    for node in trace.steps:
        counts[node] += 1
    assert counts.pop(25) == 0  # every other id is drawn as often
    expected = len(trace.steps) / 49
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < CHI2_99_DF48


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_neighbor_steps_are_edges(seed):
    rng = random.Random(seed)
    n = rng.randrange(6, 30)
    topo = make_topology("g", n, random_connected_edges(rng, n, n))
    trace = generate_trace(topo, MovementModel("neighbor"), n - 1, 40, seed=seed)
    assert all(b in topo.adj[a] for a, b in zip(trace.steps, trace.steps[1:]))


def test_trace_csv_round_trip(path5, tmp_path):
    trace = generate_trace(path5, MovementModel("neighbor"), 4, 4, seed=2)
    path = tmp_path / "traces" / "t.csv"
    reporting.write_trace(str(path), trace)
    lines = path.read_text().splitlines()
    assert lines[0] == "step_index,node_id"
    assert len(lines) == 5
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0", "1", "2", "3"]
    assert [int(ln.split(",")[1]) for ln in lines[1:]] == list(trace.steps)


def reference_trace(topo, model, cn, count, seed):
    """A trace drawn by `random.Random.choice` from a freshly filtered list at every step.

    Raises IndexError where a draw has no candidate.
    """
    rng = random.Random(seed)

    def moves(node):
        if model.kind == "random":
            near = range(topo.n)
        elif model.kind == "neighbor":
            near = topo.adj[node]
        else:
            near = cluster_window(node, topo.n, model.cluster_radius)
        return [v for v in near if v != cn]

    eligible = [v for v in range(topo.n) if v != cn]
    start = rng.choice(eligible)
    if count > 1 and not moves(start):
        start = rng.choice([v for v in eligible if moves(v)])
    steps = [start]
    for _ in range(count - 1):
        steps.append(rng.choice(moves(steps[-1])))
    return tuple(steps)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    kind=st.sampled_from(["random", "neighbor", "cluster"]),
    radius=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_traces_equal_a_list_filtering_reference(seed, kind, radius, data):
    """A move draws from the neighbourhood or window itself unless the CN is in it.

    Over a 30-step trace on at most 20 nodes, some steps have the CN among
    their candidates and some do not.
    """
    rng = random.Random(seed)
    n = rng.randrange(2, 20)
    topo = make_topology("g", n, random_connected_edges(rng, n, rng.randrange(0, 2 * n)))
    model = MovementModel(kind, cluster_radius=radius)
    cn = data.draw(st.integers(0, n - 1))
    try:
        expect = reference_trace(topo, model, cn, 30, seed)
    except IndexError:
        with pytest.raises(MovementError):
            generate_trace(topo, model, cn, 30, seed)
        return
    assert generate_trace(topo, model, cn, 30, seed).steps == expect
