"""Movement model behavior: candidate sets, determinism, distributions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcastmob.movement import (
    MovementError,
    MovementModel,
    cluster_window,
    generate_trace,
    trace_to_csv,
)
from mcastmob.topology import GeneratorParams, Topology, generate

from conftest import random_connected_edges

# chi-square critical value at the 1% significance level, 49 degrees of freedom
CHI2_99_DF49 = 74.919


def test_model_validation():
    with pytest.raises(MovementError):
        MovementModel("teleport")
    with pytest.raises(MovementError):
        MovementModel("cluster", cluster_radius=0)


def test_neighbor_from_degree_one_node(path5):
    trace = generate_trace(path5, MovementModel("neighbor"), frozenset(), 5, seed=3, start=0)
    assert trace.steps[0] == 0
    assert trace.steps[1] == 1  # only neighbor of node 0


def test_cluster_window_mid_range():
    assert cluster_window(10, 100) == [7, 8, 9, 11, 12, 13]


def test_cluster_window_wraps():
    assert cluster_window(0, 100) == [1, 2, 3, 97, 98, 99]
    # tiny graph: offsets collide and the window is everyone else
    assert cluster_window(1, 4) == [0, 2, 3]


def test_cluster_steps_stay_in_window():
    topo = generate(GeneratorParams("flat_random", 100, 4.0, seed=8))
    trace = generate_trace(topo, MovementModel("cluster"), frozenset(), 200, seed=9)
    for prev, nxt in zip(trace.steps, trace.steps[1:]):
        offset = (nxt - prev) % 100
        assert offset in (1, 2, 3, 97, 98, 99)


def test_determinism():
    topo = generate(GeneratorParams("flat_random", 30, 4.0, seed=2))
    a = generate_trace(topo, MovementModel("random"), frozenset({3}), 50, seed=42)
    b = generate_trace(topo, MovementModel("random"), frozenset({3}), 50, seed=42)
    assert a == b
    c = generate_trace(topo, MovementModel("random"), frozenset({3}), 50, seed=43)
    assert a.steps != c.steps


def test_forbidden_never_visited():
    topo = generate(GeneratorParams("flat_random", 30, 5.0, seed=4))
    for kind in ("random", "neighbor", "cluster"):
        trace = generate_trace(topo, MovementModel(kind), frozenset({7, 11}), 80, seed=5)
        assert 7 not in trace.steps
        assert 11 not in trace.steps


def test_no_candidate_raises(path5):
    with pytest.raises(MovementError, match="no eligible move"):
        generate_trace(path5, MovementModel("neighbor"), frozenset({1}), 3, seed=1, start=0)


def test_trapped_start_is_drawn_again(path5):
    # forbidding node 1 leaves node 0 without a neighbor to move to
    eligible = [0, 2, 3, 4]
    redrawn = 0
    for seed in range(40):
        trace = generate_trace(path5, MovementModel("neighbor"), frozenset({1}), 6, seed=seed)
        first = random.Random(seed).choice(eligible)
        if first == 0:
            redrawn += 1
            assert trace.steps[0] in (2, 3, 4)
        else:
            assert trace.steps[0] == first  # an untrapped start keeps its draw
        assert all(path5.has_edge(a, b) for a, b in zip(trace.steps, trace.steps[1:]))
    assert redrawn > 0


def test_every_start_trapped_raises(star):
    # a star centred on the forbidden hub: no spoke can move anywhere
    with pytest.raises(MovementError, match="no eligible node has a move"):
        generate_trace(star, MovementModel("neighbor"), frozenset({0}), 3, seed=1)
    trace = generate_trace(star, MovementModel("neighbor"), frozenset({0}), 1, seed=1)
    assert len(trace.steps) == 1


def test_count_one_is_just_the_start(path5):
    trace = generate_trace(path5, MovementModel("random"), frozenset(), 1, seed=1, start=2)
    assert trace.steps == (2,)


def test_bad_start(path5):
    with pytest.raises(MovementError):
        generate_trace(path5, MovementModel("random"), frozenset({2}), 3, seed=1, start=2)


def test_random_model_visits_uniformly():
    topo = generate(GeneratorParams("flat_random", 50, 6.0, seed=10))
    trace = generate_trace(topo, MovementModel("random"), frozenset(), 10_000, seed=12)
    counts = [0] * 50
    for node in trace.steps:
        counts[node] += 1
    expected = len(trace.steps) / 50
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < CHI2_99_DF49


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_neighbor_steps_are_edges(seed):
    rng = random.Random(seed)
    n = rng.randrange(6, 30)
    topo = Topology.from_edges("g", n, random_connected_edges(rng, n, n))
    trace = generate_trace(topo, MovementModel("neighbor"), frozenset(), 40, seed=seed)
    assert all(topo.has_edge(a, b) for a, b in zip(trace.steps, trace.steps[1:]))


def test_trace_csv_round_trip(path5):
    trace = generate_trace(path5, MovementModel("neighbor"), frozenset(), 4, seed=2, start=0)
    text = trace_to_csv(trace)
    lines = text.strip().splitlines()
    assert lines[0] == "step_index,node_id"
    assert len(lines) == 5
    assert lines[1] == "0,0"
