"""Acceptance suite: one test per criterion, printing a PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The heavyweight fixtures (the full generator stand-in suite) are
session-scoped and shared across criteria.
"""

import json
import random
from pathlib import Path
from statistics import fmean, pstdev

import pytest

from mcastmob import config as config_mod
from mcastmob import experiment, metrics
from mcastmob.cli import EXIT_OK, main
from mcastmob.handoff import HandoffConfig, simulate_handoff, simulate_mip_handoff
from mcastmob.routing import establish
from mcastmob.topology import PathOracle

from conftest import bfs_dist, group_rows, make_topology, random_connected_edges, validate_tree


@pytest.fixture(scope="session")
def suite():
    """Full stand-in suite: 13 topologies x 3 movement models x 10 seeds x 100 moves."""
    cfg = config_mod.reference_suite_config(master_seed=7, seeds=10, moves=100)
    return experiment.execute_scenario(cfg)


def _ok(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_shortest_path_oracle_equivalence():
    rng = random.Random(101)
    checked = 0
    for _ in range(50):
        n = rng.randrange(8, 61)
        topo = make_topology("g", n, random_connected_edges(rng, n, rng.randrange(0, 2 * n)))
        oracle = PathOracle(topo)
        adj = {u: list(nbrs) for u, nbrs in enumerate(topo.adj)}
        for s in range(n):
            expect = bfs_dist(adj, s)
            for t in range(n):
                assert oracle.dist_from(s)[t] == expect[t]
                checked += 1
        for _ in range(15):
            u, v = rng.randrange(n), rng.randrange(n)
            path = oracle.shortest_path(u, v)
            assert len(path) == oracle.dist_from(u)[v] + 1
            assert all(b in topo.adj[a] for a, b in zip(path, path[1:]))
    _ok(1, f"dist/shortest_path match the BFS oracle on {checked} pairs over 50 graphs")


def test_criterion_02_tree_path_equality_and_03_live_conservation():
    rng = random.Random(202)
    checks = 0
    for scenario in range(1000):
        n = rng.randrange(8, 101)
        topo = make_topology("g", n, random_connected_edges(rng, n, rng.randrange(0, n)))
        oracle = PathOracle(topo)
        cn = rng.randrange(n)
        spots = [v for v in range(n) if v != cn]
        loc = rng.choice(spots)
        tree = establish(oracle, cn, loc)
        added = tree.edge_count
        removed = 0
        for _ in range(12):
            new = rng.choice(spots)
            if new == loc:
                continue
            added += tree.join(new)
            assert tree.path_hops(new) == oracle.dist_from(cn)[new]
            removed += tree.prune(loc)
            loc = new
            assert tree.path_hops(loc) == oracle.dist_from(cn)[loc]
            assert added >= removed
            assert added - removed == tree.edge_count
            checks += 2
        if scenario % 97 == 0:
            validate_tree(tree)
    _ok(2, f"tree path equals shortest path after every mutation ({checks} checks)")
    _ok(3, "running added/removed accounting matched the live tree in every scenario")


def test_criterion_03_cumulative_links_bound(suite):
    for run in suite.runs:
        added = removed = 0
        for s in run.samples:
            added += s.added_links
            removed += s.removed_links
            assert added >= removed, run.record
        # one branch (the last leaf) remains after the final prune
        assert added - removed == run.samples[-1].c_hops
    _ok(3, f"cumulative added links bound removed links in all {len(suite.runs)} suite runs")


def test_criterion_04_route_efficiency_bound(suite):
    total = 0
    for run in suite.runs:
        for s in run.samples:
            assert s.a_hops + s.b_hops >= s.c_hops
            total += 1
    _ok(4, f"r >= 1 for all {total} samples")


def test_criterion_05_movement_model_ordering(suite):
    chosen = ("ts100", "ts150", "ts200", "ts250", "ts1000")  # 100..1000 nodes
    records = [r.record for r in suite.runs if r.record.topology in chosen]
    rows = group_rows(metrics.aggregate(records))
    mean_l = {m: rows["transit_stub", m].mean_L for m in ("neighbor", "cluster", "random")}
    assert mean_l["neighbor"] < mean_l["cluster"] < mean_l["random"]
    assert mean_l["neighbor"] <= 2.0
    _ok(
        5,
        "mean_L ordering neighbor {neighbor:.2f} < cluster {cluster:.2f} < "
        "random {random:.2f}".format(**mean_l),
    )


def test_criterion_06_qualitative_magnitude_bands(suite):
    agg = suite.aggregate
    mean_r = agg.overall("mean_r")
    mean_l = agg.overall("mean_L")
    b_over_l = agg.overall("b_over_l")
    assert 1.4 <= mean_r <= 3.2
    assert 1.0 <= mean_l <= 5.0
    assert 1.0 <= b_over_l <= 5.0
    _ok(
        6,
        f"overall mean_r={mean_r:.2f} (reference {metrics.REFERENCE['mean_r']}), "
        f"mean_L={mean_l:.2f} (reference {metrics.REFERENCE['mean_L']}), "
        f"B/L={b_over_l:.2f} (reference {metrics.REFERENCE['b_over_l']})",
    )


def test_criterion_07_bandwidth_ratio(suite):
    for row in suite.aggregate.rows:
        assert 1.3 <= row.bw_ratio <= 3.5, (row.topo_type, row.model, row.bw_ratio)
    overall = suite.aggregate.overall_bw_ratio()
    assert overall > 1.5
    _ok(7, f"group bandwidth ratios within [1.3, 3.5]; overall {overall:.2f} > 1.5")


def test_criterion_08_size_insensitivity(suite):
    # model -> node count -> mean_r of each transit-stub run of that size
    by_size = {}
    for run in suite.runs:
        rec = run.record
        if rec.topo_type == "transit_stub":
            by_size.setdefault(rec.model, {}).setdefault(rec.nodes, []).append(rec.stats.mean_r)
    cvs = {}
    for model, sizes in sorted(by_size.items()):
        assert sorted(sizes) == [50, 100, 150, 200, 250, 300, 1000]
        per_size = [fmean(sizes[n]) for n in sorted(sizes)]
        cvs[model] = pstdev(per_size) / fmean(per_size)
        assert cvs[model] < 0.25, (model, cvs[model])
    _ok(
        8,
        "CV(mean_r) across transit-stub sizes: "
        + ", ".join(f"{model}={cv:.3f}" for model, cv in cvs.items()),
    )


def test_criterion_09_handoff_simulator_properties():
    base = dict(per_hop_delay=10.0, packet_interval=20.0)
    rng = random.Random(909)
    # (a) lossless channel + make_before_break never drops a packet
    for trial in range(200):
        n = rng.randrange(6, 40)
        topo = make_topology("g", n, random_connected_edges(rng, n, rng.randrange(n)))
        oracle = PathOracle(topo)
        cn = rng.randrange(n)
        nodes = [v for v in range(n) if v != cn]
        old = rng.choice(nodes)
        new = rng.choice([v for v in nodes if v != old])
        # the move's hop triple: CN to meet node, meet node to old, graft length L
        branch = establish(oracle, cn, old).branch
        walk = oracle.shortest_path(new, cn, stop=branch[::-1])
        meet = branch.index(walk[-1])
        shape = (len(branch) - 1 - meet, meet, len(walk) - 1)
        rep = simulate_handoff(shape, HandoffConfig(overlap="make_before_break", **base),
                               seed=trial)
        assert rep.packets_lost == 0, (trial, rep)
        # (b) an advance join with lead >= the graft round trip hides the handoff
        lead = 2 * shape[2] * base["per_hop_delay"]
        adv = simulate_handoff(shape, HandoffConfig(advance_lead=lead, **base), "advance_join",
                               seed=trial)
        assert adv.packets_lost == 0
        assert adv.handoff_latency <= adv.trigger_ms and adv.handoff_latency <= 20.0

    # (c) latency monotone in L (multicast) and in B (Mobile IP), the other legs one hop each
    cfg = HandoffConfig(overlap="break_before_make", **base)
    lat_l = [simulate_handoff((1, 1, graft), cfg).handoff_latency for graft in range(1, 7)]
    assert lat_l == sorted(lat_l)
    lat_b = [simulate_mip_handoff((1, 1, b_new), cfg).handoff_latency for b_new in range(2, 8)]
    assert lat_b == sorted(lat_b)
    _ok(9, "zero-loss losslessness, advance-join latency bound, and L/B monotonicity hold")


def test_criterion_10_end_to_end_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "edges.txt").write_text(
        "\n".join(["0 1", "1 2", "2 3", "3 4", "4 5", "5 0", "1 4"]) + "\n"
    )
    doc = {
        "name": "determinism",
        "master_seed": 23,
        "moves_per_run": 20,
        "seeds_per_scenario": 2,
        "topologies": [
            {"name": "ring", "type": "measured", "file": "edges.txt"},
            {
                "name": "gen",
                "type": "random",
                "generator": {
                    "kind": "transit_stub",
                    "node_count": 40,
                    "target_avg_degree": 3.7,
                },
            },
        ],
        "output_dir": "a",
    }
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert main(["run", "--config", "cfg.json", "--out", "a"]) == EXIT_OK
    assert main(["plot", "--out", "a"]) == EXIT_OK
    assert main(["run", "--config", "cfg.json", "--out", "b"]) == EXIT_OK
    assert main(["plot", "--out", "b"]) == EXIT_OK

    def snapshot(root):
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(Path(root).rglob("*"))
            if p.is_file()
        }

    assert snapshot(tmp_path / "a") == snapshot(tmp_path / "b")

    stats = (tmp_path / "a" / "run_stats.csv").read_text().strip().splitlines()
    row = dict(zip(stats[0].split(","), stats[-1].split(",")))
    assert main(
        ["replay", "--config", "cfg.json", "--replay", row["child_seed"], "--out", "rp"]
    ) == EXIT_OK
    key = f"{row['topology']}__{row['model']}__run{int(row['run']):02d}.csv"
    assert (tmp_path / "rp" / "runs" / key).read_bytes() == (
        tmp_path / "a" / "runs" / key
    ).read_bytes()
    _ok(10, "re-runs are byte identical and replay reproduces the run exactly")
