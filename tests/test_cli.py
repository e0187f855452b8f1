"""CLI behavior: end-to-end runs, determinism, replay, exit codes."""

import json
import os
from pathlib import Path

import pytest

from mcastmob.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, EXIT_TOPOLOGY, OUTPUT_DIR_ENV, main

RING = "\n".join(["0 1", "1 2", "2 3", "3 4", "4 5", "5 0", "0 3"]) + "\n"


def tree_bytes(root):
    out = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "edges.txt").write_text(RING)
    doc = {
        "name": "tiny",
        "master_seed": 11,
        "moves_per_run": 12,
        "seeds_per_scenario": 2,
        "movement_models": ["random", "neighbor"],
        "topologies": [
            {"name": "ring6", "type": "measured", "file": "edges.txt"},
            {
                "name": "g16",
                "type": "random",
                "generator": {
                    "kind": "flat_random",
                    "node_count": 16,
                    "target_avg_degree": 3.5,
                },
            },
        ],
        "handoff": {"max_moves": 3, "runs": 1, "advance_lead": 60.0},
        "output_dir": "out",
    }
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    return tmp_path


def test_run_writes_report(workdir, capsys):
    assert main(["run", "--config", "cfg.json"]) == EXIT_OK
    assert (workdir / "out" / "report.json").exists()
    assert (workdir / "out" / "run_stats.csv").exists()
    assert (workdir / "out" / "aggregate.csv").exists()
    assert (workdir / "out" / "summary.csv").exists()
    runs = list((workdir / "out" / "runs").glob("*.csv"))
    assert len(runs) == 2 * 2 * 2  # topologies x models x seeds
    report = json.loads((workdir / "out" / "report.json").read_text())
    assert report["runs"] == 8
    assert "reference_values" in report
    assert "ring6 6 7 2.33" in report["topologies"]
    out = capsys.readouterr().out
    assert "overall mean_r" in out


def test_run_is_byte_deterministic(workdir):
    assert main(["run", "--config", "cfg.json", "--out", "a"]) == EXIT_OK
    assert main(["run", "--config", "cfg.json", "--out", "b"]) == EXIT_OK
    assert tree_bytes(workdir / "a") == tree_bytes(workdir / "b")


def test_workers_match_serial(workdir):
    assert main(["run", "--config", "cfg.json", "--out", "serial"]) == EXIT_OK
    assert main(["run", "--config", "cfg.json", "--out", "par", "--workers", "3"]) == EXIT_OK
    assert tree_bytes(workdir / "serial") == tree_bytes(workdir / "par")


def test_cn_never_in_trace_and_differs_from_ha(workdir):
    assert main(["run", "--config", "cfg.json"]) == EXIT_OK
    stats = (workdir / "out" / "run_stats.csv").read_text().strip().splitlines()
    header = stats[0].split(",")
    for line in stats[1:]:
        row = dict(zip(header, line.split(",")))
        assert row["cn"] != row["ha"]
        key = f"{row['topology']}__{row['model']}__run{int(row['run']):02d}.csv"
        trace = (workdir / "out" / "traces" / key).read_text().strip().splitlines()[1:]
        visited = {int(ln.split(",")[1]) for ln in trace}
        assert int(row["cn"]) not in visited


def test_replay_reproduces_run(workdir):
    assert main(["run", "--config", "cfg.json"]) == EXIT_OK
    stats = (workdir / "out" / "run_stats.csv").read_text().strip().splitlines()
    row = dict(zip(stats[0].split(","), stats[3].split(",")))
    seed = row["child_seed"]
    assert main(["replay", "--config", "cfg.json", "--replay", seed, "--out", "rp"]) == EXIT_OK
    key = f"{row['topology']}__{row['model']}__run{int(row['run']):02d}.csv"
    assert (workdir / "rp" / "runs" / key).read_bytes() == (
        workdir / "out" / "runs" / key
    ).read_bytes()


def test_replay_unknown_seed(workdir, capsys):
    assert main(["replay", "--config", "cfg.json", "--replay", "42"]) == EXIT_CONFIG
    assert "does not belong" in capsys.readouterr().err


def test_handoff_command(workdir):
    assert main(["handoff", "--config", "cfg.json"]) == EXIT_OK
    lines = (workdir / "out" / "handoff.csv").read_text().strip().splitlines()
    assert lines[0].startswith("topology,model,run,step,strategy,L,B,latency_ms")
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    strategies = {r["strategy"] for r in rows}
    assert strategies == {"plain_join", "triple_join", "advance_join", "mobile_ip"}
    # zero-loss sweep under make_before_break never drops packets
    assert all(r["lost"] == "0" for r in rows)
    # triple join spends three times the control traffic of plain at zero loss
    by_key = {}
    for r in rows:
        by_key.setdefault((r["topology"], r["model"], r["step"]), {})[r["strategy"]] = r
    for group in by_key.values():
        assert int(group["triple_join"]["control_msgs"]) == 3 * int(
            group["plain_join"]["control_msgs"]
        )


def test_handoff_requires_block(workdir):
    doc = json.loads((workdir / "cfg.json").read_text())
    del doc["handoff"]
    (workdir / "nohand.json").write_text(json.dumps(doc))
    assert main(["handoff", "--config", "nohand.json"]) == EXIT_CONFIG


def test_plot_deterministic(workdir):
    assert main(["run", "--config", "cfg.json"]) == EXIT_OK
    assert main(["plot", "--out", "out"]) == EXIT_OK
    first = tree_bytes(workdir / "out" / "plots")
    assert main(["plot", "--out", "out"]) == EXIT_OK
    assert tree_bytes(workdir / "out" / "plots") == first
    assert set(first) == {"mean_r.svg", "added_links.svg", "b_over_l.svg", "total_links.svg"}


def test_plot_without_report(workdir, capsys):
    assert main(["plot", "--out", "nowhere"]) == EXIT_CONFIG
    assert "run a scenario first" in capsys.readouterr().err


def test_env_var_output_dir(workdir, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(workdir / "envout"))
    assert main(["run", "--config", "cfg.json"]) == EXIT_OK
    assert (workdir / "envout" / "report.json").exists()


def test_invalid_config_exit_code(workdir, capsys):
    (workdir / "bad.json").write_text('{"topologies": []}')
    assert main(["run", "--config", "bad.json"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_missing_topology_file_exit_code(workdir, capsys):
    doc = json.loads((workdir / "cfg.json").read_text())
    doc["topologies"][0]["file"] = "ghost.txt"
    (workdir / "ghost.json").write_text(json.dumps(doc))
    assert main(["run", "--config", "ghost.json"]) == EXIT_TOPOLOGY
    assert "topology" in capsys.readouterr().err


def test_malformed_topology_file_exit_code(workdir):
    (workdir / "edges.txt").write_text("0 1\n1 1\n")
    assert main(["run", "--config", "cfg.json"]) == EXIT_TOPOLOGY


def test_trapped_trace_exits_with_replay_line(workdir, capsys):
    # cluster_radius 1 only ever steps to id - 1, so every walk reaches the
    # node just above the CN and has nowhere left to go
    doc = json.loads((workdir / "cfg.json").read_text())
    doc.update(movement_models=["cluster"], cluster_radius=1)
    (workdir / "trap.json").write_text(json.dumps(doc))
    assert main(["run", "--config", "trap.json"]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "no eligible move" in err
    seed = err.split("--replay ")[1].split()[0]
    assert main(["replay", "--config", "trap.json", "--replay", seed]) == EXIT_INVARIANT
