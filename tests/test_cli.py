"""CLI behavior: end-to-end runs, determinism, replay, exit codes."""

import concurrent.futures
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
from decimal import Decimal
from pathlib import Path
from xml.dom import minidom

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcastmob import config, experiment, reporting
from mcastmob.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, EXIT_TOPOLOGY, OUTPUT_DIR_ENV, main
from mcastmob.topology import PathOracle

from conftest import key_paths

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


# sha256sum of every file of the pinned report, recorded before the report
# writers moved onto the csv module
PINNED_REPORT = """\
9d8ce7512b68e214ae5f8e1bed2015055c907d6523bf4340083d089c0082e8fa  aggregate.csv
2c6188e22091284d8e382476f7f1fc3857ae26833605785fda8c7e694b76201f  plots/added_links.svg
60788e8177cae1d668c55cfcdf11b5963d4023755e9c11baceaadab114395cdf  plots/b_over_l.svg
dc48a8dab35803e49270d0059927b7337f163c4fb5a674e6837ce0e7ad366c65  plots/mean_r.svg
5964dd1860515297fc988e030b5a1e6dd99c80a8e6320f52f450d7f18201aa46  plots/total_links.svg
f03b116d9ddf993312c8cda4afbe3ef71e6d19e85421ffe3b41d6fcb4a7e171d  report.json
482938f59724a0d9ea9c90b1418528c7a7a814931ee432639e2840c8f7c74730  run_stats.csv
58b1031cf32bbd1fdeb8994db1647986112727943a39ad209fcbadb7b9b0b9f5  runs/r20__cluster__run00.csv
56292a9a6283783ccdfe7539e4d0fd33810162ef060c2834b2d74865be200df2  runs/r20__cluster__run01.csv
87b1369bce6e9c7f1de02b4642d5f2886de50b94d83339b944ec5add7968c52e  runs/r20__neighbor__run00.csv
c12f42a371e5a8deae0690713cf6b07439305f1a11559a89313caf20fbfb9d38  runs/r20__neighbor__run01.csv
fa4a314058dffb77ccc1c6d2cc1c51efc506b5093f2553377a9315404d0fa9ff  runs/r20__random__run00.csv
f29762281b3429f80c24cc96e1f656399dee08c74889fd2a302e36e7e3e9029d  runs/r20__random__run01.csv
9cc90d8092d54a4dc2086c3f6233492d7b359dc911666cbe7ae9ac752db30e0b  runs/ts40__cluster__run00.csv
e22416e89036027a5bc7077f47a49f94d59f3426d68841da04e36ef124043f90  runs/ts40__cluster__run01.csv
b279bf1bf6de01cf0f64a09b9098c202ba8c8d0c5112e1f8e41f78ec880df08f  runs/ts40__neighbor__run00.csv
4a2f54c91a485c0a099d4b2474d6071d628430679714a6e28609d73b279f00c4  runs/ts40__neighbor__run01.csv
e2d6798daecea171c68b5c0e4b83e486022b639fd26d3400ab60379214c2a823  runs/ts40__random__run00.csv
aba447a78f47bb1c0787dfe8fd801a710cd3e4ac4286d70876ef5e6a9ccf480e  runs/ts40__random__run01.csv
cf0a1fe3394888732ff8855414ed30f902e57eb463d18b1539ed08c914cb3c65  summary.csv
7851711d152ff821eede009829bf7cc7bf000af6bf2290f0ec509c68e56445a5  traces/r20__cluster__run00.csv
312d44fa3f230a45573181dd603e5cd364c34b5a95c4da3963cae6e8e1c7b516  traces/r20__cluster__run01.csv
f930bbecb930ae32cdbfd13c98a46350a2a0cf7d29c03d31de07b2e4d23061ed  traces/r20__neighbor__run00.csv
dba168db12dc397f340c265a7092816f31aeaf48ebcbf649b2171c7efc94c748  traces/r20__neighbor__run01.csv
6786ea0f58cc1a2e15500410c41fe0c400e844b6732a33a4ee216c6969382f32  traces/r20__random__run00.csv
c3316e64ce66607e37cb0485fceba7fea7c53b5cf73d10055e74dbfd39aba47e  traces/r20__random__run01.csv
73955fe1a322efa36b9b891a40fc724fc9fd1ed42efb77635545871ebef99c9d  traces/ts40__cluster__run00.csv
8a1ba6a58853c1553553fa9cd25725bb6030eaa30e1972e9999ff0ca9377212f  traces/ts40__cluster__run01.csv
e4aa8bc641383bdef5141ee871a9369846eeafadaa7576028c446de1139f73a1  traces/ts40__neighbor__run00.csv
4697f7b0def66582fb0d4f5d44aeedacd9412ea7360c6e1f77a354e9813fc8e0  traces/ts40__neighbor__run01.csv
923ad70bbf4a5f561cb47e9402fe728f1cdda01049fe7dc86b59146721c5a457  traces/ts40__random__run00.csv
663b5acaa87bbfbb3178e258817369f9b5dc6c1fc69c163b8a73163d52bff0cc  traces/ts40__random__run01.csv
"""


def test_run_and_plot_report_is_pinned(tmp_path, monkeypatch):
    """Every file of a small `run` + `plot` report directory, byte for byte."""
    monkeypatch.chdir(tmp_path)
    doc = {
        "name": "pinned",
        "master_seed": 5,
        "moves_per_run": 15,
        "seeds_per_scenario": 2,
        "topologies": [
            {"name": "r20", "type": "random",
             "generator": {"kind": "flat_random", "node_count": 20, "target_avg_degree": 4.0}},
            {"name": "ts40", "type": "transit_stub",
             "generator": {"kind": "transit_stub", "node_count": 40, "target_avg_degree": 3.7}},
        ],
        "output_dir": "rep",
    }
    (tmp_path / "pin.json").write_text(json.dumps(doc))
    assert main(["run", "--config", "pin.json"]) == EXIT_OK
    assert main(["plot", "--out", "rep"]) == EXIT_OK
    digests = "".join(
        f"{hashlib.sha256(data).hexdigest()}  {name}\n"
        for name, data in tree_bytes(tmp_path / "rep").items()
    )
    assert digests == PINNED_REPORT


def test_huge_cluster_radius_runs_like_a_full_window(tmp_path, monkeypatch):
    # on a 4-node ring a radius of 3 already reaches every other node
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ring4.txt").write_text("0 1\n1 2\n2 3\n3 0\n")
    samples = {}
    for radius in (3, 10**9):
        doc = {
            "name": "wide",
            "master_seed": 5,
            "moves_per_run": 30,
            "seeds_per_scenario": 2,
            "movement_models": ["cluster"],
            "cluster_radius": radius,
            "topologies": [{"name": "ring4", "type": "measured", "file": "ring4.txt"}],
            "output_dir": f"out{radius}",
        }
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        assert main(["run", "--config", "cfg.json"]) == EXIT_OK
        files = tree_bytes(tmp_path / f"out{radius}")
        samples[radius] = {k: v for k, v in files.items() if k.startswith(("runs/", "traces/"))}
    assert len(samples[3]) == 4
    assert samples[3] == samples[10**9]


def test_run_is_byte_deterministic(workdir):
    assert main(["run", "--config", "cfg.json", "--out", "a"]) == EXIT_OK
    assert main(["run", "--config", "cfg.json", "--out", "b"]) == EXIT_OK
    assert tree_bytes(workdir / "a") == tree_bytes(workdir / "b")


def test_workers_match_serial(workdir):
    assert main(["run", "--config", "cfg.json", "--out", "serial"]) == EXIT_OK
    assert main(["run", "--config", "cfg.json", "--out", "par", "--workers", "3"]) == EXIT_OK
    assert tree_bytes(workdir / "serial") == tree_bytes(workdir / "par")


def test_handoff_workers_match_serial(workdir):
    """The sweep reads only the run samples the pool workers send back, with the same rows."""
    doc = json.loads((workdir / "cfg.json").read_text())
    doc["handoff"].update(runs=2, max_moves=8)
    (workdir / "sweep.json").write_text(json.dumps(doc))
    assert main(["handoff", "--config", "sweep.json", "--out", "serial"]) == EXIT_OK
    assert main(["handoff", "--config", "sweep.json", "--out", "par", "--workers", "3"]) == EXIT_OK
    serial = (workdir / "serial" / "handoff.csv").read_bytes()
    assert serial.count(b"\n") > 100
    assert (workdir / "par" / "handoff.csv").read_bytes() == serial


def test_a_pool_job_sends_back_its_runs_without_the_topology(workdir):
    """What `_pair_job` returns is pickled back from a worker: runs only, no oracle or Topology."""
    cfg = config.load("cfg.json")
    spec = cfg.topologies[0]
    runs = experiment._pair_job((cfg, spec, experiment.build_topology(spec, cfg.master_seed),
                                 cfg.movement_models[0], range(cfg.seeds_per_scenario)))
    loaded = []

    class Recorder(pickle.Unpickler):
        def find_class(self, module, name):
            loaded.append(name)
            return super().find_class(module, name)

    assert Recorder(io.BytesIO(pickle.dumps(runs))).load() == runs
    assert "RunResult" in loaded
    assert "PathOracle" not in loaded and "Topology" not in loaded


def test_run_prints_the_overall_bandwidth_ratio_of_run_stats(workdir, capsys):
    """The printed ratio is sum(A+B) / sum(C) over every run in run_stats.csv.

    Both topologies are of one type here, so a group row averages two
    topologies' sums. Each topology has the same number of runs in each
    group, so the ratio of those sums is the ratio of the runs' sums.
    """
    doc = json.loads((workdir / "cfg.json").read_text())
    doc["topologies"][0]["type"] = "random"
    (workdir / "one_type.json").write_text(json.dumps(doc))
    assert main(["run", "--config", "one_type.json"]) == EXIT_OK
    with open(workdir / "out" / "run_stats.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    ratio = sum(int(r["total_ab"]) for r in rows) / sum(int(r["total_c"]) for r in rows)
    assert f"overall bandwidth ratio sum(A+B)/sum(C) = {ratio:.3f}\n" in capsys.readouterr().out


def test_run_without_any_b_over_l_prints_n_a(workdir, capsys):
    """One move per run leaves no group a B/L ratio; the summary says so and exits 0."""
    doc = json.loads((workdir / "cfg.json").read_text())
    doc["moves_per_run"] = 1
    (workdir / "one.json").write_text(json.dumps(doc))
    assert main(["run", "--config", "one.json"]) == EXIT_OK
    assert "overall b_over_l = n/a (reference" in capsys.readouterr().out


def test_workers_are_bounded_by_the_jobs(workdir, monkeypatch):
    """A pool of min(workers, jobs) processes, and none for one worker, the library's default."""
    sizes = []

    class Recorder:
        """Stands in for the process pool: records its size, maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    assert main(["run", "--config", "cfg.json", "--out", "wide", "--workers", "100000"]) == EXIT_OK
    assert main(["run", "--config", "cfg.json", "--out", "pair", "--workers", "2"]) == EXIT_OK
    assert main(["run", "--config", "cfg.json", "--out", "serial"]) == EXIT_OK
    experiment.execute_scenario(config.load("cfg.json"))
    assert sizes == [4, 2]  # 2 topologies x 2 models, then two workers
    serial = tree_bytes(workdir / "serial")
    assert tree_bytes(workdir / "wide") == serial and tree_bytes(workdir / "pair") == serial


def test_a_serial_handoff_run_imports_no_process_pool(workdir):
    """The pool's import pulls in multiprocessing, which one worker never needs."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys; from mcastmob.cli import main; "
            "assert main(['handoff', '--config', 'cfg.json']) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("command", ["run", "handoff"])
def test_workers_below_one_exit_2(workdir, capsys, monkeypatch, command, workers):
    def no_runs(*args, **kwargs):
        raise AssertionError("a simulation ran with an invalid worker count")

    monkeypatch.setattr(experiment, "execute_scenario", no_runs)
    assert main([command, "--config", "cfg.json", "--workers", workers]) == EXIT_CONFIG
    assert f"--workers must be at least 1, not {workers}" in capsys.readouterr().err
    assert not (workdir / "out").exists()


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


@pytest.mark.parametrize("buffering", [1, -1], ids=["line_buffered", "block_buffered"])
def test_a_stdout_closed_early_exits_0_with_every_report_file(workdir, monkeypatch, buffering):
    """`| head -1` closes the pipe before a command prints: it exits 0 with its files written.

    stdout is a pipe whose reader is closed, so its first write raises
    BrokenPipeError: at the first print when line-buffered, and at main's
    flush otherwise. Each command writes the same files as with an open
    stdout.
    """
    assert main(["run", "--config", "cfg.json", "--out", "ref"]) == EXIT_OK
    stats = (workdir / "ref" / "run_stats.csv").read_text().splitlines()
    seed = stats[1].split(",")[stats[0].split(",").index("child_seed")]

    def commands(out):
        return [["run", "--config", "cfg.json", "--out", out],
                ["handoff", "--config", "cfg.json", "--out", out],
                ["plot", "--out", out],
                ["replay", "--config", "cfg.json", "--replay", seed, "--out", f"{out}/replay"]]

    for argv in commands("ref")[1:]:
        assert main(argv) == EXIT_OK
    for argv in commands("piped"):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", buffering=buffering) as closed, monkeypatch.context() as m:
            m.setattr(sys, "stdout", closed)
            assert main(argv) == EXIT_OK
    assert tree_bytes(workdir / "piped") == tree_bytes(workdir / "ref")
    assert {"handoff.csv", "plots/mean_r.svg"} <= set(tree_bytes(workdir / "piped"))


def test_edge_list_path_is_relative_to_the_config(workdir):
    sub = workdir / "sub"
    sub.mkdir()
    for name in ("edges.txt", "cfg.json"):
        (workdir / name).rename(sub / name)
    assert main(["run", "--config", "sub/cfg.json"]) == EXIT_OK
    stats = (workdir / "out" / "run_stats.csv").read_text().strip().splitlines()
    row = dict(zip(stats[0].split(","), stats[1].split(",")))
    assert row["topology"] == "ring6"
    seed = row["child_seed"]
    assert main(["replay", "--config", "sub/cfg.json", "--replay", seed, "--out", "rp"]) == EXIT_OK
    key = f"ring6__{row['model']}__run{int(row['run']):02d}.csv"
    assert (workdir / "rp" / "runs" / key).read_bytes() == (
        workdir / "out" / "runs" / key
    ).read_bytes()


def test_replay_unknown_seed(workdir, capsys):
    assert main(["replay", "--config", "cfg.json", "--replay", "42"]) == EXIT_CONFIG
    assert "does not belong" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "handoff"])
def test_config_is_required(workdir, capsys, command):
    assert main([command]) == EXIT_CONFIG
    assert "--config is required" in capsys.readouterr().err


def test_replay_needs_a_seed(workdir, capsys):
    assert main(["replay", "--config", "cfg.json"]) == EXIT_CONFIG
    assert "replay needs --replay" in capsys.readouterr().err


def test_handoff_command(workdir, capsys):
    assert main(["handoff", "--config", "cfg.json"]) == EXIT_OK
    lines = (workdir / "out" / "handoff.csv").read_text().strip().splitlines()
    # without loss, rows of one handoff shape share one simulation
    sims = len({id(row.report) for row in experiment.handoff_sweep(
        experiment.execute_scenario(config.load("cfg.json")))})
    assert sims < len(lines) - 1
    assert capsys.readouterr().out.splitlines()[0] == (
        f"wrote {len(lines) - 1} handoff rows from {sims} simulations to "
        f"{os.path.join('out', 'handoff.csv')}")
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


def test_handoff_prints_the_means_of_each_strategy(workdir, capsys):
    doc = json.loads((workdir / "cfg.json").read_text())
    # loss makes rows differ, so a mean over the wrong rows shows
    doc["handoff"].update(message_loss_rate=0.3, refresh_period=200.0)
    (workdir / "lossy.json").write_text(json.dumps(doc))
    assert main(["handoff", "--config", "lossy.json"]) == EXIT_OK
    wrote, *means = capsys.readouterr().out.splitlines()
    lines = (workdir / "out" / "handoff.csv").read_text().strip().splitlines()
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    # under loss every row draws from its own seed, so each is its own simulation
    assert wrote == (f"wrote {len(rows)} handoff rows from {len(rows)} simulations to "
                     f"{os.path.join('out', 'handoff.csv')}")
    expected = []
    for strategy in ("plain_join", "triple_join", "advance_join", "mobile_ip"):
        mine = [r for r in rows if r["strategy"] == strategy]
        finite = [float(r["latency_ms"]) for r in mine if r["latency_ms"] != "inf"]
        latency = f"{sum(finite) / len(finite):.3f}" if finite else "n/a"

        def mean(column):
            return f"{sum(int(r[column]) for r in mine) / len(mine):.3f}"

        expected.append(f"{strategy} mean of {len(mine)} rows: latency_ms = {latency} "
                        f"({len(mine) - len(finite)} inf), lost = {mean('lost')}, "
                        f"dup = {mean('dup')}, control_msgs = {mean('control_msgs')}")
    assert means == expected


@pytest.mark.parametrize("loss", [0.0, 0.2])
def test_handoff_runs_only_what_it_sweeps_and_writes_the_full_sweeps_bytes(workdir, monkeypatch,
                                                                         loss):
    """More seeds than `runs` and more moves than `max_moves + 1`: those are not run at all."""
    doc = json.loads((workdir / "cfg.json").read_text())
    doc.update(seeds_per_scenario=4, moves_per_run=30)
    doc["handoff"].update(runs=2, max_moves=5, message_loss_rate=loss, refresh_period=200.0)
    (workdir / "sweep.json").write_text(json.dumps(doc))
    cfg = config.load("sweep.json")
    full = workdir / "full.csv"
    reporting.write_handoff(str(full), experiment.handoff_sweep(experiment.execute_scenario(cfg)))
    executed = []
    real = experiment.execute_scenario

    def spy(cfg, workers=1):
        executed.append((cfg.seeds_per_scenario, cfg.moves_per_run))
        return real(cfg, workers)

    monkeypatch.setattr(experiment, "execute_scenario", spy)
    assert main(["handoff", "--config", "sweep.json"]) == EXIT_OK
    assert executed == [(2, 6)]
    assert (workdir / "out" / "handoff.csv").read_bytes() == full.read_bytes()


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


def test_plot_needs_an_output_directory(workdir, capsys, monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    assert main(["plot"]) == EXIT_CONFIG
    assert "plot needs --out" in capsys.readouterr().err


def test_plot_without_report(workdir, capsys):
    assert main(["plot", "--out", "nowhere"]) == EXIT_CONFIG
    assert "run a scenario first" in capsys.readouterr().err


AGGREGATE_HEADER = (
    "type,model,topologies,runs,mean_r,p90_r,max_r_avg,max_r,"
    "mean_L,p90_L,max_L_avg,max_L,b_over_l,total_c,total_ab,bw_ratio\n"
)


BAD_ROW = "q,random,1,2,{mean_r},3,5,5,1.5,3,4,4,{b_over_l},69,{total_ab},1.84\n"


def _plot_rows(workdir, out, header, *types):
    """`plot` on a hand-written aggregate.csv with one row per type; returns the exit code."""
    rows = "".join(f"{t},random,1,2,2.5,3,5,5,1.5,3,4,4,1.2,69,127,1.84\n" for t in types)
    (workdir / out).mkdir()
    (workdir / out / "aggregate.csv").write_text(header + rows)
    return main(["plot", "--out", out])


@pytest.mark.parametrize(
    "header,topo_type,fragment",
    [
        (AGGREGATE_HEADER.replace("mean_L,", ""), "r", "lacks the columns mean_L"),
        (AGGREGATE_HEADER, "a,b", "line 2 does not match its header"),  # unquoted: one cell more
        # the bad row goes in before the generated one, as line 2
        (AGGREGATE_HEADER + BAD_ROW.format(mean_r="nan", b_over_l=1.2, total_ab=127), "r",
         "line 2 column mean_r: 'nan' is not a finite number >= 0"),
        (AGGREGATE_HEADER + BAD_ROW.format(mean_r=2.5, b_over_l="inf", total_ab=127), "r",
         "line 2 column b_over_l: 'inf' is not a finite number >= 0"),
        (AGGREGATE_HEADER + BAD_ROW.format(mean_r=2.5, b_over_l=1.2, total_ab=-127), "r",
         "line 2 column total_ab: '-127' is not a finite number >= 0"),
    ],
    ids=["missing_column", "ragged_row", "nan", "inf", "negative"],
)
def test_plot_rejects_malformed_aggregate(workdir, capsys, header, topo_type, fragment):
    assert _plot_rows(workdir, "bad", header, topo_type) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "plot error" in err and fragment in err
    assert not (workdir / "bad" / "plots").exists()


def test_plot_escapes_svg_text(workdir):
    assert _plot_rows(workdir, "lt", AGGREGATE_HEADER, "a<b", "c&d") == EXIT_OK
    for svg in (workdir / "lt" / "plots").iterdir():
        text = svg.read_text()
        minidom.parseString(text)  # well-formed XML
        assert ">a&lt;b</text>" in text and ">c&amp;d</text>" in text


def test_plot_draws_a_zero_cell(workdir):
    """0 is a number >= 0: a type whose mean_L is 0, with no B/L, is drawn, not refused."""
    header = AGGREGATE_HEADER + "z,random,1,2,2.5,3,5,5,0,0,0,0,,69,127,1.84\n"
    assert _plot_rows(workdir, "zero", header) == EXIT_OK
    assert 'height="0.00"' in (workdir / "zero" / "plots" / "added_links.svg").read_text()


def test_plot_reads_quoted_cells(workdir):
    assert _plot_rows(workdir, "quoted", AGGREGATE_HEADER, '"a,b"') == EXIT_OK
    assert _plot_rows(workdir, "plain", AGGREGATE_HEADER, "ab") == EXIT_OK
    for svg in (workdir / "plain" / "plots").iterdir():
        quoted = (workdir / "quoted" / "plots" / svg.name).read_text()
        assert ">a,b</text>" in quoted
        # the same bars as the unquoted type: no cell shifted into the next column
        assert quoted.replace(">a,b</text>", ">ab</text>") == svg.read_text()


# a coordinate or length attribute, and the number that ends an axis tick or reference label
_SVG_NUMBERS = re.compile(r'\b(?:x|y|x1|y1|x2|y2|width|height)="([^"]*)"'
                          r'|text-anchor="end"[^>]*>(?:[^<]* )?([^< ]*)</text>')


def _assert_svg_numbers_finite(plots):
    for svg in plots.iterdir():
        numbers = [a or b for a, b in _SVG_NUMBERS.findall(svg.read_text())]
        assert numbers and all(Decimal(n.rstrip("%")).is_finite() for n in numbers), svg.name


def test_plot_draws_the_largest_finite_cell_with_finite_numbers(workdir):
    """A total of 1.7e308 is finite and >= 0, so it is drawn: its axis must not overflow."""
    header = AGGREGATE_HEADER + BAD_ROW.format(mean_r=2.5, b_over_l=1.2, total_ab=1.7e308)
    assert _plot_rows(workdir, "huge", header) == EXIT_OK
    _assert_svg_numbers_finite(workdir / "huge" / "plots")


_NUMBERS = st.one_of(  # cells that read as a number >= 0 or as empty
    st.floats(min_value=0.0, allow_infinity=False).map(repr),
    st.integers(min_value=0, max_value=10**6).map(str),
    st.just(""),
)
_GARBAGE = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "1e309", "x", '"1,5"']),
    st.text(alphabet='0123456789.e-+,"naif x', max_size=6),
)


@st.composite
def _aggregate_texts(draw):
    """aggregate.csv text: the real header, perhaps less one column, then rows of number cells.

    A row may hold one garbage cell, or one cell too few or too many.
    """
    columns = AGGREGATE_HEADER.strip().split(",")
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        columns.remove(draw(st.sampled_from(columns)))
    rows = [",".join(columns)]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        cells = [draw(st.sampled_from(["ts", "r", "a<b", ""])),
                 draw(st.sampled_from(["random", "neighbor", "cluster"]))]
        cells += [draw(_NUMBERS) for _ in columns[2:]]
        if draw(st.booleans()):
            cells[draw(st.integers(min_value=2, max_value=len(cells) - 1))] = draw(_GARBAGE)
        ragged = draw(st.sampled_from([0, 0, 0, -1, 1]))
        cells = cells[:-1] if ragged < 0 else cells + ["1"] * ragged
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=_aggregate_texts())
def test_plot_of_any_aggregate_text_exits_2_or_draws_finite_numbers(text):
    """`plot` either exits 2 and writes no SVG, or exits 0 and every SVG number is finite."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "aggregate.csv").write_text(text)
        code = main(["plot", "--out", str(out)])
        assert code in (EXIT_OK, EXIT_CONFIG)
        if code == EXIT_CONFIG:
            assert not (out / "plots").exists()
        else:
            _assert_svg_numbers_finite(out / "plots")


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


def test_undecodable_files_exit_codes(workdir, capsys):
    (workdir / "latin1.json").write_bytes(b'{"name": "caf\xe9"}')
    assert main(["run", "--config", "latin1.json"]) == EXIT_CONFIG
    assert "config error: cannot read config latin1.json" in capsys.readouterr().err
    (workdir / "edges.txt").write_bytes(b"0 1\n\xff\xfe\n")
    assert main(["run", "--config", "cfg.json"]) == EXIT_TOPOLOGY
    assert "topology error: cannot read edge list edges.txt" in capsys.readouterr().err
    assert not (workdir / "out").exists()


def test_overflowing_edge_budget_exits_2_at_load(workdir, capsys, monkeypatch):
    doc = json.loads((workdir / "cfg.json").read_text())
    doc["topologies"][1]["generator"]["target_avg_degree"] = 1e308  # 16 * 1e308 / 2 is inf
    (workdir / "huge.json").write_text(json.dumps(doc))

    def no_build(*args, **kwargs):
        raise AssertionError("a topology was built before the config was checked")

    monkeypatch.setattr(experiment, "build_topology", no_build)
    assert main(["handoff", "--config", "huge.json"]) == EXIT_CONFIG
    assert "more than a 16-node simple graph holds" in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("wire", [{"packet_interval": 1e-5}, {"per_hop_delay": 1e300},
                                  {"advance_lead": 1e9}])
def test_a_wire_of_too_many_packets_exits_2_at_load(workdir, capsys, monkeypatch, wire):
    """A handoff emits packets in proportion to its longest setting over the packet interval."""
    doc = json.loads((workdir / "cfg.json").read_text())
    doc["handoff"].update(wire)
    (workdir / "wire.json").write_text(json.dumps(doc))

    def no_build(*args, **kwargs):
        raise AssertionError("a topology was built before the config was checked")

    monkeypatch.setattr(experiment, "build_topology", no_build)
    assert main(["handoff", "--config", "wire.json"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: handoff block: per_hop_delay, refresh_period and advance_lead must each "
        "be at most 1,000,000 packet intervals\n")
    assert not (workdir / "out").exists()


def test_more_links_than_a_simple_graph_holds_exit_2_at_load(workdir, capsys):
    """10 nodes at average degree 20 need 100 links; a 10-node simple graph holds 45."""
    doc = json.loads((workdir / "cfg.json").read_text())
    doc["topologies"][1]["generator"].update(node_count=10, target_avg_degree=20)
    (workdir / "dense.json").write_text(json.dumps(doc))
    assert main(["run", "--config", "dense.json"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: topology 'g16' generator: target degree 20 needs 100 edges, "
        "more than a 10-node simple graph holds\n")
    assert not (workdir / "out").exists()


def test_no_movement_model_exits_2_at_load(workdir, capsys):
    doc = json.loads((workdir / "cfg.json").read_text())
    doc["movement_models"] = []
    (workdir / "still.json").write_text(json.dumps(doc))
    assert main(["run", "--config", "still.json"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: at least one movement model is required\n"
    assert not (workdir / "out").exists()


def test_an_empty_stub_exits_2_at_load(workdir, capsys, monkeypatch):
    doc = json.loads((workdir / "cfg.json").read_text())
    doc["topologies"][1]["generator"].update(kind="transit_stub", stub_size=0)
    (workdir / "stubless.json").write_text(json.dumps(doc))

    def no_build(*args, **kwargs):
        raise AssertionError("a topology was built before the config was checked")

    monkeypatch.setattr(experiment, "build_topology", no_build)
    assert main(["run", "--config", "stubless.json"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: topology 'g16' generator: clustering knobs must be >= 1\n")
    assert not (workdir / "out").exists()


def test_malformed_topology_file_exit_code(workdir):
    (workdir / "edges.txt").write_text("0 1\n1 1\n")
    assert main(["run", "--config", "cfg.json"]) == EXIT_TOPOLOGY


def test_exit_codes_are_the_documented_numbers():
    """Scripts test the numbers that the CLI docstring and README give, not the names."""
    assert (EXIT_OK, EXIT_CONFIG, EXIT_TOPOLOGY, EXIT_INVARIANT) == (0, 2, 3, 4)


def test_trapped_trace_exits_with_replay_line(workdir, capsys):
    # on a two-node topology the mobile's only neighbour is the CN, so every
    # start is trapped under the neighbor model
    (workdir / "pair.txt").write_text("0 1\n")
    doc = json.loads((workdir / "cfg.json").read_text())
    doc.update(
        movement_models=["neighbor"],
        topologies=[{"name": "pair", "type": "measured", "file": "pair.txt"}],
    )
    (workdir / "trap.json").write_text(json.dumps(doc))
    assert main(["run", "--config", "trap.json"]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "no eligible node has a move" in err
    seed = err.split("--replay ")[1].split()[0]
    assert main(["replay", "--config", "trap.json", "--replay", seed]) == EXIT_INVARIANT


def test_invariant_failure_prints_the_tree_with_the_replay_line(workdir, capsys, monkeypatch):
    # an oracle whose distances are one hop too long breaks the tree-path check
    dist_from = PathOracle.dist_from
    monkeypatch.setattr(PathOracle, "dist_from",
                        lambda oracle, source: [d + 1 for d in dist_from(oracle, source)])
    assert main(["run", "--config", "cfg.json"]) == EXIT_INVARIANT
    failure, replay = capsys.readouterr().err.splitlines()[-2:]
    match = re.search(r"tree path (\d+) != shortest path (\d+) at step 1, branch (\[[\d, ]+\])$",
                      failure)
    assert match, failure
    c_hops, shortest, branch = int(match[1]), int(match[2]), json.loads(match[3])
    assert (len(branch) - 1, shortest) == (c_hops, c_hops + 1)
    assert replay.startswith("replay with: mcastmob replay")


@pytest.mark.parametrize(
    "command,mutate",
    [
        pytest.param("run", lambda doc: doc.update(handoff={"message_loss_rate": 1.5}),
                     id="handoff_loss"),
        pytest.param("run", lambda doc: doc.update(movement_models=["cluster"], cluster_radius=1),
                     id="cluster_radius"),
        pytest.param("run", lambda doc: doc["topologies"][0].update(name="../../escaped"),
                     id="topology_name"),
        pytest.param("run", lambda doc: doc["topologies"][0].update(type="x,y"),
                     id="topology_type"),
        pytest.param("run", lambda doc: doc.update(moves_per_run=True), id="moves_per_run"),
        pytest.param("handoff", lambda doc: doc["handoff"].update(max_moves=2.5),
                     id="handoff_max_moves"),
        pytest.param("run", lambda doc: doc.update(output_dir=5), id="output_dir"),
        pytest.param("run", lambda doc: doc["topologies"][0].update(file=7), id="file"),
        pytest.param("run", lambda doc: doc["topologies"][1]["generator"].update(
            target_avg_degree=math.nan), id="nan_degree"),
        pytest.param("run", lambda doc: doc["topologies"][1]["generator"].update(
            target_avg_degree=math.inf), id="infinite_degree"),
    ],
)
def test_bad_values_fail_at_load(workdir, capsys, monkeypatch, command, mutate):
    doc = json.loads((workdir / "cfg.json").read_text())
    mutate(doc)
    (workdir / "bad.json").write_text(json.dumps(doc))

    def no_runs(*args, **kwargs):
        raise AssertionError("a simulation ran before the config was checked")

    monkeypatch.setattr(experiment, "execute_scenario", no_runs)
    assert main([command, "--config", "bad.json"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (workdir / "out").exists()


# A value of each kind that some key of a config rejects, and none that makes a small
# config large: a count or a time of 2 stays cheap wherever it lands.
_ODD_VALUES = [-1, 0, 2, 2.5, "x", None, True, [], {}, math.inf, math.nan]


@st.composite
def _small_configs(draw):
    """A config of one generated topology of at most 30 nodes and at most 3 moves.

    Three in four have a handoff block, and one in three has one key that
    holds an odd value.
    """
    doc = {
        "master_seed": draw(st.integers(0, 2**32)),
        "moves_per_run": draw(st.integers(1, 3)),
        "seeds_per_scenario": draw(st.integers(1, 2)),
        "movement_models": draw(st.lists(st.sampled_from(["random", "neighbor", "cluster"]),
                                         min_size=1, max_size=3, unique=True)),
        "cluster_radius": draw(st.integers(2, 8)),
        "endpoint_policy": draw(st.sampled_from(["per_run", "per_topology"])),
        "topologies": [{"name": "g", "type": "random", "generator": {
            "kind": draw(st.sampled_from(["flat_random", "transit_stub", "tiers_like"])),
            "node_count": draw(st.integers(4, 30)),
            "target_avg_degree": draw(st.floats(2.0, 4.0)),
            "seed": draw(st.integers(0, 2**32)),
        }}],
    }
    if draw(st.integers(0, 3)):
        doc["handoff"] = {
            "message_loss_rate": draw(st.sampled_from([0.0, 0.1, 0.5])),
            "refresh_period": draw(st.sampled_from([200.0, 2000.0])),
            "per_hop_delay": draw(st.sampled_from([3.3, 10.0, 20.0])),
            "packet_interval": draw(st.sampled_from([5.0, 20.0])),
            "advance_lead": draw(st.sampled_from([0.0, 40.0])),
            "overlap": draw(st.sampled_from(["make_before_break", "break_before_make"])),
            "strategies": draw(st.lists(st.sampled_from(["plain_join", "triple_join",
                                                         "advance_join"]),
                                        min_size=1, max_size=3, unique=True)),
            "include_mobile_ip": draw(st.booleans()),
            "max_moves": draw(st.integers(1, 3)),
            "runs": draw(st.integers(1, 2)),
        }
    if draw(st.integers(0, 2)) == 0:
        path = draw(st.sampled_from(sorted(key_paths(doc), key=repr)))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(st.sampled_from(_ODD_VALUES))
    return doc


@settings(max_examples=100, deadline=None)
@given(doc=_small_configs(), command=st.sampled_from(["run", "handoff"]))
def test_a_small_config_exits_0_2_or_3_without_a_traceback_and_writes_only_its_out(doc,
                                                                                   command):
    """An exit 2 writes nothing at all; otherwise only --out is written to."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "cfg.json").write_text(json.dumps(doc))
        before = sorted(Path(tmp).rglob("*"))
        out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--config", "cfg.json", "--out", "out"])
        finally:
            os.chdir(cwd)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_TOPOLOGY), err.getvalue()
        assert "Traceback" not in out.getvalue() + err.getvalue()
        written = [p for p in sorted(Path(tmp).rglob("*")) if p not in before]
        assert all(p.relative_to(tmp).parts[0] == "out" for p in written), written
        if code == EXIT_CONFIG:
            assert written == []
