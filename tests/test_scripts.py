"""Smoke tests: the experiment scripts run end to end on tiny inputs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_handoff_sweep_script(tmp_path):
    out = tmp_path / "handoff"
    proc = run_script("handoff_sweep.py", "--out", str(out), "--nodes", "30", "--moves", "3")
    assert proc.returncode == 0, proc.stderr
    assert "simulated handoffs" in proc.stdout
    assert "mobile_ip" in proc.stdout
    lines = (out / "handoff.csv").read_text().splitlines()
    assert lines[0].startswith("topology,model,run,step,strategy")
    assert len(lines) > 1


def test_run_reference_suite_script(tmp_path):
    out = tmp_path / "suite"
    proc = run_script("run_reference_suite.py", "--out", str(out), "--seeds", "1",
                      "--moves", "3")
    assert proc.returncode == 0, proc.stderr
    assert (out / "suite.json").exists()
    assert (out / "aggregate.csv").exists()
    assert sorted(p.name for p in (out / "plots").iterdir()) == [
        "added_links.svg", "b_over_l.svg", "mean_r.svg", "total_links.svg"]
