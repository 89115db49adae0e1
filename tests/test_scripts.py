"""The scripts under scripts/ run end to end on tiny arguments, so an API
they use cannot be removed or renamed without a failing test
(intolerance_sweep.py runs in test_experiments.py)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_segregation_growth(tmp_path):
    done = run_script("segregation_growth.py", "--n", "32", "--w", "2", "--tau", "0.42", "--seeds", "2",
                      "--out", "growth.csv", "--snapshot-dir", "snaps", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    rows = (tmp_path / "growth.csv").read_text().splitlines()
    assert rows[0].startswith("seed,K,N,flips") and len(rows) == 3
    assert sorted(p.name for p in (tmp_path / "snaps").iterdir()) == ["final_seed1.bin", "final_seed2.bin"]


def test_percolation_trends(tmp_path):
    done = run_script("percolation_trends.py", "--chem-samples", "2", "--tail-side", "60",
                      "--fpp-reps", "2", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "chemical distance (l1=200, p=0.95)" in done.stdout
    assert done.stdout.count("fpp k=") == 3


@pytest.mark.parametrize("chem_p", ["0.0", "0.3"])
def test_percolation_trends_exits_2_when_the_endpoints_never_connect(tmp_path, chem_p):
    done = run_script("percolation_trends.py", "--chem-p", chem_p, "--chem-samples", "2", cwd=tmp_path)
    assert done.returncode == 2
    assert f"only 0 of 200 lattices at --chem-p {float(chem_p)}" in done.stderr


def test_threshold_curves(tmp_path):
    done = run_script("threshold_curves.py", "--tau-from", "0.40", "--tau-to", "0.41", "--step", "0.005",
                      "--N", "25", "--out-dir", "curves", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    for name in ("f", "a", "b", "pu"):
        lines = (tmp_path / "curves" / f"curve_{name}.csv").read_text().splitlines()
        assert lines[0] == "tau,value,finite_N_value" and len(lines) == 4, name
