import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_power_study_runs(tmp_path):
    out = run_script("power_study.py", "--trials", "1", "--replicates", "1", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0].split() == ["scenario", "n", "reject(dcov)", "reject(pearson)"]


def test_screen_synthetic_runs(tmp_path):
    table = tmp_path / "table.csv"
    out = run_script(
        "screen_synthetic.py", "--rows-per-group", "10", "--groups", "2", "--noise-columns", "1",
        "--data-out", str(tmp_path / "input.csv"), "--out", str(table), cwd=tmp_path,
    )
    assert out.returncode == 0, out.stderr
    # columns u, usq and noise0: three pairs in each of two groups
    assert out.stdout.splitlines()[0] == f"wrote 6 records to {table}"
