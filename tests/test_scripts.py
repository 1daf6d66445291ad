import json
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


TRACED_RUN = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import distcorr.cli
from tracing import Recorder
recorder = Recorder()
recorder.install()
x, y = sys.argv[2:4]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [distcorr.cli.main(["compute", "--x", x, "--y", y]),
             distcorr.cli.main(["test", "--x", x, "--y", y, "--replicates", "9", "--seed", "1"])]
print(json.dumps({"codes": codes, "layers": recorder.layer_metrics()}))
"""


def test_perfbench_tracer_finds_the_traced_names(tmp_path):
    # the tracer wraps core.cdist and the public functions by name: a rename blinds it silently
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    x.write_text("x\n" + "".join(f"{v}\n" for v in (0.0, 1.0, 3.0, 2.0, 5.0)))
    y.write_text("y\n" + "".join(f"{v}\n" for v in (1.0, 0.0, 4.0, 4.0, 2.0)))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "perfbench"), str(x), str(y)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert result["codes"] == [0, 0]
    assert result["layers"]["core.dcor.calls"] >= 1
    assert result["layers"]["inference.permutation_test.calls"] >= 1


def test_perfbench_selftest_passes():
    # screens a gapped figure-1-shaped table through the real CLI and checks every record
    # against perfbench's own references, so a wrong masked record fails here first
    out = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    assert out.stdout.splitlines()[-1] == "selftest: ok"
