"""perfbench: end-to-end and per-layer benchmark of the distcorr CLI.

Run from the root of a distcorr checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

A run writes the workload's input from ``--seed`` (fixtures.py), then
repeats rounds for ``--seconds`` seconds, always finishing the round it
started.  A round is one fresh interpreter (worker.py) that imports
distcorr.cli and runs the workload's CLI commands in-process.  After the
timed loop the outputs are checked (checks.py) and every later round's
outputs must equal the first round's.

``--trace 0`` prints the end-to-end metrics, medians over the rounds.
``--trace 1`` alternates untraced and traced rounds, ends with one
memory-traced round, and prints the per-layer metrics (tracing.py).  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Diagnostics go to stderr.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the benchmark's own directory free of caches

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import fixtures  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = ".perfbench-work"  # inside the checkout; listed in .gitignore
SETUP_SAMPLES = 5  # fresh interpreters timed for setup_s, at least
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# Metric names and units are those declared in BENCHMARK.json.
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    _DECLARED = json.load(_fh)
E2E_UNITS = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}


class RunError(Exception):
    """The benchmark itself could not run (not a failed operation)."""


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # distcorr's bytecode is cached, as in an installed package; the warm-up
    # interpreter writes the caches before anything is timed.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(worker_args: list[str], env: dict, deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return (set-up seconds, its JSON) or (nan, None) on failure."""
    timeout = max(1.0, deadline - time.monotonic())
    started = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, WORKER, *worker_args], env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker timed out after {timeout:.0f} s", file=sys.stderr)
        return float("nan"), None
    if proc.returncode != 0:
        print(f"perfbench: worker exited {proc.returncode}: {proc.stderr[-2000:]}", file=sys.stderr)
        return float("nan"), None
    payload = json.loads(proc.stdout.strip().splitlines()[-1])
    # perf_counter is CLOCK_MONOTONIC, shared by parent and child
    return payload["imported_at"] - started, payload


def run_round(fx, mode: str, index: int, work: str, env: dict, deadline: float) -> dict:
    table = os.path.join(work, f"table_r{index}.csv")
    commands = fx.commands(table)
    spec_path = os.path.join(work, f"round_{index}.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"commands": commands, "trace": mode}, fh)
    setup, payload = spawn([spec_path], env, deadline)
    if payload is None:
        results = [{"argv": c, "code": -1, "wall_s": float("nan"), "stdout": ""} for c in commands]
        payload = {"commands": results, "maxrss_mib": float("nan")}
    for result in payload["commands"]:
        result["table"] = None
        if result["argv"][0] == "screen" and os.path.exists(table):
            with open(table, encoding="utf-8") as fh:
                result["table"] = fh.read()
            os.unlink(table)
    return {"mode": mode, "setup_s": setup, **payload}


def _signature(result: dict):
    """What must be identical between rounds: exit code and outputs, minus paths."""
    out = result["stdout"]
    if result["argv"][0] == "screen":
        try:
            out = {k: v for k, v in json.loads(out).items() if k != "out"}
        except ValueError:
            pass
    return result["code"], out, result["table"]


def verify(fx, rounds: list[dict]) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over every command of every round.

    The first round in which every command exited 0 is checked; a command
    fails when it exits non-zero, fails a check, or differs from that round.
    """
    reference = next((r for r in rounds if all(c["code"] == 0 for c in r["commands"])), None)
    verdicts = []
    if reference is not None:
        for results in checks.check_round(fx, reference["commands"]):
            bad = [(name, detail) for name, ok, detail in results if not ok]
            for name, detail in bad:
                print(f"perfbench: check {name} failed: {detail}", file=sys.stderr)
            verdicts.append(not bad)
    attempted = failed = 0
    correct = all(verdicts)
    for r in rounds:
        for i, result in enumerate(r["commands"]):
            attempted += 1
            if result["code"] != 0:
                print(f"perfbench: {result['argv'][0]} exited {result['code']}: "
                      f"{result.get('stderr', '')[-500:]}", file=sys.stderr)
                failed += 1
            elif reference is None or not verdicts[i]:
                failed += 1
            elif _signature(result) != _signature(reference["commands"][i]):
                print(f"perfbench: {result['argv'][0]} output differs between rounds",
                      file=sys.stderr)
                correct = False
                failed += 1
    return attempted, failed, correct


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(rounds: list[dict], setups: list[float]) -> dict:
    walls, rates, rss = [], [], []
    for r in rounds:
        if r["mode"] != "off":
            continue
        cmds = r["commands"]
        walls.append(sum(c["wall_s"] for c in cmds))
        first = cmds[0]  # screen, or compute
        pairs = json.loads(first["stdout"])["pairs"] if first["argv"][0] == "screen" else 1
        rates.append(pairs / first["wall_s"])
        rss.append(r["maxrss_mib"])
    values = {"setup_s": _median(setups), "wall_s": _median(walls),
              "pairs_per_s": _median(rates), "peak_rss_mib": _median(rss)}
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def per_layer(rounds: list[dict]) -> dict:
    traced = [r["layers"] for r in rounds if r["mode"] == "spans"]
    values = {k: _median(t[k] for t in traced) for k in traced[0]}
    memory = next(r["layers"] for r in rounds if r["mode"] == "memory")
    for key in ("core.peak_traced_mib", "inference.peak_traced_mib",
                "screening.load_dataset.peak_traced_mib"):
        values[key] = memory[key]
    wall = {mode: _median(sum(c["wall_s"] for c in r["commands"]) for r in rounds if r["mode"] == mode)
            for mode in ("off", "spans")}
    values["trace.overhead_s"] = wall["spans"] - wall["off"]
    return {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()}


def bench(workload: str, seed: int, seconds: float, trace: bool, src: str, work: str) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env(src)
    fx = fixtures.generate(workload, seed, os.path.join(work, "input"))

    # Warm-up interpreter: writes distcorr's bytecode caches, and proves the
    # import resolves to this checkout's sources.
    _, probe = spawn(["--probe"], env, deadline)
    if probe is None or not os.path.abspath(probe["module"]).startswith(src + os.sep):
        raise RunError(f"distcorr.cli did not import from {src}: {probe}")

    block = ("off", "spans") if trace else ("off",)
    rounds: list[dict] = []
    start = time.perf_counter()
    while True:
        for mode in block:
            rounds.append(run_round(fx, mode, len(rounds), work, env, deadline))
            print(f"perfbench: {workload} round {len(rounds)} ({mode}): "
                  f"{sum(c['wall_s'] for c in rounds[-1]['commands']):.3f} s", file=sys.stderr)
        if time.perf_counter() - start >= seconds or time.monotonic() >= deadline:
            break
    if trace:
        rounds.append(run_round(fx, "memory", len(rounds), work, env, deadline))

    attempted, failed, correct = verify(fx, rounds)
    # Timings come only from rounds in which every command exited 0.
    clean = [r for r in rounds if all(c["code"] == 0 for c in r["commands"])]
    if not any(r["mode"] == "off" for r in clean) or (trace and len({r["mode"] for r in clean}) < 3):
        raise RunError(f"{failed} of {attempted} commands failed; no round to time")
    if trace:
        metrics = per_layer(clean)
    else:
        setups = [r["setup_s"] for r in clean]
        while len(setups) < SETUP_SAMPLES:
            setup, probe = spawn(["--probe"], env, deadline)
            if probe is None:
                raise RunError("set-up probe failed")
            setups.append(setup)
        metrics = end_to_end(clean, setups)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(fixtures.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "distcorr", "cli.py")):
        print(f"perfbench: no distcorr sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    workloads = sorted(fixtures.WORKLOADS) if args.workload == "all" else [args.workload]
    work = os.path.join(root, WORK_DIR, f"run-{os.getpid()}")
    try:
        for name in workloads:
            result = bench(name, args.seed, args.seconds, bool(args.trace), src,
                           os.path.join(work, name))
            if args.workload == "all":
                result = {"workload": name, **result}
            print(json.dumps(result), flush=True)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass  # another run still uses it, or it was never made
    return 0


if __name__ == "__main__":
    sys.exit(main())
