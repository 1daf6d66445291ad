"""One round of a workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py ROUND.json

ROUND.json holds ``commands`` (distcorr CLI argv lists) and ``trace``
("off", "spans" or "memory").  The worker imports distcorr.cli first, so
the monotonic time it reports as ``imported_at`` ends the set-up its
parent started timing before the spawn.  It then runs each command
in-process through ``distcorr.cli.main``, timing each, and prints one JSON
object on stdout.  With ``--probe`` it only imports and reports.
"""
import time

import distcorr.cli

IMPORTED_AT = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

sys.dont_write_bytecode = True  # keep the benchmark's own directory free of caches


def run_round(spec: dict) -> dict:
    recorder = None
    if spec["trace"] != "off":
        from tracing import Recorder

        recorder = Recorder(memory=spec["trace"] == "memory")
        recorder.install()
    results = []
    for argv in spec["commands"]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = distcorr.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - an uncaught error is a failed command
            code = -1
            err.write(traceback.format_exc())
        wall = time.perf_counter() - start
        results.append({"argv": argv, "code": code, "wall_s": wall,
                        "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]})
    usage = resource.getrusage(resource.RUSAGE_SELF)
    payload = {"imported_at": IMPORTED_AT, "commands": results, "maxrss_mib": usage.ru_maxrss / 1024,
               "user_s": usage.ru_utime, "sys_s": usage.ru_stime}
    if recorder is not None:
        payload["layers"] = recorder.layer_metrics()
    return payload


def main() -> int:
    if sys.argv[1] == "--probe":
        payload = {"imported_at": IMPORTED_AT, "module": distcorr.cli.__file__}
    else:
        with open(sys.argv[1], encoding="utf-8") as fh:
            payload = run_round(json.load(fh))
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
