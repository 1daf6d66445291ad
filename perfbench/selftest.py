"""Self-test of the perfbench output checks.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload, at reduced sizes, it runs the real distcorr CLI once
(one round, as run.py does), confirms that every check passes on the
genuine output, then feeds each check a deliberately perturbed copy of
that output and confirms that this check rejects it.  Every check that
runs on a genuine output must be rejected by at least one perturbation,
so none passes vacuously.  Exits 0 when all of that holds.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import copy  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import fixtures  # noqa: E402
import run  # noqa: E402

SMALL = {
    "figure1_screen": {"kind": "screen", "groups": 2, "rows": 60, "columns": 8,
                       "missing_columns": 2, "missing_share": 0.05, "p_values": False},
    "pvalue_screen": {"kind": "screen", "groups": 2, "rows": 80, "columns": 5,
                      "missing_columns": 0, "missing_share": 0.0, "p_values": True,
                      "replicates": 49},
    "scalar_pair_large": {"kind": "pair", "n": 400, "dims": [1, 1], "replicates": 0},
    "multivariate_pair": {"kind": "pair", "n": 300, "dims": [3, 2], "replicates": 19},
}


def edit_table(outputs, fn):
    """Apply fn to the screen table's records (dicts of strings)."""
    rows = list(csv.DictReader(io.StringIO(outputs[0]["table"])))
    fn(rows)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=checks.FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    outputs[0]["table"] = buf.getvalue()


def edit_json(outputs, i, fn):
    out = json.loads(outputs[i]["stdout"])
    fn(out)
    outputs[i]["stdout"] = json.dumps(out)


def _is_planted(row):
    return (row["var_a"], row["var_b"]) == fixtures.PLANTED


def _shift_k(row, reps, by):
    k = round(float(row["p_value"]) * (reps + 1)) - 1
    k = k + by if k + by <= reps else k - by
    row["p_value"] = repr((1 + k) / (1 + reps))


def _set_first_planted(rows, key, value):
    next(r for r in rows if _is_planted(r))[key] = value


def _unflag_first_planted(rows):
    row = next(r for r in rows if _is_planted(r))
    row["flags"] = ";".join(f for f in row["flags"].split(";") if f != "nonlinear-candidate")


def screen_perturbations(spec):
    reps = spec.get("replicates", 0)
    out = [
        ("parse", "table header garbled",
         lambda o: o[0].update(table="a,b\n1,2\n")),
        ("record_count", "last record dropped",
         lambda o: edit_table(o, lambda rows: rows.pop())),
        ("summary", "summary pair count off by one",
         lambda o: edit_json(o, 0, lambda d: d.update(pairs=d["pairs"] + 1))),
        ("complete_case_n", "one record's n off by one",
         lambda o: edit_table(o, lambda rows: rows[0].update(n=str(int(rows[0]["n"]) + 1)))),
        ("pearson", "one pearson moved by 1e-6",
         lambda o: edit_table(o, lambda rows: rows[0].update(
             pearson=repr(float(rows[0]["pearson"]) + 1e-6)))),
        ("dcor_reference", "every dcor scaled by 1 - 1e-6",
         lambda o: edit_table(o, lambda rows: [r.update(dcor=repr(float(r["dcor"]) * (1 - 1e-6)))
                                               for r in rows])),
        ("dcor_range", "one dcor set to 1.5",
         lambda o: edit_table(o, lambda rows: rows[0].update(dcor="1.5"))),
        ("planted_flag", "planted pair unflagged in one group",
         lambda o: edit_table(o, _unflag_first_planted)),
    ]
    if not spec["p_values"]:
        out.append(("no_p_values", "a p-value where none was asked for",
                    lambda o: edit_table(o, lambda rows: rows[0].update(p_value="0.5"))))
        return out
    out += [
        ("p_value_form", "one p-value off the (1+k)/(1+B) grid",
         lambda o: edit_table(o, lambda rows: rows[-1].update(
             p_value=repr(float(rows[-1]["p_value"]) + 0.5 / (reps + 1))))),
        ("planted_p_value", "planted pair p-value set to 2/(B+1)",
         lambda o: edit_table(o, lambda rows: _set_first_planted(rows, "p_value", repr(2 / (reps + 1))))),
        ("replicate_agreement", "every exceedance count moved by 2",
         lambda o: edit_table(o, lambda rows: [_shift_k(r, reps, 2) for r in rows])),
    ]
    return out


def pair_perturbations(spec):
    scalar = spec["dims"] == [1, 1]
    out = [
        ("parse", "compute output not JSON", lambda o: o[0].update(stdout="not json")),
        ("compute_n", "n off by one", lambda o: edit_json(o, 0, lambda d: d.update(n=d["n"] + 1))),
    ]
    for key in ("dcov_sq", "dvar_x", "dvar_y", "dcor"):
        out.append((key, f"{key} scaled by 1 + 1e-7",
                    lambda o, key=key: edit_json(o, 0, lambda d: d.update({key: d[key] * (1 + 1e-7)}))))
    if scalar:
        out.append(("pearson", "pearson moved by 1e-7",
                    lambda o: edit_json(o, 0, lambda d: d.update(pearson=d["pearson"] + 1e-7))))
    else:
        out.append(("pearson", "pearson reported for a multivariate pair",
                    lambda o: edit_json(o, 0, lambda d: d.update(pearson=0.1))))
    if spec["replicates"]:
        reps = spec["replicates"]
        out += [
            ("test_p_value_form", "p-value off the (1+k)/(1+B) grid",
             lambda o: edit_json(o, 1, lambda d: d.update(p_value=d["p_value"] + 0.25 / (reps + 1)))),
            ("test_statistic", "statistic scaled by 1 + 1e-7",
             lambda o: edit_json(o, 1, lambda d: d.update(statistic=d["statistic"] * (1 + 1e-7)))),
        ]
    return out


def failing(fx, outputs) -> set[str]:
    return {name for results in checks.check_round(fx, outputs) for name, ok, _ in results if not ok}


def main() -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "distcorr", "cli.py")):
        print("selftest: run from the repository root", file=sys.stderr)
        return 2
    work = os.path.join(root, run.WORK_DIR, f"selftest-{os.getpid()}")
    env = run.child_env(src)
    problems = 0
    try:
        for workload, spec in SMALL.items():
            fx = fixtures.generate(workload, 7, os.path.join(work, workload), spec)
            rnd = run.run_round(fx, "off", 0, os.path.join(work, workload), env,
                                time.monotonic() + run.RUN_LIMIT_S)
            outputs = rnd["commands"]
            genuine = {name for results in checks.check_round(fx, outputs) for name, _, _ in results}
            bad = failing(fx, outputs)
            print(f"{'PASS' if not bad else 'FAIL'} {workload}: all {len(genuine)} checks "
                  f"pass on genuine output{'' if not bad else f' (failed: {sorted(bad)})'}")
            problems += bool(bad)

            perturbations = (screen_perturbations if spec["kind"] == "screen" else pair_perturbations)(spec)
            rejected = set()
            for name, what, mutate in perturbations:
                perturbed = copy.deepcopy(outputs)
                mutate(perturbed)
                ok = name in failing(fx, perturbed)
                if ok:
                    rejected.add(name)
                problems += not ok
                print(f"{'PASS' if ok else 'FAIL'} {workload}: check {name} rejects: {what}")
            vacuous = genuine - rejected - {"parse"}
            if vacuous:
                problems += 1
                print(f"FAIL {workload}: no perturbation exercises {sorted(vacuous)}")

            # A later round whose output differs from the first one fails.
            later = copy.deepcopy(rnd)
            first = later["commands"][0]
            if first["table"] is not None:
                first["table"] += "\n"
            else:
                first["stdout"] += " "
            attempted, failed, correct = run.verify(fx, [rnd, later])
            ok = (attempted, failed, correct) == (2 * len(outputs), 1, False)
            problems += not ok
            print(f"{'PASS' if ok else 'FAIL'} {workload}: a round differing from the first fails "
                  f"(attempted={attempted} failed={failed} correct={correct})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, run.WORK_DIR))
        except OSError:
            pass
    print(f"selftest: {'ok' if not problems else f'{problems} problem(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
