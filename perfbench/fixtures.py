"""Seeded input generator for the perfbench workloads.

Every workload's input is a pure function of (workload, seed): the same
seed writes byte-identical files.  The generator also keeps the values it
wrote in memory, so the output checks in ``checks.py`` can compute their
references without going through distcorr's CSV parser.

Run on its own to inspect a workload's input:

    python3 perfbench/fixtures.py --workload figure1_screen --seed 1 --out DIR
"""
from __future__ import annotations

import argparse
import json
import os
from dataclasses import dataclass, field

import numpy as np

# Sizes were chosen so that one round (a fresh process running the
# workload's commands) takes a few seconds on a 2-core machine, except
# scalar_pair_large, whose row count is pinned by the dispatch threshold
# of dcov_sq: 8 * n^2 > 1 GiB needs n > 11585.
WORKLOADS = {
    "figure1_screen": {
        "kind": "screen",
        "groups": 3,
        "rows": 200,
        "columns": 33,
        "missing_columns": 3,
        "missing_share": 0.05,
        "p_values": False,
    },
    "pvalue_screen": {
        "kind": "screen",
        "groups": 2,
        "rows": 300,
        "columns": 5,
        "missing_columns": 0,
        "missing_share": 0.0,
        "p_values": True,
        "replicates": 199,
    },
    "scalar_pair_large": {
        "kind": "pair",
        "n": 11600,
        "dims": [1, 1],
        "replicates": 0,
    },
    "multivariate_pair": {
        "kind": "pair",
        "n": 3000,
        "dims": [3, 2],
        "replicates": 20,
    },
}

PLANTED = ("v01", "v02")  # y = x^2 + noise: dcor high, Pearson near 0

# Column kinds after the planted pair, cycled in this order.  Integer
# kinds carry heavy ties, as discrete survey answers do.
_KINDS = ("factor", "likert", "factor", "lognormal", "count", "noise", "likert", "factor")


@dataclass
class Fixture:
    workload: str
    seed: int
    spec: dict
    directory: str
    files: dict = field(default_factory=dict)
    # screen workloads: column name -> float array (NaN = missing), labels
    columns: dict = field(default_factory=dict)
    labels: np.ndarray | None = None
    # pair workloads: (n, d) arrays
    x: np.ndarray | None = None
    y: np.ndarray | None = None

    def commands(self, out_path: str) -> list[list[str]]:
        """The distcorr CLI argv lists of one round, in order."""
        spec = self.spec
        if spec["kind"] == "screen":
            argv = [
                "screen", "--data", self.files["data"], "--group-by", "group",
                "--out", out_path, "--format", "csv", "--seed", str(self.seed),
            ]
            if spec["missing_columns"]:
                argv += ["--missing-policy", "pairwise-drop"]
            if spec["p_values"]:
                argv += ["--p-values", "--replicates", str(spec["replicates"])]
            return [argv]
        cmds = [["compute", "--x", self.files["x"], "--y", self.files["y"]]]
        if spec["replicates"]:
            cmds.append(
                ["test", "--x", self.files["x"], "--y", self.files["y"],
                 "--replicates", str(spec["replicates"]), "--seed", str(self.seed)]
            )
        return cmds


def _screen_table(spec: dict, rng: np.random.Generator):
    groups, rows, k = spec["groups"], spec["rows"], spec["columns"]
    names = [f"v{j:02d}" for j in range(1, k + 1)]
    total = groups * rows
    labels = np.repeat([f"g{g + 1}" for g in range(groups)], rows)
    # The first two rows of every group are never missing and hold distinct
    # values in every integer column, so no column is constant on any
    # complete-case subset.
    protected = np.zeros(total, dtype=bool)
    protected[np.arange(groups) * rows] = True
    protected[np.arange(groups) * rows + 1] = True

    latent = rng.standard_normal((total, 3))
    cols: dict[str, np.ndarray] = {}
    # The planted x comes in +/- pairs within each group, so the sample
    # Pearson correlation of (x, x^2) is ~0 by construction and the planted
    # pair's dcor - |pearson| gap clears the 0.25 flag threshold on every seed.
    half = rng.uniform(-1.0, 1.0, (groups, rows // 2))
    x = np.concatenate([half, -half, rng.uniform(-1.0, 1.0, (groups, rows % 2))], axis=1).ravel()
    cols[names[0]] = x
    cols[names[1]] = x * x + 0.05 * rng.standard_normal(total)
    for j, name in enumerate(names[2:]):
        kind = _KINDS[j % len(_KINDS)]
        f = latent[:, j % 3]
        if kind == "factor":
            v = rng.uniform(0.3, 1.0) * f + rng.standard_normal(total)
        elif kind == "likert":
            v = np.digitize(f + 0.7 * rng.standard_normal(total), [-1.2, -0.4, 0.4, 1.2]) + 1.0
            v[protected] = np.tile([1.0, 5.0], groups)
        elif kind == "count":
            v = rng.poisson(np.exp(0.4 * f + 0.5)).astype(float)
            v[protected] = np.tile([0.0, 4.0], groups)
        elif kind == "lognormal":
            v = np.exp(0.8 * f + 0.5 * rng.standard_normal(total))
        else:
            v = rng.standard_normal(total)
        cols[name] = v

    # Missing cells only in a few "factor" columns, never in the planted pair.
    candidates = [n for j, n in enumerate(names[2:]) if _KINDS[j % len(_KINDS)] == "factor"]
    for name in candidates[: spec["missing_columns"]]:
        free = np.flatnonzero(~protected)
        hit = rng.choice(free, size=int(spec["missing_share"] * total), replace=False)
        cols[name] = cols[name].copy()
        cols[name][hit] = np.nan

    order = rng.permutation(total)
    return labels[order], {n: v[order] for n, v in cols.items()}


def _pair_samples(spec: dict, rng: np.random.Generator):
    n = spec["n"]
    dx, dy = spec["dims"]
    x = rng.standard_normal((n, dx))
    if (dx, dy) == (1, 1):
        y = np.sin(2.0 * x) + 0.3 * rng.standard_normal((n, 1))
    else:
        y = np.column_stack(
            [x[:, 0] * x[:, 1], np.abs(x[:, -1])][:dy]
        ) + 0.5 * rng.standard_normal((n, dy))
    return x, y


def _cell(v: float) -> str:
    if np.isnan(v):
        return ""
    return str(int(v)) if float(v).is_integer() and abs(v) < 1e15 else repr(float(v))


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def generate(workload: str, seed: int, directory: str, spec: dict | None = None) -> Fixture:
    """Write the workload's input files under ``directory`` and return them.

    ``spec`` overrides the workload's sizes (the self-test uses smaller ones).
    """
    spec = dict(WORKLOADS[workload] if spec is None else spec)
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    fx = Fixture(workload=workload, seed=seed, spec=spec, directory=directory)
    if spec["kind"] == "screen":
        labels, cols = _screen_table(spec, rng)
        fx.labels, fx.columns = labels, cols
        names = list(cols)
        fx.files["data"] = os.path.join(directory, "table.csv")
        _write_csv(
            fx.files["data"],
            ["group"] + names,
            ([labels[i]] + [_cell(cols[n][i]) for n in names] for i in range(len(labels))),
        )
    else:
        fx.x, fx.y = _pair_samples(spec, rng)
        for key, arr in (("x", fx.x), ("y", fx.y)):
            fx.files[key] = os.path.join(directory, f"{key}.csv")
            header = [key] if arr.shape[1] == 1 else [f"{key}{j + 1}" for j in range(arr.shape[1])]
            _write_csv(fx.files[key], header, ([repr(float(v)) for v in row] for row in arr))
    return fx


def main() -> int:
    parser = argparse.ArgumentParser(description="Write one workload's seeded input files.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args()
    fx = generate(args.workload, args.seed, args.out)
    print(json.dumps({"workload": fx.workload, "seed": fx.seed, "spec": fx.spec,
                      "files": fx.files, "commands": fx.commands("OUT")}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
