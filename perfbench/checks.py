"""Output checks for the perfbench workloads, in plain numpy.

Nothing here imports distcorr: every reference value is computed from the
generated input with independent code, or is a property the method must
have.  Each check function returns a list of ``(name, ok, detail)``
tuples, one per named check, so the self-test can confirm that a given
perturbation makes that very check fail.
"""
from __future__ import annotations

import csv
import io
import json

import numpy as np

from fixtures import PLANTED

PEARSON_ABS_TOL = 1e-9
DCOR_ABS_TOL = 1e-9
PAIR_REL_TOL = 1e-9
SAMPLED_RECORDS = 64  # dcor reference records per screen run
SAMPLED_PERMUTATION_PAIRS = 2  # p-value replays per p-value screen run
FIELDS = ["group", "var_a", "var_b", "n", "pearson", "dcor", "p_value", "flags"]


def _dist(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    if u.shape[1] == 1:
        return np.abs(u[:, 0][:, None] - v[:, 0][None, :])
    return np.sqrt(((u[:, None, :] - v[None, :, :]) ** 2).sum(axis=-1))


def _centered(s: np.ndarray) -> np.ndarray:
    """Double-centered distance matrix of a sample's rows (small n only)."""
    s = s.reshape(len(s), -1)
    d = _dist(s, s)
    return d - d.mean(axis=0)[None, :] - d.mean(axis=1)[:, None] + d.mean()


def dcor_direct(x: np.ndarray, y: np.ndarray) -> float:
    """Distance correlation by explicit double-centering."""
    a, b = _centered(x), _centered(y)
    vxy, vxx, vyy = (a * b).mean(), (a * a).mean(), (b * b).mean()
    if vxx <= 0.0 or vyy <= 0.0:
        return 0.0
    return float(np.sqrt(max(vxy, 0.0) / np.sqrt(vxx * vyy)))


def dcov_three_sums(x: np.ndarray, y: np.ndarray, block: int = 256) -> dict:
    """dCov^2(x,y), dVar(x), dVar(y) and dCor from the V-statistic expansion.

    dCov^2 = S1 + S2 - 2*S3 with S1 = mean(a*b), S2 = mean(a)*mean(b) and
    S3 = mean over k of rowmean(a)_k * rowmean(b)_k, where a and b are the
    distance matrices.  Rows are processed in blocks, so memory stays
    O(block * n) at any n.
    """
    n = len(x)
    ra, rb = np.empty(n), np.empty(n)
    s_ab = s_aa = s_bb = 0.0
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        a, b = _dist(x[i0:i1], x), _dist(y[i0:i1], y)
        s_ab += float((a * b).sum())
        s_aa += float((a * a).sum())
        s_bb += float((b * b).sum())
        ra[i0:i1], rb[i0:i1] = a.sum(axis=1), b.sum(axis=1)

    def v(s, r1, r2):
        return s / n**2 + (r1.sum() / n**2) * (r2.sum() / n**2) - 2.0 * float(r1 @ r2) / n**3

    vxy, vxx, vyy = v(s_ab, ra, rb), v(s_aa, ra, ra), v(s_bb, rb, rb)
    dvar_x, dvar_y = np.sqrt(max(vxx, 0.0)), np.sqrt(max(vyy, 0.0))
    r = 0.0 if dvar_x <= 0 or dvar_y <= 0 else float(np.sqrt(max(vxy, 0.0) / (dvar_x * dvar_y)))
    return {"dcov_sq": vxy, "dvar_x": float(dvar_x), "dvar_y": float(dvar_y), "dcor": r}


def _pair_seed(base_seed: int, group_index: int, pair_index: int) -> int:
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(group_index, pair_index))
    return int(ss.generate_state(1)[0])


def permutation_exceedances(x: np.ndarray, y: np.ndarray, replicates: int, seed: int) -> int:
    """#{b : dCov^2(x, y permuted by replicate b's generator) >= observed}.

    Replicate b permutes y's rows with a generator seeded by
    SeedSequence(entropy=seed, spawn_key=(b,)), b = 1..replicates, the
    seeding distcorr documents for permutation_test.
    """
    a, b = _centered(x), _centered(y)
    observed = max(float((a * b).mean()), 0.0)
    exceed = 0
    for rep in range(1, replicates + 1):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
        perm = rng.permutation(len(x))
        if float((a * b[perm][:, perm]).mean()) >= observed:
            exceed += 1
    return exceed


def _add_one_count(p: float, replicates: int) -> int | None:
    """k when p == (1 + k) / (1 + B) for an integer 0 <= k <= B, else None."""
    k = p * (1 + replicates) - 1
    kr = round(k)
    if abs(k - kr) > 1e-9 * (1 + replicates) or not 0 <= kr <= replicates:
        return None
    return int(kr)


def _rel_ok(got, want, tol=PAIR_REL_TOL) -> bool:
    return got is not None and abs(got - want) <= tol * max(abs(want), 1e-300)


def parse_table(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    if rows and list(rows[0]) != FIELDS:
        raise ValueError(f"unexpected screen header {list(rows[0])}")
    out = []
    for r in rows:
        out.append({
            "group": r["group"], "var_a": r["var_a"], "var_b": r["var_b"],
            "n": int(r["n"]), "pearson": float(r["pearson"]), "dcor": float(r["dcor"]),
            "p_value": None if r["p_value"] == "" else float(r["p_value"]),
            "flags": [f for f in r["flags"].split(";") if f],
        })
    return out


def check_screen(fx, table_text: str, summary_text: str) -> list[tuple[str, bool, str]]:
    """Checks of one `screen` command's output table and stdout summary."""
    results = []
    try:
        records = parse_table(table_text)
        summary = json.loads(summary_text)
    except (ValueError, KeyError) as exc:
        return [("parse", False, str(exc))]
    names = list(fx.columns)
    groups = sorted(set(fx.labels))
    pairs = [(names[i], names[j]) for i in range(len(names)) for j in range(i + 1, len(names))]
    expected = {(g, *sorted(p)) for g in groups for p in pairs}
    got = [(r["group"], r["var_a"], r["var_b"]) for r in records]
    results.append((
        "record_count",
        len(got) == len(expected) == len(set(got)) and set(got) == expected,
        f"{len(got)} records, expected {len(expected)} = {len(groups)} groups x K(K-1)/2",
    ))
    results.append((
        "summary",
        summary.get("pairs") == len(records) and summary.get("groups") == len(groups),
        f"summary says pairs={summary.get('pairs')} groups={summary.get('groups')}",
    ))

    def complete(rec):
        mask = fx.labels == rec["group"]
        a, b = fx.columns[rec["var_a"]][mask], fx.columns[rec["var_b"]][mask]
        ok = np.isfinite(a) & np.isfinite(b)
        return a[ok], b[ok]

    bad_n, bad_r = [], []
    for rec in records:
        a, b = complete(rec)
        if rec["n"] != len(a):
            bad_n.append((rec["group"], rec["var_a"], rec["var_b"], rec["n"], len(a)))
        want = float(np.corrcoef(a, b)[0, 1])
        if not abs(rec["pearson"] - want) <= PEARSON_ABS_TOL:
            bad_r.append((rec["group"], rec["var_a"], rec["var_b"], rec["pearson"], want))
    results.append(("complete_case_n", not bad_n, f"mismatches (group, a, b, got, want): {bad_n[:3]}"))
    results.append(("pearson", not bad_r, f"mismatches vs numpy.corrcoef: {bad_r[:3]}"))

    rng = np.random.default_rng(np.random.SeedSequence(entropy=fx.seed, spawn_key=(1,)))
    sample = rng.choice(len(records), size=min(SAMPLED_RECORDS, len(records)), replace=False)
    bad_d = []
    for i in sample:
        rec = records[i]
        want = dcor_direct(*complete(rec))
        if not abs(rec["dcor"] - want) <= DCOR_ABS_TOL:
            bad_d.append((rec["group"], rec["var_a"], rec["var_b"], rec["dcor"], want))
    results.append(("dcor_reference", not bad_d, f"mismatches vs direct double-centering: {bad_d[:3]}"))
    out_of_range = [r["dcor"] for r in records if not 0.0 <= r["dcor"] <= 1.0]
    results.append(("dcor_range", not out_of_range, f"dcor outside [0, 1]: {out_of_range[:3]}"))

    planted = {r["group"]: r for r in records if (r["var_a"], r["var_b"]) == PLANTED}
    unflagged = [g for g in groups if "nonlinear-candidate" not in planted.get(g, {"flags": []})["flags"]]
    results.append(("planted_flag", not unflagged, f"planted pair not flagged in groups {unflagged}"))

    if not fx.spec["p_values"]:
        with_p = [r for r in records if r["p_value"] is not None]
        results.append(("no_p_values", not with_p, f"{len(with_p)} records carry p-values"))
        return results

    reps = fx.spec["replicates"]
    bad_form = [r["p_value"] for r in records
                if r["p_value"] is None or _add_one_count(r["p_value"], reps) is None]
    results.append(("p_value_form", not bad_form, f"not (1+k)/(1+{reps}): {bad_form[:3]}"))
    bad_planted = [(g, r["p_value"]) for g, r in planted.items() if r["p_value"] != 1 / (reps + 1)]
    results.append(("planted_p_value", not bad_planted and len(planted) == len(groups),
                    f"planted pair p-values not 1/(B+1): {bad_planted}"))

    pair_index = {frozenset(p): k for k, p in enumerate(pairs)}
    pick = rng.choice(len(records), size=min(SAMPLED_PERMUTATION_PAIRS, len(records)), replace=False)
    bad_k = []
    for i in pick:
        rec = records[i]
        k = _add_one_count(rec["p_value"], reps) if rec["p_value"] is not None else None
        seed = _pair_seed(fx.seed, groups.index(rec["group"]),
                          pair_index[frozenset((rec["var_a"], rec["var_b"]))])
        want = permutation_exceedances(*complete(rec), reps, seed)
        if k is None or abs(k - want) > 1:
            bad_k.append((rec["group"], rec["var_a"], rec["var_b"], k, want))
    results.append(("replicate_agreement", not bad_k,
                    f"exceedance counts (group, a, b, got, want): {bad_k}"))
    return results


def check_compute(fx, stdout_text: str, ref: dict) -> list[tuple[str, bool, str]]:
    """Checks of one `compute` command's JSON against the three-sum reference."""
    try:
        out = json.loads(stdout_text)
    except ValueError as exc:
        return [("parse", False, str(exc))]
    results = [("compute_n", out.get("n") == len(fx.x), f"n={out.get('n')}, expected {len(fx.x)}")]
    for key in ("dcov_sq", "dvar_x", "dvar_y", "dcor"):
        results.append((key, _rel_ok(out.get(key), ref[key]), f"{out.get(key)!r} vs reference {ref[key]!r}"))
    if fx.x.shape[1] == 1 and fx.y.shape[1] == 1:
        want = float(np.corrcoef(fx.x[:, 0], fx.y[:, 0])[0, 1])
        got = out.get("pearson")
        results.append(("pearson", got is not None and abs(got - want) <= PEARSON_ABS_TOL,
                        f"{got!r} vs numpy.corrcoef {want!r}"))
    else:
        results.append(("pearson", out.get("pearson") is None,
                        f"multivariate pair reported pearson={out.get('pearson')!r}"))
    return results


def check_test(fx, stdout_text: str, ref: dict) -> list[tuple[str, bool, str]]:
    """Checks of one `test` command's JSON: add-one p-value and its statistic."""
    try:
        out = json.loads(stdout_text)
    except ValueError as exc:
        return [("parse", False, str(exc))]
    reps = fx.spec["replicates"]
    p, k = out.get("p_value"), out.get("exceed_count")
    form = (
        out.get("replicates") == reps
        and isinstance(p, float)
        and _add_one_count(p, reps) is not None
        and _add_one_count(p, reps) == k
    )
    return [
        ("test_p_value_form", form, f"p={p!r}, exceed_count={k!r}, replicates={out.get('replicates')!r}"),
        ("test_statistic", _rel_ok(out.get("statistic"), ref["dcov_sq"]),
         f"{out.get('statistic')!r} vs reference dcov_sq {ref['dcov_sq']!r}"),
    ]


def check_round(fx, outputs: list[dict]) -> list[list[tuple[str, bool, str]]]:
    """Checks per command of one round.

    ``outputs[i]`` holds command i's ``stdout`` and, for `screen`, the
    ``table`` it wrote.
    """
    if fx.spec["kind"] == "screen":
        return [check_screen(fx, outputs[0]["table"], outputs[0]["stdout"])]
    ref = dcov_three_sums(fx.x, fx.y)
    results = [check_compute(fx, outputs[0]["stdout"], ref)]
    if len(outputs) > 1:
        results.append(check_test(fx, outputs[1]["stdout"], ref))
    return results
