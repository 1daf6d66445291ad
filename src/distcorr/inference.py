"""Permutation test of independence and a power-comparison harness.

The test statistic is the squared distance covariance rather than the
distance correlation: the correlation's denominators are permutation
invariant, so both statistics induce the same p-value, and the covariance
avoids the degenerate-denominator branch entirely.

Determinism: every replicate b draws its permutation from a generator
seeded by (seed, b), so replicates can run in any order (or in parallel)
with identical results.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_MEMORY_BUDGET, _deviations, _inputs, double_center, rows_that_fit
from .errors import DataQualityError


@dataclass(frozen=True)
class TestResult:
    statistic: float
    replicates: int
    exceed_count: int
    p_value: float
    seed: int


@dataclass(frozen=True)
class PowerReport:
    scenario: str
    n: int
    trials: int
    alpha: float
    replicates: int
    rejection_rate_dcov: float
    rejection_rate_pearson: float
    seed: int


def _replicate_rng(seed: int, b: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))


def _exceedances(statistic, observed: float, n: int, replicates: int, seed: int) -> int:
    """How many replicate permutations give a statistic >= observed (ties count)."""
    perms = (_replicate_rng(seed, rep).permutation(n) for rep in range(1, replicates + 1))
    return sum(statistic(perm) >= observed for perm in perms)


def permutation_test(x, y, replicates: int, seed: int) -> TestResult:
    """Independence test: permute y's rows, recompute dcov^2, count exceedances.

    x and y are samples or their materialized CenteredMatrix objects.

    p-value uses the add-one formula (1 + #{perm >= observed}) / (1 + B),
    so it is never exactly 0; ties count as exceedances (conservative).
    """
    xs, ys, n = _inputs(x, y)
    if n < 2:
        raise DataQualityError("permutation test requires at least 2 observations")
    if replicates < 1:
        raise DataQualityError("permutation test requires at least 1 replicate")
    # both centered matrices and one replicate's gather are alive at once
    if rows_that_fit(n, DEFAULT_MEMORY_BUDGET) < 3 * n:
        raise DataQualityError(
            f"permutation test on {n} observations needs three {n} x {n} float64 matrices, "
            f"above the memory budget of {DEFAULT_MEMORY_BUDGET} bytes"
        )

    # Centering commutes with applying one permutation to rows and columns,
    # so permuting y's rows only permutes B's rows/columns: center both
    # samples once and index per replicate.
    a, b = double_center(xs), double_center(ys)
    observed = a.inner(b)

    exceed = _exceedances(
        lambda perm: float(np.vdot(a.entries, b.entries[np.ix_(perm, perm)])) / (n * n),
        observed, n, replicates, seed,
    )
    p_value = (1 + exceed) / (1 + replicates)
    return TestResult(
        statistic=observed,
        replicates=replicates,
        exceed_count=exceed,
        p_value=p_value,
        seed=seed,
    )


def _pearson_permutation_pvalue(xv: np.ndarray, yv: np.ndarray, replicates: int, seed: int) -> float:
    """Permutation test on |pearson| for the power comparison."""
    n = xv.shape[0]
    # scaled as in pearson, so that a tiny spread cannot square to 0
    xd, yd = _deviations(xv)[0], _deviations(yv)[0]
    sx = np.sqrt((xd * xd).sum())
    sy = np.sqrt((yd * yd).sum())
    if sx == 0.0 or sy == 0.0:
        return 1.0
    observed = abs(float(xd @ yd)) / (sx * sy)
    exceed = _exceedances(
        lambda perm: abs(float(xd @ yd[perm])) / (sx * sy), observed, n, replicates, seed
    )
    return (1 + exceed) / (1 + replicates)


SCENARIOS = ("independent", "linear", "quadratic")


def _draw_scenario(scenario: str, n: int, rng: np.random.Generator):
    if scenario == "independent":
        return rng.standard_normal(n), rng.standard_normal(n)
    if scenario == "linear":
        x = rng.standard_normal(n)
        return x, x + rng.standard_normal(n)
    if scenario == "quadratic":
        x = rng.uniform(-1.0, 1.0, size=n)
        return x, x * x
    raise ValueError(f"unknown scenario {scenario!r}; known: {', '.join(SCENARIOS)}")


def power_simulation(
    scenario: str,
    n: int,
    trials: int,
    alpha: float,
    replicates: int,
    seed: int,
) -> PowerReport:
    """Rejection rates of the dcov and |pearson| permutation tests at level alpha."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if trials < 1 or n < 2 or replicates < 1:
        raise ValueError("trials, replicates must be >= 1 and n >= 2")
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; known: {', '.join(SCENARIOS)}")

    reject_dcov = 0
    reject_pearson = 0
    for trial in range(trials):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
        data_seed, dcov_seed, pear_seed = ss.generate_state(3)
        rng = np.random.default_rng(data_seed)
        xv, yv = _draw_scenario(scenario, n, rng)
        res = permutation_test(xv, yv, replicates, int(dcov_seed))
        if res.p_value <= alpha:
            reject_dcov += 1
        p_pear = _pearson_permutation_pvalue(xv, yv, replicates, int(pear_seed))
        if p_pear <= alpha:
            reject_pearson += 1

    return PowerReport(
        scenario=scenario,
        n=n,
        trials=trials,
        alpha=alpha,
        replicates=replicates,
        rejection_rate_dcov=reject_dcov / trials,
        rejection_rate_pearson=reject_pearson / trials,
        seed=seed,
    )
