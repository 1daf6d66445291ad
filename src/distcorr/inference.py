"""Permutation test of independence and a power-comparison harness.

The test statistic is the squared distance covariance rather than the
distance correlation: the correlation's denominators are permutation
invariant, so both statistics induce the same p-value, and the covariance
avoids the degenerate-denominator branch entirely.

x's centered matrix A has rows and columns that sum to zero, so sum(A * B^perm) =
sum_kl A_kl |y_perm(k) - y_perm(l)|: every replicate needs A and y's raw distances.

Determinism: every replicate b draws its permutation from a generator
seeded by (seed, b), so replicates can run in any order (or in parallel)
with identical results.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_MEMORY_BUDGET, STREAM_BLOCK_ROWS, CenteredMatrix, cdist, rows_that_fit
from .core import _scaled, _unit, _unscaled
from .errors import DataQualityError
from .samples import as_sample, check_same_n


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


def _permuted_dcov_sq(a: CenteredMatrix, y: np.ndarray, perm: np.ndarray, rows: int) -> float:
    """dcov^2(x, y[perm]) = sum_kl A_kl |y_perm(k) - y_perm(l)| / n^2, in blocks of ``rows`` rows."""
    yp, n = y[perm], a.n
    total = 0.0
    for i0 in range(0, n, rows):
        total += float(np.vdot(a._rows(i0, i0 + rows), cdist(yp[i0:i0 + rows], yp)))
    if np.isnan(total):
        raise DataQualityError("a permutation replicate of dcov^2 came out NaN")
    return max(total / (n * n), 0.0)


def permutation_test(x, y, replicates: int, seed: int) -> TestResult:
    """Independence test: permute y's rows, recompute dcov^2, count exceedances.

    x and y are samples or their CenteredMatrix objects from ``_scaled``.  The
    memory budget covers x's A and one block of y's (scaled) distances; an A
    that does not fit next to that block streams or takes the sorted form.
    The observed statistic is the identity's replicate, so ties compare equal.

    p-value uses the add-one formula (1 + #{perm >= observed}) / (1 + B),
    so it is never exactly 0; ties count as exceedances (conservative).
    """
    ys, ey = (y.sample, y.scale) if isinstance(y, CenteredMatrix) else _unit(as_sample(y))
    if ys.n < 2:
        raise DataQualityError("permutation test requires at least 2 observations")
    if replicates < 1:
        raise DataQualityError("permutation test requires at least 1 replicate")
    rows = min(ys.n, STREAM_BLOCK_ROWS, max(1, rows_that_fit(ys.n, DEFAULT_MEMORY_BUDGET // 2)))
    a = _scaled(x, DEFAULT_MEMORY_BUDGET - 8 * ys.n * rows)
    n = check_same_n(a, ys)
    observed = _permuted_dcov_sq(a, ys.data, np.arange(n), rows)
    exceed = _exceedances(
        lambda perm: _permuted_dcov_sq(a, ys.data, perm, rows), observed, n, replicates, seed
    )
    return TestResult(statistic=_unscaled(observed, a.scale + ey), replicates=replicates,
                      exceed_count=exceed, p_value=(1 + exceed) / (1 + replicates), seed=seed)


def _pearson_permutation_pvalue(xv: np.ndarray, yv: np.ndarray, replicates: int, seed: int) -> float:
    """Permutation test on |pearson| for the power comparison."""
    n = xv.shape[0]
    # scaled as in pearson, so that a tiny spread cannot square to 0
    xs, ys = as_sample(xv), as_sample(yv)
    xd, yd = xs.deviations[0], ys.deviations[0]
    sx, sy = xs.deviation_norm, ys.deviation_norm
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
