"""Permutation test of independence and a power-comparison harness.

The test statistic is the squared distance covariance rather than the
distance correlation: the correlation's denominators are permutation
invariant, so both statistics induce the same p-value, and the covariance
avoids the degenerate-denominator branch entirely.

x's centered matrix A has rows and columns that sum to zero, so sum(A * B^perm) =
sum_kl A_kl |y_perm(k) - y_perm(l)|.  So a replicate is A's ``_shift_sum``, the
loop that ``inner`` takes, against y[perm]'s distances at the same shifts from
shift 1 (shift 0's are 0), in blocks of ``core.block_rows``.  y's permuted
rows are written once per replicate into one buffer, joined to themselves,
that every block reads; a permutation keeps y's exponent e, so the buffer
holds y times 2^-e and the total is scaled by 2^e once, both exactly.  A's
layout (8 n (n//2 + 1) bytes) is built once when it fits the budget next to
one block, else rebuilt into a workspace block per block.

Determinism: every replicate b draws its permutation from a generator
seeded by (seed, b), so replicates can run in any order (or in parallel)
with identical results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import core
from .core import CenteredMatrix, _scaled, _unit, _unscaled, block_rows
from .errors import DataQualityError, UsageError
from .samples import _columns, _joined_distances, as_sample, check_same_n


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


def _workspace(rows: int, y: np.ndarray, a: CenteredMatrix) -> tuple:
    """What every replicate reads and writes, made once per test: (z, e, joined, out, tmp, block).

    y's ``_columns`` z (d, n) and e, the (d, 2n - 1) buffer for z[:, perm] joined to itself, and blocks of
    ``rows`` shifts: its distances, the kernel's temporary if y or A is multivariate, A's if not stored.
    """
    (n, dim), (z, e) = y.shape, _columns(y)
    out, tmp, block = (np.empty((rows, n)) if need else None
                       for need in (True, max(dim, a.sample.dim) > 1, a.shifts is None))
    return np.ascontiguousarray(z), e, np.empty((dim, 2 * n - 1)), out, tmp, block


def _permuted_dcov_sq(a: CenteredMatrix, y: np.ndarray, perm: np.ndarray, rows: int,
                      work: tuple | None = None) -> float:
    """dcov^2(x, y[perm]): A's ``_shift_sum`` against y[perm]'s distances from shift 1, in blocks of ``rows``.

    ``work`` is ``_workspace(rows, y, a)``.  A total that is NaN or, times 2^e, beyond float64's range raises.
    """
    n = len(perm)
    z, e, joined, out, tmp, block = _workspace(min(rows, n // 2 + 1), y, a) if work is None else work
    np.take(z, perm, axis=1, out=joined[:, :n], mode="clip")  # nothing to clip: "raise" would buffer out
    joined[:, n:] = joined[:, :n - 1]
    total = _unscaled(a._shift_sum(lambda s0, s1: _joined_distances(joined, s0, s1, out, tmp), rows, 1, block, tmp), e)
    if not math.isfinite(total):
        raise DataQualityError("a permutation replicate of dcov^2 came out NaN or beyond float64's range")
    return max(total / (n * n), 0.0)


def permutation_test(x, y, replicates: int, seed: int) -> TestResult:
    """Independence test: permute y's rows, recompute dcov^2, count exceedances.

    x and y are samples or their CenteredMatrix objects from ``_scaled``.
    ``core.DEFAULT_MEMORY_BUDGET`` covers A's shift layout and one block of
    ``block_rows(n, budget // 4)`` shifts of y's (scaled) distances with its
    temporary.  While the layout fits next to the block, a raw x is built
    stored and a form without its layout is laid out once; otherwise a raw x
    takes the form that is not stored.  The observed statistic is the
    identity's replicate, so ties compare equal.

    p-value uses the add-one formula (1 + #{perm >= observed}) / (1 + B),
    so it is never exactly 0; ties count as exceedances (conservative).
    """
    ys, ey = (y.sample, y.scale) if isinstance(y, CenteredMatrix) else _unit(as_sample(y))
    if ys.n < 2:
        raise DataQualityError("permutation test requires at least 2 observations")
    if replicates < 1:
        raise UsageError("permutation test requires at least 1 replicate")
    n, h = ys.n, ys.n // 2
    # a block of shifts of y's distances and its temporary take 16 n bytes per shift,
    # and a rebuilt block of A's shift layout as much: at most half of the budget each
    budget = core.DEFAULT_MEMORY_BUDGET
    rows = block_rows(n, budget // 4)
    left = budget - 16 * n * rows
    keep = 8 * n * (h + 1) <= left  # x's layout fits next to y's block: built once, and kept
    xs = x if isinstance(x, CenteredMatrix) else as_sample(x)
    check_same_n(xs, ys)  # before x's layout is built at y's size
    a = _scaled(xs, None if keep else left)
    if keep and a.shifts is None:  # a form that arrives without its layout: laid out from its row means
        a = replace(a, shifts=core._centered_shifts(a, 0, h + 1))
    work = _workspace(rows, ys.data, a)
    observed = _permuted_dcov_sq(a, ys.data, np.arange(n), rows, work)
    exceed = _exceedances(
        lambda perm: _permuted_dcov_sq(a, ys.data, perm, rows, work), observed, n, replicates, seed
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
    x = rng.uniform(-1.0, 1.0, size=n)  # "quadratic": power_simulation has rejected any other name
    return x, x * x


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
        raise UsageError(f"alpha must be in (0, 1), got {alpha}")
    if trials < 1 or n < 2 or replicates < 1:
        raise UsageError("trials, replicates must be >= 1 and n >= 2")
    if scenario not in SCENARIOS:
        raise UsageError(f"unknown scenario {scenario!r}; known: {', '.join(SCENARIOS)}")

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
